//! The read-only admin endpoint (`--metrics-addr`): a tiny HTTP/1.0
//! server on its own thread serving the telemetry registry.
//!
//! Routes:
//!
//! * `GET /metrics` (or `/`) — Prometheus text exposition,
//! * `GET /json` — the JSON snapshot (uptime, counters, gauges,
//!   histogram buckets),
//! * `GET /status` — the human-readable table
//!   (`goldfish-coordinator --status` fetches this).
//!
//! The server only ever *reads* atomics from the shared
//! [`ServeTelemetry`]; it holds no lock the round loop takes, so a
//! mid-round scrape can never perturb training (rule 2 of the
//! telemetry contract). Connections are served serially with short
//! socket timeouts — this is an operator endpoint, not a web server.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::telemetry::ServeTelemetry;

/// How long the accept loop sleeps between polls of a quiet listener
/// (also bounds shutdown latency).
const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// Per-connection socket deadline for both the request read and the
/// response write.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// The admin endpoint's handle: dropping it (or calling
/// `AdminServer::shutdown`) stops the thread.
#[derive(Debug)]
pub struct AdminServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl AdminServer {
    /// Binds `addr` (e.g. `127.0.0.1:9800`; port `0` picks a free one)
    /// and starts the serving thread.
    ///
    /// # Errors
    ///
    /// The bind error, verbatim.
    pub fn bind(addr: &str, telemetry: Arc<ServeTelemetry>) -> std::io::Result<AdminServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("goldfish-admin".into())
            .spawn(move || serve_loop(listener, telemetry, stop2))
            .expect("spawn admin thread");
        Ok(AdminServer {
            addr: local,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (resolves port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the serving thread and waits for it to exit.
    pub(crate) fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for AdminServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn serve_loop(listener: TcpListener, telemetry: Arc<ServeTelemetry>, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                // Serial service: an operator endpoint sees one scraper.
                let _ = serve_one(stream, &telemetry);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

fn serve_one(mut stream: TcpStream, telemetry: &ServeTelemetry) -> std::io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.set_nonblocking(false)?;
    // Read until the end of the request head (or the timeout); the
    // request line is all we route on.
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > 8192 {
            break;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => break,
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let path = head
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .unwrap_or("/");
    let (status, content_type, body) = match path {
        "/" | "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            telemetry.prometheus_text(),
        ),
        "/json" => ("200 OK", "application/json", telemetry.json_snapshot()),
        "/status" => (
            "200 OK",
            "text/plain; charset=utf-8",
            telemetry.status_table(),
        ),
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            format!("no such route: {path}\n"),
        ),
    };
    write!(
        stream,
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// One-shot client: fetches `path` from a running admin endpoint and
/// returns the response body (`goldfish-coordinator --status`, tests,
/// CI scrapes).
///
/// # Errors
///
/// Connect/IO errors verbatim; a non-200 status surfaces as
/// [`std::io::ErrorKind::InvalidData`].
pub fn fetch(addr: impl ToSocketAddrs, path: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    write!(stream, "GET {path} HTTP/1.0\r\nHost: goldfish\r\n\r\n")?;
    stream.flush()?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let Some((head, body)) = response.split_once("\r\n\r\n") else {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "malformed admin response (no header terminator)",
        ));
    };
    let status = head.lines().next().unwrap_or("");
    if !status.contains(" 200 ") {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("admin endpoint returned {status:?}"),
        ));
    }
    Ok(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use goldfish_telemetry::clock::Clock;
    use goldfish_telemetry::events::Trace;

    #[test]
    fn serves_all_routes_and_404s_unknown() {
        let t = Arc::new(ServeTelemetry::new(Clock::manual(), Trace::disabled()));
        t.round.rounds_total.add(3);
        t.wire_sent_bytes.add(1234);
        let server = AdminServer::bind("127.0.0.1:0", Arc::clone(&t)).unwrap();
        let addr = server.local_addr();

        let metrics = fetch(addr, "/metrics").unwrap();
        assert!(metrics.contains("goldfish_rounds_total 3"));
        assert!(metrics.contains("goldfish_wire_sent_bytes_total 1234"));
        assert!(metrics.contains("# TYPE goldfish_round_seconds histogram"));

        let json = fetch(addr, "/json").unwrap();
        assert!(json.contains("\"goldfish_rounds_total\":3"));

        let status = fetch(addr, "/status").unwrap();
        assert!(status.contains("goldfish_rounds_total"));

        let err = fetch(addr, "/nope").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

        // Root serves the exposition too (scraper convenience).
        let root = fetch(addr, "/").unwrap();
        assert!(root.contains("goldfish_rounds_total 3"));
    }

    #[test]
    fn shutdown_is_idempotent_and_frees_the_port() {
        let t = ServeTelemetry::disabled();
        let mut server = AdminServer::bind("127.0.0.1:0", t).unwrap();
        let addr = server.local_addr();
        server.shutdown();
        server.shutdown();
        assert!(fetch(addr, "/metrics").is_err(), "listener is gone");
    }
}
