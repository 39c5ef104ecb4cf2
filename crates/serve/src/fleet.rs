//! Single-threaded worker **fleet host** (DESIGN.md §14).
//!
//! The high-fanout benchmarks register thousands of workers; a thread
//! per [`crate::worker::WorkerRuntime`] would exhaust any test box long
//! before the coordinator's reactor breaks a sweat. [`run_fleet`] hosts
//! an arbitrary number of worker runtimes on **one** thread: each
//! connects and handshakes in turn (the coordinator's accept loop
//! multiplexes, so sequential dialing cannot deadlock it), then all
//! sockets go non-blocking onto a private [`polling::Poller`] and a
//! small per-connection state machine answers assignments as they
//! arrive:
//!
//! ```text
//! Read ──frame──► WorkerRuntime::answer ──reply──► Write ──flushed──► Read
//!   │                                                │
//!   └── Shutdown / EOF → retire            fatal Err → flush, retire
//! ```
//!
//! `answer` is the worker's only entry point, the one a worker daemon's
//! [`crate::worker::serve_stream`] runs too, and its compute is the
//! library's own `TrainLane` run / `ClientDistiller::round`, so a
//! fleet-hosted federation — its deletions' distillation rounds included
//! — stays bitwise identical to a daemon-per-worker one; only the socket
//! plumbing is shared.
//!
//! What the host keeps resident follows what its one thread is doing,
//! not how many workers it hosts: **one** [`TrainLane`] lent to
//! whichever runtime is answering (a lane carries capacity, never
//! state; its network, built once for workers that share a factory, also
//! answers every handshake's model size), and frame buffers leased from
//! one `FramePool` — a read buffer from a frame's first byte until the
//! reply is written, a write buffer from then until the reply is flushed.
//! A training assignment's floats go from the read buffer into the lane's
//! network and from the network into the write buffer, so no state
//! vector is held beside them (a distillation round's global is decoded
//! once, into a buffer its unlearning request keeps). A connection between frames holds a
//! socket and two cursors.

use std::net::TcpStream;
use std::os::fd::AsRawFd;

use goldfish_fed::trainer::TrainLane;
use polling::{Event, Events, Poller};

use crate::nio::{FramePool, FrameReadState, FrameWriteState};
use crate::wire::{read_frame, write_frame, FrameLimits, WireError};
use crate::worker::{check_capabilities, Answer, WorkerRuntime};

/// How a fleet run ended, per connection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetReport {
    /// Workers retired by a coordinator `Shutdown` frame.
    pub clean_shutdowns: usize,
    /// Workers retired by a disconnect, an I/O failure, or a fatal
    /// protocol reply (expected in tests that drop stragglers).
    pub dropped: usize,
    /// Total frame bytes the fleet wrote (handshakes + replies) — the
    /// worker-side mirror of the coordinator's
    /// `goldfish_wire_received_bytes_total`.
    pub bytes_sent: u64,
    /// Total frame bytes the fleet read (verdicts + assignments).
    pub bytes_received: u64,
    /// The most frame buffers the host held at once (assignments being
    /// read plus replies being flushed) — bounded by frames in flight,
    /// not by workers hosted.
    pub peak_frame_buffers: usize,
}

/// What one fleet connection is doing between readiness events.
enum Phase {
    /// Awaiting the next coordinator frame; `Some` once its first
    /// readable event leased a buffer.
    Read(Option<Vec<u8>>),
    /// Flushing the reply encoded in `frame`; `fatal` retires the
    /// connection once flushed (the reply was a protocol `Err`).
    Write { frame: Vec<u8>, fatal: bool },
}

struct FleetConn {
    stream: TcpStream,
    rd: FrameReadState,
    wr: FrameWriteState,
    phase: Phase,
}

/// How the event handler left one connection.
enum Outcome {
    /// Re-armed in the poller; nothing to do.
    Parked,
    /// Done (cleanly or not): deregister, close, tally.
    Retire { clean: bool },
}

/// Connects every runtime to `addr`, performs its
/// `Hello`/`Capabilities` handshake, then serves all of them from this
/// one thread until each is retired by `Shutdown` or disconnect.
/// Returns how the fleet wound down.
///
/// # Errors
///
/// [`WireError`] on a handshake failure (a coordinator that rejects any
/// fleet member at dial time) or a poller failure; per-connection I/O
/// failures after the handshake are counted as drops, not errors.
pub fn run_fleet(
    addr: &str,
    runtimes: &mut [WorkerRuntime],
    limits: &FrameLimits,
) -> Result<FleetReport, WireError> {
    polling::raise_nofile_limit().ok();
    let poller = Poller::new()?;
    let mut events = Events::new();
    let mut conns: Vec<Option<FleetConn>> = Vec::with_capacity(runtimes.len());
    let mut report = FleetReport::default();
    // The host's one lane: its network answers every handshake's model
    // size, then trains for whichever runtime is answering.
    let mut lane = TrainLane::new();
    for runtime in runtimes.iter_mut() {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        report.bytes_sent += write_frame(&mut stream, &runtime.hello(&mut lane), limits)? as u64;
        let (reply, nbytes) = read_frame(&mut stream, limits)?;
        report.bytes_received += nbytes as u64;
        check_capabilities(&reply, runtime, &mut lane)?;
        stream.set_nonblocking(true)?;
        let key = conns.len();
        poller.add(stream.as_raw_fd(), Event::readable(key))?;
        conns.push(Some(FleetConn {
            stream,
            rd: FrameReadState::new(),
            wr: FrameWriteState::new(),
            phase: Phase::Read(None),
        }));
    }
    let mut frames = FramePool::new();
    let mut live = conns.len();
    while live > 0 {
        poller.wait(&mut events, None)?;
        for ev in events.iter() {
            let idx = ev.key;
            let Some(slot) = conns.get_mut(idx) else {
                continue;
            };
            let outcome = 'conn: {
                let Some(conn) = slot.as_mut() else {
                    break 'conn Outcome::Parked;
                };
                // Drive the state machine until it parks (WouldBlock)
                // or retires; a reply usually flushes in the same
                // readiness event that delivered its assignment.
                loop {
                    match &mut conn.phase {
                        Phase::Read(rbuf) => {
                            let buf = rbuf.get_or_insert_with(|| frames.lease());
                            match conn.rd.poll(&mut conn.stream, buf, limits) {
                                Ok(None) => {
                                    if poller
                                        .modify(conn.stream.as_raw_fd(), Event::readable(idx))
                                        .is_err()
                                    {
                                        break 'conn Outcome::Retire { clean: false };
                                    }
                                    break 'conn Outcome::Parked;
                                }
                                Err(_) => break 'conn Outcome::Retire { clean: false },
                                Ok(Some((kind, nbytes))) => {
                                    report.bytes_received += nbytes as u64;
                                    let Some(runtime) = runtimes.get_mut(idx) else {
                                        break 'conn Outcome::Retire { clean: false };
                                    };
                                    let mut frame = frames.lease();
                                    let answered =
                                        runtime.answer(kind, buf, &mut lane, &mut frame, limits);
                                    // The reply is written: the read lease
                                    // ends here.
                                    if let Some(buf) = rbuf.take() {
                                        frames.release(buf);
                                    }
                                    let fatal = match answered {
                                        Ok(Answer::Reply) => false,
                                        Ok(Answer::Refuse(_)) => true,
                                        Ok(Answer::Shutdown) => {
                                            frames.release(frame);
                                            break 'conn Outcome::Retire { clean: true };
                                        }
                                        Err(_) => {
                                            frames.release(frame);
                                            break 'conn Outcome::Retire { clean: false };
                                        }
                                    };
                                    conn.wr.reset();
                                    conn.phase = Phase::Write { frame, fatal };
                                }
                            }
                        }
                        Phase::Write { frame, fatal } => {
                            match conn.wr.poll(&mut conn.stream, frame) {
                                Ok(false) => {
                                    if poller
                                        .modify(conn.stream.as_raw_fd(), Event::writable(idx))
                                        .is_err()
                                    {
                                        break 'conn Outcome::Retire { clean: false };
                                    }
                                    break 'conn Outcome::Parked;
                                }
                                Err(_) => break 'conn Outcome::Retire { clean: false },
                                Ok(true) => {
                                    report.bytes_sent += frame.len() as u64;
                                    let fatal = *fatal;
                                    let flushed =
                                        std::mem::replace(&mut conn.phase, Phase::Read(None));
                                    if let Phase::Write { frame, .. } = flushed {
                                        frames.release(frame);
                                    }
                                    if fatal {
                                        break 'conn Outcome::Retire { clean: false };
                                    }
                                    conn.rd.reset();
                                    // Level-triggered re-arm: a frame
                                    // already buffered fires instantly.
                                    if poller
                                        .modify(conn.stream.as_raw_fd(), Event::readable(idx))
                                        .is_err()
                                    {
                                        break 'conn Outcome::Retire { clean: false };
                                    }
                                    break 'conn Outcome::Parked;
                                }
                            }
                        }
                    }
                }
            };
            if let Outcome::Retire { clean } = outcome {
                if let Some(conn) = slot.take() {
                    let _ = poller.delete(conn.stream.as_raw_fd());
                    // A connection retired mid-frame gives its lease back.
                    match conn.phase {
                        Phase::Read(Some(buf)) | Phase::Write { frame: buf, .. } => {
                            frames.release(buf)
                        }
                        Phase::Read(None) => {}
                    }
                    live -= 1;
                    if clean {
                        report.clean_shutdowns += 1;
                    } else {
                        report.dropped += 1;
                    }
                }
            }
        }
    }
    report.peak_frame_buffers = frames.high_water();
    Ok(report)
}
