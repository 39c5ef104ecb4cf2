//! Non-blocking framed I/O state machines (DESIGN.md §14).
//!
//! The reactor ([`crate::tcp`]) and the worker fleet host
//! ([`crate::fleet`]) own many sockets on one thread, so neither can
//! block inside a frame. The two state machines here carry a frame
//! across any number of partial reads/writes:
//!
//! * `FrameReadState` — accumulates the 10-byte GFWP header, then the
//!   payload into a caller-owned (leased) buffer; `poll` returns
//!   `Ok(None)` on `WouldBlock` and `Ok(Some((kind, frame_len)))` when
//!   a frame completes.
//! * `FrameWriteState` — a cursor over an already-encoded frame;
//!   `poll` returns `Ok(false)` on `WouldBlock` and `Ok(true)` when the
//!   frame is fully flushed to the socket.
//!
//! Neither host keeps a buffer per connection: a frame's bytes live in a
//! lease from the host's `FramePool`, taken when the frame starts
//! moving and returned when it has been decoded (reads) or flushed
//! (writes) — buffers held follow frames in flight, not sockets open.
//!
//! `FrameReadState` is also the blocking reader: `crate::wire::read_raw_frame`
//! runs it to a complete frame, so every frame read — polled or blocking —
//! splits EOF one way: a clean close **between** frames is
//! `WireError::Io(UnexpectedEof)`, a close **inside** a frame is
//! [`WireError::DisconnectedMidFrame`] — the distinction that drives
//! reconnect/backoff policy.

use std::io::{Read, Write};

use goldfish_telemetry::registry::Gauge;

use crate::wire::{decode_header, FrameLimits, WireError, HEADER_LEN};

/// Idle buffers a [`FramePool`] keeps for the next lease; a burst's
/// surplus goes back to the allocator.
const MAX_IDLE_FRAMES: usize = 4;

/// The frame buffers of one reactor or fleet host, leased per in-flight
/// frame. A lease is a plain `Vec<u8>` (whatever length and bytes its
/// last frame left — [`FrameReadState::poll`] and the `encode_*_into`
/// functions size and overwrite it), so the steady state re-uses a
/// handful of allocations however many connections are registered. A
/// reply whose state decodes as it arrives holds a `Vec<f32>` state
/// lease instead of a frame; both count as one buffer in flight.
#[derive(Debug, Default)]
pub(crate) struct FramePool {
    idle: Vec<Vec<u8>>,
    idle_states: Vec<Vec<f32>>,
    /// Buffers currently leased.
    leased: Gauge,
    /// The most buffers ever leased at once.
    high_water: Gauge,
}

impl FramePool {
    /// An empty pool with detached gauges.
    pub(crate) fn new() -> FramePool {
        FramePool::default()
    }

    /// Joins a shared metric catalog: the current readings move into
    /// the registered gauges, which this pool updates from here on.
    pub(crate) fn attach(&mut self, leased: &Gauge, high_water: &Gauge) {
        leased.set(self.leased.get());
        high_water.set_max(self.high_water.get());
        self.leased = leased.clone();
        self.high_water = high_water.clone();
    }

    /// The most buffers ever leased at once.
    pub(crate) fn high_water(&self) -> usize {
        self.high_water.get().max(0) as usize
    }

    /// Takes a buffer for one frame.
    pub(crate) fn lease(&mut self) -> Vec<u8> {
        self.leased.add(1);
        self.high_water.set_max(self.leased.get());
        self.idle.pop().unwrap_or_default()
    }

    /// Returns a leased buffer once its frame is decoded or flushed (or
    /// its connection failed).
    pub(crate) fn release(&mut self, buf: Vec<u8>) {
        self.leased.add(-1);
        if self.idle.len() < MAX_IDLE_FRAMES {
            self.idle.push(buf);
        }
    }

    /// Takes a state buffer for one reply decoding as it arrives.
    pub(crate) fn lease_state(&mut self) -> Vec<f32> {
        self.leased.add(1);
        self.high_water.set_max(self.leased.get());
        self.idle_states.pop().unwrap_or_default()
    }

    /// Returns a leased state buffer once its reply is handled (or its
    /// connection failed).
    pub(crate) fn release_state(&mut self, buf: Vec<f32>) {
        self.leased.add(-1);
        if self.idle_states.len() < MAX_IDLE_FRAMES {
            self.idle_states.push(buf);
        }
    }
}

/// Incremental reader of one length-prefixed frame.
#[derive(Debug)]
pub(crate) struct FrameReadState {
    header: [u8; HEADER_LEN],
    /// Bytes of the header received so far.
    filled: usize,
    /// Decoded `(kind, payload_len)` once the header is complete.
    decoded: Option<(u8, usize)>,
    /// Payload bytes received so far.
    payload_filled: usize,
}

impl FrameReadState {
    /// An empty reader, ready for a frame's first byte.
    pub(crate) fn new() -> FrameReadState {
        FrameReadState {
            header: [0u8; HEADER_LEN],
            filled: 0,
            decoded: None,
            payload_filled: 0,
        }
    }

    /// Forgets any partial frame (connection reuse across fan-outs).
    pub(crate) fn reset(&mut self) {
        self.filled = 0;
        self.decoded = None;
        self.payload_filled = 0;
    }

    /// Whether any bytes of the current frame have arrived — what turns
    /// a subsequent EOF into [`WireError::DisconnectedMidFrame`].
    pub(crate) fn mid_frame(&self) -> bool {
        self.filled > 0
    }

    /// Advances the frame as far as `r` allows without blocking. The
    /// payload goes to `buf` as it arrives ([`PayloadSink`]; a `Vec<u8>`
    /// is resized on header completion, reusing capacity). A payload is
    /// never longer than `limits` allows, which callers tighten to what
    /// the protocol state expects. Returns `Ok(Some((kind, frame_len)))`
    /// when the frame is complete — the state resets itself for the next
    /// frame — or `Ok(None)` when `r` would block.
    ///
    /// # Errors
    ///
    /// Header/limit violations from [`decode_header`], a payload the sink
    /// refuses, I/O errors, and the EOF split described at module level.
    pub(crate) fn poll(
        &mut self,
        r: &mut impl Read,
        buf: &mut impl PayloadSink,
        limits: &FrameLimits,
    ) -> Result<Option<(u8, usize)>, WireError> {
        loop {
            if self.decoded.is_none() {
                // Header phase: byte-counted so a close at offset 0
                // stays distinguishable from a mid-header close.
                match r.read(&mut self.header[self.filled..]) {
                    Ok(0) => {
                        return Err(if self.filled == 0 {
                            WireError::Io {
                                kind: std::io::ErrorKind::UnexpectedEof,
                                detail: "clean eof before frame".into(),
                            }
                        } else {
                            WireError::DisconnectedMidFrame {
                                got: self.filled,
                                want: HEADER_LEN,
                            }
                        });
                    }
                    Ok(n) => {
                        self.filled += n;
                        if self.filled < HEADER_LEN {
                            continue;
                        }
                        let (kind, len) = decode_header(&self.header, limits)?;
                        self.decoded = Some((kind, len));
                        self.payload_filled = 0;
                        buf.begin(kind, len)?;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(None),
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e.into()),
                }
                continue;
            }
            let Some((kind, len)) = self.decoded else {
                continue;
            };
            if self.payload_filled == len {
                self.reset();
                return Ok(Some((kind, HEADER_LEN + len)));
            }
            let room = buf.room(self.payload_filled);
            let take = room.len().min(len - self.payload_filled);
            match r.read(&mut room[..take]) {
                Ok(0) => {
                    return Err(WireError::DisconnectedMidFrame {
                        got: HEADER_LEN + self.payload_filled,
                        want: HEADER_LEN + len,
                    });
                }
                Ok(n) => {
                    buf.took(n)?;
                    self.payload_filled += n;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }
}

impl Default for FrameReadState {
    fn default() -> FrameReadState {
        FrameReadState::new()
    }
}

/// Where [`FrameReadState::poll`] puts a frame's payload as its bytes
/// arrive. A `Vec<u8>` takes the payload whole; a streaming decoder
/// takes it piecewise and keeps only what it decodes.
pub(crate) trait PayloadSink {
    /// The header is complete: `len` payload bytes of `kind` follow.
    ///
    /// # Errors
    ///
    /// A payload this sink cannot take.
    fn begin(&mut self, kind: u8, len: usize) -> Result<(), WireError>;

    /// Where the payload bytes from offset `filled` on go (`filled <
    /// len`); must not be empty. A read fills a prefix of it.
    fn room(&mut self, filled: usize) -> &mut [u8];

    /// The last read put `n` bytes at the start of
    /// [`PayloadSink::room`].
    ///
    /// # Errors
    ///
    /// Payload bytes the sink cannot decode.
    fn took(&mut self, n: usize) -> Result<(), WireError>;
}

impl PayloadSink for Vec<u8> {
    fn begin(&mut self, _kind: u8, len: usize) -> Result<(), WireError> {
        // No clear first: the frame only surfaces once all `len` bytes
        // are overwritten, so a reused buffer is not zero-filled again.
        self.resize(len, 0);
        Ok(())
    }

    fn room(&mut self, filled: usize) -> &mut [u8] {
        &mut self[filled..]
    }

    fn took(&mut self, _n: usize) -> Result<(), WireError> {
        Ok(())
    }
}

/// Incremental writer of one already-encoded frame.
#[derive(Debug)]
pub(crate) struct FrameWriteState {
    pos: usize,
}

impl FrameWriteState {
    /// A writer at the start of a frame.
    pub(crate) fn new() -> FrameWriteState {
        FrameWriteState { pos: 0 }
    }

    /// Rewinds to the start of (the next) frame.
    pub(crate) fn reset(&mut self) {
        self.pos = 0;
    }

    /// Bytes of the current frame already written.
    #[cfg(test)]
    pub(crate) fn written(&self) -> usize {
        self.pos
    }

    /// Writes as much of `frame` as `w` accepts without blocking.
    /// Returns `Ok(true)` when the frame is fully written (the cursor
    /// resets for the next frame), `Ok(false)` when `w` would block.
    ///
    /// # Errors
    ///
    /// I/O failures; a writer accepting zero bytes is reported as
    /// [`std::io::ErrorKind::WriteZero`].
    pub(crate) fn poll(&mut self, w: &mut impl Write, frame: &[u8]) -> Result<bool, WireError> {
        while self.pos < frame.len() {
            match w.write(&frame[self.pos..]) {
                Ok(0) => {
                    return Err(WireError::Io {
                        kind: std::io::ErrorKind::WriteZero,
                        detail: "socket accepted zero bytes".into(),
                    });
                }
                Ok(n) => self.pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        self.pos = 0;
        Ok(true)
    }
}

impl Default for FrameWriteState {
    fn default() -> FrameWriteState {
        FrameWriteState::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{encode_frame, Msg};

    /// A reader delivering its bytes in scripted chunk sizes with
    /// `WouldBlock` between chunks — the worst-case interleaving a
    /// non-blocking socket can produce.
    struct Trickle {
        data: Vec<u8>,
        pos: usize,
        chunk: usize,
        /// Alternates ready/would-block to exercise the re-poll path.
        parity: bool,
    }

    impl std::io::Read for Trickle {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            self.parity = !self.parity;
            if self.parity {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            let n = self.chunk.min(self.data.len() - self.pos).min(out.len());
            if n == 0 {
                return Ok(0);
            }
            out[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn read_reassembles_across_arbitrary_chunking() {
        let limits = FrameLimits::default();
        let msg = Msg::Err {
            code: 7,
            detail: "split me into tiny pieces".into(),
        };
        let frame = encode_frame(&msg, &limits).unwrap();
        for chunk in [1, 2, 3, 7, frame.len()] {
            let mut r = Trickle {
                data: frame.clone(),
                pos: 0,
                chunk,
                parity: false,
            };
            let mut st = FrameReadState::new();
            let mut buf = Vec::new();
            let done = loop {
                match st.poll(&mut r, &mut buf, &limits).unwrap() {
                    Some(done) => break done,
                    None => continue,
                }
            };
            assert_eq!(done.1, frame.len());
            let decoded = crate::wire::decode_msg(done.0, &buf).unwrap();
            assert!(matches!(decoded, Msg::Err { code: 7, .. }), "chunk {chunk}");
        }
    }

    #[test]
    fn pool_counts_leases_and_keeps_few_idle_buffers() {
        let mut pool = FramePool::new();
        let mut held: Vec<Vec<u8>> = (0..6).map(|_| pool.lease()).collect();
        assert_eq!((pool.leased.get(), pool.high_water()), (6, 6));
        for buf in &mut held {
            buf.resize(32, 7);
        }
        // Joining a catalog mid-flight carries the readings over.
        let (leased, high_water) = (Gauge::detached(), Gauge::detached());
        pool.attach(&leased, &high_water);
        assert_eq!((leased.get(), high_water.get()), (6, 6));
        for buf in held {
            pool.release(buf);
        }
        assert_eq!((leased.get(), high_water.get()), (0, 6));
        assert_eq!(
            pool.idle.len(),
            MAX_IDLE_FRAMES,
            "a burst's surplus is freed"
        );
        // A reused lease keeps its capacity (and stale bytes: readers
        // overwrite before surfacing a frame).
        assert_eq!(pool.lease().len(), 32);
        assert_eq!(leased.get(), 1);
    }

    #[test]
    fn read_never_sizes_a_buffer_past_the_phase_limit() {
        let frame = encode_frame(
            &Msg::Err {
                code: 1,
                detail: "x".repeat(100),
            },
            &FrameLimits::default(),
        )
        .unwrap();
        let mut st = FrameReadState::new();
        let mut buf = Vec::new();
        let tight = FrameLimits::default().at_most(64);
        let err = st
            .poll(&mut frame.as_slice(), &mut buf, &tight)
            .unwrap_err();
        assert!(matches!(err, WireError::FrameTooLarge { max: 64, .. }));
        assert!(buf.is_empty(), "nothing was sized for the refused frame");
        // `at_most` only ever tightens.
        assert_eq!(tight.at_most(1 << 30), tight);
    }

    #[test]
    fn eof_split_clean_vs_mid_frame() {
        let limits = FrameLimits::default();
        let frame = encode_frame(&Msg::Ack, &limits).unwrap();

        // Clean EOF before any byte.
        let mut st = FrameReadState::new();
        let mut buf = Vec::new();
        let mut empty: &[u8] = &[];
        let err = st.poll(&mut empty, &mut buf, &limits).unwrap_err();
        assert!(matches!(
            err,
            WireError::Io {
                kind: std::io::ErrorKind::UnexpectedEof,
                ..
            }
        ));

        // EOF after a partial header: the peer died mid-frame.
        let mut st = FrameReadState::new();
        let mut partial: &[u8] = &frame[..4];
        // First poll consumes the 4 bytes then hits EOF inside the
        // header.
        let err = st.poll(&mut partial, &mut buf, &limits).unwrap_err();
        assert!(matches!(
            err,
            WireError::DisconnectedMidFrame { got: 4, .. }
        ));
    }

    #[test]
    fn write_resumes_after_would_block() {
        struct OneByte {
            out: Vec<u8>,
            parity: bool,
        }
        impl std::io::Write for OneByte {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                self.parity = !self.parity;
                if self.parity {
                    return Err(std::io::ErrorKind::WouldBlock.into());
                }
                self.out.push(data[0]);
                Ok(1)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let limits = FrameLimits::default();
        let frame = encode_frame(&Msg::Shutdown, &limits).unwrap();
        let mut w = OneByte {
            out: Vec::new(),
            parity: false,
        };
        let mut st = FrameWriteState::new();
        let mut polls = 0;
        while !st.poll(&mut w, &frame).unwrap() {
            polls += 1;
            assert!(polls < 10_000, "writer wedged");
        }
        assert_eq!(w.out, frame);
        assert_eq!(st.written(), 0); // cursor reset for the next frame
    }
}
