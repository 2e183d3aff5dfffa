//! Framed wire protocol and simulated transport for remote mechanisms.
//!
//! The paper's central axis is *where* the collection path runs: in-band
//! mechanisms read on the node they measure, out-of-band mechanisms cross
//! a management network. This module supplies the network half of that
//! axis: a compact length-prefixed binary [`Frame`], typed [`WireError`]s,
//! a [`LinkSpec`] describing a link's latency/bandwidth/fault personality,
//! and a [`SimTransport`] that charges serialize/flight/deserialize time
//! on the virtual clock and injects drops, corruption, and reordering
//! from order-independent [`NoiseStream`] draws (the same indexed-draw
//! discipline as [`crate::fault`], so one device's retransmissions never
//! shift another device's outcomes).
//!
//! Frame layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//!      0     2  magic (0xE5D7)
//!      2     1  version (1)
//!      3     1  kind (request/response opcode, owned by the caller)
//!      4     8  seq
//!     12     4  payload length
//!     16     n  payload
//!   16+n     4  FNV-1a-32 checksum over bytes [0, 16+n)
//! ```
//!
//! Everything here is deterministic: the same `(LinkSpec, key, t)` triple
//! reproduces the same fault pattern and the same virtual-time charges.
//!
//! The exchange path allocates nothing in steady state: [`Frame::write`]
//! encodes a frame straight into a buffer the caller reuses,
//! [`FrameRef`] parses one without copying its payload, and
//! [`SimTransport::round_trip`] has the server write its response into the
//! caller's buffer and keeps its corrupted-request copy in a buffer of its
//! own. [`Frame`] is the owned form, for building and comparing frames.

use crate::rng::{mix64, NoiseStream};
use crate::telemetry::LogHistogram;
use crate::time::{SimDuration, SimTime};
use std::fmt;

/// Protocol magic, first two bytes of every frame.
pub const WIRE_MAGIC: u16 = 0xE5D7;
/// Protocol version carried in byte 2.
pub const WIRE_VERSION: u8 = 1;
/// Fixed header size in bytes (magic + version + kind + seq + length).
pub const HEADER_LEN: usize = 16;
/// Trailer size in bytes (the checksum).
pub const TRAILER_LEN: usize = 4;
/// Upper bound on a frame's payload; larger lengths are rejected as
/// [`WireError::BadLength`] before any offset arithmetic can wrap.
pub const MAX_PAYLOAD: usize = 1 << 24;

/// Typed wire-level failure.
///
/// The remote-backend layer maps these onto the session's `ReadError`
/// taxonomy: [`WireError::Timeout`] becomes a retryable read timeout with
/// the same stall charge, everything else a transient decode failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes than a complete frame (or field) requires.
    Truncated,
    /// First two bytes are not [`WIRE_MAGIC`].
    BadMagic,
    /// Unsupported protocol version (the byte found).
    BadVersion(u8),
    /// Declared payload length exceeds [`MAX_PAYLOAD`] or disagrees with
    /// the buffer.
    BadLength,
    /// Checksum mismatch: the frame was corrupted in flight.
    BadChecksum,
    /// Structurally invalid payload (bad tag, bad UTF-8, …).
    Malformed(&'static str),
    /// Every attempt (original plus retransmissions) timed out.
    Timeout {
        /// Total virtual time spent waiting across all expired attempts.
        stalled: SimDuration,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::BadMagic => write!(f, "bad magic"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::BadLength => write!(f, "bad frame length"),
            WireError::BadChecksum => write!(f, "checksum mismatch"),
            WireError::Malformed(what) => write!(f, "malformed payload: {what}"),
            WireError::Timeout { stalled } => write!(f, "timed out after {stalled}"),
        }
    }
}

impl std::error::Error for WireError {}

/// FNV-1a-32 over a byte slice — the frame checksum.
#[inline]
pub fn fnv1a32(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811C_9DC5;
    for b in bytes {
        h ^= u32::from(*b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// One protocol frame: an opcode, a sequence number, and an opaque payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Request/response opcode. The wire layer does not interpret it.
    pub kind: u8,
    /// Sequence number echoed by responses.
    pub seq: u64,
    /// Opaque payload, at most [`MAX_PAYLOAD`] bytes.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Build a frame.
    pub fn new(kind: u8, seq: u64, payload: Vec<u8>) -> Self {
        Frame { kind, seq, payload }
    }

    /// Encode to bytes.
    ///
    /// # Panics
    /// Panics if the payload exceeds [`MAX_PAYLOAD`] (a caller bug, not a
    /// wire condition).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.payload.len() + TRAILER_LEN);
        Frame::write(&mut out, self.kind, self.seq, |w| {
            w.buf.extend_from_slice(&self.payload)
        });
        out
    }

    /// Encode a frame of `kind` and `seq` into `out`, replacing its
    /// contents but keeping its capacity: `payload` writes the payload,
    /// then the length is filled in and the checksum appended. The bytes
    /// are exactly [`Frame::encode`]'s for the same payload.
    ///
    /// # Panics
    /// Panics if the payload exceeds [`MAX_PAYLOAD`] (a caller bug, not a
    /// wire condition).
    pub fn write(out: &mut Vec<u8>, kind: u8, seq: u64, payload: impl FnOnce(&mut WireWriter)) {
        let mut w = WireWriter {
            buf: std::mem::take(out),
        };
        w.buf.clear();
        w.buf.extend_from_slice(&WIRE_MAGIC.to_le_bytes());
        w.buf.push(WIRE_VERSION);
        w.buf.push(kind);
        w.buf.extend_from_slice(&seq.to_le_bytes());
        w.buf.extend_from_slice(&[0; 4]);
        payload(&mut w);
        let len = w.buf.len() - HEADER_LEN;
        assert!(len <= MAX_PAYLOAD, "payload too large");
        w.buf[12..HEADER_LEN].copy_from_slice(&(len as u32).to_le_bytes());
        let sum = fnv1a32(&w.buf);
        w.buf.extend_from_slice(&sum.to_le_bytes());
        *out = w.buf;
    }

    /// Decode a buffer holding exactly one frame, copying its payload.
    /// Trailing bytes are a [`WireError::BadLength`]; use
    /// [`Frame::decode_prefix`] on streams.
    pub fn decode(bytes: &[u8]) -> Result<Frame, WireError> {
        FrameRef::decode(bytes).map(FrameRef::to_frame)
    }

    /// Decode one frame from the front of a stream, copying its payload,
    /// and return it with the number of bytes consumed.
    pub fn decode_prefix(bytes: &[u8]) -> Result<(Frame, usize), WireError> {
        FrameRef::decode_prefix(bytes).map(|(frame, used)| (frame.to_frame(), used))
    }
}

/// One decoded frame whose payload borrows the bytes it was parsed from:
/// reading a response costs no copy. [`Frame::decode`] and
/// [`Frame::decode_prefix`] are this parser plus a payload copy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameRef<'a> {
    /// Request/response opcode.
    pub kind: u8,
    /// Sequence number.
    pub seq: u64,
    /// The payload, borrowed from the parsed buffer.
    pub payload: &'a [u8],
}

impl<'a> FrameRef<'a> {
    /// Parse a buffer holding exactly one frame. Trailing bytes are a
    /// [`WireError::BadLength`]; use [`FrameRef::decode_prefix`] on
    /// streams.
    pub fn decode(bytes: &'a [u8]) -> Result<FrameRef<'a>, WireError> {
        let (frame, used) = FrameRef::decode_prefix(bytes)?;
        if used != bytes.len() {
            return Err(WireError::BadLength);
        }
        Ok(frame)
    }

    /// Parse one frame from the front of a stream, returning the frame and
    /// the number of bytes consumed.
    ///
    /// All offset arithmetic is checked: a corrupted length byte yields
    /// [`WireError::BadLength`] or [`WireError::Truncated`], never a wrapped
    /// slice index.
    pub fn decode_prefix(bytes: &'a [u8]) -> Result<(FrameRef<'a>, usize), WireError> {
        if bytes.len() < HEADER_LEN + TRAILER_LEN {
            return Err(WireError::Truncated);
        }
        let magic = u16::from_le_bytes([bytes[0], bytes[1]]);
        if magic != WIRE_MAGIC {
            return Err(WireError::BadMagic);
        }
        if bytes[2] != WIRE_VERSION {
            return Err(WireError::BadVersion(bytes[2]));
        }
        let kind = bytes[3];
        let seq = u64::from_le_bytes(bytes[4..12].try_into().expect("8-byte slice"));
        let payload_len = u32::from_le_bytes(bytes[12..16].try_into().expect("4-byte slice"));
        let payload_len = usize::try_from(payload_len).map_err(|_| WireError::BadLength)?;
        if payload_len > MAX_PAYLOAD {
            return Err(WireError::BadLength);
        }
        let total = HEADER_LEN
            .checked_add(payload_len)
            .and_then(|n| n.checked_add(TRAILER_LEN))
            .ok_or(WireError::BadLength)?;
        if bytes.len() < total {
            return Err(WireError::Truncated);
        }
        let body_end = HEADER_LEN + payload_len;
        let declared = u32::from_le_bytes(bytes[body_end..total].try_into().expect("4-byte slice"));
        if fnv1a32(&bytes[..body_end]) != declared {
            return Err(WireError::BadChecksum);
        }
        Ok((
            FrameRef {
                kind,
                seq,
                payload: &bytes[HEADER_LEN..body_end],
            },
            total,
        ))
    }

    /// The owned frame, its payload copied.
    pub fn to_frame(self) -> Frame {
        Frame::new(self.kind, self.seq, self.payload.to_vec())
    }
}

/// Little-endian payload writer used by the request/response codecs.
#[derive(Clone, Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// Start an empty payload.
    pub fn new() -> Self {
        WireWriter::default()
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its IEEE-754 bit pattern (exact round-trip).
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Append a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Append a length-prefixed byte slice.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(u32::try_from(v.len()).expect("slice length fits u32"));
        self.buf.extend_from_slice(v);
    }

    /// Append an optional `f64` as a presence tag plus bits.
    pub fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.f64(x);
            }
            None => self.u8(0),
        }
    }

    /// Finish and take the payload bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Little-endian payload reader; every accessor is bounds-checked and
/// returns [`WireError::Truncated`] / [`WireError::Malformed`] instead of
/// panicking on hostile input.
#[derive(Clone, Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Read from a payload slice.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::BadLength)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Read an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a bool; any byte other than 0/1 is malformed.
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed("bool tag")),
        }
    }

    /// Read a length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = usize::try_from(self.u32()?).map_err(|_| WireError::BadLength)?;
        self.take(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, WireError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| WireError::Malformed("utf-8 string"))
    }

    /// Read an optional `f64` written by [`WireWriter::opt_f64`].
    pub fn opt_f64(&mut self) -> Result<Option<f64>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.f64()?)),
            _ => Err(WireError::Malformed("option tag")),
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Error unless the whole payload was consumed (catches trailing junk).
    pub fn expect_end(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes"))
        }
    }
}

/// A link's personality: latency, per-byte costs, fault rates, and the
/// retransmission policy. `Copy`, deterministic, fully explicit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkSpec {
    /// One-way flight latency charged per leg.
    pub latency: SimDuration,
    /// Wire time per byte (inverse bandwidth), per leg.
    pub ns_per_byte: u64,
    /// Serialize/deserialize CPU time per byte, charged once each per leg.
    pub ser_ns_per_byte: u64,
    /// Probability a frame is lost in flight, per leg.
    pub drop: f64,
    /// Probability a frame is corrupted in flight, per leg.
    pub corrupt: f64,
    /// Probability a response is delayed by `reorder_delay` (reordering
    /// behind later traffic). Response leg only.
    pub reorder: f64,
    /// Extra delay a reordered response suffers.
    pub reorder_delay: SimDuration,
    /// How long the client waits for a response before retransmitting.
    pub timeout: SimDuration,
    /// Retransmissions after the first attempt (0 = single attempt).
    pub max_retrans: u32,
    /// Seed for the link's fault noise streams.
    pub seed: u64,
}

impl LinkSpec {
    /// The identity link: zero latency, zero per-byte cost, zero faults.
    /// A remote run over this link is byte-identical to a local run.
    pub fn ideal() -> Self {
        LinkSpec {
            latency: SimDuration::ZERO,
            ns_per_byte: 0,
            ser_ns_per_byte: 0,
            drop: 0.0,
            corrupt: 0.0,
            reorder: 0.0,
            reorder_delay: SimDuration::ZERO,
            timeout: SimDuration::from_millis(50),
            max_retrans: 2,
            seed: 0,
        }
    }

    /// A clean in-rack link: 50 µs flight, ~10 Gb/s wire, cheap codec.
    pub fn lan() -> Self {
        LinkSpec {
            latency: SimDuration::from_micros(50),
            ns_per_byte: 1,
            ser_ns_per_byte: 2,
            ..LinkSpec::ideal()
        }
    }

    /// An out-of-band management network: 1 ms flight, ~100 Mb/s wire —
    /// the service-processor Ethernet that BMC/EMON-style paths cross.
    pub fn mgmt() -> Self {
        LinkSpec {
            latency: SimDuration::from_millis(1),
            ns_per_byte: 80,
            ser_ns_per_byte: 4,
            ..LinkSpec::ideal()
        }
    }

    /// Same link with fault rates applied.
    pub fn with_faults(mut self, drop: f64, corrupt: f64, reorder: f64) -> Self {
        self.drop = drop;
        self.corrupt = corrupt;
        self.reorder = reorder;
        self
    }

    /// Same link with a different noise seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// True iff no fault process can fire (drops, corruption, reordering).
    pub fn is_clean(&self) -> bool {
        self.drop == 0.0 && self.corrupt == 0.0 && self.reorder == 0.0
    }

    /// Virtual time one leg costs for a frame of `bytes` bytes:
    /// serialize + flight + wire + deserialize. Integer nanoseconds, so
    /// identical inputs always charge identical time.
    pub fn leg_time(&self, bytes: usize) -> SimDuration {
        let b = bytes as u64;
        let per_byte = self
            .ns_per_byte
            .saturating_add(self.ser_ns_per_byte.saturating_mul(2))
            .saturating_mul(b);
        SimDuration::from_nanos(self.latency.as_nanos().saturating_add(per_byte))
    }

    /// Panics unless rates are probabilities and lossy links can time out —
    /// catching a spec that would hang forever.
    pub fn validate(&self) {
        for (name, p) in [
            ("drop", self.drop),
            ("corrupt", self.corrupt),
            ("reorder", self.reorder),
        ] {
            assert!(
                (0.0..=1.0).contains(&p) && p.is_finite(),
                "LinkSpec.{name} must be a probability, got {p}"
            );
        }
        if !self.is_clean() {
            assert!(
                !self.timeout.is_zero(),
                "lossy links need a nonzero timeout"
            );
        }
    }
}

/// Exact per-link transfer ledger, merged into telemetry at finalize.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LinkStats {
    /// Requests put on the wire (including retransmissions).
    pub tx: u64,
    /// Clean responses delivered.
    pub rx: u64,
    /// Attempts beyond the first for any request.
    pub retrans: u64,
    /// Timeout expirations (each charges the link timeout to the caller).
    pub timeouts: u64,
    /// Frames lost in flight (either leg).
    pub dropped: u64,
    /// Frames corrupted in flight (either leg).
    pub corrupted: u64,
    /// Reordered responses that arrived after the timeout budget.
    pub late: u64,
    /// Request bytes put on the wire.
    pub bytes_tx: u64,
    /// Response bytes delivered.
    pub bytes_rx: u64,
    /// Round-trip times of successful exchanges, log₂-bucketed.
    pub rtt: LogHistogram,
}

impl LinkStats {
    /// Counter view for the telemetry fold, mirroring `GateStats::kinds`.
    pub fn kinds(&self) -> [(&'static str, u64); 9] {
        [
            ("tx", self.tx),
            ("rx", self.rx),
            ("retrans", self.retrans),
            ("timeout", self.timeouts),
            ("dropped", self.dropped),
            ("corrupt", self.corrupted),
            ("late", self.late),
            ("bytes_tx", self.bytes_tx),
            ("bytes_rx", self.bytes_rx),
        ]
    }

    /// Fold another ledger into this one.
    pub fn merge(&mut self, other: &LinkStats) {
        self.tx += other.tx;
        self.rx += other.rx;
        self.retrans += other.retrans;
        self.timeouts += other.timeouts;
        self.dropped += other.dropped;
        self.corrupted += other.corrupted;
        self.late += other.late;
        self.bytes_tx += other.bytes_tx;
        self.bytes_rx += other.bytes_rx;
        self.rtt.merge(&other.rtt);
    }
}

/// The server half of one exchange: given the request's arrival time and
/// bytes, write the response into the buffer (replacing its contents) and
/// return the processing cost — or return `None` to silently drop a
/// malformed frame.
pub type ServeFn<'a> = dyn FnMut(SimTime, &[u8], &mut Vec<u8>) -> Option<SimDuration> + 'a;

/// A request/response transport on the virtual clock: a deterministic
/// simulated link.
///
/// Fault draws are indexed by `mix64(key, attempt·2 + leg)` on per-kind
/// child streams — the same order-independent discipline as
/// [`crate::fault::FaultProcess`], so injecting a timeout on one device
/// can never shift the draws any other device observes.
#[derive(Clone, Debug)]
pub struct SimTransport {
    spec: LinkSpec,
    drop: NoiseStream,
    corrupt: NoiseStream,
    reorder: NoiseStream,
    stats: LinkStats,
    /// The corrupted copy of a request that the server receives instead of
    /// the original; reused across exchanges.
    garbled: Vec<u8>,
}

/// Leg index for fault draws: request leg.
const LEG_REQ: u64 = 0;
/// Leg index for fault draws: response leg.
const LEG_RESP: u64 = 1;

impl SimTransport {
    /// Build a transport over `spec` (validated).
    pub fn new(spec: LinkSpec) -> Self {
        SimTransport::with_salt(spec, 0)
    }

    /// Build a transport whose noise streams are additionally salted —
    /// used to give every rank's link independent weather from one spec.
    pub fn with_salt(spec: LinkSpec, salt: u64) -> Self {
        spec.validate();
        let root = NoiseStream::new(mix64(spec.seed, salt));
        SimTransport {
            spec,
            drop: root.child("drop"),
            corrupt: root.child("corrupt"),
            reorder: root.child("reorder"),
            stats: LinkStats::default(),
            garbled: Vec::new(),
        }
    }

    /// `bytes` with one deterministic byte flipped (never a no-op), copied
    /// into the reused `garbled` buffer.
    fn corrupt_bytes(&mut self, k: u64, bytes: &[u8]) -> &[u8] {
        let out = &mut self.garbled;
        out.clear();
        out.extend_from_slice(bytes);
        if !out.is_empty() {
            let i = (self.corrupt.raw(k.wrapping_add(1)) % out.len() as u64) as usize;
            out[i] ^= 0xFF;
        }
        out
    }

    /// Execute one exchange starting at virtual time `t`. `key` must be
    /// unique per logical request (e.g. `mix64(t, request_index)`), so
    /// fault draws are order-independent across devices and retries.
    ///
    /// `serve` is the server side: it receives the request bytes at their
    /// virtual arrival time, writes its response into `response` and
    /// returns `Some(processing_time)`, or `None` if it discards the frame
    /// (e.g. a checksum failure after in-flight corruption). Returns the
    /// virtual completion time, with the delivered response in `response`,
    /// or [`WireError::Timeout`] once every attempt is exhausted (the
    /// buffer then holds whatever the last attempt left there).
    pub fn round_trip(
        &mut self,
        key: u64,
        t: SimTime,
        request: &[u8],
        response: &mut Vec<u8>,
        serve: &mut ServeFn<'_>,
    ) -> Result<SimTime, WireError> {
        let mut stalled = SimDuration::ZERO;
        let mut now = t;
        for attempt in 0..=u64::from(self.spec.max_retrans) {
            if attempt > 0 {
                self.stats.retrans += 1;
            }
            let k_req = mix64(key, attempt * 2 + LEG_REQ);
            let k_resp = mix64(key, attempt * 2 + LEG_RESP);
            self.stats.tx += 1;
            self.stats.bytes_tx += request.len() as u64;

            // Request leg: the frame can be lost or corrupted in flight.
            // A corrupted request still reaches the server, which rejects
            // it on checksum and stays silent — same outcome as a loss,
            // but the server-side validation is genuinely exercised.
            let lost_req = self.drop.uniform01(k_req) < self.spec.drop;
            let served = if lost_req {
                self.stats.dropped += 1;
                None
            } else {
                let t_arrive = now + self.spec.leg_time(request.len());
                let delivered = if self.corrupt.uniform01(k_req) < self.spec.corrupt {
                    self.stats.corrupted += 1;
                    self.corrupt_bytes(k_req, request)
                } else {
                    request
                };
                serve(t_arrive, delivered, response).map(|proc| (t_arrive, proc))
            };

            if let Some((t_arrive, proc)) = served {
                // Response leg.
                let lost_resp = self.drop.uniform01(k_resp) < self.spec.drop;
                let corrupt_resp = self.corrupt.uniform01(k_resp) < self.spec.corrupt;
                if lost_resp {
                    self.stats.dropped += 1;
                } else if corrupt_resp {
                    // The client sees the checksum fail and waits out the
                    // timeout like a loss.
                    self.stats.corrupted += 1;
                } else {
                    let mut t_done = t_arrive + proc + self.spec.leg_time(response.len());
                    if self.spec.reorder > 0.0 && self.reorder.uniform01(k_resp) < self.spec.reorder
                    {
                        let delayed = t_done + self.spec.reorder_delay;
                        if delayed.saturating_since(now) > self.spec.timeout {
                            // Arrived after the retransmission already
                            // fired; the original response is discarded.
                            self.stats.late += 1;
                            self.stats.timeouts += 1;
                            stalled += self.spec.timeout;
                            now += self.spec.timeout;
                            continue;
                        }
                        t_done = delayed;
                    }
                    self.stats.rx += 1;
                    self.stats.bytes_rx += response.len() as u64;
                    self.stats.rtt.record(t_done.saturating_since(t));
                    return Ok(t_done);
                }
            }

            // No (clean) response this attempt: wait out the timeout.
            self.stats.timeouts += 1;
            stalled += self.spec.timeout;
            now += self.spec.timeout;
        }
        Err(WireError::Timeout { stalled })
    }

    /// The link personality this transport charges.
    pub fn spec(&self) -> &LinkSpec {
        &self.spec
    }

    /// The exact transfer ledger so far.
    pub fn stats(&self) -> &LinkStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(kind: u8, seq: u64, payload: &[u8]) -> Frame {
        Frame::new(kind, seq, payload.to_vec())
    }

    #[test]
    fn frame_roundtrip() {
        for payload in [&b""[..], b"x", b"hello wire", &[0u8; 300]] {
            let f = frame(0x42, 7, payload);
            let bytes = f.encode();
            assert_eq!(bytes.len(), HEADER_LEN + payload.len() + TRAILER_LEN);
            assert_eq!(Frame::decode(&bytes).unwrap(), f);
        }
    }

    #[test]
    fn truncation_at_every_boundary() {
        let bytes = frame(1, 9, b"abc").encode();
        for n in 0..bytes.len() {
            let err = Frame::decode(&bytes[..n]).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated),
                "prefix of {n} gave {err:?}"
            );
        }
        // Exactly header+trailer with a declared 3-byte payload: truncated.
        assert_eq!(
            Frame::decode(&bytes[..HEADER_LEN + TRAILER_LEN]),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn corrupted_length_cannot_wrap() {
        let mut bytes = frame(1, 1, b"payload").encode();
        // Blow the length field up to u32::MAX: must reject cleanly.
        bytes[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(Frame::decode(&bytes), Err(WireError::BadLength));
        // A length one past the real payload: truncated, not mis-sliced.
        let mut bytes = frame(1, 1, b"payload").encode();
        bytes[12..16].copy_from_slice(&8u32.to_le_bytes());
        assert_eq!(Frame::decode(&bytes), Err(WireError::Truncated));
    }

    #[test]
    fn bad_magic_version_checksum() {
        let good = frame(1, 1, b"ok").encode();
        let mut b = good.clone();
        b[0] ^= 0xFF;
        assert_eq!(Frame::decode(&b), Err(WireError::BadMagic));
        let mut b = good.clone();
        b[2] = 9;
        assert_eq!(Frame::decode(&b), Err(WireError::BadVersion(9)));
        let mut b = good.clone();
        let last = b.len() - 1;
        b[last] ^= 0xFF;
        assert_eq!(Frame::decode(&b), Err(WireError::BadChecksum));
        // Flipping any payload byte must trip the checksum too.
        let mut b = good;
        b[HEADER_LEN] ^= 0x01;
        assert_eq!(Frame::decode(&b), Err(WireError::BadChecksum));
    }

    #[test]
    fn decode_prefix_consumes_one_frame() {
        let a = frame(1, 1, b"first").encode();
        let b = frame(2, 2, b"second").encode();
        let mut stream = a.clone();
        stream.extend_from_slice(&b);
        let (f1, used) = Frame::decode_prefix(&stream).unwrap();
        assert_eq!(f1.payload, b"first");
        assert_eq!(used, a.len());
        let (f2, used2) = Frame::decode_prefix(&stream[used..]).unwrap();
        assert_eq!(f2.payload, b"second");
        assert_eq!(used + used2, stream.len());
        // Exact decode rejects the concatenation.
        assert_eq!(Frame::decode(&stream), Err(WireError::BadLength));
    }

    #[test]
    fn borrowed_parse_and_buffer_write_match_the_owned_forms() {
        let f = frame(0x82, 41, b"reading");
        let bytes = f.encode();
        let view = FrameRef::decode(&bytes).unwrap();
        assert_eq!(
            (view.kind, view.seq, view.payload),
            (0x82, 41, &b"reading"[..])
        );
        assert_eq!(view.to_frame(), f);
        // Writing into a used buffer replaces its bytes and keeps its
        // allocation.
        let mut buf = vec![0xAA; 256];
        let cap = buf.capacity();
        Frame::write(&mut buf, 0x82, 41, |w| w.str("x"));
        let mut w = WireWriter::new();
        w.str("x");
        assert_eq!(buf, frame(0x82, 41, &w.finish()).encode());
        assert_eq!(buf.capacity(), cap);
    }

    #[test]
    fn writer_reader_roundtrip() {
        let mut w = WireWriter::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX);
        w.f64(-0.0);
        w.bool(true);
        w.str("environmental");
        w.opt_f64(Some(f64::MIN_POSITIVE));
        w.opt_f64(None);
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "environmental");
        assert_eq!(r.opt_f64().unwrap(), Some(f64::MIN_POSITIVE));
        assert_eq!(r.opt_f64().unwrap(), None);
        r.expect_end().unwrap();
    }

    #[test]
    fn reader_rejects_hostile_input() {
        let mut r = WireReader::new(&[2]);
        assert_eq!(r.bool(), Err(WireError::Malformed("bool tag")));
        let mut r = WireReader::new(&[0xFF, 0xFF, 0xFF, 0xFF, 1, 2]);
        assert!(matches!(
            r.bytes(),
            Err(WireError::Truncated | WireError::BadLength)
        ));
        let mut w = WireWriter::new();
        w.bytes(&[0xFF, 0xFE]);
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.str(), Err(WireError::Malformed("utf-8 string")));
    }

    fn echo_serve(proc_us: u64) -> impl FnMut(SimTime, &[u8], &mut Vec<u8>) -> Option<SimDuration> {
        move |_, req, out| {
            let f = FrameRef::decode(req).ok()?;
            Frame::write(out, f.kind, f.seq, |w| w.buf.extend_from_slice(f.payload));
            Some(SimDuration::from_micros(proc_us))
        }
    }

    #[test]
    fn ideal_link_charges_only_processing_time() {
        let mut tr = SimTransport::new(LinkSpec::ideal());
        let t = SimTime::from_secs(5);
        let req = frame(1, 1, b"ping").encode();
        let mut resp = Vec::new();
        let done = tr
            .round_trip(1, t, &req, &mut resp, &mut echo_serve(100))
            .expect("clean link");
        assert_eq!(done, t + SimDuration::from_micros(100));
        assert_eq!(resp, req);
        assert_eq!(tr.stats().tx, 1);
        assert_eq!(tr.stats().rx, 1);
        assert_eq!(tr.stats().timeouts, 0);
        assert_eq!(tr.stats().rtt.min(), Some(SimDuration::from_micros(100)));
    }

    #[test]
    fn latency_charges_exactly_two_legs() {
        let spec = LinkSpec {
            latency: SimDuration::from_millis(1),
            ns_per_byte: 10,
            ser_ns_per_byte: 5,
            ..LinkSpec::ideal()
        };
        let mut tr = SimTransport::new(spec);
        let t = SimTime::ZERO;
        let req = frame(1, 1, b"ping").encode();
        let mut resp = Vec::new();
        let done = tr
            .round_trip(9, t, &req, &mut resp, &mut echo_serve(0))
            .expect("clean link");
        let expect = spec.leg_time(req.len()) + spec.leg_time(resp.len());
        assert_eq!(done.saturating_since(t), expect);
        // 20 ns/byte effective + 1 ms flight per leg.
        assert_eq!(
            spec.leg_time(req.len()),
            SimDuration::from_nanos(1_000_000 + 20 * req.len() as u64)
        );
    }

    #[test]
    fn total_loss_times_out_with_exact_stall() {
        let spec = LinkSpec::ideal().with_faults(1.0, 0.0, 0.0);
        let mut tr = SimTransport::new(spec);
        let req = frame(1, 1, b"ping").encode();
        let err = tr
            .round_trip(3, SimTime::ZERO, &req, &mut Vec::new(), &mut echo_serve(0))
            .unwrap_err();
        let attempts = u64::from(spec.max_retrans) + 1;
        assert_eq!(
            err,
            WireError::Timeout {
                stalled: SimDuration::from_nanos(spec.timeout.as_nanos() * attempts)
            }
        );
        assert_eq!(tr.stats().tx, attempts);
        assert_eq!(tr.stats().retrans, attempts - 1);
        assert_eq!(tr.stats().timeouts, attempts);
        assert_eq!(tr.stats().rx, 0);
    }

    #[test]
    fn corrupted_request_is_rejected_by_the_server_checksum() {
        let spec = LinkSpec::ideal().with_faults(0.0, 1.0, 0.0);
        let mut tr = SimTransport::new(spec);
        let req = frame(1, 1, b"ping").encode();
        let mut served_garbage = 0u64;
        let err = tr.round_trip(
            4,
            SimTime::ZERO,
            &req,
            &mut Vec::new(),
            &mut |_, bytes, _| {
                // Every delivery must fail the checksum — that's the server
                // rejecting the corrupted frame, not the transport hiding it.
                assert!(Frame::decode(bytes).is_err());
                served_garbage += 1;
                None
            },
        );
        assert!(matches!(err, Err(WireError::Timeout { .. })));
        assert_eq!(served_garbage, u64::from(spec.max_retrans) + 1);
        assert_eq!(tr.stats().corrupted, served_garbage);
    }

    #[test]
    fn lossy_link_eventually_succeeds_and_counts_retries() {
        let spec = LinkSpec::ideal().with_faults(0.25, 0.0, 0.0).with_seed(11);
        let mut tr = SimTransport::new(spec);
        let req = frame(1, 1, b"ping").encode();
        let (mut ok, mut fail) = (0u64, 0u64);
        for i in 0..200u64 {
            match tr.round_trip(
                mix64(1234, i),
                SimTime::from_secs(i),
                &req,
                &mut Vec::new(),
                &mut echo_serve(10),
            ) {
                Ok(_) => ok += 1,
                Err(WireError::Timeout { .. }) => fail += 1,
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        assert!(ok > 150, "only {ok}/200 succeeded");
        assert_eq!(ok + fail, 200);
        assert_eq!(tr.stats().rx, ok);
        assert!(tr.stats().retrans > 0);
        assert!(tr.stats().dropped > 0);
        // Ledger sanity: every attempt either delivered or timed out.
        assert_eq!(tr.stats().tx, tr.stats().rx + tr.stats().timeouts);
    }

    #[test]
    fn draws_are_order_independent_across_keys() {
        // Two transports over the same spec; querying keys in different
        // orders must give identical outcomes per key.
        let spec = LinkSpec::ideal().with_faults(0.5, 0.1, 0.0).with_seed(77);
        let req = frame(1, 1, b"ping").encode();
        let outcome = |tr: &mut SimTransport, key: u64| {
            tr.round_trip(
                key,
                SimTime::ZERO,
                &req,
                &mut Vec::new(),
                &mut echo_serve(0),
            )
            .is_ok()
        };
        let mut a = SimTransport::new(spec);
        let forward: Vec<bool> = (0..32).map(|k| outcome(&mut a, k)).collect();
        let mut b = SimTransport::new(spec);
        let mut backward: Vec<(u64, bool)> =
            (0..32).rev().map(|k| (k, outcome(&mut b, k))).collect();
        backward.sort_by_key(|&(k, _)| k);
        let backward: Vec<bool> = backward.into_iter().map(|(_, v)| v).collect();
        assert_eq!(forward, backward);
    }

    #[test]
    fn reordering_delays_within_budget_and_drops_beyond() {
        // Delay fits the budget: response arrives late but intact.
        let spec = LinkSpec {
            reorder: 1.0,
            reorder_delay: SimDuration::from_millis(5),
            timeout: SimDuration::from_millis(50),
            ..LinkSpec::ideal()
        };
        let mut tr = SimTransport::new(spec);
        let req = frame(1, 1, b"ping").encode();
        let done = tr
            .round_trip(5, SimTime::ZERO, &req, &mut Vec::new(), &mut echo_serve(0))
            .expect("within budget");
        assert_eq!(done.saturating_since(SimTime::ZERO), spec.reorder_delay);
        assert_eq!(tr.stats().late, 0);
        // Delay beyond the budget: counted late, falls to retransmission.
        let spec = LinkSpec {
            reorder_delay: SimDuration::from_millis(60),
            ..spec
        };
        let mut tr = SimTransport::new(spec);
        let err = tr.round_trip(5, SimTime::ZERO, &req, &mut Vec::new(), &mut echo_serve(0));
        assert!(matches!(err, Err(WireError::Timeout { .. })));
        assert_eq!(tr.stats().late, u64::from(spec.max_retrans) + 1);
    }

    #[test]
    fn stats_merge_folds_everything() {
        let spec = LinkSpec::ideal().with_faults(0.3, 0.0, 0.0).with_seed(3);
        let req = frame(1, 1, b"ping").encode();
        let run = |keys: std::ops::Range<u64>| {
            let mut tr = SimTransport::new(spec);
            for k in keys {
                let _ = tr.round_trip(
                    mix64(9, k),
                    SimTime::ZERO,
                    &req,
                    &mut Vec::new(),
                    &mut echo_serve(1),
                );
            }
            tr.stats().clone()
        };
        let all = run(0..64);
        let mut halves = run(0..32);
        halves.merge(&run(32..64));
        assert_eq!(halves, all);
        let folded: u64 = all.kinds().iter().map(|&(_, n)| n).sum();
        assert!(folded > 0);
    }

    #[test]
    fn validate_rejects_bad_specs() {
        let ok = LinkSpec::ideal().with_faults(0.1, 0.0, 0.0);
        ok.validate();
        let bad = LinkSpec {
            timeout: SimDuration::ZERO,
            ..ok
        };
        assert!(std::panic::catch_unwind(move || bad.validate()).is_err());
        let bad = LinkSpec::ideal().with_faults(1.5, 0.0, 0.0);
        assert!(std::panic::catch_unwind(move || bad.validate()).is_err());
    }
}
