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
//!      2     1  version (2)
//!      3     1  kind (request/response opcode, owned by the caller)
//!      4     8  seq
//!     12     4  payload length
//!     16     n  payload
//!   16+n     4  checksum over bytes [0, 16+n): FNV-1a-32 in four
//!               lanes over 16-byte blocks of u32 words, then the tail
//! ```
//!
//! Everything here is deterministic: the same `(LinkSpec, key, t)` triple
//! reproduces the same fault pattern and the same virtual-time charges.
//!
//! The exchange path allocates nothing in steady state: [`Frame::write`]
//! encodes a frame straight into a buffer the caller reuses,
//! [`Frame::decode`] parses one without copying its payload, and
//! [`SimTransport::round_trip`] has the server write its response into the
//! caller's buffer and keeps its corrupted-request copy in a buffer of its
//! own.

use crate::rng::{mix64, NoiseStream};
use crate::telemetry::LogHistogram;
use crate::time::{SimDuration, SimTime};
use std::fmt;

/// Protocol magic, first two bytes of every frame.
pub const WIRE_MAGIC: u16 = 0xE5D7;
/// Protocol version carried in byte 2. It changes whenever the layout or
/// the trailer's checksum function does.
pub const WIRE_VERSION: u8 = 2;
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

/// FNV-1a-32's offset basis: the starting state of every lane and fold.
const FNV_BASIS: u32 = 0x811C_9DC5;
/// FNV-1a-32's prime.
const FNV_PRIME: u32 = 0x0100_0193;

/// One FNV-1a step over a whole input word. For a fixed state it is a
/// bijection of the input, and for a fixed input a bijection of the state
/// (XOR, then a multiply by an odd number modulo 2³²).
fn fnv_step(h: u32, x: u32) -> u32 {
    (h ^ x).wrapping_mul(FNV_PRIME)
}

/// The frame checksum, word at a time: FNV-1a-32 run as four lanes over
/// the little-endian `u32` words of each 16-byte block (the header is the
/// first block), the four lane states folded by FNV-1a steps, then each
/// whole word after the last block and each of the last 0–3 bytes one
/// step apiece.
///
/// A frame with exactly one changed byte never passes: the change alters
/// one input of one lane or fold step, and every later step is a
/// bijection of the state, so the sum changes too (or, for a byte of the
/// trailer, the sum it is compared with). The lanes are independent, so
/// each takes one dependent multiply per 16 bytes where byte-wise FNV-1a
/// takes one per byte.
fn frame_checksum(bytes: &[u8]) -> u32 {
    let (blocks, rest) = bytes.as_chunks::<16>();
    let mut lanes = [FNV_BASIS; 4];
    for block in blocks {
        for (lane, word) in lanes.iter_mut().zip(block.as_chunks::<4>().0) {
            *lane = fnv_step(*lane, u32::from_le_bytes(*word));
        }
    }
    let (words, tail) = rest.as_chunks::<4>();
    let h = lanes.into_iter().fold(FNV_BASIS, fnv_step);
    let h = words
        .iter()
        .fold(h, |h, word| fnv_step(h, u32::from_le_bytes(*word)));
    tail.iter().fold(h, |h, &b| fnv_step(h, u32::from(b)))
}

/// One protocol frame: an opcode, a sequence number, and a payload
/// borrowed from the bytes it was parsed from, so reading a frame costs no
/// copy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Frame<'a> {
    /// Request/response opcode. The wire layer does not interpret it.
    pub kind: u8,
    /// Sequence number echoed by responses.
    pub seq: u64,
    /// The payload, borrowed from the parsed buffer.
    pub payload: &'a [u8],
}

impl<'a> Frame<'a> {
    /// Encode a frame of `kind` and `seq` into `out`, replacing its
    /// contents but keeping its capacity: `payload` writes the payload,
    /// then the length is filled in and the checksum appended.
    ///
    /// A payload longer than [`MAX_PAYLOAD`] is refused with
    /// [`WireError::BadLength`], and `out` is left empty.
    pub fn write(
        out: &mut Vec<u8>,
        kind: u8,
        seq: u64,
        payload: impl FnOnce(&mut WireWriter),
    ) -> Result<(), WireError> {
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
        *out = w.buf;
        let len = out.len() - HEADER_LEN;
        if len > MAX_PAYLOAD {
            out.clear();
            return Err(WireError::BadLength);
        }
        out[12..HEADER_LEN].copy_from_slice(&(len as u32).to_le_bytes());
        let sum = frame_checksum(out);
        out.extend_from_slice(&sum.to_le_bytes());
        Ok(())
    }

    /// Parse a buffer holding exactly one frame. Trailing bytes are a
    /// [`WireError::BadLength`].
    ///
    /// All offset arithmetic is checked: a corrupted length byte yields
    /// [`WireError::BadLength`] or [`WireError::Truncated`], never a wrapped
    /// slice index.
    pub fn decode(bytes: &'a [u8]) -> Result<Frame<'a>, WireError> {
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
        if frame_checksum(&bytes[..body_end]) != declared {
            return Err(WireError::BadChecksum);
        }
        if bytes.len() != total {
            return Err(WireError::BadLength);
        }
        Ok(Frame {
            kind,
            seq,
            payload: &bytes[HEADER_LEN..body_end],
        })
    }
}

/// Little-endian payload writer used by the request/response codecs: it
/// writes a frame's payload in place, inside [`Frame::write`].
#[derive(Clone, Debug)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
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
    ///
    /// # Panics
    /// When the string is longer than `u32::MAX` bytes.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Append a length-prefixed byte slice.
    ///
    /// # Panics
    /// When the slice is longer than `u32::MAX` bytes.
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

    /// Check the spec, catching one that would hang forever.
    ///
    /// # Panics
    /// Unless every rate is a probability and a lossy link has a nonzero
    /// timeout.
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
    /// Build a transport over `spec` whose noise streams are salted by
    /// `salt`, so one spec gives every rank's link independent weather.
    ///
    /// # Panics
    /// When [`LinkSpec::validate`] rejects `spec`.
    pub fn new(spec: LinkSpec, salt: u64) -> Self {
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

    /// `payload` framed as `kind` and `seq`.
    fn frame(kind: u8, seq: u64, payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        Frame::write(&mut buf, kind, seq, |w| {
            payload.iter().for_each(|&b| w.u8(b))
        })
        .expect("payload within the limit");
        buf
    }

    #[test]
    fn frame_roundtrip() {
        for payload in [&b""[..], b"x", b"hello wire", &[0u8; 300]] {
            let bytes = frame(0x42, 7, payload);
            assert_eq!(bytes.len(), HEADER_LEN + payload.len() + TRAILER_LEN);
            let f = Frame::decode(&bytes).unwrap();
            assert_eq!((f.kind, f.seq, f.payload), (0x42, 7, payload));
        }
    }

    #[test]
    fn write_lays_out_the_documented_header_and_trailer() {
        // Written over a used buffer: its bytes are replaced and its
        // allocation kept.
        let mut buf = vec![0xAA; 256];
        let cap = buf.capacity();
        Frame::write(&mut buf, 0x82, 0x0102_0304_0506_0708, |w| w.str("x")).unwrap();
        assert_eq!(buf.capacity(), cap);
        let payload = [1, 0, 0, 0, b'x'];
        let n = payload.len();
        assert_eq!(buf.len(), HEADER_LEN + n + TRAILER_LEN);
        assert_eq!(buf[0..2], [0xD7, 0xE5], "magic 0xE5D7, little-endian");
        assert_eq!(buf[2], WIRE_VERSION, "version");
        assert_eq!(buf[3], 0x82, "kind");
        assert_eq!(buf[4..12], [8, 7, 6, 5, 4, 3, 2, 1], "seq");
        assert_eq!(buf[12..16], [n as u8, 0, 0, 0], "payload length");
        assert_eq!(buf[16..16 + n], payload);
        let sum = frame_checksum(&buf[..16 + n]).to_le_bytes();
        assert_eq!(buf[16 + n..], sum, "checksum over bytes [0, 16+n)");
    }

    #[test]
    fn checksum_is_pinned_on_every_path() {
        // No block; one block and no tail.
        assert_eq!(frame_checksum(&[]), 0xA78A_2FF1);
        assert_eq!(frame_checksum(&[0; 16]), 0x205B_0F71);
        // A whole READ request: the header is one block, and the trailer
        // is its checksum.
        let request = [
            0xD7, 0xE5, 2, 0x02, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x2D, 0xC7, 0x05, 0x52,
        ];
        assert_eq!(frame(0x02, 1, &[]), request);
        // Two blocks, two whole tail words and three tail bytes.
        let bytes: Vec<u8> = (0..43).collect();
        assert_eq!(frame_checksum(&bytes), 0x1FAE_10F0);
    }

    #[test]
    fn write_refuses_a_payload_over_the_limit_and_leaves_the_buffer_empty() {
        let mut buf = vec![0xAA; 16];
        Frame::write(&mut buf, 1, 1, |w| {
            w.buf.resize(HEADER_LEN + MAX_PAYLOAD, 0)
        })
        .unwrap();
        assert_eq!(buf.len(), HEADER_LEN + MAX_PAYLOAD + TRAILER_LEN);
        let err = Frame::write(&mut buf, 1, 1, |w| {
            w.buf.resize(HEADER_LEN + MAX_PAYLOAD + 1, 0)
        });
        assert_eq!(err, Err(WireError::BadLength));
        assert!(buf.is_empty());
    }

    #[test]
    fn truncation_at_every_boundary() {
        let bytes = frame(1, 9, b"abc");
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
        let mut bytes = frame(1, 1, b"payload");
        // Blow the length field up to u32::MAX: must reject cleanly.
        bytes[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(Frame::decode(&bytes), Err(WireError::BadLength));
        // A length one past the real payload: truncated, not mis-sliced.
        let mut bytes = frame(1, 1, b"payload");
        bytes[12..16].copy_from_slice(&8u32.to_le_bytes());
        assert_eq!(Frame::decode(&bytes), Err(WireError::Truncated));
    }

    #[test]
    fn bad_magic_version_checksum() {
        let good = frame(1, 1, b"ok");
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
    fn trailing_bytes_are_a_bad_length() {
        let mut stream = frame(1, 1, b"first");
        stream.extend_from_slice(&frame(2, 2, b"second"));
        assert_eq!(Frame::decode(&stream), Err(WireError::BadLength));
    }

    #[test]
    fn writer_reader_roundtrip() {
        let mut buf = Vec::new();
        Frame::write(&mut buf, 1, 1, |w| {
            w.u8(7);
            w.u32(0xDEAD_BEEF);
            w.u64(u64::MAX);
            w.f64(-0.0);
            w.bool(true);
            w.str("environmental");
            w.opt_f64(Some(f64::MIN_POSITIVE));
            w.opt_f64(None);
        })
        .unwrap();
        let mut r = WireReader::new(Frame::decode(&buf).unwrap().payload);
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
        let mut buf = Vec::new();
        Frame::write(&mut buf, 1, 1, |w| w.bytes(&[0xFF, 0xFE])).unwrap();
        let mut r = WireReader::new(Frame::decode(&buf).unwrap().payload);
        assert_eq!(r.str(), Err(WireError::Malformed("utf-8 string")));
    }

    fn echo_serve(proc_us: u64) -> impl FnMut(SimTime, &[u8], &mut Vec<u8>) -> Option<SimDuration> {
        move |_, req, out| {
            let f = Frame::decode(req).ok()?;
            Frame::write(out, f.kind, f.seq, |w| w.buf.extend_from_slice(f.payload)).ok()?;
            Some(SimDuration::from_micros(proc_us))
        }
    }

    #[test]
    fn ideal_link_charges_only_processing_time() {
        let mut tr = SimTransport::new(LinkSpec::ideal(), 0);
        let t = SimTime::from_secs(5);
        let req = frame(1, 1, b"ping");
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
        let mut tr = SimTransport::new(spec, 0);
        let t = SimTime::ZERO;
        let req = frame(1, 1, b"ping");
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
        let mut tr = SimTransport::new(spec, 0);
        let req = frame(1, 1, b"ping");
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
        let mut tr = SimTransport::new(spec, 0);
        let req = frame(1, 1, b"ping");
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
        let mut tr = SimTransport::new(spec, 0);
        let req = frame(1, 1, b"ping");
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
        let req = frame(1, 1, b"ping");
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
        let mut a = SimTransport::new(spec, 0);
        let forward: Vec<bool> = (0..32).map(|k| outcome(&mut a, k)).collect();
        let mut b = SimTransport::new(spec, 0);
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
        let mut tr = SimTransport::new(spec, 0);
        let req = frame(1, 1, b"ping");
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
        let mut tr = SimTransport::new(spec, 0);
        let err = tr.round_trip(5, SimTime::ZERO, &req, &mut Vec::new(), &mut echo_serve(0));
        assert!(matches!(err, Err(WireError::Timeout { .. })));
        assert_eq!(tr.stats().late, u64::from(spec.max_retrans) + 1);
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
