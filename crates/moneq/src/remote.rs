//! Remote mechanisms: the full [`EnvBackend`] surface served over the
//! [`simkit::wire`] framed protocol.
//!
//! The paper's in-band/out-of-band axis made first-class: a
//! [`RemoteBackend`] wraps any local backend behind a [`BackendServer`]
//! and a [`SimTransport`], so every poll becomes a request/response
//! exchange that pays serialize/flight/deserialize time on the virtual
//! clock and is subject to the link's drop/corrupt/reorder weather. The
//! defining invariant (asserted by the golden and property suites): over
//! a zero-fault, zero-cost link ([`LinkSpec::ideal`]) a remote session is
//! byte-identical to the local one — same records, same overhead ledger —
//! and any nonzero link latency shows up *exactly* in the overhead and
//! staleness ledgers, nowhere else.
//!
//! The protocol carries exactly the calls that cross the link: one
//! opcode, [`REQ_READ`]. Its request payload is empty; the poll instant is
//! the frame's arrival time. The response echoes the opcode with
//! [`RESP_FLAG`] set and the same sequence number, and carries a result
//! tag plus a [`Poll`] or a [`ReadError`]. Any other kind is dropped like
//! a bad datagram. The client owns its server, so it reads the mechanism's
//! description (name, interval, costs, cadence, records per poll,
//! capabilities, limitations, gate counters) from the wrapped backend
//! directly.
//!
//! Error mapping ([`WireError`] → [`ReadError`], DESIGN.md §14): a wire
//! timeout becomes [`ReadError::Timeout`] carrying the exact accumulated
//! stall (so the session's fault-recovery ledger charges it like any
//! mechanism stall); every other wire failure is a retryable
//! [`ReadError::Transient`].
//!
//! An exchange allocates nothing but the decoded [`Poll`]: the client
//! encodes its request into a buffer it reuses, the server writes its
//! response into the client's response buffer, and the client parses that
//! buffer in place ([`FrameRef`]). Labels come back borrowed: the server
//! learns every `&'static str` label its backend lends
//! ([`BackendServer::labels`]), and the client, which owns the server,
//! decodes each label onto that vocabulary ([`decode_poll_in`]). A label
//! outside it decodes to an owned copy. The bytes on the wire are the same
//! either way.

use crate::backend::{EnvBackend, GateStats, Poll, ReadError, StatedLimitation};
use crate::reading::DataPoint;
use powermodel::{Metric, Platform, Support};
use simkit::rng::mix64;
use simkit::wire::{
    Frame, FrameRef, LinkSpec, LinkStats, SimTransport, WireError, WireReader, WireWriter,
};
use simkit::{SimDuration, SimTime};
use std::borrow::Cow;

/// Request opcode: one poll.
pub const REQ_READ: u8 = 0x02;
/// OR-ed into a request opcode to form its response opcode.
pub const RESP_FLAG: u8 = 0x80;

/// Encode one [`DataPoint`] into a payload (exact f64 bit patterns).
pub fn encode_point(w: &mut WireWriter, p: &DataPoint) {
    w.u64(p.timestamp.as_nanos());
    w.str(&p.device);
    w.str(&p.domain);
    w.f64(p.watts);
    w.opt_f64(p.volts);
    w.opt_f64(p.amps);
    w.opt_f64(p.temp_c);
    w.bool(p.stale);
}

/// Decode one [`DataPoint`] written by [`encode_point`], borrowing each
/// label from `labels` when it is there and owning it otherwise.
fn decode_point(r: &mut WireReader<'_>, labels: &[&'static str]) -> Result<DataPoint, WireError> {
    Ok(DataPoint {
        timestamp: SimTime::from_nanos(r.u64()?),
        device: decode_label(r, labels)?,
        domain: decode_label(r, labels)?,
        watts: r.f64()?,
        volts: r.opt_f64()?,
        amps: r.opt_f64()?,
        temp_c: r.opt_f64()?,
        stale: r.bool()?,
    })
}

/// One length-prefixed label, borrowed from `labels` when it is there.
fn decode_label(
    r: &mut WireReader<'_>,
    labels: &[&'static str],
) -> Result<Cow<'static, str>, WireError> {
    let s = r.str()?;
    Ok(match labels.iter().find(|&&l| l == s) {
        Some(&l) => Cow::Borrowed(l),
        None => Cow::Owned(s.to_owned()),
    })
}

/// Encode one [`Poll`] (missing count + records).
pub fn encode_poll(w: &mut WireWriter, poll: &Poll) {
    w.u32(poll.missing);
    w.u32(u32::try_from(poll.points.len()).expect("record count fits u32"));
    for p in &poll.points {
        encode_point(w, p);
    }
}

/// Decode one [`Poll`] written by [`encode_poll`], its labels owned.
pub fn decode_poll(r: &mut WireReader<'_>) -> Result<Poll, WireError> {
    decode_poll_in(r, &[])
}

/// Decode one [`Poll`] written by [`encode_poll`], borrowing each label
/// from `labels` when it is there and owning it otherwise.
pub fn decode_poll_in(r: &mut WireReader<'_>, labels: &[&'static str]) -> Result<Poll, WireError> {
    let missing = r.u32()?;
    let count = r.u32()?;
    // Guarded preallocation: a corrupted count cannot OOM the decoder.
    let mut points = Vec::with_capacity(count.min(4096) as usize);
    for _ in 0..count {
        points.push(decode_point(r, labels)?);
    }
    Ok(Poll { points, missing })
}

/// Encode a [`ReadError`] (tag + variant payload).
pub fn encode_read_error(w: &mut WireWriter, e: &ReadError) {
    match e {
        ReadError::Transient(m) => {
            w.u8(0);
            w.str(m);
        }
        ReadError::Timeout { stalled } => {
            w.u8(1);
            w.u64(stalled.as_nanos());
        }
        ReadError::NoData => w.u8(2),
        ReadError::Unavailable(m) => {
            w.u8(3);
            w.str(m);
        }
    }
}

/// Decode a [`ReadError`] written by [`encode_read_error`].
pub fn decode_read_error(r: &mut WireReader<'_>) -> Result<ReadError, WireError> {
    match r.u8()? {
        0 => Ok(ReadError::Transient(r.str()?.to_owned())),
        1 => Ok(ReadError::Timeout {
            stalled: SimDuration::from_nanos(r.u64()?),
        }),
        2 => Ok(ReadError::NoData),
        3 => Ok(ReadError::Unavailable(r.str()?.to_owned())),
        _ => Err(WireError::Malformed("read-error tag")),
    }
}

/// The server side: the wrapped mechanism plus the request dispatcher.
///
/// [`BackendServer::serve`] is the `serve` hook a [`SimTransport`] calls
/// at each request's virtual arrival time. A frame that fails to decode
/// (truncated, corrupted in flight, unknown opcode) is silently discarded
/// — the client sees a timeout and retransmits, exactly like a real
/// collection daemon dropping a bad datagram.
pub struct BackendServer {
    backend: Box<dyn EnvBackend>,
    /// Every distinct borrowed label the server has encoded, in order of
    /// first appearance.
    labels: Vec<&'static str>,
}

impl BackendServer {
    /// Put a mechanism behind the protocol.
    pub fn new(backend: Box<dyn EnvBackend>) -> Self {
        BackendServer {
            backend,
            labels: Vec::new(),
        }
    }

    /// Serve one request frame arriving at virtual time `at`, allocating
    /// the response. Returns the server's processing time (the
    /// mechanism's access-path cost) and the encoded response — or `None`
    /// for a frame [`BackendServer::serve`] drops.
    pub fn handle(&mut self, at: SimTime, bytes: &[u8]) -> Option<(SimDuration, Vec<u8>)> {
        let mut out = Vec::new();
        let cost = self.serve(at, bytes, &mut out)?;
        Some((cost, out))
    }

    /// Serve one request frame arriving at virtual time `at`, writing the
    /// encoded response into `out` (its contents replaced). Returns the
    /// server's processing time (the mechanism's access-path cost) — or
    /// `None` for an undecodable frame, a kind other than [`REQ_READ`] or
    /// a non-empty request payload, which the server drops on the floor.
    pub fn serve(&mut self, at: SimTime, bytes: &[u8], out: &mut Vec<u8>) -> Option<SimDuration> {
        let frame = FrameRef::decode(bytes).ok()?;
        if frame.kind != REQ_READ || !frame.payload.is_empty() {
            return None;
        }
        // The poll instant is the frame's arrival time on the server
        // clock: an ideal link reads at the client's own instant; a latent
        // link reads later — that shift *is* the out-of-band staleness the
        // ledgers must show.
        let result = self.backend.read(at);
        if let Ok(poll) = &result {
            for p in &poll.points {
                learn(&mut self.labels, p);
            }
        }
        Frame::write(out, REQ_READ | RESP_FLAG, frame.seq, |w| match &result {
            Ok(poll) => {
                w.u8(0);
                encode_poll(w, poll);
            }
            Err(e) => {
                w.u8(1);
                encode_read_error(w, e);
            }
        });
        Some(self.backend.poll_cost())
    }

    /// The borrowed labels this server has encoded so far: the vocabulary
    /// its client decodes labels onto.
    pub fn labels(&self) -> &[&'static str] {
        &self.labels
    }
}

/// Add each borrowed label of `p` to `labels` when it is not there yet. A
/// backend lends the same few labels on every read, so the address check
/// settles almost every lookup.
fn learn(labels: &mut Vec<&'static str>, p: &DataPoint) {
    for label in [&p.device, &p.domain] {
        if let Cow::Borrowed(l) = *label {
            if !labels
                .iter()
                .any(|&known| std::ptr::eq(known, l) || known == l)
            {
                labels.push(l);
            }
        }
    }
}

/// A mechanism served over a [`SimTransport`].
///
/// Implements [`EnvBackend`] itself, so sessions, collection plans, the
/// shared read cache, and telemetry all compose unchanged: a poll turns
/// into a `REQ_READ` exchange whose round-trip time is charged through
/// [`EnvBackend::last_poll_cost`], and whose wire failures map onto the
/// [`ReadError`] taxonomy the session already degrades on.
///
/// Cost accounting mirrors the local charging discipline exactly: the
/// session charges one access-path crossing per poll, so only the first
/// *completed* exchange at each poll instant sets the charged cost
/// (session-level retries redraw values but never double-charge, locally
/// or remotely). Wire timeouts charge nothing here — their stall flows
/// through [`ReadError::Timeout`] into the fault-recovery ledger instead.
pub struct RemoteBackend {
    server: BackendServer,
    transport: SimTransport,
    /// The latest request frame and the response delivered for it; both
    /// grow on first use and are reused by every later exchange.
    request: Vec<u8>,
    response: Vec<u8>,
    seq: u64,
    /// Last RPC instant and its exchange count, keying fault draws the
    /// same way [`crate::backend::FaultGate`] keys attempts: per
    /// `(instant, index)`, order-independent across devices.
    rpc_at: Option<(SimTime, u32)>,
    /// When the previous exchange concluded. A client cannot transmit a
    /// new request before the previous exchange finished, so sends are
    /// serialized on `max(poll instant, ready_at)` — which also keeps
    /// server-side arrival times monotonic (stateful mechanisms like
    /// RAPL's snapshot delta require time to move forward).
    ready_at: SimTime,
    /// The poll instant the charged cost below belongs to.
    cost_at: SimTime,
    /// Round-trip time of the first completed exchange at `cost_at`.
    cost: SimDuration,
}

impl RemoteBackend {
    /// Serve `inner` over a fresh [`SimTransport`] on `link`.
    pub fn connect(inner: Box<dyn EnvBackend>, link: LinkSpec) -> Self {
        Self::connect_salted(inner, link, 0)
    }

    /// [`RemoteBackend::connect`] with the link's noise streams salted —
    /// the cluster salts by rank so every rank's link has independent
    /// weather from one shared [`LinkSpec`].
    pub fn connect_salted(inner: Box<dyn EnvBackend>, link: LinkSpec, salt: u64) -> Self {
        RemoteBackend {
            server: BackendServer::new(inner),
            transport: SimTransport::with_salt(link, salt),
            request: Vec::new(),
            response: Vec::new(),
            seq: 0,
            rpc_at: None,
            ready_at: SimTime::ZERO,
            cost_at: SimTime::ZERO,
            cost: SimDuration::ZERO,
        }
    }

    /// One `REQ_READ` exchange at instant `t`: frames the request into
    /// the reused request buffer and runs it through the transport, which
    /// leaves the delivered response frame in the response buffer.
    /// Returns the send and completion instants and the request's
    /// sequence number.
    fn rpc(&mut self, t: SimTime) -> Result<(SimTime, SimTime, u64), ReadError> {
        let index = match self.rpc_at {
            Some((at, n)) if at == t => n + 1,
            _ => 0,
        };
        self.rpc_at = Some((t, index));
        if self.cost_at != t {
            self.cost_at = t;
            self.cost = SimDuration::ZERO;
        }
        self.seq += 1;
        let seq = self.seq;
        Frame::write(&mut self.request, REQ_READ, seq, |_| {});
        let key = mix64(t.as_nanos(), u64::from(index));
        // Serialize exchanges: a retry (or a poll whose predecessor
        // overran its slot) transmits when the line is free, not in the
        // past. On a clean link that never retries, send == t exactly.
        let send = if t > self.ready_at { t } else { self.ready_at };
        let RemoteBackend {
            server,
            transport,
            request,
            response,
            ..
        } = self;
        let outcome = transport.round_trip(key, send, request, response, &mut |at, bytes, out| {
            server.serve(at, bytes, out)
        });
        let done = match outcome {
            Ok(done) => done,
            Err(WireError::Timeout { stalled }) => {
                self.ready_at = send.saturating_add(stalled);
                return Err(ReadError::Timeout { stalled });
            }
            Err(other) => return Err(ReadError::Transient(format!("wire: {other}"))),
        };
        self.ready_at = done;
        Ok((send, done, seq))
    }
}

fn decode_read_result(payload: &[u8], labels: &[&'static str]) -> Result<Poll, ReadError> {
    let wire = |e: WireError| ReadError::Transient(format!("wire: read reply {e}"));
    let mut r = WireReader::new(payload);
    match r.u8().map_err(wire)? {
        0 => {
            let poll = decode_poll_in(&mut r, labels).map_err(wire)?;
            r.expect_end().map_err(wire)?;
            Ok(poll)
        }
        1 => {
            let e = decode_read_error(&mut r).map_err(wire)?;
            r.expect_end().map_err(wire)?;
            Err(e)
        }
        _ => Err(wire(WireError::Malformed("result tag"))),
    }
}

impl EnvBackend for RemoteBackend {
    fn name(&self) -> &'static str {
        self.server.backend.name()
    }

    fn platform(&self) -> Platform {
        self.server.backend.platform()
    }

    fn min_interval(&self) -> SimDuration {
        self.server.backend.min_interval()
    }

    fn poll_cost(&self) -> SimDuration {
        self.server.backend.poll_cost()
    }

    fn capabilities(&self) -> Vec<(Metric, Support)> {
        self.server.backend.capabilities()
    }

    fn read(&mut self, t: SimTime) -> Result<Poll, ReadError> {
        let (send, done, seq) = self.rpc(t)?;
        let frame = FrameRef::decode(&self.response)
            .map_err(|e| ReadError::Transient(format!("wire: response {e}")))?;
        if frame.kind != REQ_READ | RESP_FLAG || frame.seq != seq {
            return Err(ReadError::Transient("wire: response mismatch".into()));
        }
        // One access-path charge per poll instant: the first completed
        // exchange sets it, session-level retries don't double-charge.
        if self.cost.is_zero() {
            self.cost = done.saturating_since(send);
        }
        decode_read_result(frame.payload, self.server.labels())
    }

    fn read_cadence(&self) -> SimDuration {
        self.server.backend.read_cadence()
    }

    fn records_per_poll(&self) -> usize {
        self.server.backend.records_per_poll()
    }

    fn limitations(&self) -> Vec<StatedLimitation> {
        let mut out = self.server.backend.limitations();
        let spec = self.transport.spec();
        out.push(StatedLimitation::new(
            "deployment",
            format!(
                "served out-of-band over a link with {} flight latency; every poll is a framed round-trip",
                spec.latency
            ),
        ));
        out
    }

    fn gate_stats(&self) -> Option<GateStats> {
        self.server.backend.gate_stats()
    }

    fn last_poll_cost(&self) -> SimDuration {
        self.cost
    }

    fn wire_stats(&self) -> Option<LinkStats> {
        Some(self.transport.stats().clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use simkit::wire::LinkSpec;

    /// A deterministic two-record backend with optional scripted failures.
    struct Bench {
        cost: SimDuration,
        fail_at: Option<u64>,
        reads: u64,
    }

    impl Bench {
        fn boxed(cost_us: u64) -> Box<dyn EnvBackend> {
            Box::new(Bench {
                cost: SimDuration::from_micros(cost_us),
                fail_at: None,
                reads: 0,
            })
        }
    }

    impl EnvBackend for Bench {
        fn name(&self) -> &'static str {
            "bench"
        }
        fn platform(&self) -> Platform {
            Platform::Rapl
        }
        fn min_interval(&self) -> SimDuration {
            SimDuration::from_millis(60)
        }
        fn poll_cost(&self) -> SimDuration {
            self.cost
        }
        fn capabilities(&self) -> Vec<(Metric, Support)> {
            vec![]
        }
        fn read(&mut self, t: SimTime) -> Result<Poll, ReadError> {
            self.reads += 1;
            if self.fail_at == Some(self.reads) {
                return Err(ReadError::NoData);
            }
            let mut a = DataPoint::power(t, "dev0", "pkg", 42.5);
            a.volts = Some(1.05);
            a.temp_c = Some(61.0);
            let b = DataPoint::power(t, "dev1", "dram", 7.25);
            Ok(Poll::with_missing(vec![a, b], 1))
        }
        fn records_per_poll(&self) -> usize {
            2
        }
    }

    #[test]
    fn point_and_poll_codecs_roundtrip_exactly() {
        let mut p = DataPoint::power(SimTime::from_nanos(123_456_789), "gpu0", "board", -0.0);
        p.volts = Some(f64::MIN_POSITIVE);
        p.amps = Some(1.0 / 3.0);
        p.stale = true;
        let poll = Poll::with_missing(vec![p, DataPoint::power(SimTime::ZERO, "", "", 5.5)], 3);
        let mut w = WireWriter::new();
        encode_poll(&mut w, &poll);
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        let back = decode_poll(&mut r).unwrap();
        r.expect_end().unwrap();
        // PartialEq is not enough for the -0.0 payload: compare bits.
        assert_eq!(back.missing, poll.missing);
        assert_eq!(back.points.len(), poll.points.len());
        assert_eq!(
            back.points[0].watts.to_bits(),
            poll.points[0].watts.to_bits()
        );
        assert_eq!(back, poll);
    }

    #[test]
    fn every_read_error_variant_roundtrips() {
        let cases = [
            ReadError::Transient("EIO on msr 0x611".into()),
            ReadError::Timeout {
                stalled: SimDuration::from_millis(50),
            },
            ReadError::NoData,
            ReadError::Unavailable("sampling blackout".into()),
        ];
        for e in cases {
            let mut w = WireWriter::new();
            encode_read_error(&mut w, &e);
            let buf = w.finish();
            let mut r = WireReader::new(&buf);
            assert_eq!(decode_read_error(&mut r).unwrap(), e);
            r.expect_end().unwrap();
        }
    }

    #[test]
    fn ideal_link_read_matches_local_and_charges_poll_cost() {
        let t = SimTime::from_millis(560);
        let mut local = Bench::boxed(30);
        let want = local.read(t).unwrap();
        let mut remote = RemoteBackend::connect(Bench::boxed(30), LinkSpec::ideal());
        let got = remote.read(t).unwrap();
        assert_eq!(got, want, "ideal link must be value-transparent");
        // The charged cost over an ideal link is exactly the mechanism's
        // own poll cost (server processing time is the only time charged).
        assert_eq!(remote.last_poll_cost(), SimDuration::from_micros(30));
        assert_eq!(remote.poll_cost(), SimDuration::from_micros(30));
        let ws = remote.wire_stats().unwrap();
        assert_eq!((ws.tx, ws.rx, ws.timeouts), (1, 1, 0));
    }

    #[test]
    fn server_learns_each_lent_label_once() {
        let mut server = BackendServer::new(Bench::boxed(30));
        let request = Frame::new(REQ_READ, 1, Vec::new()).encode();
        let mut out = Vec::new();
        for at in [60, 120] {
            server.serve(SimTime::from_millis(at), &request, &mut out);
        }
        assert_eq!(server.labels(), ["dev0", "pkg", "dev1", "dram"]);
        // `handle` allocates its response but encodes the same bytes.
        let (_, bytes) = server.handle(SimTime::from_millis(120), &request).unwrap();
        assert_eq!(bytes, out);
    }

    #[test]
    fn remote_mirrors_the_inner_backend() {
        let remote = RemoteBackend::connect(Bench::boxed(30), LinkSpec::ideal());
        assert_eq!(remote.name(), "bench");
        assert_eq!(remote.min_interval(), SimDuration::from_millis(60));
        assert_eq!(remote.read_cadence(), SimDuration::from_millis(60));
        assert_eq!(remote.records_per_poll(), 2);
        assert!(remote
            .limitations()
            .iter()
            .any(|l| l.aspect == "deployment"));
        // Bench has no gate, and the remote side reports that absence.
        assert_eq!(remote.gate_stats(), None);
    }

    #[test]
    fn latent_link_shifts_read_instants_and_charges_the_wire() {
        let spec = LinkSpec {
            latency: SimDuration::from_millis(1),
            ..LinkSpec::ideal()
        };
        let t = SimTime::from_millis(560);
        let mut remote = RemoteBackend::connect(Bench::boxed(30), spec);
        let got = remote.read(t).unwrap();
        // The server read one flight later: timestamps shift by exactly
        // the request leg.
        assert_eq!(got.points[0].timestamp, t + SimDuration::from_millis(1));
        // Charged cost = 2 legs + processing, exactly.
        let req = Frame::new(REQ_READ, 1, Vec::new()).encode();
        let mut w = WireWriter::new();
        w.u8(0);
        encode_poll(&mut w, &got);
        let resp = Frame::new(REQ_READ | RESP_FLAG, 1, w.finish()).encode();
        assert_eq!(
            remote.last_poll_cost(),
            spec.leg_time(req.len()) + SimDuration::from_micros(30) + spec.leg_time(resp.len())
        );
    }

    #[test]
    fn server_error_passes_through_and_cost_charges_once() {
        let t = SimTime::from_millis(60);
        let mut inner = Bench {
            cost: SimDuration::from_micros(30),
            fail_at: Some(1),
            reads: 0,
        };
        let local_err = inner.read(t).unwrap_err();
        let mut remote = RemoteBackend::connect(
            Box::new(Bench {
                cost: SimDuration::from_micros(30),
                fail_at: Some(1),
                reads: 0,
            }),
            LinkSpec::ideal(),
        );
        assert_eq!(remote.read(t).unwrap_err(), local_err);
        // A session-level retry at the same instant completes but must
        // not double-charge the access path.
        assert!(remote.read(t).is_ok());
        assert_eq!(remote.last_poll_cost(), SimDuration::from_micros(30));
        // A new poll instant resets the charge.
        assert!(remote.read(SimTime::from_millis(120)).is_ok());
        assert_eq!(remote.last_poll_cost(), SimDuration::from_micros(30));
    }

    #[test]
    fn dead_link_maps_to_read_timeout_with_exact_stall() {
        let spec = LinkSpec::ideal().with_faults(1.0, 0.0, 0.0);
        let mut remote = RemoteBackend::connect(Bench::boxed(30), spec);
        let err = remote.read(SimTime::from_millis(60)).unwrap_err();
        let attempts = u64::from(spec.max_retrans) + 1;
        assert_eq!(
            err,
            ReadError::Timeout {
                stalled: SimDuration::from_nanos(spec.timeout.as_nanos() * attempts)
            }
        );
        assert!(err.is_retryable(), "wire timeouts retry like stalls");
        // Nothing completed, nothing charged.
        assert_eq!(remote.last_poll_cost(), SimDuration::ZERO);
    }

    #[test]
    fn read_many_roundtrips_over_the_wire() {
        let t = SimTime::from_millis(60);
        let mut local = Bench::boxed(30);
        let want = local.read_many(t, 4).unwrap();
        let mut remote = RemoteBackend::connect(Bench::boxed(30), LinkSpec::ideal());
        let got = remote.read_many(t, 4).unwrap();
        assert_eq!(got, want);
        assert_eq!(got.len(), 4);
        // Batched charge: one access-path crossing for the whole batch,
        // and the trait default sends one exchange over the link for it.
        assert_eq!(remote.last_poll_cost(), SimDuration::from_micros(30));
        assert_eq!(remote.wire_stats().unwrap().tx, 1);
    }

    #[test]
    fn server_drops_malformed_and_unknown_frames() {
        let mut server = BackendServer::new(Bench::boxed(30));
        let t = SimTime::ZERO;
        assert!(server.handle(t, b"not a frame").is_none());
        let unknown = Frame::new(0x7F, 1, Vec::new()).encode();
        assert!(server.handle(t, &unknown).is_none());
        let mut bad = Frame::new(REQ_READ, 1, Vec::new()).encode();
        let n = bad.len();
        bad[n - 1] ^= 0xFF;
        assert!(server.handle(t, &bad).is_none(), "checksum must be checked");
        // Trailing payload on a bodyless request is rejected too.
        let junk = Frame::new(REQ_READ, 1, vec![9]).encode();
        assert!(server.handle(t, &junk).is_none());
    }

    #[test]
    fn server_drops_retired_opcodes() {
        // The retired kinds 0x01 (metadata), 0x03 (batched read) and 0x04
        // (gate counters) are dropped like any unknown kind, even a
        // checksum-valid batched read whose reply would overflow the frame
        // limit.
        let mut server = BackendServer::new(Bench::boxed(30));
        let meta = Frame::new(0x01, 0, Vec::new()).encode();
        assert!(server.handle(SimTime::ZERO, &meta).is_none());
        let mut w = WireWriter::new();
        w.u32(200_000);
        let read_many = Frame::new(0x03, 1, w.finish()).encode();
        assert!(server.handle(SimTime::ZERO, &read_many).is_none());
        let gate = Frame::new(0x04, 2, Vec::new()).encode();
        assert!(server.handle(SimTime::ZERO, &gate).is_none());
    }

    proptest! {
        /// Any reply payload decodes to a poll or a typed error. The
        /// result tag is forced to a valid value in two cases of three so
        /// the poll and error decoders see the arbitrary bytes.
        #[test]
        fn read_result_decoder_never_panics(
            tag in 0u8..3,
            mut payload in prop::collection::vec(any::<u8>(), 0..256),
        ) {
            if tag < 2 && !payload.is_empty() {
                payload[0] = tag;
            }
            let _ = decode_read_result(&payload, &["dev0", "pkg"]);
        }
    }
}
