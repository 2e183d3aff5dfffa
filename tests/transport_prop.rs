//! Property tests for the framed wire protocol and remote deployment
//! (DESIGN.md §14).
//!
//! Four kinds of property:
//!
//! * **Framing** — `Frame::write` then `Frame::decode` round-trips
//!   arbitrary payloads, and a frame followed by more bytes is refused.
//! * **Codecs** — a fault-free wire round trip is lossless for every
//!   reading shape the mechanisms produce: all optional rails, stale
//!   flags, unicode device names, and every `f64` bit pattern short of
//!   NaN (f64s travel as bit patterns, so even `-0.0` and subnormals
//!   survive byte-exact).
//! * **Hostile input** — no byte string a link or a client can deliver
//!   panics the frame decoder, the payload decoders (with and without a
//!   label vocabulary) or the server's `serve`: each returns a value or a
//!   typed error, a frame that decodes re-encodes to the same bytes, the
//!   server answers only the protocol's one request kind, and no frame
//!   with exactly one changed byte decodes or is answered.
//! * **Deployment** — a parallel `ClusterRun` of *remote* sessions is
//!   byte-identical to a serial one: the wire layer must not introduce
//!   any worker-order dependence the local path doesn't have. A
//!   mechanism that lends some labels and builds others reads the same
//!   remotely as locally, lent labels coming back borrowed.

use envmon::prelude::*;
use moneq::remote::{
    decode_poll, decode_read_error, encode_poll, encode_read_error, BackendServer, RemoteBackend,
    REQ_READ, RESP_FLAG,
};
use moneq::{ClusterResult, ClusterRun, DataPoint, EnvBackend, Poll};
use proptest::prelude::*;
use proptest::prop::sample::Index;
use simkit::wire::{Frame, WireError, WireReader, WireWriter};
use std::borrow::Cow;
use std::sync::Arc;

/// The labels [`Mixed`] lends: the vocabulary a server learns from it.
const LENT: [&str; 3] = ["dev0", "pkg", "dram"];

/// Any `f64` bit pattern except NaN (NaN breaks `==` comparison, not the
/// codec), plus the edge values worth hitting every run.
fn wire_f64() -> impl Strategy<Value = f64> {
    (any::<u64>(), 0u8..8)
        .prop_map(|(bits, pick)| match pick {
            0 => 0.0,
            1 => -0.0,
            2 => f64::INFINITY,
            3 => f64::NEG_INFINITY,
            4 => f64::MIN_POSITIVE,
            5 => f64::MAX,
            _ => f64::from_bits(bits),
        })
        .prop_filter("NaN has no ==", |v| !v.is_nan())
}

fn point() -> impl Strategy<Value = DataPoint> {
    (
        any::<u64>(),
        ".{0,16}",
        ".{0,16}",
        wire_f64(),
        prop::option::of(wire_f64()),
        prop::option::of(wire_f64()),
        prop::option::of(wire_f64()),
        any::<bool>(),
    )
        .prop_map(
            |(ts, device, domain, watts, volts, amps, temp_c, stale)| DataPoint {
                timestamp: SimTime::from_nanos(ts),
                device: device.into(),
                domain: domain.into(),
                watts,
                volts,
                amps,
                temp_c,
                stale,
            },
        )
}

/// A lent label two times in five, any string otherwise.
fn label() -> impl Strategy<Value = Cow<'static, str>> {
    (0usize..5, ".{0,16}").prop_map(|(pick, any)| match LENT.get(pick) {
        Some(&lent) => Cow::Borrowed(lent),
        None => Cow::Owned(any),
    })
}

/// A reading whose labels are sometimes lent ones.
fn lent_point() -> impl Strategy<Value = DataPoint> {
    (point(), label(), label()).prop_map(|(p, device, domain)| DataPoint {
        device,
        domain,
        ..p
    })
}

fn read_error() -> impl Strategy<Value = ReadError> {
    (0u8..4, ".{0,24}", any::<u64>()).prop_map(|(pick, msg, n)| match pick {
        0 => ReadError::Transient(msg),
        1 => ReadError::Timeout {
            stalled: SimDuration::from_nanos(n),
        },
        2 => ReadError::NoData,
        _ => ReadError::Unavailable(msg),
    })
}

/// `payload` framed as `kind` and `seq`.
fn frame(kind: u8, seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::new();
    Frame::write(&mut buf, kind, seq, |w| {
        payload.iter().for_each(|&b| w.u8(b))
    })
    .expect("payload within the limit");
    buf
}

/// The payload `write` produces, written inside a frame and read back out
/// of it, the way every payload crosses the wire.
fn payload(write: impl FnOnce(&mut WireWriter)) -> Vec<u8> {
    let mut buf = Vec::new();
    Frame::write(&mut buf, REQ_READ | RESP_FLAG, 1, write).expect("payload within the limit");
    Frame::decode(&buf)
        .expect("a frame just written")
        .payload
        .to_vec()
}

/// `bytes` after damage: one byte XOR-ed with `mask` (a zero mask leaves
/// it intact), then cut at `cut` (possibly past the end, i.e. not cut).
fn damaged(mut bytes: Vec<u8>, flip: Index, mask: u8, cut: Index) -> Vec<u8> {
    if !bytes.is_empty() {
        let i = flip.index(bytes.len());
        bytes[i] ^= mask;
    }
    bytes.truncate(cut.index(bytes.len() + 1));
    bytes
}

/// Bytes aimed at every branch of the frame decoder: pure noise, a valid
/// magic/version/kind prefix over noise, or a damaged valid frame.
fn hostile_frame() -> impl Strategy<Value = Vec<u8>> {
    (
        0u8..3,
        any::<u8>(),
        prop::collection::vec(any::<u8>(), 0..96),
        any::<Index>(),
        any::<u8>(),
        any::<Index>(),
    )
        .prop_map(|(pick, kind, noise, flip, mask, cut)| match pick {
            0 => noise,
            1 => {
                let mut bytes = frame(kind, 7, &[]);
                bytes.truncate(4);
                bytes.extend(noise);
                bytes
            }
            _ => damaged(frame(kind, 7, &noise), flip, mask, cut),
        })
}

/// Payloads aimed at the poll and read-error decoders: noise, or a
/// damaged valid encoding of a poll and of a read error.
fn hostile_payload() -> impl Strategy<Value = Vec<u8>> {
    (
        0u8..3,
        prop::collection::vec(lent_point(), 0..4),
        read_error(),
        prop::collection::vec(any::<u8>(), 0..128),
        any::<Index>(),
        any::<u8>(),
        any::<Index>(),
    )
        .prop_map(|(pick, points, e, noise, flip, mask, cut)| {
            let bytes = match pick {
                0 => return noise,
                1 => payload(|w| encode_poll(w, &Poll { points, missing: 0 })),
                _ => payload(|w| encode_read_error(w, &e)),
            };
            damaged(bytes, flip, mask, cut)
        })
}

/// A stateless mechanism: every read serves the same one-record poll.
struct Fixed;

impl EnvBackend for Fixed {
    fn name(&self) -> &'static str {
        "fixed"
    }
    fn platform(&self) -> Platform {
        Platform::Rapl
    }
    fn min_interval(&self) -> SimDuration {
        SimDuration::from_millis(60)
    }
    fn poll_cost(&self) -> SimDuration {
        SimDuration::from_micros(30)
    }
    fn capabilities(&self) -> Vec<(Metric, Support)> {
        Vec::new()
    }
    fn read(&mut self, t: SimTime) -> Result<Poll, ReadError> {
        Ok(Poll::complete(vec![DataPoint::power(
            t, "dev0", "pkg", 42.5,
        )]))
    }
    fn records_per_poll(&self) -> usize {
        1
    }
}

/// A stateless mechanism that lends its device label and two domain labels
/// and builds a third domain label on every read, outside any vocabulary.
struct Mixed;

impl EnvBackend for Mixed {
    fn name(&self) -> &'static str {
        "mixed"
    }
    fn platform(&self) -> Platform {
        Platform::Rapl
    }
    fn min_interval(&self) -> SimDuration {
        SimDuration::from_millis(60)
    }
    fn poll_cost(&self) -> SimDuration {
        SimDuration::from_micros(30)
    }
    fn capabilities(&self) -> Vec<(Metric, Support)> {
        Vec::new()
    }
    fn read(&mut self, t: SimTime) -> Result<Poll, ReadError> {
        let ms = t.as_nanos() / 1_000_000;
        Ok(Poll::complete(vec![
            DataPoint::power(t, LENT[0], LENT[1], 40.0 + (ms % 7) as f64),
            DataPoint::power(t, LENT[0], LENT[2], 7.25),
            DataPoint::power(t, LENT[0], format!("zone{}", (ms / 60) % 3), 2.5),
        ]))
    }
    fn records_per_poll(&self) -> usize {
        3
    }
}

/// `agents` sessions of [`Mixed`] for `secs` virtual seconds, local when
/// `link` is `None` and deployed behind it otherwise.
fn run_mixed_cluster(
    agents: usize,
    secs: u64,
    par_agents: usize,
    link: Option<LinkSpec>,
) -> ClusterResult {
    let mut run = ClusterRun::launch(
        agents,
        None,
        |_| Box::new(Mixed),
        |rank| format!("mixed{rank:02}"),
        SimTime::ZERO,
    );
    if let Some(link) = link {
        run = run
            .with_collection_plan(CollectionPlan::per_agent().deployed(Deployment::Remote(link)));
    }
    let mut run = run.with_par_agents(par_agents);
    let end = SimTime::from_secs(secs);
    run.run_until(end);
    run.finalize(end)
}

/// A cluster of 32-rank chunks that reaches `width` workers: enough whole
/// chunks, then a `tail` of up to two more, ragged unless it fills them.
fn agents_for(width: usize, tail: usize) -> usize {
    32 * (width - 1) + tail
}

/// A BG/Q cluster with every session's backend deployed behind the given
/// link. Mirrors `cluster_parallel_prop.rs`.
fn run_remote_cluster(
    seed: u64,
    agents: usize,
    secs: u64,
    par_agents: usize,
    link: LinkSpec,
) -> ClusterResult {
    let profile = {
        let mut p = WorkloadProfile::new("prop", SimDuration::from_secs(secs));
        p.set_demand(
            Channel::Cpu,
            powermodel::PhaseBuilder::new()
                .phase(SimDuration::from_secs(secs), 0.6)
                .build(),
        );
        p
    };
    let mut machine = BgqMachine::new(BgqConfig::default(), seed);
    let boards: Vec<usize> = (0..agents.min(32)).collect();
    machine.assign_job(&boards, &profile);
    let machine = Arc::new(machine);
    let mut run = ClusterRun::launch(
        agents,
        None,
        |rank| Box::new(BgqBackend::new(machine.clone(), rank % 32)),
        |rank| format!("agent{rank:04}"),
        SimTime::ZERO,
    )
    .with_collection_plan(CollectionPlan::per_agent().deployed(Deployment::Remote(link)))
    .with_par_agents(par_agents);
    let end = SimTime::from_secs(secs);
    run.run_until(end);
    run.finalize(end)
}

proptest! {
    #![proptest_config(ProptestConfig::scaled(10))]

    #[test]
    fn frame_roundtrips_arbitrary_payloads(
        kind in any::<u8>(),
        seq in any::<u64>(),
        payload in prop::collection::vec(any::<u8>(), 0..2048),
    ) {
        let wire = frame(kind, seq, &payload);
        let back = Frame::decode(&wire).unwrap();
        prop_assert_eq!((back.kind, back.seq, back.payload), (kind, seq, &payload[..]));
        // Decode takes exactly one frame: whatever follows is refused.
        let mut stream = wire.clone();
        stream.extend_from_slice(&[0xA5; 13]);
        prop_assert_eq!(Frame::decode(&stream), Err(WireError::BadLength));
    }

    #[test]
    fn poll_codec_is_lossless_for_every_reading_shape(
        points in prop::collection::vec(point(), 0..24),
        missing in any::<u32>(),
    ) {
        let poll = Poll { points, missing };
        let bytes = payload(|w| encode_poll(w, &poll));
        let mut r = WireReader::new(&bytes);
        let back = decode_poll(&mut r, &[]).unwrap();
        r.expect_end().unwrap();
        prop_assert_eq!(back, poll);
    }

    #[test]
    fn read_error_codec_is_lossless(e in read_error()) {
        let bytes = payload(|w| encode_read_error(w, &e));
        let mut r = WireReader::new(&bytes);
        let back = decode_read_error(&mut r).unwrap();
        r.expect_end().unwrap();
        prop_assert_eq!(back, e);
    }

    /// Remote sessions stay order-independent: a parallel phase must be a
    /// pure wall-clock optimization with the wire in the path, exactly as
    /// it is for local backends. The link carries real latency (but no
    /// faults) so the wire actually shifts timestamps — and shifts them
    /// identically at every phase width.
    #[test]
    fn remote_parallel_equals_remote_serial(
        seed in 0u64..1_000,
        workers in 2usize..6,
        tail in 1usize..64,
    ) {
        let agents = agents_for(workers, tail);
        let link = LinkSpec::lan();
        let serial = run_remote_cluster(seed, agents, 3, 1, link);
        let parallel = run_remote_cluster(seed, agents, 3, workers, link);
        prop_assert_eq!(parallel.sched.workers, workers);
        prop_assert_eq!(&serial.files, &parallel.files);
        prop_assert_eq!(&serial.overheads, &parallel.overheads);
        prop_assert_eq!(serial.dropped_records, parallel.dropped_records);
        for (s, p) in serial.files.iter().zip(&parallel.files) {
            prop_assert_eq!(s.render(), p.render());
        }
    }

    /// Lent and built labels alike read the same over the ideal link as
    /// locally: mapping decoded labels onto the server's vocabulary
    /// changes no value.
    #[test]
    fn mixed_labels_over_ideal_link_equal_local(agents in 1usize..6, secs in 1u64..4) {
        let local = run_mixed_cluster(agents, secs, 1, None);
        let remote = run_mixed_cluster(agents, secs, 1, Some(LinkSpec::ideal()));
        prop_assert_eq!(&local.files, &remote.files);
        prop_assert_eq!(&local.overheads, &remote.overheads);
        for (l, r) in local.files.iter().zip(&remote.files) {
            prop_assert_eq!(l.render(), r.render());
        }
    }

    /// Over a faulty LAN, remote sessions of a mechanism with lent and
    /// built labels are byte-identical at every pool width.
    #[test]
    fn mixed_labels_remote_parallel_equals_serial(
        seed in 0u64..1_000,
        workers in 2usize..6,
        tail in 1usize..64,
    ) {
        let agents = agents_for(workers, tail);
        let link = LinkSpec::lan().with_faults(0.05, 0.02, 0.02).with_seed(seed);
        let serial = run_mixed_cluster(agents, 3, 1, Some(link));
        let parallel = run_mixed_cluster(agents, 3, workers, Some(link));
        prop_assert_eq!(parallel.sched.workers, workers);
        prop_assert_eq!(&serial.files, &parallel.files);
        prop_assert_eq!(&serial.overheads, &parallel.overheads);
        prop_assert_eq!(serial.dropped_records, parallel.dropped_records);
        for (s, p) in serial.files.iter().zip(&parallel.files) {
            prop_assert_eq!(s.render(), p.render());
        }
    }
}

/// A remote read hands back the labels its server's backend lent as the
/// same borrows, and every label the backend built as an owned copy.
#[test]
fn lent_labels_decode_borrowed_and_built_ones_owned() {
    let mut remote = RemoteBackend::connect(Box::new(Mixed), LinkSpec::ideal(), 0);
    let t = SimTime::from_millis(120);
    let poll = remote.read(t).expect("ideal link");
    assert_eq!(poll, Mixed.read(t).expect("local read"));
    for label in poll.points.iter().flat_map(|p| [&p.device, &p.domain]) {
        let lent = LENT.contains(&label.as_ref());
        assert_eq!(matches!(label, Cow::Borrowed(_)), lent, "label {label}");
    }
    assert!(
        poll.points
            .iter()
            .any(|p| matches!(p.domain, Cow::Owned(_))),
        "no built label was read"
    );
}

// The hostile-input properties are cheap, so they run at the full
// PROPTEST_CASES count.
proptest! {
    /// Hostile bytes decode to a frame or a typed error, never a panic,
    /// and a frame that decodes re-encodes to exactly the bytes it came
    /// from.
    #[test]
    fn frame_decoder_never_panics(bytes in hostile_frame()) {
        if let Ok(f) = Frame::decode(&bytes) {
            prop_assert_eq!(frame(f.kind, f.seq, f.payload), bytes);
        }
    }

    /// Any payload decodes to a poll, a read error or a typed
    /// `WireError`, never a panic — with or without a label vocabulary,
    /// and the vocabulary changes no decoded value: lent labels come back
    /// borrowed, every other label owned.
    #[test]
    fn payload_decoders_never_panic(payload in hostile_payload()) {
        let owned = decode_poll(&mut WireReader::new(&payload), &[]);
        let mapped = decode_poll(&mut WireReader::new(&payload), &LENT);
        if let Ok(poll) = &mapped {
            for label in poll.points.iter().flat_map(|p| [&p.device, &p.domain]) {
                let lent = LENT.contains(&label.as_ref());
                prop_assert_eq!(matches!(label, Cow::Borrowed(_)), lent);
            }
        }
        prop_assert_eq!(mapped, owned);
        let _ = decode_read_error(&mut WireReader::new(&payload));
    }

    /// The server answers exactly `READ` with an empty payload. Every
    /// other checksum-valid frame, including the retired kinds 0x01, 0x03
    /// and 0x04 with an agent-count payload, is dropped, and none panics
    /// the server.
    #[test]
    fn server_answers_only_read(
        pick in 0u8..6,
        other in any::<u8>(),
        seq in any::<u64>(),
        shape in 0u8..3,
        agents in any::<u32>(),
        noise in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        // Kinds 0x01–0x04 two times in three, any kind otherwise.
        let kind = if pick < 4 { pick + 1 } else { other };
        let body = match shape {
            0 => Vec::new(),
            1 => payload(|w| w.u32(agents)),
            _ => noise,
        };
        let served = kind == REQ_READ && body.is_empty();
        let mut server = BackendServer::new(Box::new(Fixed));
        let mut reply = Vec::new();
        let cost = server.serve(SimTime::from_millis(60), &frame(kind, seq, &body), &mut reply);
        prop_assert_eq!(cost.is_some(), served);
        if cost.is_some() {
            let f = Frame::decode(&reply).unwrap();
            prop_assert_eq!((f.kind, f.seq), (kind | RESP_FLAG, seq));
        }
    }

    /// No frame with exactly one changed byte decodes, and the server
    /// answers no request with one: the contract the frame checksum
    /// keeps, and the reason every request the link corrupts is dropped.
    /// Each case changes every byte of its frame in turn, by one mask.
    #[test]
    fn no_single_byte_change_decodes(
        kind in any::<u8>(),
        seq in any::<u64>(),
        body in prop::collection::vec(any::<u8>(), 0..300),
        mask in 1u8..=255,
    ) {
        let mut server = BackendServer::new(Box::new(Fixed));
        for mut bytes in [frame(kind, seq, &body), frame(REQ_READ, seq, &[])] {
            for i in 0..bytes.len() {
                bytes[i] ^= mask;
                prop_assert!(Frame::decode(&bytes).is_err(), "byte {} ^ {:#04x}", i, mask);
                let cost = server.serve(SimTime::from_millis(60), &bytes, &mut Vec::new());
                prop_assert!(cost.is_none());
                bytes[i] ^= mask;
            }
        }
    }
}
