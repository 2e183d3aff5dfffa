//! Property test: the MonEQ output format round-trips arbitrary sessions.
//!
//! Round-trips are *exact*: floats render through f64's shortest
//! round-trip `Display`, and labels (device, domain, tag, agent, backend
//! names) are escaped, so even names containing tabs, newlines, commas, or
//! backslashes survive byte-for-byte.

use moneq::{Completeness, DataPoint, OutputFile, TagEvent, TagKind};
use proptest::prelude::*;
use simkit::SimTime;

/// Labels including the characters the tab-separated format must escape.
fn arb_label() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9\\\\,\t-]{0,8}"
}

fn arb_point() -> impl Strategy<Value = DataPoint> {
    (
        0u64..10_000_000_000,
        arb_label(),
        "[A-Za-z][A-Za-z ]{0,12}",
        0.0f64..10_000.0,
        prop::option::of(0.1f64..50.0),
        prop::option::of(0.0f64..2_000.0),
        prop::option::of(-20.0f64..120.0),
        prop::bool::ANY,
    )
        .prop_map(
            |(ns, device, domain, watts, volts, amps, temp_c, stale)| DataPoint {
                timestamp: SimTime::from_nanos(ns),
                device: device.into(),
                // The regex guarantees a leading letter, so trimming trailing
                // spaces never empties the field.
                domain: domain.trim_end().to_owned().into(),
                watts,
                volts,
                amps,
                temp_c,
                stale,
            },
        )
}

fn arb_completeness() -> impl Strategy<Value = Completeness> {
    (
        arb_label(),
        prop::collection::vec(0u64..1_000, 8),
        prop::option::of(0u64..10_000_000_000),
        // Rank sets exercise the optional 12th CMP field: empty keeps the
        // legacy 11-field line, non-empty round-trips through it.
        prop::collection::vec(0u32..64, 0..4),
    )
        .prop_map(|(device, c, disabled_at_ns, mut ranks)| {
            // The field is a sorted, deduped set — normalise the draw.
            ranks.sort_unstable();
            ranks.dedup();
            Completeness {
                device: device.into(),
                scheduled: c[0],
                succeeded: c[1],
                retried: c[2],
                stale_polls: c[3],
                missed_polls: c[4],
                records_fresh: c[5],
                records_stale: c[6],
                records_lost: c[7],
                disabled_at_ns,
                disabled_ranks: ranks,
            }
        })
}

fn arb_tag() -> impl Strategy<Value = TagEvent> {
    (arb_label(), prop::bool::ANY, 0u64..10_000_000_000).prop_map(|(label, start, ns)| TagEvent {
        label,
        kind: if start { TagKind::Start } else { TagKind::End },
        at: SimTime::from_nanos(ns),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn render_parse_roundtrip_is_exact(
        rank in 0u32..100_000,
        agent in "[A-Za-z0-9-]{1,20}",
        backends in prop::collection::vec("[a-z-]{1,12}", 1..4),
        interval_ns in 1u64..10_000_000_000,
        mut points in prop::collection::vec(arb_point(), 0..60),
        tags in prop::collection::vec(arb_tag(), 0..10),
        completeness in prop::collection::vec(arb_completeness(), 0..4),
    ) {
        points.sort_by_key(|p| p.timestamp);
        let f = OutputFile {
            rank,
            agent,
            backends,
            interval_ns,
            points: points.into(),
            tags,
            completeness,
        };
        let text = f.render();
        let back = OutputFile::parse(&text).expect("own output parses");
        prop_assert_eq!(&back, &f);
        // Exact float equality, bit for bit — not epsilon comparison.
        for (a, b) in back.points.iter().zip(&f.points) {
            prop_assert_eq!(a.watts.to_bits(), b.watts.to_bits());
            prop_assert_eq!(a.volts.map(f64::to_bits), b.volts.map(f64::to_bits));
            prop_assert_eq!(a.amps.map(f64::to_bits), b.amps.map(f64::to_bits));
            prop_assert_eq!(a.temp_c.map(f64::to_bits), b.temp_c.map(f64::to_bits));
        }
    }

    #[test]
    fn hostile_names_roundtrip_exactly(
        agent in ".{1,16}",
        backends in prop::collection::vec(".{1,10}", 1..4),
        device in ".{1,12}",
        label in ".{1,12}",
    ) {
        let t = SimTime::from_nanos(560_000_000);
        let f = OutputFile {
            rank: 1,
            agent,
            backends,
            interval_ns: 560_000_000,
            points: vec![DataPoint::power(t, device.clone(), "d", 42.5)].into(),
            tags: vec![
                TagEvent { label: label.clone(), kind: TagKind::Start, at: t },
                TagEvent { label, kind: TagKind::End, at: t },
            ],
            completeness: vec![Completeness::new(device.clone())],
        };
        let back = OutputFile::parse(&f.render()).expect("own output parses");
        prop_assert_eq!(&back, &f);
        // The suggested on-disk name never escapes the output directory.
        let name = f.file_name();
        prop_assert!(!name.contains('/'));
        prop_assert!(name.chars().all(|c| c.is_ascii_alphanumeric()
            || matches!(c, '.' | '_' | '-')));
    }

    #[test]
    fn parser_never_panics_on_mutations(
        bytes in prop::collection::vec(any::<u8>(), 0..400),
    ) {
        // Whatever bytes arrive, parse returns Ok or Err — never panics.
        if let Ok(text) = std::str::from_utf8(&bytes) {
            let _ = OutputFile::parse(text);
        }
    }
}
