//! Property tests for the Xeon Phi model.

use mic_sim::micras::{PowerFileReading, POWER_FILE};
use mic_sim::{IpmbFrame, MicrasDaemon, PhiCard, PhiSpec, ScifNetwork, ScifPort, Smc};
use powermodel::DemandTrace;
use proptest::prelude::*;
use simkit::{NoiseStream, SimTime};
use std::sync::Arc;

proptest! {
    #[test]
    fn ipmb_roundtrip_arbitrary_payload(
        netfn in 0u8..0x3F,
        cmd in any::<u8>(),
        seq in 0u8..0x40,
        data in prop::collection::vec(any::<u8>(), 0..48),
    ) {
        let f = IpmbFrame::request(netfn, cmd, seq, data);
        let wire = f.encode();
        prop_assert_eq!(IpmbFrame::decode(&wire).unwrap(), f);
    }

    #[test]
    fn ipmb_single_byte_corruption_detected_or_equal(
        data in prop::collection::vec(any::<u8>(), 0..16),
        flip_pos in any::<prop::sample::Index>(),
        flip_bit in 0u8..8,
    ) {
        let f = IpmbFrame::request(0x2E, 0x50, 1, data);
        let mut wire = f.encode();
        let pos = flip_pos.index(wire.len());
        wire[pos] ^= 1 << flip_bit;
        // A corrupted frame either fails a checksum or decodes to a frame
        // that differs from the original (checksums cover every byte, so
        // decoding to an *equal* frame is impossible after a real flip).
        match IpmbFrame::decode(&wire) {
            Err(_) => {}
            Ok(decoded) => prop_assert_ne!(decoded, f),
        }
    }

    #[test]
    fn scif_messages_never_reorder(
        sizes in prop::collection::vec(1usize..2_000_000, 1..20),
        gaps_us in prop::collection::vec(0u64..500, 1..20),
    ) {
        let mut net = ScifNetwork::new(2);
        net.listen(1, ScifPort(77)).unwrap();
        let (h, c) = net.connect(0, 1, ScifPort(77)).unwrap();
        let mut t = SimTime::ZERO;
        let mut last_delivery = SimTime::ZERO;
        for (i, (&size, &gap)) in sizes.iter().zip(gaps_us.iter().cycle()).enumerate() {
            t += simkit::SimDuration::from_micros(gap);
            let payload = vec![(i % 251) as u8; size];
            let d = net.send(h, &payload, t).unwrap();
            prop_assert!(d >= last_delivery, "delivery went backwards");
            last_delivery = d;
        }
        // Drain in order and verify the tag bytes are sequential.
        let mut expected = 0usize;
        while let Some((_, msg)) = net.recv(c, SimTime::MAX).unwrap() {
            prop_assert_eq!(msg[0], (expected % 251) as u8);
            expected += 1;
        }
        prop_assert_eq!(expected, sizes.len());
    }

    #[test]
    fn micras_power_file_always_parses_and_is_bounded(
        level_permille in 0u64..1_000,
        t_secs in 0u64..180,
    ) {
        let level = level_permille as f64 / 1_000.0;
        let mut profile =
            hpc_workloads::WorkloadProfile::new("w", simkit::SimDuration::from_secs(200));
        let d = simkit::SimDuration::from_secs(200);
        profile.set_demand(
            hpc_workloads::Channel::Accelerator,
            powermodel::PhaseBuilder::new().phase(d, level).build_open(),
        );
        let card = Arc::new(PhiCard::new(
            PhiSpec::default(),
            &profile,
            DemandTrace::zero(),
            SimTime::from_secs(200),
        ));
        let smc = Arc::new(Smc::new(NoiseStream::new(level_permille)));
        let daemon = MicrasDaemon::start(card, smc, &profile);
        let text = daemon.read_file(POWER_FILE, SimTime::from_secs(t_secs)).unwrap();
        let r = PowerFileReading::parse(&text).expect("rendered file parses");
        let w = r.total_watts();
        // Envelope: idle 105 W to full card ~200 W, plus sensor noise.
        prop_assert!((95.0..215.0).contains(&w), "card power {}", w);
        // The voltage/current pair implies a plausible core power.
        let core_w = (r.vccp_uv as f64 / 1e6) * (r.vccp_ua as f64 / 1e6);
        prop_assert!(core_w > 20.0 && core_w < 140.0, "core {}", core_w);
    }

    /// Hostile text makes the power-file parser return `None` or a
    /// reading, never panic: noise, a rendered file cut at any character
    /// boundary, and a rendered file with one line swapped for noise. A
    /// cut file that still parses agrees with the whole file on every
    /// field the cut left whole.
    #[test]
    fn micras_power_file_parser_survives_hostile_text(
        noise in prop::collection::vec(".{0,24}", 0..8),
        junk in ".{0,24}",
        cut in any::<prop::sample::Index>(),
        line in any::<prop::sample::Index>(),
        t_secs in 0u64..180,
    ) {
        let _ = PowerFileReading::parse(&noise.join("\n"));

        let profile = hpc_workloads::Noop::figure7().profile();
        let card = Arc::new(PhiCard::new(
            PhiSpec::default(),
            &profile,
            DemandTrace::zero(),
            SimTime::from_secs(200),
        ));
        let smc = Arc::new(Smc::new(NoiseStream::new(t_secs)));
        let daemon = MicrasDaemon::start(card, smc, &profile);
        let text = daemon.read_file(POWER_FILE, SimTime::from_secs(t_secs)).unwrap();
        let whole = PowerFileReading::parse(&text).expect("rendered file parses");

        let ends: Vec<usize> = text.char_indices().map(|(i, _)| i).chain([text.len()]).collect();
        let end = ends[cut.index(ends.len())];
        if let Some(r) = PowerFileReading::parse(&text[..end]) {
            // Only the last number, the vccp current, can have been cut.
            prop_assert_eq!(
                (r.tot0_uw, r.tot1_uw, r.pcie_uw, r.vccp_uv),
                (whole.tot0_uw, whole.tot1_uw, whole.pcie_uw, whole.vccp_uv)
            );
        }

        let mut lines: Vec<&str> = text.lines().collect();
        let k = line.index(lines.len());
        lines[k] = &junk;
        let _ = PowerFileReading::parse(&lines.join("\n"));
    }

    #[test]
    fn smc_reading_is_stable_within_generation(
        t_ms in 0u64..120_000,
        jitter_us in 0u64..49_999,
    ) {
        let profile = hpc_workloads::Noop::figure7().profile();
        let card = PhiCard::new(
            PhiSpec::default(),
            &profile,
            DemandTrace::zero(),
            SimTime::from_secs(150),
        );
        let smc = Smc::new(NoiseStream::new(3));
        let base = SimTime::from_millis(t_ms).grid_floor(
            SimTime::ZERO,
            mic_sim::smc::SMC_SAMPLE_PERIOD,
        );
        let a = smc.read(&card, base);
        let b = smc.read(&card, base + simkit::SimDuration::from_micros(jitter_us));
        prop_assert_eq!(a, b);
    }
}
