//! Smoke test: every workload at toy size (one block of agents per
//! mechanism, 5 ticks, 200 queries), at the pinned default seed and at
//! one other, untraced and traced. Each run must pass all of its output
//! checks and emit exactly the metrics `BENCHMARK.json` lists, with their
//! units.

use envmon_perfbench::{run, Config, Size, Workload, DEFAULT_SEED};

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
fn listed(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let from = spec.find(&format!("\"{key}\"")).expect("metric list");
    let list = &spec[from..];
    let list = &list[..list.find(']').expect("list end")];
    let field = |entry: &str, name: &str| -> String {
        let tag = format!("\"{name}\": \"");
        let at = entry.find(&tag).expect("field") + tag.len();
        entry[at..]
            .split('"')
            .next()
            .expect("closing quote")
            .to_owned()
    };
    list.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

#[test]
fn every_workload_passes_its_checks_and_emits_every_listed_metric() {
    let end_to_end = listed("end_to_end");
    let per_layer = listed("per_layer");
    assert!(!end_to_end.is_empty() && !per_layer.is_empty());
    for workload in Workload::ALL {
        for seed in [DEFAULT_SEED, 7] {
            for (trace, expected) in [(false, &end_to_end), (true, &per_layer)] {
                let outcome = run(&Config {
                    workload,
                    seed,
                    seconds: 0.0,
                    trace,
                    size: Size::Toy,
                });
                let what = format!("{} seed {seed} trace {trace}", workload.name());
                assert!(outcome.correct, "{what}:\n{}", outcome.log.join("\n"));
                assert!(outcome.attempted > 0, "{what}: nothing attempted");
                assert_eq!(outcome.failed, 0, "{what}: operations failed");
                let emitted: Vec<(String, String)> = outcome
                    .metrics
                    .iter()
                    .map(|m| (m.name.clone(), m.unit.to_owned()))
                    .collect();
                assert_eq!(&emitted, expected, "{what}: metric set");
                assert!(
                    outcome.metrics.iter().all(|m| m.value.is_finite()),
                    "{what}: non-finite metric"
                );
                let line = outcome.json();
                assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
            }
        }
    }
}

#[test]
fn traced_runs_report_every_layer_the_workload_exercises() {
    let value = |metrics: &[envmon_perfbench::Metric], name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} missing"))
            .value
    };
    let traced = |workload| {
        run(&Config {
            workload,
            seed: DEFAULT_SEED,
            seconds: 0.0,
            trace: true,
            size: Size::Toy,
        })
        .metrics
    };
    let fleet = traced(Workload::Fleet);
    assert!(value(&fleet, "mech.p9-occ.reads") > 0.0);
    assert!(value(&fleet, "output.render_s") > 0.0);
    assert_eq!(
        value(&fleet, "daemon.tick_s"),
        0.0,
        "fleet bypasses the daemon"
    );
    let dash = traced(Workload::Dash);
    assert!(value(&dash, "query.range.count") > 0.0);
    assert!(value(&dash, "store.series") > 0.0);
    assert_eq!(value(&dash, "wire.tx"), 0.0, "dash is deployed locally");
    let live = traced(Workload::Live);
    assert!(value(&live, "wire.tx") > 0.0);
    assert!(value(&live, "plan.hits") > 0.0);
    assert!(value(&live, "daemon.ingest_publish_s") > 0.0);
    assert_eq!(
        value(&live, "wire.tx"),
        value(&live, "wire.rx") + value(&live, "wire.timeouts"),
        "wire ledger reconciles"
    );
}
