//! `bench_check` — the bench regression guard. Re-runs every `*_sweep`
//! bin with `--quick` (the bins sit next to this one) and checks the fresh
//! BENCH files against the committed ones at the workspace root: scale-free
//! ratios within 20%, the committed 49k-agent launch under 10 ms, and every
//! tolerance-free invariant. DESIGN.md §15.3 lists each check and its bound.
//!
//! ```text
//! cargo build --release -p envmon-bench && ./target/release/bench_check
//! ```
//!
//! Exits 1 when a sweep exits non-zero or any check fails, including a
//! check that reads no value.

use envmon_bench::bench_file::{rows, values};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::Command;

const CACHE: &str = "BENCH_cache.json";
const CLUSTER: &str = "BENCH_cluster.json";
const TELEMETRY: &str = "BENCH_telemetry.json";
const ACCURACY: &str = "BENCH_accuracy.json";
const QUERY: &str = "BENCH_query.json";
const TRANSPORT: &str = "BENCH_transport.json";
const SCENARIOS: &str = "BENCH_scenarios.json";

/// Each sweep bin and the BENCH file it writes.
const SWEEPS: [(&str, &str); 7] = [
    ("cache_sweep", CACHE),
    ("cluster_sweep", CLUSTER),
    ("telemetry_sweep", TELEMETRY),
    ("accuracy_sweep", ACCURACY),
    ("query_sweep", QUERY),
    ("transport_sweep", TRANSPORT),
    ("scenario_sweep", SCENARIOS),
];

/// A check's printed line: `Ok` when it holds, `Err` when it fails.
type Outcome = Result<String, String>;

/// One side of the comparison: the text of every BENCH file.
struct Side {
    /// `fresh` or `committed`, for messages.
    name: &'static str,
    texts: HashMap<&'static str, String>,
}

impl Side {
    /// Read every BENCH file from `dir`. A missing file reads as empty, so
    /// every check on it fails.
    fn read(name: &'static str, dir: &Path) -> Self {
        let texts = SWEEPS
            .iter()
            .map(|&(_, file)| {
                let text = std::fs::read_to_string(dir.join(file)).unwrap_or_default();
                (file, text)
            })
            .collect();
        Side { name, texts }
    }

    fn text(&self, file: &str) -> &str {
        self.texts.get(file).map_or("", String::as_str)
    }

    /// Every value of `key` in `file`, or the failure line when there is
    /// none or one is not a number.
    fn values(&self, file: &str, key: &str) -> Result<Vec<f64>, String> {
        let v = values(self.text(file), key);
        if v.is_empty() || v.iter().any(|x| x.is_nan()) {
            return Err(format!(
                "FAIL {} {file}: no numeric \"{key}\" value",
                self.name
            ));
        }
        Ok(v)
    }
}

fn min(v: Vec<f64>) -> f64 {
    v.into_iter().fold(f64::INFINITY, f64::min)
}

fn max(v: Vec<f64>) -> f64 {
    v.into_iter().fold(f64::NEG_INFINITY, f64::max)
}

/// The telemetry on/off wall ratio, from the worst leg's overhead percent.
fn on_off(overhead_pct: Vec<f64>) -> f64 {
    1.0 + max(overhead_pct) / 100.0
}

/// `fresh` against `committed`, with 20% tolerance: at least 0.8× when
/// higher is better, at most 1.2× when lower is.
fn ratio(
    label: &str,
    higher_is_better: bool,
    fresh: Result<f64, String>,
    committed: Result<f64, String>,
) -> Outcome {
    let (f, c) = (fresh?, committed?);
    let line = format!("{label:<28} {f:.2} vs committed {c:.2}");
    if (higher_is_better && f >= 0.8 * c) || (!higher_is_better && f <= 1.2 * c) {
        Ok(format!("ok   {line}"))
    } else {
        Err(format!("FAIL {line} (>20% regression)"))
    }
}

/// The parallel speedup, fresh max against committed min. A pool of width
/// 1 ran serial against serial, so unless both files' widest pool is wider
/// the ratio is noise and the check is skipped. A file without the width
/// counts as width 1.
fn speedup(fresh: &Side, committed: &Side) -> Outcome {
    let width = |side: &Side| max(values(side.text(CLUSTER), "pool_width")).max(1.0);
    let (fw, cw) = (width(fresh), width(committed));
    if fw <= 1.0 || cw <= 1.0 {
        return Ok(format!(
            "skip cluster parallel speedup (pool width: fresh={fw}, committed={cw}; \
             serial-vs-serial ratios are noise)"
        ));
    }
    ratio(
        "cluster parallel speedup",
        true,
        fresh.values(CLUSTER, "speedup").map(max),
        committed.values(CLUSTER, "speedup").map(min),
    )
}

/// The committed 49k-agent leg's launch stays under the 10 ms the docs
/// claim: a property of the recording, not of this host.
fn launch_49k(committed: &Side) -> Outcome {
    let launch: Vec<f64> = rows(committed.text(CLUSTER))
        .filter(|row| values(row, "agents") == [49_152.0])
        .flat_map(|row| values(row, "launch_ms"))
        .collect();
    match launch[..] {
        [ms] if ms < 10.0 => Ok(format!("ok   committed 49k launch_ms      {ms} < 10")),
        [ms] => Err(format!("FAIL committed 49k launch_ms {ms} >= 10 ms")),
        _ => Err(format!(
            "FAIL committed {CLUSTER}: {} \"launch_ms\" values in 49152-agent rows, want 1",
            launch.len()
        )),
    }
}

/// A tolerance-free invariant: every value of `key` in `file` is 1 on
/// each of `sides`, over at least `min_values` values.
fn all_ones(sides: &[&Side], file: &str, key: &str, min_values: usize) -> Outcome {
    for side in sides {
        let v = side.values(file, key)?;
        let broken = v.iter().filter(|&&x| x != 1.0).count();
        if v.len() < min_values || broken > 0 {
            return Err(format!(
                "FAIL {} {file}: \"{key}\" is not 1 on {broken} of {} values (want at least {min_values})",
                side.name,
                v.len()
            ));
        }
    }
    let names: Vec<&str> = sides.iter().map(|s| s.name).collect();
    Ok(format!("ok   {file} {key} all 1 ({})", names.join(" + ")))
}

/// Scale-free ratios where higher is better, fresh min against committed
/// min: (label, file, key).
const AT_LEAST: [(&str, &str, &str); 5] = [
    ("cache collection_factor", CACHE, "collection_factor"),
    ("emon cadence growth", ACCURACY, "emon_cadence_growth"),
    ("nvml cadence growth", ACCURACY, "nvml_cadence_growth"),
    ("occ cadence growth", ACCURACY, "occ_cadence_growth"),
    ("emon burst factor", ACCURACY, "emon_burst_factor"),
];

/// Tolerance-free invariants: (file, key, checked on the committed file
/// too, minimum values). Four scenario rows (one per catalog experiment)
/// keep an empty or truncated file from passing.
const INVARIANTS: [(&str, &str, bool, usize); 10] = [
    (ACCURACY, "rapl_within_tick", false, 1),
    (ACCURACY, "exact", false, 1),
    (ACCURACY, "occ_noise_zero", true, 1),
    (QUERY, "exact", true, 1),
    (QUERY, "coherent", true, 1),
    (TRANSPORT, "identical", true, 1),
    (TRANSPORT, "exact", true, 1),
    (TRANSPORT, "reconciled", true, 1),
    (SCENARIOS, "invariant", true, 4),
    (SCENARIOS, "deterministic", true, 1),
];

/// Every check: the ratios, the static launch claim, then the invariants.
fn checks(fresh: &Side, committed: &Side) -> Vec<Outcome> {
    let mut out: Vec<Outcome> = AT_LEAST
        .iter()
        .map(|&(label, file, key)| {
            let fresh = fresh.values(file, key).map(min);
            ratio(label, true, fresh, committed.values(file, key).map(min))
        })
        .collect();
    out.push(speedup(fresh, committed));
    out.push(ratio(
        "telemetry on/off ratio",
        false,
        fresh.values(TELEMETRY, "overhead_pct").map(on_off),
        committed.values(TELEMETRY, "overhead_pct").map(on_off),
    ));
    out.push(launch_49k(committed));
    for (file, key, committed_too, min_values) in INVARIANTS {
        let sides: &[&Side] = if committed_too {
            &[fresh, committed]
        } else {
            &[fresh]
        };
        out.push(all_ones(sides, file, key, min_values));
    }
    out
}

/// Run one sweep; the failure line when it cannot start or exits non-zero.
fn sweep(cmd: &mut Command) -> Result<(), String> {
    match cmd.status() {
        Ok(status) if status.success() => Ok(()),
        Ok(status) => Err(format!("FAIL {cmd:?} exited with {status}")),
        Err(e) => Err(format!("FAIL {cmd:?} did not start: {e}")),
    }
}

/// Where the committed BENCH files live.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn main() {
    let exe = std::env::current_exe().expect("own executable path");
    let bins = exe.parent().expect("executable directory");
    let tmp = std::env::temp_dir().join(format!("bench_check_{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("temporary directory");
    let mut failed = false;
    for (bin, file) in SWEEPS {
        eprintln!("==> {bin} --quick");
        let mut cmd = Command::new(bins.join(bin));
        cmd.args(["--quick", "--out"]).arg(tmp.join(file));
        if let Err(line) = sweep(&mut cmd) {
            println!("{line}");
            failed = true;
        }
    }
    let fresh = Side::read("fresh", &tmp);
    // Best effort: a leftover temporary directory is not a check failure.
    let _ = std::fs::remove_dir_all(&tmp);
    let committed = Side::read("committed", &workspace_root());

    for outcome in checks(&fresh, &committed) {
        let line = outcome.unwrap_or_else(|line| {
            failed = true;
            line
        });
        println!("{line}");
    }
    if failed {
        println!("BENCH FAILED; if a committed value should change, regenerate its");
        println!("BENCH_*.json with the full (non --quick) sweep and commit it");
        std::process::exit(1);
    }
    println!("BENCH OK");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed() -> Side {
        Side::read("committed", &workspace_root())
    }

    /// `text` with every value of `key` replaced by `value`.
    fn set(text: &str, key: &str, value: &str) -> String {
        let pattern = format!("\"{key}\": ");
        let (mut out, mut rest) = (String::new(), text);
        while let Some(at) = rest.find(&pattern) {
            let (head, tail) = rest.split_at(at + pattern.len());
            out += head;
            out += value;
            rest = &tail[tail.find([',', '}', '\n']).unwrap_or(tail.len())..];
        }
        out + rest
    }

    /// The committed files read twice, as `[fresh, committed]`.
    fn both() -> [Side; 2] {
        let mut sides = [committed(), committed()];
        sides[0].name = "fresh";
        sides
    }

    /// One edit: (side, file, key, value), side 0 fresh and 1 committed.
    type Edit = (usize, &'static str, &'static str, &'static str);

    /// Every check over [`both`] with `edits` applied.
    fn outcomes(edits: &[Edit]) -> Vec<Outcome> {
        let mut sides = both();
        for &(side, file, key, value) in edits {
            let text = set(sides[side].text(file), key, value);
            sides[side].texts.insert(file, text);
        }
        checks(&sides[0], &sides[1])
    }

    #[test]
    fn committed_files_pass_against_themselves() {
        let c = committed();
        for (_, file) in SWEEPS {
            assert!(rows(c.text(file)).count() >= 1, "{file} has no rows");
        }
        assert_eq!(min(values(c.text(CACHE), "collection_factor")), 32.0);
        assert_eq!(values(c.text(ACCURACY), "emon_cadence_growth"), [5.835]);
        assert_eq!(values(c.text(SCENARIOS), "invariant").len(), 20);
        assert_eq!(max(values(c.text(CLUSTER), "pool_width")), 1.0);
        let all = outcomes(&[]);
        assert_eq!(all.len(), 18);
        for outcome in &all {
            assert!(outcome.is_ok(), "{outcome:?}");
        }
        assert!(all[5].as_ref().is_ok_and(|l| l.starts_with("skip")));
        assert_eq!(
            all[7].as_deref(),
            Ok("ok   committed 49k launch_ms      9.4 < 10")
        );
    }

    #[test]
    fn every_bound_fails_just_past_it() {
        let wide = [
            (0, CLUSTER, "pool_width", "2"),
            (1, CLUSTER, "pool_width", "2"),
        ];
        let speedup = |value| [wide[0], wide[1], (0, CLUSTER, "speedup", value)];
        // (edits, passes). The committed values are collection_factor
        // 32.0, min speedup 0.89 (bound 0.712), max overhead_pct 5.2 (on/off
        // ratio 1.052, bound 1.2624), growth factors 5.835 / 2.635 / 7.129
        // and burst 5.821 (bounds 4.668 / 2.108 / 5.7032 / 4.6568).
        let cases: &[(&[Edit], bool)] = &[
            (&[(0, CACHE, "collection_factor", "25.5")], false),
            (&[(0, CACHE, "collection_factor", "25.7")], true),
            (&speedup("0.71"), false),
            (&speedup("0.72"), true),
            (&[(0, TELEMETRY, "overhead_pct", "26.3")], false),
            (&[(0, TELEMETRY, "overhead_pct", "26.2")], true),
            (&[(0, ACCURACY, "emon_cadence_growth", "4.66")], false),
            (&[(0, ACCURACY, "emon_cadence_growth", "4.67")], true),
            (&[(0, ACCURACY, "nvml_cadence_growth", "2.10")], false),
            (&[(0, ACCURACY, "nvml_cadence_growth", "2.11")], true),
            (&[(0, ACCURACY, "occ_cadence_growth", "5.70")], false),
            (&[(0, ACCURACY, "occ_cadence_growth", "5.71")], true),
            (&[(0, ACCURACY, "emon_burst_factor", "4.65")], false),
            (&[(0, ACCURACY, "emon_burst_factor", "4.66")], true),
            (&[(1, CLUSTER, "launch_ms", "10.0")], false),
            (&[(1, CLUSTER, "launch_ms", "9.9")], true),
            // Only one side's pool is wide: the speedup is not compared.
            (&[wide[0], (0, CLUSTER, "speedup", "0.1")], true),
            (&[(0, ACCURACY, "rapl_within_tick", "0")], false),
            (&[(0, ACCURACY, "exact", "0")], false),
            (&[(0, ACCURACY, "occ_noise_zero", "0")], false),
            (&[(1, ACCURACY, "occ_noise_zero", "0")], false),
            (&[(0, QUERY, "exact", "0")], false),
            (&[(1, QUERY, "exact", "0")], false),
            (&[(0, QUERY, "coherent", "0")], false),
            (&[(1, QUERY, "coherent", "0")], false),
            (&[(0, TRANSPORT, "identical", "0")], false),
            (&[(1, TRANSPORT, "identical", "0")], false),
            (&[(0, TRANSPORT, "exact", "0")], false),
            (&[(1, TRANSPORT, "exact", "0")], false),
            (&[(0, TRANSPORT, "reconciled", "0")], false),
            (&[(1, TRANSPORT, "reconciled", "0")], false),
            (&[(0, SCENARIOS, "invariant", "0")], false),
            (&[(1, SCENARIOS, "invariant", "0")], false),
            (&[(0, SCENARIOS, "deterministic", "0")], false),
            (&[(1, SCENARIOS, "deterministic", "0")], false),
            // The accuracy exactness flags are gated on the fresh run only.
            (&[(1, ACCURACY, "rapl_within_tick", "0")], true),
            (&[(1, ACCURACY, "exact", "0")], true),
        ];
        for (edits, passes) in cases {
            let all = outcomes(edits);
            assert_eq!(
                all.iter().all(Result::is_ok),
                *passes,
                "{edits:?}: {:?}",
                all.iter().filter(|o| o.is_err()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn all_ones_over_no_values_fails() {
        let [mut fresh, full] = both();
        fresh.texts.insert(
            QUERY,
            "{\n  \"bench\": \"query_sweep\",\n  \"sweeps\": [\n  ]\n}\n".into(),
        );
        assert_eq!(
            all_ones(&[&fresh], QUERY, "exact", 1),
            Err("FAIL fresh BENCH_query.json: no numeric \"exact\" value".into())
        );
        // Four replication rows are required, not one.
        let three: Vec<&str> = full.text(SCENARIOS).lines().take(10).collect();
        fresh.texts.insert(SCENARIOS, three.join("\n"));
        let outcome = all_ones(&[&fresh], SCENARIOS, "invariant", 4);
        assert!(outcome.is_err_and(|l| l.contains("is not 1 on 0 of 3 values")));
    }

    #[test]
    fn ratio_with_a_missing_committed_key_fails() {
        let [fresh, mut stale] = both();
        let text = stale
            .text(CACHE)
            .replace("\"collection_factor\"", "\"factor\"");
        stale.texts.insert(CACHE, text);
        let all = checks(&fresh, &stale);
        assert_eq!(
            all[0],
            Err("FAIL committed BENCH_cache.json: no numeric \"collection_factor\" value".into())
        );
        // A value that is not a number fails the same way.
        stale.texts.insert(
            CACHE,
            set(committed().text(CACHE), "collection_factor", "true"),
        );
        assert!(checks(&fresh, &stale)[0].is_err());
    }

    #[test]
    fn a_sweep_that_exits_non_zero_fails() {
        assert!(sweep(&mut Command::new("true")).is_ok());
        assert!(sweep(&mut Command::new("false")).is_err());
        assert!(sweep(&mut Command::new("/nonexistent/sweep")).is_err());
    }
}
