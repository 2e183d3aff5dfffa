//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro                 # everything
//! repro table3 fig7     # a subset
//! repro --seed 7 fig1   # explicit seed
//! ```

use envmon_analysis::render::{ascii_profile, boxplot_row, multi_series_rows, series_rows};
use envmon_analysis::{ablations, figures, tables};
use envmon_bench::DEFAULT_SEED;

fn main() {
    let mut seed = DEFAULT_SEED;
    let mut out_dir: Option<std::path::PathBuf> = None;
    let mut wanted: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--out" => {
                out_dir = Some(std::path::PathBuf::from(
                    args.next()
                        .unwrap_or_else(|| die("--out needs a directory")),
                ));
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [--seed N] [--out DIR] [table1 table2 table3 fig1 fig2 \
                     fig3 fig4 fig5 fig6 fig7 fig8 overheads tools report ablations \
                     robustness telemetry caching accuracy serving transport scenarios \
                     exp1 exp2 exp3 exp4]\n\
                     --out DIR additionally writes each figure's series as TSV files"
                );
                return;
            }
            other => wanted.push(other.to_lowercase()),
        }
    }
    let all = wanted.is_empty();
    let want = |k: &str| all || wanted.iter().any(|w| w == k);
    let save = |name: &str, series: &simkit::TimeSeries| {
        if let Some(dir) = &out_dir {
            std::fs::create_dir_all(dir).unwrap_or_else(|e| die(&format!("--out: {e}")));
            let path = dir.join(format!("{name}.tsv"));
            std::fs::write(&path, series.to_tsv())
                .unwrap_or_else(|e| die(&format!("writing {}: {e}", path.display())));
            println!("[wrote {}]", path.display());
        }
    };

    if want("table1") {
        section("TABLE I");
        let t = tables::table1();
        print!("{}", t.render());
        println!(
            "\nmatches the published matrix: {}",
            if t.matches_paper() { "YES" } else { "NO" }
        );
    }
    if want("table2") {
        section("TABLE II");
        print!("{}", tables::table2());
    }
    if want("table3") {
        section("TABLE III");
        print!("{}", tables::table3(seed).render());
    }
    if want("fig1") {
        section("FIGURE 1 — BPM input power via the environmental database (MMPS)");
        let f = figures::figure1(seed);
        println!(
            "job window: {} .. {}  ({} DB rows)\n",
            f.job_window.0, f.job_window.1, f.db_rows
        );
        println!("midplane 0 (mean BPM input watts per poll):");
        print!("{}", series_rows(&f.midplane0, 30));
        print!("{}", ascii_profile(&f.midplane0, 64, 10));
        println!("midplane 1:");
        print!("{}", series_rows(&f.midplane1, 30));
        save("fig1_midplane0", &f.midplane0);
        save("fig1_midplane1", &f.midplane1);
    }
    if want("fig2") {
        section("FIGURE 2 — the same MMPS via MonEQ/EMON, 7 domains @ 560 ms");
        let f = figures::figure2(seed);
        let mut cols: Vec<&simkit::TimeSeries> = vec![&f.total];
        cols.extend(f.domains.iter());
        print!("{}", multi_series_rows(&cols, 25));
        print!("{}", ascii_profile(&f.total, 64, 10));
        println!(
            "collection overhead: {:.3}% (paper: ~0.19%)",
            f.overhead_fraction * 100.0
        );
        save("fig2_nodecard_total", &f.total);
        for d in &f.domains {
            save(
                &format!("fig2_{}", d.name().replace(' ', "_").to_lowercase()),
                d,
            );
        }
    }
    if want("fig3") {
        section("FIGURE 3 — RAPL package power, Gaussian elimination @ 100 ms");
        let f = figures::figure3(seed);
        print!("{}", series_rows(&f.pkg, 35));
        print!("{}", ascii_profile(&f.pkg, 70, 12));
        save("fig3_pkg_power", &f.pkg);
    }
    if want("fig4") {
        section("FIGURE 4 — NVML power, NOOP on a K20 @ 100 ms");
        let f = figures::figure4(seed);
        print!("{}", series_rows(&f.power, 25));
        print!("{}", ascii_profile(&f.power, 64, 10));
        save("fig4_power", &f.power);
    }
    if want("fig5") {
        section("FIGURE 5 — NVML power + temperature, vector add on a K20");
        let f = figures::figure5(seed);
        println!("hand-off to GPU at {}\n", f.handoff);
        println!("power (W):");
        print!("{}", series_rows(&f.power, 25));
        print!("{}", ascii_profile(&f.power, 64, 10));
        println!("temperature (C):");
        print!("{}", series_rows(&f.temperature, 25));
        save("fig5_power", &f.power);
        save("fig5_temperature", &f.temperature);
    }
    if want("fig6") {
        section("FIGURE 6 — control-panel software architecture");
        println!(
            "Figure 6 is a diagram; its boxes are implemented as the mic-sim\n\
             module structure: scif (host+coprocessor drivers), sysmgmt\n\
             (in-band SysMgmt SCIF interface), micras + vfs (daemon and\n\
             pseudo-files), smc and ipmb (out-of-band path)."
        );
    }
    if want("fig7") {
        section("FIGURE 7 — Phi power: in-band API vs MICRAS daemon (boxplot)");
        let f = figures::figure7(seed);
        print!("{}", boxplot_row("API", &f.api_box));
        print!("{}", boxplot_row("daemon", &f.daemon_box));
        println!(
            "\nWelch's t-test: t = {:.2}, df = {:.0}, p = {:.3e}, mean diff = {:.2} W",
            f.welch.t, f.welch.df, f.welch.p_two_sided, f.welch.mean_diff
        );
        println!(
            "statistically significant at 0.1%: {}",
            if f.welch.significant_at(0.001) {
                "YES"
            } else {
                "NO"
            }
        );
    }
    if want("fig8") {
        section("FIGURE 8 — sum power of Gaussian elimination on 128 Phis");
        let f = figures::figure8(seed);
        println!("data generation ends at {}\n", f.datagen_end);
        print!("{}", series_rows(&f.sum_power, 30));
        print!("{}", ascii_profile(&f.sum_power, 70, 12));
        save("fig8_sum_power", &f.sum_power);
    }
    if want("overheads") {
        section("PER-QUERY COSTS (paper §II)");
        print!(
            "{}",
            tables::render_cost_comparison(&tables::cost_comparison())
        );
    }
    if want("report") {
        section("PAPER vs MEASURED — headline numbers, compared programmatically");
        let report = envmon_analysis::report::generate(seed);
        print!("{}", report.render());
        if !report.all_agree() {
            eprintln!("repro: report has disagreeing rows");
            std::process::exit(1);
        }
    }
    if want("limitations") {
        section("STATED LIMITATIONS (paper §IV's 'looking forward' ask, implemented)");
        for m in envmon_analysis::registry::mechanisms(seed, simkit::SimTime::from_secs(10)) {
            let b = m.build();
            println!("{}:", b.name());
            for l in b.limitations() {
                println!("  [{}] {}", l.aspect, l.statement);
            }
            println!();
        }
    }
    if want("tools") {
        section("TOOL COMPARISON (paper §III: MonEQ vs PAPI, TAU, PowerPack)");
        print!(
            "{}",
            powertools_sim::comparison::render_tool_matrix(
                &powertools_sim::comparison::tool_matrix()
            )
        );
    }
    if want("robustness") {
        section("ROBUSTNESS — all mechanisms under identical fault rates (DESIGN.md §8)");
        for rate in [0.02, 0.05, 0.15] {
            println!(
                "{}",
                envmon_analysis::robustness::robustness_at(seed, rate).render()
            );
        }
    }
    if want("telemetry") {
        section("TELEMETRY — per-mechanism query latency vs the paper's constants (DESIGN.md §9)");
        for rate in [0.0, 0.05] {
            println!(
                "{}",
                envmon_analysis::telemetry::telemetry_at(seed, rate).render()
            );
        }
    }
    if want("caching") {
        section("CACHING — naive vs batched collection per mechanism (DESIGN.md §10)");
        print!("{}", envmon_analysis::caching::caching(seed).render());
    }
    if want("accuracy") {
        section("ACCURACY — reported vs true energy, error decomposed (DESIGN.md §11)");
        print!("{}", envmon_analysis::accuracy::accuracy(seed).render());
    }
    if want("serving") {
        section("SERVING — monitoring as a service on the node card (DESIGN.md §13)");
        print!("{}", envmon_analysis::serving::serving(seed).render());
    }
    if want("transport") {
        section("TRANSPORT — in-band vs out-of-band over the framed wire protocol (DESIGN.md §14)");
        let t = envmon_analysis::transport::transport(seed);
        print!("{}", t.render());
        if !(t.all_identical() && t.all_exact()) {
            eprintln!("repro: transport invariants violated");
            std::process::exit(1);
        }
    }
    {
        // Closed-loop scenario catalog: `scenarios` runs all four
        // experiments, `exp1`..`exp4` select one. Seeds come from
        // `envmon_bench::replication_seed` — the same schedule the
        // `scenario_sweep` bin uses, so summary lines here and BENCH
        // rows there describe the same runs.
        let selected: Vec<_> = envmon_scenarios::CATALOG
            .iter()
            .filter(|s| want("scenarios") || want(s.key))
            .collect();
        if !selected.is_empty() {
            section("SCENARIOS — closed-loop control on live mechanisms (DESIGN.md §16)");
            let mut failed = false;
            for spec in selected {
                println!("{}: {}", spec.key, spec.title);
                println!("  invariant: {}", spec.invariant);
                for rep in 0..spec.replications {
                    let rep_seed = envmon_bench::replication_seed(spec.key, rep, seed);
                    let r = (spec.run)(rep, rep_seed);
                    println!("  {}", r.summary_line());
                    for inv in r.invariants.iter().filter(|i| !i.pass) {
                        println!("    FAILED {}: {}", inv.name, inv.detail);
                    }
                    if let Some(dir) = &out_dir {
                        std::fs::create_dir_all(dir)
                            .unwrap_or_else(|e| die(&format!("--out: {e}")));
                        let path = dir.join(format!("{}_rep{rep}.txt", spec.key));
                        std::fs::write(&path, r.artifact())
                            .unwrap_or_else(|e| die(&format!("writing {}: {e}", path.display())));
                        println!("  [wrote {}]", path.display());
                    }
                    failed |= !r.passed();
                }
                println!();
            }
            if failed {
                eprintln!("repro: scenario invariants violated");
                std::process::exit(1);
            }
        }
    }
    if want("ablations") {
        section("ABLATION — RAPL sampling-interval sweep");
        println!(
            "{:<12}{:>18}{:>14}",
            "interval", "mean |err| (W)", "beyond wrap"
        );
        for r in ablations::rapl_interval_sweep(seed) {
            println!(
                "{:<12}{:>18.3}{:>14}",
                r.interval.to_string(),
                r.mean_abs_error_w,
                if r.beyond_wrap { "YES" } else { "no" }
            );
        }
        section("ABLATION — Xeon Phi access paths");
        println!(
            "{:<24}{:>14}{:>14}{:>18}",
            "path", "app cost", "latency", "perturbation (W)"
        );
        for r in ablations::phi_access_paths(seed) {
            println!(
                "{:<24}{:>14}{:>14}{:>18.2}",
                r.path,
                r.app_cost.to_string(),
                r.latency.to_string(),
                r.perturbation_w
            );
        }
        section("ABLATION — RAPL power capping (Gaussian elimination)");
        println!(
            "{:<12}{:>16}{:>14}{:>14}",
            "limit (W)", "mean power (W)", "energy (J)", "mean level"
        );
        for r in ablations::rapl_capping(seed) {
            let lim = if r.limit_w.is_finite() {
                format!("{:.0}", r.limit_w)
            } else {
                "none".into()
            };
            println!(
                "{lim:<12}{:>16.2}{:>14.0}{:>14.3}",
                r.mean_power_w, r.energy_j, r.mean_level
            );
        }
        section("ABLATION — MonEQ polling-interval sweep (BG/Q)");
        println!("{:<12}{:>16}{:>10}", "interval", "collection %", "records");
        for r in ablations::moneq_interval_sweep(seed) {
            println!(
                "{:<12}{:>15.3}%{:>10}",
                r.interval.to_string(),
                r.collection_fraction * 100.0,
                r.records
            );
        }
        section("ABLATION — finalize scaling");
        println!("{:<10}{:>14}", "agents", "finalize");
        for r in ablations::finalize_scaling() {
            println!("{:<10}{:>14}", r.agents, r.finalize.to_string());
        }
        section("ABLATION — Figure 7 offset vs in-band polling interval");
        println!("{:<12}{:>18}", "interval", "API-daemon (W)");
        for r in ablations::figure7_offset_sweep(seed) {
            println!("{:<12}{:>18.2}", r.interval.to_string(), r.offset_w);
        }
        section("ABLATION — EMON domain skew: one snapshot, one simultaneous step");
        println!("{:<16}{:>12}{:>20}", "domain", "skew", "step fraction seen");
        for r in ablations::emon_domain_skew(seed) {
            println!(
                "{:<16}{:>12}{:>20.2}",
                r.domain,
                r.skew.to_string(),
                r.transition_seen
            );
        }
        section("ABLATION — environmental-DB ingest capacity vs interval");
        println!("{:<8}{:>12}{:>16}", "racks", "interval", "dropped rows");
        for r in ablations::envdb_capacity(seed) {
            println!(
                "{:<8}{:>12}{:>15.1}%",
                r.racks,
                r.interval.to_string(),
                r.dropped_fraction * 100.0
            );
        }
    }
}

fn section(title: &str) {
    println!("\n{}", "=".repeat(72));
    println!("{title}");
    println!("{}\n", "=".repeat(72));
}

fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2);
}
