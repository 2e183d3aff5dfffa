#!/usr/bin/env bash
# Local CI gate: formatting, lints, build, and the full test suite.
#
#   ./ci.sh          # everything (what a PR must pass)
#   ./ci.sh --quick  # skip the release build and the doc gate, debug tests
#                    # only, and cut proptest case counts (PROPTEST_CASES=32)
#
# Lints are hard errors (-D warnings) so the tree stays clippy-clean.
# Every stage prints its own wall-clock so CI-time regressions are
# attributable to a stage, not just to "the build got slower"; the test
# suite runs as named stages (unit / property / golden / scale) so a slow
# property sweep cannot hide behind "tests got slower".
# -E (errtrace) so the ERR trap below fires for failures inside the
# stage() function, not just at top level.
set -Eeuo pipefail
cd "$(dirname "$0")"

quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

# One knob paces every property suite: the vendored proptest reads
# PROPTEST_CASES (dev default 64; ProptestConfig::scaled keeps the heavy
# suites proportional). Quick mode trades depth for stage budget; full
# mode runs 4x the dev default. An explicit PROPTEST_CASES wins.
if [[ $quick -eq 1 ]]; then
    pt_cases="${PROPTEST_CASES:-32}"
else
    pt_cases="${PROPTEST_CASES:-256}"
fi

# Run one named, timed stage. The command is a single string (eval'd) so
# stages can carry env vars and redirections. Each stage's wall clock is
# recorded for the end-of-run summary table, and the stage name is held in
# current_stage so a failure is attributed by name, not by scrollback.
stage_names=()
stage_secs=()
current_stage=""
stage() {
    local name="$1" cmd="$2"
    current_stage="$name"
    echo "==> $name"
    local t0=$SECONDS
    eval "$cmd"
    stage_names+=("$name")
    stage_secs+=("$((SECONDS - t0))")
    current_stage=""
}

skipped() {
    echo "==> SKIPPED ($1): $2"
    stage_names+=("$2 [skipped]")
    stage_secs+=("-")
}

# Name the failing stage on any error so a red run reads "FAILED in stage:
# <name>" instead of making the reader walk the transcript backwards.
on_err() {
    if [[ -n "$current_stage" ]]; then
        echo "CI FAILED in stage: $current_stage" >&2
    else
        echo "CI FAILED (outside any stage)" >&2
    fi
}
trap on_err ERR

# Golden-drift guard: a CI run must verify the committed goldens
# byte-for-byte, never re-bless them. A GOLDEN_BLESS that leaks into CI
# would turn the conformance gate into a no-op that silently rewrites the
# reference outputs, so it is a hard error here.
if [[ -n "${CI:-}" && -n "${GOLDEN_BLESS:-}" ]]; then
    echo "error: GOLDEN_BLESS is set in a CI run; goldens must be" >&2
    echo "re-blessed locally and committed, never inside the gate." >&2
    exit 1
fi

stage "cargo fmt --check" \
    "cargo fmt --check"

stage "cargo clippy --workspace --all-targets -- -D warnings" \
    "cargo clippy --workspace --all-targets -- -D warnings"

# No first-party library unwraps in non-test code: user-reachable failures
# are typed errors, lock poisoning is recovered explicitly
# (PoisonError::into_inner), and rank panics resurface with their rank id.
# The vendored proptest shim mirrors an external API and is exempt.
stage "cargo clippy --workspace --exclude proptest --lib -- -D clippy::unwrap_used" \
    "cargo clippy --workspace --exclude proptest --lib -- -D warnings -D clippy::unwrap_used"

# Workspace coverage: every first-party crate under crates/ must be a
# workspace member, carry #![deny(missing_docs)], and appear in the README
# crate map. A crate that slips any of the three is half-integrated: it
# builds on someone's machine but ducks the doc lint and the reader's map.
# The vendored offline shim is exempt (it mirrors an external API).
# Every integration-test target (tests/*.rs, crates/*/tests/*.rs) must also
# run in some stage: a `cargo test` command in this script names it with
# `--test <target>` and, outside the facade crate, with `-p <crate>` in the
# same command. A target no stage names compiles under clippy but never runs.
workspace_coverage() {
    local vendored='proptest'
    local metadata members crate ok=0 cmds targets pkg name in_crates hits
    metadata="$(cargo metadata --no-deps --format-version 1 --offline)"
    members="$(jq -r '.packages[].name' <<<"$metadata")"
    for dir in crates/*/; do
        crate="$(basename "$dir")"
        [[ "$crate" =~ ^($vendored)$ ]] && continue
        if ! grep -qx "$crate" <<<"$members"; then
            echo "    $crate: not a workspace member" >&2
            ok=1
        fi
        if ! grep -q 'deny(missing_docs)' "$dir/src/lib.rs"; then
            echo "    $crate: src/lib.rs lacks #![deny(missing_docs)]" >&2
            ok=1
        fi
        if ! grep -q "crates/$crate" README.md; then
            echo "    $crate: missing from the README crate map" >&2
            ok=1
        fi
    done
    # One line per `cargo test` command: continuation lines joined.
    cmds="$(sed -e ':a' -e '/\\$/N; s/\\\n//; ta' "$(basename "$0")" | grep 'cargo test')"
    targets="$(jq -r '.packages[]
        | .name as $p
        | (.manifest_path | test("/crates/[^/]+/Cargo[.]toml$")) as $in_crates
        | .targets[] | select(.kind == ["test"])
        | "\($p) \(.name) \($in_crates)"' <<<"$metadata")"
    while read -r pkg name in_crates; do
        hits="$(grep -E -- "--test $name([^[:alnum:]_-]|$)" <<<"$cmds" || true)"
        if [[ "$in_crates" == true ]]; then
            hits="$(grep -E -- "-p $pkg([^[:alnum:]_-]|$)" <<<"$hits" || true)"
        fi
        if [[ -z "$hits" ]]; then
            echo "    $pkg: test target $name runs in no stage" >&2
            ok=1
        fi
    done <<<"$targets"
    return $ok
}

stage "workspace coverage (membership, missing_docs, README map, test targets)" \
    "workspace_coverage"

if [[ $quick -eq 0 ]]; then
    stage "cargo doc --no-deps (RUSTDOCFLAGS=-D warnings)" \
        "RUSTDOCFLAGS='-D warnings' cargo doc --workspace --no-deps --quiet"
else
    skipped "--quick" "cargo doc --no-deps (RUSTDOCFLAGS=-D warnings)"
fi

# The examples are documentation that compiles; keep them compiling.
stage "cargo build --examples" \
    "cargo build --examples --quiet"

if [[ $quick -eq 0 ]]; then
    stage "cargo build --release" \
        "cargo build --release"
else
    skipped "--quick" "cargo build --release"
fi

# The examples are also documentation that asserts: the telemetry example
# checks the 1.10 ms EMON latency floor, the observer property and merged ==
# sum over ranks, and fault_injection, monitoring_daemon, multi_device_node
# and power_aware_scheduling check their own claims. Run every one and fail
# on a non-zero exit: release binaries in full mode, debug in quick mode.
run_examples() {
    local flag="" ex
    if [[ $quick -eq 0 ]]; then
        flag=--release
    fi
    for ex in examples/*.rs; do
        ex="$(basename "$ex" .rs)"
        echo "    $ex"
        cargo run -q ${flag:+"$flag"} --example "$ex" > /dev/null
    done
}

stage "examples: run every one" \
    "run_examples"

# The test suite, split so each class of test accounts its own time.
# unit: every crate's #[cfg(test)] modules and bin self-tests.
stage "tests: unit (libs, bins)" \
    "cargo test --workspace --lib --bins -q --no-fail-fast"

# doc: every doctest in the workspace. A separate stage because doctests
# compile one binary per example — when this stage's wall clock creeps,
# the fix (consolidate or no_run an example) differs from a slow unit run.
stage "tests: doc (workspace doctests)" \
    "cargo test --workspace --doc -q --no-fail-fast"

# property: every proptest suite in the workspace, paced by PROPTEST_CASES.
stage "tests: property (PROPTEST_CASES=$pt_cases)" \
    "PROPTEST_CASES=$pt_cases cargo test -q --no-fail-fast \
        --test accuracy_prop --test cluster_parallel_prop \
        --test fault_prop --test occ_prop --test output_roundtrip_prop \
        --test scenario_prop --test serve_prop --test telemetry_prop \
        --test transport_prop &&
     PROPTEST_CASES=$pt_cases cargo test -q --no-fail-fast \
        -p bgq-sim -p hpc-workloads -p mic-sim -p nvml-sim -p occ-sim \
        -p powermodel -p rapl-sim -p simkit --test proptests &&
     PROPTEST_CASES=$pt_cases cargo test -q --no-fail-fast \
        -p moneq --test cache_prop --test tags_prop"

# golden: byte-exact conformance of the paper-facing output formats
# (tests/golden/*.txt; GOLDEN_BLESS=1 re-blesses after intended changes),
# including the full `repro` output (tests/golden/repro.txt), whose
# TRANSPORT and SERVING sections drive the wire path and the daemon.
stage "tests: golden (conformance)" \
    "cargo test -q --no-fail-fast \
        --test golden_conformance --test scenario_golden \
        --test figure_shapes --test listing1_all_backends &&
     cargo test -q --no-fail-fast -p envmon-bench --test repro_golden"

# scenarios: the two catalog entry points (repro scenarios, scenario_sweep)
# agree on replication seeds, and the examples' demonstration loops hold as
# assertions instead of printouts.
stage "tests: scenarios (seed agreement, example promotions)" \
    "cargo test -q --no-fail-fast --test scenario_examples &&
     cargo test -q --no-fail-fast -p envmon-bench --test scenario_agreement"

# scale: the Mira-scale cluster drive.
stage "tests: scale (cluster)" \
    "cargo test -q --no-fail-fast --test cluster_scale"

# Determinism gate: every headline number is re-derived and compared to the
# paper's value programmatically; `repro report` exits non-zero if any of
# the agreement checks disagree, so a drifting constant fails the build.
if [[ $quick -eq 0 ]]; then
    stage "repro report (paper-agreement gate)" \
        "cargo run --release -q -p envmon-bench --bin repro -- report > /dev/null"
else
    stage "repro report (paper-agreement gate)" \
        "cargo run -q -p envmon-bench --bin repro -- report > /dev/null"
fi

# Perf smoke: the telemetry layer's headline claim — enabling it costs
# <10% wall clock at the paper's full-Mira fan-out — as a pass/fail gate,
# not a recording. Release-only: debug wall clock says nothing about the
# optimized hot path (quick mode skips the release build entirely).
if [[ $quick -eq 0 ]]; then
    stage "perf smoke (telemetry overhead <10% @ 1536 agents)" \
        "cargo run --release -q -p envmon-bench --bin telemetry_sweep -- \
            --smoke --gate 10 --out target/telemetry_smoke.json"
else
    skipped "--quick" "perf smoke (telemetry overhead gate needs release)"
fi

# Transport smoke: the wire layer's defining invariants — remote over the
# ideal link byte-equals local, latency lands in the ledgers exactly,
# faulty-run ledgers reconcile — asserted by the sweep binary itself.
if [[ $quick -eq 0 ]]; then
    stage "transport smoke (remote byte-identity + exact latency)" \
        "cargo run --release -q -p envmon-bench --bin transport_sweep -- \
            --smoke --out target/transport_smoke.json"
else
    stage "transport smoke (remote byte-identity + exact latency)" \
        "cargo run -q -p envmon-bench --bin transport_sweep -- \
            --smoke --out target/transport_smoke.json"
fi

# Scenario smoke: the closed-loop catalog (DESIGN.md §16) with every
# machine-checked invariant asserted in-process by the sweep binary, plus
# its determinism referee byte-comparing replication-0 artifacts. Quick
# mode caps each experiment at 2 replications; full runs the catalog's 5.
if [[ $quick -eq 0 ]]; then
    stage "scenario smoke (closed-loop invariants, 5 reps)" \
        "cargo run --release -q -p envmon-bench --bin scenario_sweep -- \
            --out target/scenario_smoke.json"
else
    stage "scenario smoke (closed-loop invariants, 2 reps)" \
        "cargo run -q -p envmon-bench --bin scenario_sweep -- \
            --quick --out target/scenario_smoke.json"
fi

# Benchmark smoke: perfbench (the command in BENCHMARK.json) is a Cargo
# package of its own that builds this repository's crates by path and
# reads their public fields, so an API change that breaks the benchmark
# fails here. Its tests run every workload at toy size, at two seeds,
# untraced and traced. It builds from a fresh copy beside symlinks to the
# workspace, because any build in place rewrites the committed
# perfbench/Cargo.lock. The copy's path stays fixed, under target/, so a
# repeat run reuses the build in target/perfbench.
perfbench_smoke() {
    local tree="$PWD/target/perfbench-tree"
    rm -rf "$tree"
    mkdir -p "$tree"
    tar -cf - --exclude=perfbench/target perfbench | tar -xf - -C "$tree"
    for f in Cargo.toml src crates BENCHMARK.json; do
        ln -s "$PWD/$f" "$tree/$f"
    done
    CARGO_TARGET_DIR="$PWD/target/perfbench" cargo test --release --offline -q \
        --manifest-path "$tree/perfbench/Cargo.toml"
}

if [[ $quick -eq 0 ]]; then
    stage "perfbench smoke (benchmark builds against the tree)" \
        "perfbench_smoke"
else
    skipped "--quick" "perfbench smoke (benchmark smoke needs release)"
fi

# Per-stage timing summary: the same numbers each stage already printed,
# gathered into one table so a CI-time regression is attributable at a
# glance (and so skipped stages are visible as skipped, not just absent).
echo
echo "stage timing summary"
printf '%7s  %s\n' "secs" "stage"
total=0
for i in "${!stage_names[@]}"; do
    printf '%7s  %s\n' "${stage_secs[$i]}" "${stage_names[$i]}"
    if [[ "${stage_secs[$i]}" != "-" ]]; then
        total=$((total + stage_secs[i]))
    fi
done
printf '%7s  %s\n' "$total" "total"

echo "CI OK"
