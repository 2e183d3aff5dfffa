//! Golden for the full `repro` output at the default seed: every table,
//! figure, cross-check and service section the paper-facing binary
//! prints, byte for byte.
//!
//! The per-mechanism goldens pin session files; this one pins what a
//! reader of the reproduction sees, including the TRANSPORT and SERVING
//! sections, which drive the remote wire path and the monitoring daemon.
//! The output carries no wall-clock value, so two runs of one build are
//! byte-identical.
//!
//! To re-bless after an *intentional* change:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test -p envmon-bench --test repro_golden
//! git diff tests/golden/repro.txt   # review every changed byte
//! ```

use std::path::Path;
use std::process::Command;

#[test]
fn repro_output_matches_golden() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .output()
        .expect("run repro");
    assert!(out.status.success(), "repro exited {:?}", out.status);
    let actual = String::from_utf8(out.stdout).expect("utf-8 output");
    envmon_bench::golden::check(
        &Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/repro.txt"),
        &actual,
        "GOLDEN_BLESS=1 cargo test -p envmon-bench --test repro_golden",
    );
}
