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

use std::path::PathBuf;
use std::process::Command;

/// The committed golden, beside the workspace's other goldens.
fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/repro.txt")
}

#[test]
fn repro_output_matches_golden() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .output()
        .expect("run repro");
    assert!(out.status.success(), "repro exited {:?}", out.status);
    let actual = String::from_utf8(out.stdout).expect("utf-8 output");
    let path = golden_path();
    if std::env::var_os("GOLDEN_BLESS").is_some_and(|v| v == "1") {
        std::fs::write(&path, &actual).expect("write golden file");
        eprintln!("[blessed {}]", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run GOLDEN_BLESS=1 cargo test -p envmon-bench --test repro_golden",
            path.display()
        )
    });
    let (exp, act): (Vec<&str>, Vec<&str>) = (expected.lines().collect(), actual.lines().collect());
    let Some(at) = (0..exp.len().max(act.len())).find(|&i| exp.get(i) != act.get(i)) else {
        // Same lines; only a trailing newline can differ.
        assert_eq!(expected, actual, "repro output differs in its line endings");
        return;
    };
    panic!(
        "repro output differs from {} at line {} (expected {} lines, got {})\n\
         expected: {}\nactual  : {}\n\
         re-bless intentional changes with GOLDEN_BLESS=1 (then review the diff)",
        path.display(),
        at + 1,
        exp.len(),
        act.len(),
        exp.get(at).unwrap_or(&"<missing>"),
        act.get(at).unwrap_or(&"<missing>"),
    );
}
