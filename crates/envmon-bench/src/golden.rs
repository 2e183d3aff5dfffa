//! The one golden-file check the workspace's golden tests share.
//!
//! A golden test renders some text (a session file, a scenario artifact,
//! the `repro` output) and hands it to [`check`] with the path of the
//! committed file. A mismatch fails the test with the first differing
//! line and its neighbours; `GOLDEN_BLESS=1` rewrites the file instead,
//! for an intentional change, after which `git diff` shows every changed
//! byte for review.

use std::path::Path;

/// Compare `actual` with the golden file at `path`, or write `actual` there
/// when the environment sets `GOLDEN_BLESS=1`. `bless` is the command that
/// re-blesses this test; a missing file names it.
///
/// # Panics
///
/// This is a test assertion: it panics when the file is missing, when it
/// differs from `actual` (the message names the first differing line, with
/// two lines of context either side), and when blessing cannot write the
/// file.
pub fn check(path: &Path, actual: &str, bless: &str) {
    if std::env::var_os("GOLDEN_BLESS").is_some_and(|v| v == "1") {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).expect("create the golden directory");
        }
        std::fs::write(path, actual).expect("write golden file");
        eprintln!("[blessed {}]", path.display());
        return;
    }
    let expected = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("missing golden file {} ({e}); run {bless}", path.display()));
    if let Some(report) = first_difference(&path.display().to_string(), &expected, actual) {
        panic!("{report}");
    }
}

/// A readable report of where `actual` first departs from `expected`: the
/// line number, both line counts and two lines of context either side,
/// marking the differing lines with `>`. `None` when the two are equal.
fn first_difference(name: &str, expected: &str, actual: &str) -> Option<String> {
    if expected == actual {
        return None;
    }
    let (exp, act): (Vec<&str>, Vec<&str>) = (expected.lines().collect(), actual.lines().collect());
    let n = exp.len().max(act.len());
    let Some(at) = (0..n).find(|&i| exp.get(i) != act.get(i)) else {
        return Some(format!(
            "golden mismatch for {name}: same {n} lines, different line endings"
        ));
    };
    let mut out = format!(
        "golden mismatch for {name}: first difference at line {} (expected {} lines, got {})\n",
        at + 1,
        exp.len(),
        act.len()
    );
    for i in at.saturating_sub(2)..(at + 3).min(n) {
        let mark = if exp.get(i) != act.get(i) { ">" } else { " " };
        out.push_str(&format!(
            "{mark} line {:>5} expected: {}\n{mark} line {:>5} actual  : {}\n",
            i + 1,
            exp.get(i).unwrap_or(&"<missing>"),
            i + 1,
            act.get(i).unwrap_or(&"<missing>")
        ));
    }
    out.push_str("re-bless intentional changes with GOLDEN_BLESS=1 (then review the diff)");
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_names_the_first_differing_line() {
        let report = first_difference("g", "a\nb\nc\nd\n", "a\nb\nC\nd\ne\n").unwrap_or_default();
        assert!(
            report.starts_with(
                "golden mismatch for g: first difference at line 3 (expected 4 lines, got 5)"
            ),
            "{report}"
        );
        assert!(report.contains("> line     3 expected: c\n> line     3 actual  : C"));
        assert!(report.contains("  line     2 expected: b"), "{report}");
    }

    #[test]
    fn a_missing_trailing_newline_is_a_difference() {
        let report = first_difference("g", "a\nb\n", "a\nb").unwrap_or_default();
        assert_eq!(
            report,
            "golden mismatch for g: same 2 lines, different line endings"
        );
    }
}
