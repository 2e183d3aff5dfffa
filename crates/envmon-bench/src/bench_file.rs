//! The one writer and the one reader of the `BENCH_*.json` layout.
//!
//! A BENCH file is header fields, one line per row inside one array, then
//! optional trailing fields:
//!
//! ```text
//! {
//!   "bench": "cache_collection_sweep",
//!   "seed": 2015,
//!   "sweeps": [
//!     {"agents": 32, "collection_factor": 32.0},
//!     {"agents": 128, "collection_factor": 32.0}
//!   ]
//! }
//! ```
//!
//! Every row sits on a line of its own, so [`values`] and [`rows`] read the
//! layout back with plain string scans; no JSON parser is needed.

use simkit::stats::quantile;
use std::fmt::Display;
use std::path::Path;

/// An ordered list of JSON fields, each value already rendered.
#[derive(Debug, Default)]
pub struct Fields(Vec<(&'static str, String)>);

impl Fields {
    /// A value written as its `Display` form: an integer, or `true`/`false`.
    pub fn num(mut self, key: &'static str, value: impl Display) -> Self {
        self.0.push((key, value.to_string()));
        self
    }

    /// A float written with `decimals` places.
    pub fn fixed(mut self, key: &'static str, value: f64, decimals: usize) -> Self {
        self.0.push((key, format!("{value:.decimals$}")));
        self
    }

    /// `key` as the median of `xs`, then its quartiles as `q1` and `q3`,
    /// each with `decimals` places: a wall-clock column and its spread.
    pub fn spread(self, [key, q1, q3]: [&'static str; 3], xs: &[f64], decimals: usize) -> Self {
        self.fixed(key, quantile(xs, 0.5), decimals)
            .fixed(q1, quantile(xs, 0.25), decimals)
            .fixed(q3, quantile(xs, 0.75), decimals)
    }

    /// A flag written as `1` or `0`, the form the invariant checks read.
    pub fn flag(self, key: &'static str, value: bool) -> Self {
        self.num(key, u8::from(value))
    }

    /// A quoted string.
    pub fn text(mut self, key: &'static str, value: &str) -> Self {
        self.0.push((key, format!("\"{value}\"")));
        self
    }

    /// A nested object, written on the same line.
    pub fn object(mut self, key: &'static str, value: &Fields) -> Self {
        self.0.push((key, value.line()));
        self
    }

    /// The fields as one JSON object on one line: a row.
    pub fn line(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// One BENCH file: `head` fields, then `rows` under `rows_key`, one per
/// line, then `tail` fields.
#[derive(Debug)]
pub struct BenchFile {
    /// Fields before the row array, one per line.
    pub head: Fields,
    /// The key of the row array (`sweeps`, `rows`, ...).
    pub rows_key: &'static str,
    /// Rendered rows, each one JSON object on one line ([`Fields::line`],
    /// or a row a library already renders in this form).
    pub rows: Vec<String>,
    /// Fields after the row array, one per line.
    pub tail: Fields,
}

impl BenchFile {
    /// The file's text.
    pub fn render(&self) -> String {
        let mut out = String::from("{\n");
        for (k, v) in &self.head.0 {
            out += &format!("  \"{k}\": {v},\n");
        }
        out += &format!("  \"{}\": [\n", self.rows_key);
        for (i, row) in self.rows.iter().enumerate() {
            let sep = if i + 1 < self.rows.len() { "," } else { "" };
            out += &format!("    {row}{sep}\n");
        }
        out += "  ]";
        for (k, v) in &self.tail.0 {
            out += &format!(",\n  \"{k}\": {v}");
        }
        out + "\n}\n"
    }

    /// Write the file to `path` and say so on stderr.
    ///
    /// # Panics
    ///
    /// When `path` cannot be written.
    pub fn write(&self, path: &Path) {
        if let Err(e) = std::fs::write(path, self.render()) {
            panic!("writing {}: {e}", path.display());
        }
        eprintln!("[wrote {}]", path.display());
    }
}

/// Every value of `key` in `text` (a whole file or one row), in order.
/// A value that is not a number reads as NaN, which fails every check.
pub fn values(text: &str, key: &str) -> Vec<f64> {
    let pattern = format!("\"{key}\":");
    text.match_indices(&pattern)
        .map(|(at, _)| {
            let rest = &text[at + pattern.len()..];
            let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
            rest[..end].trim().parse().unwrap_or(f64::NAN)
        })
        .collect()
}

/// The rows of a BENCH file: every line that is one JSON object.
pub fn rows(text: &str) -> impl Iterator<Item = &str> {
    text.lines().map(str::trim).filter(|l| l.starts_with("{\""))
}

#[cfg(test)]
mod tests {
    use super::{rows, values, BenchFile, Fields};

    #[test]
    fn written_file_reads_back_every_key() {
        let row = |agents: usize, factor: f64| {
            Fields::default()
                .num("agents", agents)
                .text("mechanism", "bgq-emon")
                .fixed("collection_factor", factor, 1)
                .flag("exact", true)
                .num("outputs_identical", true)
                .line()
        };
        let file = BenchFile {
            head: Fields::default()
                .text("bench", "roundtrip")
                .num("seed", 2015)
                .fixed("growth", -5.8354, 3),
            rows_key: "sweeps",
            rows: vec![row(32, 32.0), row(49_152, 31.96)],
            tail: Fields::default().object(
                "figure8_sum",
                &Fields::default()
                    .num("agents", 1536)
                    .fixed("sum_mean_w", 1_781_700.5, 1),
            ),
        };
        let text = file.render();
        assert_eq!(
            text,
            "{\n  \"bench\": \"roundtrip\",\n  \"seed\": 2015,\n  \"growth\": -5.835,\n  \
             \"sweeps\": [\n    \
             {\"agents\": 32, \"mechanism\": \"bgq-emon\", \"collection_factor\": 32.0, \
             \"exact\": 1, \"outputs_identical\": true},\n    \
             {\"agents\": 49152, \"mechanism\": \"bgq-emon\", \"collection_factor\": 32.0, \
             \"exact\": 1, \"outputs_identical\": true}\n  ],\n  \
             \"figure8_sum\": {\"agents\": 1536, \"sum_mean_w\": 1781700.5}\n}\n"
        );
        assert_eq!(values(&text, "seed"), [2015.0]);
        assert_eq!(values(&text, "growth"), [-5.835]);
        assert_eq!(values(&text, "agents"), [32.0, 49_152.0, 1536.0]);
        assert_eq!(values(&text, "collection_factor"), [32.0, 32.0]);
        assert_eq!(values(&text, "exact"), [1.0, 1.0]);
        assert_eq!(values(&text, "sum_mean_w"), [1_781_700.5]);
        for key in ["bench", "mechanism", "outputs_identical"] {
            assert!(values(&text, key).iter().all(|v| v.is_nan()), "{key}");
        }
        assert!(values(&text, "absent").is_empty());
        let rows: Vec<&str> = rows(&text).collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(values(rows[1], "agents"), [49_152.0]);
    }
}
