//! MonEQ output files.
//!
//! One file per node (agent rank), written at finalize. The format is
//! line-oriented text: a commented header, one record per collected data
//! point, and the tag markers injected after the run ("the injection
//! happens after the program has completed", §III). A parser is provided
//! for post-processing — the same workflow as real MonEQ's analysis
//! scripts.

use crate::completeness::Completeness;
use crate::reading::DataPoint;
use crate::records::Records;
use crate::tags::{TagEvent, TagKind};
use simkit::SimTime;
use std::fmt::Write as _;

/// Format version tag.
pub const FORMAT_VERSION: &str = "moneq-output-v1";

/// A parsed (or to-be-written) output file.
#[derive(Clone, Debug, PartialEq)]
pub struct OutputFile {
    /// Agent rank that produced the file.
    pub rank: u32,
    /// Agent location / node name.
    pub agent: String,
    /// Backends that contributed (comma-joined in the header).
    pub backends: Vec<String>,
    /// Polling interval in nanoseconds.
    pub interval_ns: u64,
    /// The collected records, stored columnar ([`Records`]); iterate with
    /// `&file.points` for zero-copy [`crate::DataPointRef`] views.
    pub points: Records,
    /// Tag markers.
    pub tags: Vec<TagEvent>,
    /// Per-device completeness counters (`CMP` lines). Empty for a clean
    /// run — the file then renders byte-identically to the pre-fault
    /// format; any degraded device puts every device's counters here.
    pub completeness: Vec<Completeness>,
}

/// Parse failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Failures loading an output file from disk: either the I/O itself or the
/// parse of what was read. Typed (rather than stringly) so callers can
/// distinguish a missing file from a corrupt one.
#[derive(Debug)]
pub enum OutputError {
    /// Reading the file failed.
    Io(std::io::Error),
    /// The file's contents did not parse.
    Parse(ParseError),
}

impl std::fmt::Display for OutputError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OutputError::Io(e) => write!(f, "reading output file: {e}"),
            OutputError::Parse(e) => write!(f, "parsing output file: {e}"),
        }
    }
}

impl std::error::Error for OutputError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OutputError::Io(e) => Some(e),
            OutputError::Parse(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for OutputError {
    fn from(e: std::io::Error) -> Self {
        OutputError::Io(e)
    }
}

impl From<ParseError> for OutputError {
    fn from(e: ParseError) -> Self {
        OutputError::Parse(e)
    }
}

// Values render through f64's shortest-round-trip `Display`, so
// `parse(render(f)) == f` exactly — no `{:.6}` truncation. A lone `-` still
// means "absent": `Display` never renders a bare minus, so it stays
// unambiguous.
fn opt(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x}"),
        None => "-".to_owned(),
    }
}

fn parse_opt(s: &str) -> Result<Option<f64>, String> {
    if s == "-" {
        Ok(None)
    } else {
        s.parse::<f64>().map(Some).map_err(|e| e.to_string())
    }
}

/// Escape a label for the tab-separated format: backslash, tab, newline,
/// carriage return, and comma (the backends-header separator) get
/// backslash sequences. Device, domain, tag, agent, and backend names all
/// pass through this, so hostile names can never corrupt framing.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            ',' => out.push_str("\\c"),
            _ => out.push(c),
        }
    }
    out
}

/// Inverse of [`escape`]; rejects unknown or dangling escapes.
fn unescape(s: &str) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('c') => out.push(','),
            Some(other) => return Err(format!("unknown escape \\{other}")),
            None => return Err("dangling escape at end of field".to_owned()),
        }
    }
    Ok(out)
}

impl OutputFile {
    /// The conventional file name for this agent's output.
    ///
    /// The agent component is sanitized to `[A-Za-z0-9._-]` (anything else
    /// becomes `_`), so separators, control characters, or `/` in an agent
    /// name cannot produce a hostile path. The `# agent:` header keeps the
    /// exact name.
    pub fn file_name(&self) -> String {
        let safe: String = self
            .agent
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        format!("moneq-rank{:05}-{}.dat", self.rank, safe)
    }

    /// Write to `dir` using [`OutputFile::file_name`]; returns the path.
    /// This is the finalize-time disk write of §III ("actually writing the
    /// collected data to disk").
    pub fn write_to(&self, dir: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(self.file_name());
        std::fs::write(&path, self.render())?;
        Ok(path)
    }

    /// Load and parse a file written by [`OutputFile::write_to`].
    pub fn from_path(path: &std::path::Path) -> Result<Self, OutputError> {
        let text = std::fs::read_to_string(path)?;
        Ok(Self::parse(&text)?)
    }

    /// Render to the on-disk text format.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {FORMAT_VERSION}");
        let _ = writeln!(out, "# rank: {}", self.rank);
        let _ = writeln!(out, "# agent: {}", escape(&self.agent));
        let _ = writeln!(
            out,
            "# backends: {}",
            self.backends
                .iter()
                .map(|b| escape(b))
                .collect::<Vec<_>>()
                .join(",")
        );
        let _ = writeln!(out, "# interval_ns: {}", self.interval_ns);
        for p in &self.points {
            let _ = write!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                p.timestamp.as_nanos(),
                escape(p.device),
                escape(p.domain),
                p.watts,
                opt(p.volts),
                opt(p.amps),
                opt(p.temp_c),
            );
            // The stale marker is an 8th field present only when set, so
            // fresh records render exactly as they did before the fault
            // layer existed.
            if p.stale {
                out.push_str("\tS");
            }
            out.push('\n');
        }
        for t in &self.tags {
            let _ = writeln!(
                out,
                "TAG\t{}\t{}\t{}",
                escape(&t.label),
                t.kind.marker(),
                t.at.as_nanos()
            );
        }
        for c in &self.completeness {
            let _ = write!(
                out,
                "CMP\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                escape(&c.device),
                c.scheduled,
                c.succeeded,
                c.retried,
                c.stale_polls,
                c.missed_polls,
                c.records_fresh,
                c.records_stale,
                c.records_lost,
                match c.disabled_at_ns {
                    Some(ns) => ns.to_string(),
                    None => "-".to_owned(),
                },
            );
            // Disabling ranks are a 12th field present only when some rank
            // disabled the device, so pre-existing CMP lines (and their
            // byte-exact round-trips) are unchanged.
            if !c.disabled_ranks.is_empty() {
                let ranks: Vec<String> = c.disabled_ranks.iter().map(u32::to_string).collect();
                let _ = write!(out, "\t{}", ranks.join(","));
            }
            out.push('\n');
        }
        out
    }

    /// Parse the on-disk text format.
    pub fn parse(text: &str) -> Result<Self, ParseError> {
        let err = |line: usize, message: &str| ParseError {
            line,
            message: message.to_owned(),
        };
        let mut lines = text.lines().enumerate();
        let (n0, first) = lines.next().ok_or_else(|| err(1, "empty file"))?;
        if first.trim() != format!("# {FORMAT_VERSION}") {
            return Err(err(n0 + 1, "missing or wrong format header"));
        }
        let mut rank = None;
        let mut agent = None;
        let mut backends = None;
        let mut interval_ns = None;
        let mut points = Records::new();
        let mut tags = Vec::new();
        let mut completeness = Vec::new();
        for (i, line) in lines {
            let ln = i + 1;
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# ") {
                if let Some(v) = rest.strip_prefix("rank: ") {
                    rank = Some(v.parse().map_err(|_| err(ln, "bad rank"))?);
                } else if let Some(v) = rest.strip_prefix("agent: ") {
                    agent = Some(unescape(v).map_err(|m| err(ln, &m))?);
                } else if let Some(v) = rest.strip_prefix("backends: ") {
                    backends = Some(
                        v.split(',')
                            .map(|b| unescape(b).map_err(|m| err(ln, &m)))
                            .collect::<Result<Vec<_>, _>>()?,
                    );
                } else if let Some(v) = rest.strip_prefix("interval_ns: ") {
                    interval_ns = Some(v.parse().map_err(|_| err(ln, "bad interval"))?);
                }
                continue;
            }
            let fields: Vec<&str> = line.split('\t').collect();
            if fields[0] == "TAG" {
                if fields.len() != 4 {
                    return Err(err(ln, "TAG line needs 4 fields"));
                }
                let kind = match fields[2] {
                    "START" => TagKind::Start,
                    "END" => TagKind::End,
                    _ => return Err(err(ln, "TAG kind must be START or END")),
                };
                tags.push(TagEvent {
                    label: unescape(fields[1]).map_err(|m| err(ln, &m))?,
                    kind,
                    at: SimTime::from_nanos(
                        fields[3]
                            .parse()
                            .map_err(|_| err(ln, "bad tag timestamp"))?,
                    ),
                });
                continue;
            }
            if fields[0] == "CMP" {
                if fields.len() != 11 && fields.len() != 12 {
                    return Err(err(ln, "CMP line needs 11 or 12 fields"));
                }
                let count = |s: &str, what: &str| -> Result<u64, ParseError> {
                    s.parse().map_err(|_| err(ln, &format!("bad {what}")))
                };
                let disabled_ranks = match fields.get(11) {
                    None => Vec::new(),
                    Some(list) => list
                        .split(',')
                        .map(|r| r.parse::<u32>().map_err(|_| err(ln, "bad disabled rank")))
                        .collect::<Result<Vec<_>, _>>()?,
                };
                completeness.push(Completeness {
                    disabled_ranks,
                    device: unescape(fields[1]).map_err(|m| err(ln, &m))?.into(),
                    scheduled: count(fields[2], "scheduled count")?,
                    succeeded: count(fields[3], "succeeded count")?,
                    retried: count(fields[4], "retried count")?,
                    stale_polls: count(fields[5], "stale-poll count")?,
                    missed_polls: count(fields[6], "missed-poll count")?,
                    records_fresh: count(fields[7], "fresh-record count")?,
                    records_stale: count(fields[8], "stale-record count")?,
                    records_lost: count(fields[9], "lost-record count")?,
                    disabled_at_ns: if fields[10] == "-" {
                        None
                    } else {
                        Some(count(fields[10], "disable timestamp")?)
                    },
                });
                continue;
            }
            // 7 fields for a fresh record, 8 when the stale marker is set.
            let stale = match fields.len() {
                7 => false,
                8 if fields[7] == "S" => true,
                8 => return Err(err(ln, "8th record field must be the stale marker S")),
                _ => return Err(err(ln, "record needs 7 or 8 fields")),
            };
            points.push(DataPoint {
                timestamp: SimTime::from_nanos(
                    fields[0].parse().map_err(|_| err(ln, "bad timestamp"))?,
                ),
                device: unescape(fields[1]).map_err(|m| err(ln, &m))?.into(),
                domain: unescape(fields[2]).map_err(|m| err(ln, &m))?.into(),
                watts: fields[3].parse().map_err(|_| err(ln, "bad watts"))?,
                volts: parse_opt(fields[4]).map_err(|m| err(ln, &m))?,
                amps: parse_opt(fields[5]).map_err(|m| err(ln, &m))?,
                temp_c: parse_opt(fields[6]).map_err(|m| err(ln, &m))?,
                stale,
            });
        }
        Ok(OutputFile {
            rank: rank.ok_or_else(|| err(0, "missing rank header"))?,
            agent: agent.ok_or_else(|| err(0, "missing agent header"))?,
            backends: backends.ok_or_else(|| err(0, "missing backends header"))?,
            interval_ns: interval_ns.ok_or_else(|| err(0, "missing interval header"))?,
            points,
            tags,
            completeness,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_file() -> OutputFile {
        OutputFile {
            rank: 3,
            agent: "R00-M0-N04".into(),
            backends: vec!["bgq-emon".into()],
            interval_ns: 560_000_000,
            points: vec![
                DataPoint {
                    timestamp: SimTime::from_millis(560),
                    device: "nodecard".into(),
                    domain: "Chip Core".into(),
                    watts: 700.25,
                    volts: Some(0.9),
                    amps: Some(778.06),
                    temp_c: None,
                    stale: false,
                },
                DataPoint::power(SimTime::from_millis(1_120), "nodecard", "DRAM", 237.0),
            ]
            .into(),
            tags: vec![
                TagEvent {
                    label: "loop1".into(),
                    kind: TagKind::Start,
                    at: SimTime::from_millis(600),
                },
                TagEvent {
                    label: "loop1".into(),
                    kind: TagKind::End,
                    at: SimTime::from_millis(900),
                },
            ],
            completeness: vec![],
        }
    }

    #[test]
    fn roundtrip() {
        let f = sample_file();
        let text = f.render();
        let back = OutputFile::parse(&text).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn header_is_first() {
        let text = sample_file().render();
        assert!(text.starts_with("# moneq-output-v1\n"));
        assert!(text.contains("# agent: R00-M0-N04"));
    }

    #[test]
    fn tags_render_after_records() {
        let text = sample_file().render();
        let tag_pos = text.find("TAG\tloop1").unwrap();
        let last_record = text.find("DRAM").unwrap();
        assert!(tag_pos > last_record, "tags must be injected after records");
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(OutputFile::parse("").is_err());
        assert!(OutputFile::parse("garbage").is_err());
        let mut text = sample_file().render();
        text = text.replace("700.25", "not-a-number");
        assert!(OutputFile::parse(&text).is_err());
        let truncated = sample_file()
            .render()
            .replace("TAG\tloop1\tSTART", "TAG\tloop1");
        assert!(OutputFile::parse(&truncated).is_err());
    }

    #[test]
    fn missing_header_field_rejected() {
        let text = sample_file()
            .render()
            .replace("# interval_ns: 560000000\n", "");
        let e = OutputFile::parse(&text).unwrap_err();
        assert!(e.message.contains("interval"));
    }

    #[test]
    fn disk_roundtrip() {
        let f = sample_file();
        let dir = std::env::temp_dir().join(format!("moneq-test-{}", std::process::id()));
        let path = f.write_to(&dir).expect("writable temp dir");
        assert!(path.ends_with("moneq-rank00003-R00-M0-N04.dat"));
        let back = OutputFile::from_path(&path).expect("readable");
        assert_eq!(back, f);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn from_path_missing_file_errors() {
        let err = OutputFile::from_path(std::path::Path::new("/nonexistent/x.dat"))
            .expect_err("missing file must error");
        assert!(matches!(err, OutputError::Io(_)), "{err:?}");
        assert!(!err.to_string().is_empty());
        // A corrupt file surfaces as a Parse error with its line number.
        let dir = std::env::temp_dir().join(format!("moneq-corrupt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.dat");
        std::fs::write(&path, "garbage\n").unwrap();
        let err = OutputFile::from_path(&path).expect_err("corrupt file must error");
        assert!(matches!(err, OutputError::Parse(_)), "{err:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn optional_fields_roundtrip_as_dash() {
        let text = sample_file().render();
        // The DRAM record has no volts/amps/temp.
        let dram_line = text.lines().find(|l| l.contains("DRAM")).unwrap();
        assert!(dram_line.ends_with("-\t-\t-"));
    }

    #[test]
    fn floats_roundtrip_exactly() {
        let mut f = sample_file();
        // Values with no finite decimal representation.
        let mut pts = f.points.to_vec();
        pts[0].watts = 0.1 + 0.2;
        pts[0].volts = Some(1.0 / 3.0);
        pts[0].amps = Some(f64::MIN_POSITIVE);
        pts[0].temp_c = Some(-1.234_567_890_123_456_7e-300);
        f.points = pts.into();
        let back = OutputFile::parse(&f.render()).unwrap();
        assert_eq!(
            back.points.first().unwrap().watts.to_bits(),
            f.points.first().unwrap().watts.to_bits()
        );
        assert_eq!(back, f);
    }

    #[test]
    fn hostile_labels_roundtrip_without_corrupting_framing() {
        let mut f = sample_file();
        f.agent = "node\t0\nwith\\evil\rname".into();
        f.backends = vec!["bgq,emon".into(), "tab\tbackend".into()];
        let mut pts = f.points.to_vec();
        pts[0].device = "dev\tice".into();
        pts[0].domain = "dom\nain".into();
        f.points = pts.into();
        f.tags[0].label = "loop\t1".into();
        f.tags[1].label = "loop\t1".into();
        let text = f.render();
        let back = OutputFile::parse(&text).unwrap();
        assert_eq!(back, f);
        // Every record line still frames as exactly 7 tab-separated fields.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let n = line.split('\t').count();
            assert!(n == 7 || (line.starts_with("TAG\t") && n == 4), "{line:?}");
        }
    }

    #[test]
    fn stale_marker_roundtrips_and_fresh_records_render_unchanged() {
        let mut f = sample_file();
        let mut pts = f.points.to_vec();
        pts[1].stale = true;
        f.points = pts.into();
        let text = f.render();
        let stale_line = text.lines().find(|l| l.contains("DRAM")).unwrap();
        assert!(stale_line.ends_with("\tS"), "{stale_line:?}");
        assert_eq!(stale_line.split('\t').count(), 8);
        // The fresh record keeps the exact 7-field pre-fault framing.
        let fresh_line = text.lines().find(|l| l.contains("Chip Core")).unwrap();
        assert_eq!(fresh_line.split('\t').count(), 7);
        let back = OutputFile::parse(&text).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn completeness_roundtrips_through_cmp_lines() {
        let mut f = sample_file();
        let mut c = Completeness::new("bgq-emon");
        c.scheduled = 10;
        c.succeeded = 8;
        c.retried = 3;
        c.stale_polls = 1;
        c.missed_polls = 1;
        c.records_fresh = 56;
        c.records_stale = 7;
        c.records_lost = 7;
        c.disabled_at_ns = Some(5_600_000_000);
        c.disabled_ranks = vec![2, 3];
        let mut clean = Completeness::new("rapl\tmsr"); // hostile name
        clean.scheduled = 10;
        clean.succeeded = 10;
        clean.records_fresh = 40;
        f.completeness = vec![c, clean];
        let text = f.render();
        assert_eq!(text.lines().filter(|l| l.starts_with("CMP\t")).count(), 2);
        // The disabled device carries the 12th (ranks) field; the clean one
        // keeps the original 11-field framing.
        let lines: Vec<&str> = text.lines().filter(|l| l.starts_with("CMP\t")).collect();
        assert_eq!(lines[0].split('\t').count(), 12);
        assert!(lines[0].ends_with("\t2,3"), "{:?}", lines[0]);
        assert_eq!(lines[1].split('\t').count(), 11);
        let back = OutputFile::parse(&text).unwrap();
        assert_eq!(back, f);
        assert!(back.completeness[0].reconciles());
        assert_eq!(back.completeness[0].disabled_count(), 2);
    }

    #[test]
    fn eleven_field_cmp_lines_still_parse() {
        // Files written before the disabled-ranks field must keep loading.
        let good = sample_file().render();
        let legacy = format!("{good}CMP\tdev\t4\t2\t0\t0\t2\t2\t0\t2\t900\n");
        let back = OutputFile::parse(&legacy).unwrap();
        assert_eq!(back.completeness.len(), 1);
        assert_eq!(back.completeness[0].disabled_at_ns, Some(900));
        assert!(back.completeness[0].disabled_ranks.is_empty());
        // And a malformed 12th field is rejected, not ignored.
        let bad = format!("{good}CMP\tdev\t4\t2\t0\t0\t2\t2\t0\t2\t900\tx,y\n");
        assert!(OutputFile::parse(&bad).is_err());
    }

    #[test]
    fn malformed_stale_and_cmp_lines_rejected() {
        let good = sample_file().render();
        // An 8th field that is not the stale marker.
        let bad_marker = good.replacen("\t-\n", "\t-\tX\n", 1);
        assert!(OutputFile::parse(&bad_marker).is_err());
        // A CMP line with too few fields.
        let bad_cmp = format!("{good}CMP\tdev\t1\t1\n");
        assert!(OutputFile::parse(&bad_cmp).is_err());
        // A CMP line with a non-numeric counter.
        let bad_count = format!("{good}CMP\tdev\tx\t0\t0\t0\t0\t0\t0\t0\t-\n");
        assert!(OutputFile::parse(&bad_count).is_err());
    }

    #[test]
    fn unknown_or_dangling_escape_rejected() {
        let good = sample_file().render();
        let bad = good.replace("nodecard", "node\\xcard");
        assert!(OutputFile::parse(&bad).is_err());
        let dangling = good.replace("# agent: R00-M0-N04", "# agent: R00-M0-N04\\");
        assert!(OutputFile::parse(&dangling).is_err());
    }

    #[test]
    fn file_name_sanitizes_hostile_agent_names() {
        let mut f = sample_file();
        f.agent = "../../etc/passwd\tx".into();
        assert_eq!(f.file_name(), "moneq-rank00003-.._.._etc_passwd_x.dat");
        let dir = std::env::temp_dir().join(format!("moneq-hostile-{}", std::process::id()));
        let path = f.write_to(&dir).expect("writable temp dir");
        assert!(path.starts_with(&dir), "write must stay inside dir");
        // The header preserves the exact (escaped) name.
        let back = OutputFile::from_path(&path).expect("readable");
        assert_eq!(back.agent, f.agent);
        std::fs::remove_dir_all(&dir).ok();
    }
}
