//! Plain-text tables and JSON artifacts for experiment binaries.

use serde::{Deserialize, Serialize};
use std::io::Write;
use std::path::Path;

/// A simple aligned text table.
#[derive(Debug, Default)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Starts a table with column headers.
    pub fn new<I, S>(headers: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        TextTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (padded/truncated to the header width).
    pub fn row<I, S>(&mut self, cells: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (cell, w) in cells.iter().zip(widths) {
                line.push_str(&format!("{cell:<w$}  "));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Writes a serializable experiment result as pretty JSON.
///
/// # Errors
///
/// Returns I/O or serialization errors.
pub fn write_json<T: Serialize>(path: &Path, value: &T) -> std::io::Result<()> {
    let json = serde_json::to_string_pretty(value)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    let mut file = std::fs::File::create(path)?;
    file.write_all(json.as_bytes())?;
    file.write_all(b"\n")
}

/// Parses the common experiment CLI flags: `--json <path>` and `--quick`.
#[derive(Debug, Clone, Default)]
pub struct CommonArgs {
    /// Where to write the JSON artifact, if requested.
    pub json: Option<std::path::PathBuf>,
    /// Reduced-budget mode for CI / smoke runs.
    pub quick: bool,
    /// Remaining positional/unknown arguments.
    pub rest: Vec<String>,
}

impl CommonArgs {
    /// Parses `std::env::args` (skipping the binary name).
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parses an explicit argument list.
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut out = CommonArgs::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--json" => out.json = iter.next().map(Into::into),
                "--quick" => out.quick = true,
                _ => out.rest.push(arg),
            }
        }
        out
    }

    /// Whether a bare flag appears among the remaining arguments.
    pub fn has_flag(&self, flag: &str) -> bool {
        self.rest.iter().any(|a| a == flag)
    }

    /// The value following a `--flag value` pair in the remaining
    /// arguments, if present.
    pub fn flag_value(&self, flag: &str) -> Option<&str> {
        self.rest
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.rest.get(i + 1))
            .map(String::as_str)
    }

    /// Rejects leftover arguments a binary does not understand:
    /// everything in `rest` must be one of `value_flags` (which consume
    /// the following argument) or `bare_flags`. A behavior-changing
    /// flag that is mistyped (`--tune` for `--tuned`, `--tuned=x`)
    /// must fail loudly rather than silently run the default path.
    ///
    /// # Errors
    ///
    /// Names the first unrecognized argument.
    pub fn reject_unknown(&self, value_flags: &[&str], bare_flags: &[&str]) -> Result<(), String> {
        let mut iter = self.rest.iter();
        while let Some(arg) = iter.next() {
            if value_flags.contains(&arg.as_str()) {
                // Its value (if any) is consumed; a missing value is
                // the consuming parser's error to report.
                iter.next();
            } else if !bare_flags.contains(&arg.as_str()) {
                return Err(format!("unknown argument `{arg}`"));
            }
        }
        Ok(())
    }
}

/// One benchmark's timing statistics, as emitted by the vendored
/// criterion harness's `CRITERION_JSON` channel (one JSON line per
/// benchmark, all durations in nanoseconds).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchRecord {
    /// Full benchmark name, `group/function/parameter`.
    pub name: String,
    /// Fastest sample.
    pub min_ns: u64,
    /// True median sample.
    pub median_ns: u64,
    /// Mean over all iterations.
    pub mean_ns: u64,
    /// Slowest sample.
    pub max_ns: u64,
}

impl BenchRecord {
    /// The benchmark's group: the name segment before the first `/`.
    pub fn group(&self) -> &str {
        self.name.split('/').next().unwrap_or(&self.name)
    }
}

/// The hot-path summary of one criterion group: every benchmark's
/// median plus the group's median-of-medians.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupSummary {
    /// Group name (`e2sf`, `dsfa`, ...).
    pub group: String,
    /// Median of the group's benchmark medians, in microseconds.
    pub median_us: f64,
    /// Per-benchmark records, in emission order.
    pub benchmarks: Vec<BenchRecord>,
}

/// Parses the JSON-lines output of a `CRITERION_JSON=<path>` bench run.
///
/// # Errors
///
/// Returns the underlying JSON error for a malformed line.
pub fn parse_bench_records(jsonl: &str) -> Result<Vec<BenchRecord>, serde_json::Error> {
    jsonl
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(serde_json::from_str)
        .collect()
}

/// Groups records by their name prefix and computes each group's
/// median-of-medians, preserving first-seen group order.
pub fn summarize_groups(records: &[BenchRecord]) -> Vec<GroupSummary> {
    let mut groups: Vec<GroupSummary> = Vec::new();
    for record in records {
        let name = record.group().to_string();
        match groups.iter_mut().find(|g| g.group == name) {
            Some(group) => group.benchmarks.push(record.clone()),
            None => groups.push(GroupSummary {
                group: name,
                median_us: 0.0,
                benchmarks: vec![record.clone()],
            }),
        }
    }
    for group in &mut groups {
        let mut medians: Vec<u64> = group.benchmarks.iter().map(|b| b.median_ns).collect();
        medians.sort_unstable();
        let n = medians.len();
        let median_ns = if n % 2 == 1 {
            medians[n / 2] as f64
        } else {
            (medians[n / 2 - 1] + medians[n / 2]) as f64 / 2.0
        };
        group.median_us = median_ns / 1e3;
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(["name", "value"]);
        t.row(["alpha", "1"]);
        t.row(["b", "22"]);
        let s = t.render();
        assert!(s.contains("alpha"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // Header and rows align on the same column.
        let col = lines[0].find("value").unwrap();
        assert_eq!(lines[2].find('1'), Some(col));
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = TextTable::new(["a", "b", "c"]);
        t.row(["only"]);
        assert!(t.render().contains("only"));
    }

    #[test]
    fn bench_records_parse_and_summarize() {
        let jsonl = concat!(
            "{\"name\":\"e2sf/direct_sparse/50k\",\"min_ns\":100,\"median_ns\":3000,\"mean_ns\":3500,\"max_ns\":9000}\n",
            "\n",
            "{\"name\":\"e2sf/direct_sparse/300k\",\"min_ns\":200,\"median_ns\":1000,\"mean_ns\":1100,\"max_ns\":2000}\n",
            "{\"name\":\"dsfa/push_stream/cAdd\",\"min_ns\":5,\"median_ns\":7,\"mean_ns\":8,\"max_ns\":20}\n",
        );
        let records = parse_bench_records(jsonl).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].group(), "e2sf");
        let groups = summarize_groups(&records);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].group, "e2sf");
        // Even count: mean of the two middle medians (3000, 1000) → 2 µs.
        assert!((groups[0].median_us - 2.0).abs() < 1e-12);
        assert_eq!(groups[1].group, "dsfa");
        assert!((groups[1].median_us - 0.007).abs() < 1e-12);
        assert!(parse_bench_records("not json").is_err());
    }

    #[test]
    fn args_parse() {
        let args = CommonArgs::parse_from(
            ["--quick", "--json", "/tmp/x.json", "extra"]
                .into_iter()
                .map(String::from),
        );
        assert!(args.quick);
        assert_eq!(args.json.as_deref(), Some(Path::new("/tmp/x.json")));
        assert_eq!(args.rest, vec!["extra".to_string()]);
    }
}
