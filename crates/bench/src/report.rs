//! Plain-text tables and JSON artifacts for experiment binaries.

use serde::Serialize;
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
