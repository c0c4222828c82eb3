//! Result tables: aligned text output plus CSV persistence.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// A simple result table mirroring one figure/series of the paper.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table title (e.g. `"Fig 3(a): throughput vs buffer size"`).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of formatted cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let header: Vec<String> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| format!("{:>w$}", h, w = widths[i]))
            .collect();
        let _ = writeln!(out, "{}", header.join("  "));
        let _ = writeln!(
            out,
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect();
            let _ = writeln!(out, "{}", cells.join("  "));
        }
        out
    }

    /// Renders the table as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.headers.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }
}

/// Directory where experiment reports are written: `results/` at the repo
/// root, or `$PROTEUS_RESULTS_DIR` when set (the golden-output test points
/// this at a scratch directory so running experiments cannot clobber the
/// committed full-fidelity reports).
///
/// # Panics
/// Panics, naming the directory, if it cannot be created.
pub fn results_dir() -> PathBuf {
    let dir = match std::env::var_os("PROTEUS_RESULTS_DIR") {
        Some(d) if !d.is_empty() => PathBuf::from(d),
        _ => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results"),
    };
    if let Err(e) = fs::create_dir_all(&dir) {
        panic!("cannot create {}: {e}", dir.display());
    }
    dir
}

/// Writes `contents` to `path`, creating its parent directory first.
///
/// # Panics
/// Panics, naming the path, if the directory or the file cannot be written:
/// a report that silently fails to land leaves a stale file in its place.
pub(crate) fn write_file(path: &Path, contents: &str) {
    if let Some(parent) = path.parent() {
        if let Err(e) = fs::create_dir_all(parent) {
            panic!("cannot create {}: {e}", parent.display());
        }
    }
    if let Err(e) = fs::write(path, contents) {
        panic!("cannot write {}: {e}", path.display());
    }
}

/// Writes one experiment's text report (and each table's CSV) to
/// `results/`.
///
/// # Panics
/// Panics, naming the path, if a file cannot be written.
pub fn write_report(id: &str, text: &str, tables: &[&Table]) {
    let dir = results_dir();
    write_file(&dir.join(format!("{id}.txt")), text);
    for (i, t) in tables.iter().enumerate() {
        let suffix = if tables.len() == 1 {
            String::new()
        } else {
            format!("_{}", i + 1)
        };
        write_file(&dir.join(format!("{id}{suffix}.csv")), &t.to_csv());
    }
}

/// Formats a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a percentage with 1 decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("Example", &["proto", "mbps"]);
        t.row(vec!["CUBIC".into(), "49.9".into()]);
        t.row(vec!["LEDBAT-25".into(), "5.0".into()]);
        let s = t.render();
        assert!(s.contains("## Example"));
        assert!(s.contains("CUBIC"));
        // All lines (under the title) equally wide.
        let lines: Vec<&str> = s.lines().skip(1).collect();
        assert_eq!(lines[1].len(), lines[2].len().max(lines[1].len()));
    }

    #[test]
    fn csv_output() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        assert_eq!(t.to_csv(), "a,b\n1,2\n");
    }

    #[test]
    fn write_file_creates_parents_and_names_the_failing_path() {
        let root = std::env::temp_dir().join(format!("proteus-write-file-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let report = root.join("a").join("report.txt");
        write_file(&report, "ok\n");
        assert_eq!(fs::read_to_string(&report).unwrap(), "ok\n");

        // A regular file where a directory should be: the write must fail
        // loudly, naming the path, instead of leaving no report behind.
        let blocked = report.join("inner.csv");
        let err = std::panic::catch_unwind(|| write_file(&blocked, "x"))
            .expect_err("writing below a regular file must panic");
        let msg = err
            .downcast_ref::<String>()
            .expect("formatted panic message");
        assert!(msg.contains(&report.display().to_string()), "{msg}");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn formatters() {
        assert_eq!(f2(1.005), "1.00");
        assert_eq!(f3(0.1234), "0.123");
        assert_eq!(pct(0.914), "91.4%");
    }
}
