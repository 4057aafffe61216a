//! Experiment output: a titled table of text cells, rendered as an aligned
//! console table, a CSV file under `target/experiments/` for plotting, and
//! a Markdown table for `EXPERIMENTS.md`. Rendering is pure; only
//! [`Table::write_csv`] touches the filesystem.

use crate::paper::claim::OOM;
use gts_core::RunReport;
use gts_sim::SimDuration;
use std::path::{Path, PathBuf};

/// One experiment table: an id (its CSV's name), a title, a header row and
/// data rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// The id, e.g. `"fig6_bfs"`.
    pub id: String,
    /// The title printed above it.
    pub title: String,
    /// Column headers.
    pub header: Vec<String>,
    /// Data rows, one cell per header.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// An empty table; `header` lists the column headers, `", "`-separated.
    pub fn new(id: &str, title: &str, header: &str) -> Table {
        let header = header.split(", ").map(String::from).collect();
        let (id, title) = (id.to_string(), title.to_string());
        Table {
            id,
            title,
            header,
            rows: Vec::new(),
        }
    }

    /// Append one row.
    ///
    /// # Panics
    /// When the row's arity differs from the header's.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// The aligned console table, with its leading blank line and title
    /// banner.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: Vec<String>| format!("  {}\n", cells.join("  "));
        let fmt_row = |cells: &[String]| {
            let cells = cells.iter().zip(&widths).map(|(c, &w)| format!("{c:>w$}"));
            line(cells.collect())
        };
        let mut out = format!("\n== {} — {} ==\n", self.id, self.title);
        out.push_str(&fmt_row(&self.header));
        out.push_str(&line(widths.iter().map(|&w| "-".repeat(w)).collect()));
        self.rows.iter().for_each(|row| out.push_str(&fmt_row(row)));
        out
    }

    /// The CSV body: header line plus one line per row.
    pub fn to_csv(&self) -> String {
        let lines = std::iter::once(&self.header).chain(&self.rows);
        lines.map(|cells| cells.join(",") + "\n").collect()
    }

    /// The Markdown table, under its title.
    pub fn markdown(&self) -> String {
        let line = |cells: &[String]| format!("| {} |\n", cells.join(" | "));
        let mut out = format!("`{}` — {}\n\n", self.id, self.title);
        out.push_str(&line(&self.header));
        out.push_str(&line(&vec!["---".to_string(); self.header.len()]));
        self.rows.iter().for_each(|row| out.push_str(&line(row)));
        out
    }

    /// Write `<dir>/<id>.csv`, returning its path.
    pub fn write_csv(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.csv", self.id));
        std::fs::write(&path, self.to_csv())?;
        Ok(path)
    }
}

/// The workspace root, where `EXPERIMENTS.md` and `target/` live.
pub fn workspace_root() -> &'static Path {
    let bench = Path::new(env!("CARGO_MANIFEST_DIR"));
    bench
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels down")
}

/// Format a simulated duration in seconds with 4 decimals.
pub fn secs(d: SimDuration) -> String {
    format!("{:.4}", d.as_secs_f64())
}

/// A run's cell: its elapsed seconds, or `O.O.M.` for a run that ran out
/// of memory (`None`).
pub fn secs_or_oom(r: &Option<RunReport>) -> String {
    r.as_ref().map_or(OOM.to_string(), |r| secs(r.elapsed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(header: &[&str], rows: &[&[&str]]) -> Table {
        let mut t = Table::new("test_table", "unit test", &header.join(", "));
        rows.iter()
            .for_each(|r| t.row(r.iter().map(|c| c.to_string()).collect()));
        t
    }

    #[test]
    fn table_roundtrip_writes_csv() {
        let t = table(&["a", "b"], &[&["1", "2"]]);
        let dir = std::env::temp_dir().join(format!("gts-bench-{}", std::process::id()));
        let path = t.write_csv(&dir).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "a,b\n1,2\n");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        table(&["a", "b"], &[&["1"]]);
    }

    #[test]
    fn render_is_aligned_and_pure() {
        let mut t = table(&["col", "wide_column"], &[&["1", "2"]]);
        t.id = "id".into();
        t.title = "title".into();
        let s = t.render();
        assert!(s.starts_with("\n== id — title ==\n"));
        assert!(s.contains("col  wide_column"));
        assert!(s.contains("  1            2"), "{s}");
        assert_eq!(t.to_csv(), "col,wide_column\n1,2\n");
        let md = t.markdown();
        assert!(
            md.ends_with("| col | wide_column |\n| --- | --- |\n| 1 | 2 |\n"),
            "{md}"
        );
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(secs(SimDuration::from_millis(1500)), "1.5000");
        let tel = gts_telemetry::Telemetry::new();
        tel.set(gts_telemetry::keys::RUN_ELAPSED_NS, 2_000_000_000);
        let run = RunReport::from_telemetry(&tel, "bfs", "gts");
        assert_eq!(secs_or_oom(&Some(run)), "2.0000");
        assert_eq!(secs_or_oom(&None), "O.O.M.");
    }
}
