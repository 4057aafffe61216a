//! Experiment output formatting: aligned console tables plus CSV files
//! under `target/experiments/` for downstream plotting.
//!
//! Rendering is pure — [`render`] and [`to_csv`] turn a header and rows
//! into strings without touching the filesystem or stdout;
//! [`ExperimentTable`] is the figure/table benches' accumulator over them.

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

/// A simple experiment table: header row plus data rows, printed aligned
/// and mirrored to `target/experiments/<id>.csv`.
pub struct ExperimentTable {
    id: String,
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl ExperimentTable {
    /// Start a table for experiment `id` (e.g. `"fig6_bfs"`).
    pub fn new(id: &str, title: &str, header: &[&str]) -> Self {
        ExperimentTable {
            id: id.to_string(),
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Print to stdout and write the CSV; returns the CSV path.
    pub fn finish(&self) -> PathBuf {
        print!(
            "{}",
            render(&self.id, &self.title, &self.header, &self.rows)
        );

        let dir = out_dir();
        fs::create_dir_all(&dir).expect("create experiments dir");
        let path = dir.join(format!("{}.csv", self.id));
        let mut f = fs::File::create(&path).expect("create csv");
        write!(f, "{}", to_csv(&self.header, &self.rows)).expect("write csv");
        println!("  -> {}", path.display());
        path
    }
}

/// Render an aligned console table (pure; includes the leading blank
/// line and title banner the benches have always printed).
pub fn render(id: &str, title: &str, header: &[String], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, c) in row.iter().enumerate() {
            widths[i] = widths[i].max(c.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        let line: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths[i]))
            .collect();
        format!("  {}\n", line.join("  "))
    };
    let mut out = format!("\n== {id} — {title} ==\n");
    out.push_str(&fmt_row(header));
    out.push_str(&format!(
        "  {}\n",
        widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("  ")
    ));
    for row in rows {
        out.push_str(&fmt_row(row));
    }
    out
}

/// Render the CSV body (pure): header line plus one line per row.
pub fn to_csv(header: &[String], rows: &[Vec<String>]) -> String {
    let mut out = format!("{}\n", header.join(","));
    for row in rows {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

/// Where experiment CSVs land.
pub fn out_dir() -> PathBuf {
    // target/ of the workspace regardless of cwd quirk under cargo bench.
    let mut dir = std::env::current_dir().expect("cwd");
    while !dir.join("Cargo.toml").exists() || !dir.join("crates").exists() {
        if !dir.pop() {
            return PathBuf::from("target/experiments");
        }
    }
    dir.join("target").join("experiments")
}

/// Format a simulated duration in seconds with 4 significant digits.
pub fn secs(d: gts_sim::SimDuration) -> String {
    format!("{:.4}", d.as_secs_f64())
}

/// Format an outcome: seconds or `O.O.M.` — the figures' failure cells.
pub fn secs_or_oom<E>(r: &Result<gts_sim::SimDuration, E>) -> String {
    match r {
        Ok(d) => secs(*d),
        Err(_) => "O.O.M.".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gts_sim::SimDuration;

    #[test]
    fn table_roundtrip_writes_csv() {
        let mut t = ExperimentTable::new("test_table", "unit test", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        let path = t.finish();
        let body = fs::read_to_string(&path).unwrap();
        assert_eq!(body, "a,b\n1,2\n");
        fs::remove_file(path).ok();
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = ExperimentTable::new("x", "y", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn render_is_aligned_and_pure() {
        let header = vec!["col".to_string(), "wide_column".to_string()];
        let rows = vec![vec!["1".to_string(), "2".to_string()]];
        let s = render("id", "title", &header, &rows);
        assert!(s.starts_with("\n== id — title ==\n"));
        assert!(s.contains("col  wide_column"));
        assert!(s.contains("  1            2"), "{s}");
        assert_eq!(to_csv(&header, &rows), "col,wide_column\n1,2\n");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(secs(SimDuration::from_millis(1500)), "1.5000");
        let ok: Result<SimDuration, ()> = Ok(SimDuration::from_secs(2));
        let err: Result<SimDuration, ()> = Err(());
        assert_eq!(secs_or_oom(&ok), "2.0000");
        assert_eq!(secs_or_oom(&err), "O.O.M.");
    }
}
