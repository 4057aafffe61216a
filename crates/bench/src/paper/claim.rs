//! The paper's claims as data: one formula per claim, checked against the
//! tables an experiment prints.
//!
//! A claim reads `[smoke ]TABLES: CHECK — TEXT`. TEXT is the paper's
//! sentence; TABLES is a table id, a comma list of ids, or an id prefix
//! ending in `*`, and the check must hold on each. A `smoke` claim also
//! holds on the smoke grid. A `deviates: CAUSE` line after a claim is its
//! Deviation. Cells are selected as `ROWS @ COLS [/ PER]`:
//! ROWS is `*` or a comma list of row keys (a key selects each row whose
//! first cell, or first cells joined by spaces, it equals: `BFS` selects
//! every BFS row); COLS is a comma list of headers (a header printed twice
//! selects both); `/ PER` divides each value by its row's PER cell. A cell's
//! value is its number, `a:b` reads as a ÷ b, a trailing `%` or `x` is
//! dropped, and `O.O.M.` has none. The checks, one per [`Kind`]:
//!
//! * `A < B`, `A × f < B` — each A value (times f) is below its B value;
//! * `A crosses COL at KEY` — A is below COL before row KEY, above it after;
//! * `A is O.O.M.`, `A runs` — each A cell is (is not) `O.O.M.`;
//! * `A rises`, `A falls`, `… until KEY` — no step turns back, the ends
//!   differ; a line runs across the selected columns, or down the rows when
//!   one column is selected, and `until` ends it at that column or row;
//! * `A in lo..hi` — each A value lies in `[lo, hi]`;
//! * `A = B` — each A cell reads exactly as its B cell.
//!
//! A and B pair up positionally by row and by column, a side with one row
//! (column) pairing with each of the other's. Comparisons skip `O.O.M.`
//! cells — where runs fail is what `is O.O.M.` and `runs` check — but a
//! claim that compares no cells fails.

use crate::table::Table;

/// One claim: the paper's sentence and the check that decides it.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// The paper's sentence, by which deviations and tests name the claim.
    pub text: &'static str,
    /// The tables it is checked on.
    pub tables: &'static str,
    /// The check.
    pub kind: Kind,
    /// Whether it also holds on the smoke grid.
    pub smoke: bool,
    /// Its Deviation: why this reproduction does not meet it, or the
    /// ROADMAP item that will attribute a cause.
    pub deviation: Option<&'static str>,
}

/// The checks (module docs); the fields are the formula's parts.
#[allow(missing_docs)]
#[derive(Debug, Clone, PartialEq)]
pub enum Kind {
    Order {
        lo: &'static str,
        hi: &'static str,
        factor: f64,
    },
    Crossover {
        a: &'static str,
        b: &'static str,
        at: &'static str,
    },
    Oom {
        at: &'static str,
        oom: bool,
    },
    Monotone {
        at: &'static str,
        rising: bool,
        until: Option<&'static str>,
    },
    Band {
        at: &'static str,
        lo: f64,
        hi: f64,
    },
    CellEq {
        a: &'static str,
        b: &'static str,
    },
}

/// The figures' failure cell.
pub const OOM: &str = "O.O.M.";

impl Claim {
    /// Parse a row's claims, each optionally followed by a
    /// `deviates: CAUSE` line.
    pub fn parse_all(lines: &[&'static str]) -> Result<Vec<Claim>, String> {
        let mut claims: Vec<Claim> = Vec::new();
        for &line in lines {
            match (line.strip_prefix("deviates: "), claims.last_mut()) {
                (Some(cause), Some(claim)) if claim.deviation.is_none() => {
                    claim.deviation = Some(cause)
                }
                (Some(_), _) => return Err(format!("`{line}` follows no claim")),
                (None, _) => claims.push(Claim::parse(line)?),
            }
        }
        Ok(claims)
    }

    /// Parse one claim formula (module docs).
    pub fn parse(line: &'static str) -> Result<Claim, String> {
        let bad = |what: &str| format!("claim `{line}`: {what}");
        let (smoke, rest) = match line.strip_prefix("smoke ") {
            Some(rest) => (true, rest),
            None => (false, line),
        };
        let (tables, rest) = rest.split_once(": ").ok_or_else(|| bad("no `TABLES: `"))?;
        let (check, text) = rest.split_once(" — ").ok_or_else(|| bad("no ` — TEXT`"))?;
        let num = |s: &str| s.parse::<f64>().map_err(|_| bad("bad number"));
        let split = |s: &'static str, sep| s.split_once(sep).ok_or_else(|| bad(sep));
        let kind = if let Some((lo, hi)) = check.split_once(" < ") {
            let (lo, factor) = lo.split_once(" × ").unwrap_or((lo, "1"));
            let factor = num(factor)?;
            Kind::Order { lo, hi, factor }
        } else if let Some((a, b)) = check.split_once(" = ") {
            Kind::CellEq { a, b }
        } else if let Some((a, rest)) = check.split_once(" crosses ") {
            let (b, at) = split(rest, " at ")?;
            Kind::Crossover { a, b, at }
        } else if let Some((at, band)) = check.split_once(" in ") {
            let (lo, hi) = split(band, "..")?;
            let (lo, hi) = (num(lo)?, num(hi)?);
            Kind::Band { at, lo, hi }
        } else if let Some(at) = check.strip_suffix(" is O.O.M.") {
            Kind::Oom { at, oom: true }
        } else if let Some(at) = check.strip_suffix(" runs") {
            Kind::Oom { at, oom: false }
        } else {
            let (line, until) = match check.split_once(" until ") {
                Some((line, key)) => (line, Some(key)),
                None => (check, None),
            };
            let (at, rising) = match line.strip_suffix(" rises") {
                Some(at) => (at, true),
                None => (split(line, " falls")?.0, false),
            };
            Kind::Monotone { at, rising, until }
        };
        Ok(Claim {
            text,
            tables,
            kind,
            smoke,
            deviation: None,
        })
    }

    /// Check the claim on `tables`: `Ok(None)` when it holds, `Ok(Some(why))`
    /// when it fails, `Err` when it does not fit these tables (a missing
    /// table, row or column, or a word where a number should be).
    pub fn check(&self, tables: &[Table]) -> Result<Option<String>, String> {
        let pat = self.tables;
        let named = tables.iter().filter(|t| match pat.strip_suffix('*') {
            Some(prefix) => t.id.starts_with(prefix),
            None => pat.split(", ").any(|p| p == t.id),
        });
        let mut matched = false;
        for t in named {
            matched = true;
            let failed = self.kind.check(t).map_err(|e| format!("{}: {e}", t.id))?;
            if let Some(why) = failed {
                return Ok(Some(format!("{}: {why}", t.id)));
            }
        }
        match matched {
            true => Ok(None),
            false => Err(format!("no table matches `{pat}`")),
        }
    }
}

impl Kind {
    fn check(&self, t: &Table) -> Result<Option<String>, String> {
        let (mut compared, mut fail) = (0, None);
        let mut judge = |ok: bool, why: &dyn Fn() -> String| {
            compared += 1;
            if !ok && fail.is_none() {
                fail = Some(why());
            }
        };
        match *self {
            Kind::Order { lo, hi, factor } => {
                for (a, b) in pairs(select(t, lo)?, select(t, hi)?)? {
                    if let (Some(x), Some(y)) = (a.value()?, b.value()?) {
                        judge(x * factor < y, &|| format!("{a} × {factor} ≮ {b}"));
                    }
                }
            }
            Kind::Crossover { a, b, at } => {
                let rows = a.split_once(" @ ").map_or("", |(rows, _)| rows);
                let from = t.rows_of(at)?[0];
                for (x, y) in pairs(select(t, a)?, select(t, &format!("{rows} @ {b}"))?)? {
                    if let (Some(u), Some(v)) = (x.value()?, y.value()?) {
                        let below = x.row < from;
                        judge(u != v && (u < v) == below, &|| format!("{x} vs {y}"));
                    }
                }
            }
            Kind::Oom { at, oom } => {
                for c in select(t, at)?.concat() {
                    judge((c.text() == OOM) == oom, &|| c.to_string());
                }
            }
            Kind::Monotone { at, rising, until } => {
                let mut lines = select(t, at)?;
                if lines[0].len() == 1 {
                    lines = vec![lines.concat()];
                }
                for mut line in lines {
                    if let Some(key) = until {
                        let end = line.iter().position(|c| c.is(key));
                        line.truncate(1 + end.ok_or(format!("`until {key}` is off the line"))?);
                    }
                    let mut vals = Vec::new();
                    for c in &line {
                        vals.extend(c.value()?.map(|v| (v, c)));
                    }
                    let up = |x: f64, y: f64| if rising { x < y } else { x > y };
                    for w in vals.windows(2) {
                        let ((x, a), (y, b)) = (w[0], w[1]);
                        judge(!up(y, x), &|| format!("{a} then {b}"));
                    }
                    if let (Some((x, a)), Some((y, b))) = (vals.first(), vals.last()) {
                        judge(up(*x, *y), &|| format!("{a} to {b} does not move"));
                    }
                }
            }
            Kind::Band { at, lo, hi } => {
                for c in select(t, at)?.concat() {
                    if let Some(v) = c.value()? {
                        let why = || format!("{c} = {v:.3} ∉ [{lo}, {hi}]");
                        judge((lo..=hi).contains(&v), &why);
                    }
                }
            }
            Kind::CellEq { a, b } => {
                for (x, y) in pairs(select(t, a)?, select(t, b)?)? {
                    judge(x.text() == y.text(), &|| format!("{x} ≠ {y}"));
                }
            }
        }
        let nothing = (compared == 0).then(|| "compares no cells".to_string());
        Ok(nothing.or(fail))
    }
}

/// A cell's value (module docs); `None` for `O.O.M.`.
pub fn value(cell: &str) -> Result<Option<f64>, String> {
    let not_a_number = || format!("`{cell}` is not a number");
    let num = |s: &str| s.parse::<f64>().map_err(|_| not_a_number());
    match cell.split_once(':') {
        _ if cell == OOM => Ok(None),
        Some((a, b)) => Ok(Some(num(a)? / num(b)?)),
        None => num(cell.trim_end_matches(['%', 'x'])).map(Some),
    }
}

impl Table {
    /// Every row the comma list `keys` selects, key by key.
    fn rows_of(&self, keys: &str) -> Result<Vec<usize>, String> {
        let mut rows = Vec::new();
        for key in keys.split(", ") {
            let hit = |row: &Vec<String>| (1..row.len()).any(|k| row[..k].join(" ") == key);
            let hits = self.rows.iter().map(|row| key == "*" || hit(row));
            rows.extend(found(hits, || format!("no row `{key}`"))?);
        }
        Ok(rows)
    }

    /// Every column the comma list `names` heads, name by name.
    fn cols_of(&self, names: &str) -> Result<Vec<usize>, String> {
        let mut cols = Vec::new();
        for name in names.split(", ") {
            let hits = self.header.iter().map(|h| h == name);
            cols.extend(found(hits, || format!("no column `{name}`"))?);
        }
        Ok(cols)
    }
}

/// The positions where `hits` is true; `missing()` when there are none.
fn found(
    hits: impl Iterator<Item = bool>,
    missing: impl Fn() -> String,
) -> Result<Vec<usize>, String> {
    let at: Vec<usize> = hits
        .enumerate()
        .filter_map(|(i, hit)| hit.then_some(i))
        .collect();
    match at.is_empty() {
        true => Err(missing()),
        false => Ok(at),
    }
}

/// One selected cell, and its row's PER column when there is one.
#[derive(Clone, Copy)]
struct Cell<'t> {
    t: &'t Table,
    row: usize,
    col: usize,
    per: Option<usize>,
}

impl<'t> Cell<'t> {
    fn text(&self) -> &'t str {
        &self.t.rows[self.row][self.col]
    }

    fn value(&self) -> Result<Option<f64>, String> {
        let Some(per) = self.per else {
            return value(self.text());
        };
        let per = value(&self.t.rows[self.row][per])?;
        Ok(value(self.text())?.zip(per).map(|(x, y)| x / y))
    }

    /// Whether the cell lies in column `key` or a row `key` selects.
    fn is(&self, key: &str) -> bool {
        self.t.header[self.col] == key || self.t.rows_of(key).is_ok_and(|r| r.contains(&self.row))
    }
}

impl std::fmt::Display for Cell<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // A row's label is its first cell, and its second when that is a word.
        let row = &self.t.rows[self.row];
        let label = if value(&row[1]).is_err() {
            &row[..2]
        } else {
            &row[..1]
        };
        write!(
            f,
            "{} {} {}",
            label.join(" "),
            self.t.header[self.col],
            self.text()
        )?;
        match self.per {
            Some(per) => write!(f, " / {}", row[per]),
            None => Ok(()),
        }
    }
}

/// The cells `ROWS @ COLS [/ PER]` selects, row by row.
fn select<'t>(t: &'t Table, addr: &str) -> Result<Vec<Vec<Cell<'t>>>, String> {
    let bad = || format!("`{addr}` is not `ROWS @ COLS`");
    let (rows, cols) = addr.split_once(" @ ").ok_or_else(bad)?;
    let (cols, per) = match cols.split_once(" / ") {
        Some((cols, per)) => (t.cols_of(cols)?, Some(t.cols_of(per)?[0])),
        None => (t.cols_of(cols)?, None),
    };
    let cells = |row| cols.iter().map(|&col| Cell { t, row, col, per }).collect();
    Ok(t.rows_of(rows)?.into_iter().map(cells).collect())
}

/// Pair two selections' cells (module docs).
fn pairs<'t>(
    a: Vec<Vec<Cell<'t>>>,
    b: Vec<Vec<Cell<'t>>>,
) -> Result<Vec<(Cell<'t>, Cell<'t>)>, String> {
    let rows = zip(a, b)?.into_iter().map(|(a, b)| zip(a, b));
    Ok(rows.collect::<Result<Vec<_>, _>>()?.concat())
}

/// Zip two lists positionally, a list of one pairing with each of the other's.
fn zip<T: Clone>(a: Vec<T>, b: Vec<T>) -> Result<Vec<(T, T)>, String> {
    match (a.len(), b.len()) {
        (n, m) if n == m => Ok(a.into_iter().zip(b).collect()),
        (1, _) => Ok(b.into_iter().map(|y| (a[0].clone(), y)).collect()),
        (_, 1) => Ok(a.into_iter().map(|x| (x, b[0].clone())).collect()),
        (n, m) => Err(format!("cannot pair {n} cells with {m}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A table `t` with columns `key, A, B`.
    fn table(rows: &[&[&str]]) -> Table {
        let mut t = Table::new("t", "test", "key, A, B");
        rows.iter()
            .for_each(|r| t.row(r.iter().map(|c| c.to_string()).collect()));
        t
    }

    fn holds(formula: &'static str, rows: &[&[&str]]) -> bool {
        let claim = Claim::parse(formula).unwrap();
        claim.check(&[table(rows)]).unwrap().is_none()
    }

    #[test]
    fn every_kind_holds_on_one_table_and_fails_on_another() {
        type Rows<'a> = &'a [&'a [&'a str]];
        let cases: &[(&str, Rows, Rows)] = &[
            (
                "t: * @ A < * @ B — o",
                &[&["x", "1", "2"]],
                &[&["x", "2", "1"]],
            ),
            (
                "t: * @ A × 2 < * @ B — o",
                &[&["x", "1", "3"]],
                &[&["x", "1", "2"]],
            ),
            (
                "t: x, y @ A < z @ A — o",
                &[&["x", "1", "0"], &["y", "2", "0"], &["z", "3", "0"]],
                &[&["x", "1", "0"], &["y", "4", "0"], &["z", "3", "0"]],
            ),
            (
                "t: * @ A crosses B at y — c",
                &[&["x", "1", "2"], &["y", "3", "2"]],
                &[&["x", "1", "2"], &["y", "1", "2"]],
            ),
            (
                "t: x @ A is O.O.M. — m",
                &[&["x", "O.O.M.", "1"]],
                &[&["x", "1", "1"]],
            ),
            (
                "t: * @ A, B runs — m",
                &[&["x", "1", "1"]],
                &[&["x", "1", "O.O.M."]],
            ),
            (
                "t: * @ A rises — r",
                &[&["x", "1", "0"], &["y", "1", "0"], &["z", "2", "0"]],
                &[&["x", "1", "0"], &["y", "2", "0"], &["z", "1.5", "0"]],
            ),
            (
                "t: x @ A, B falls — r",
                &[&["x", "2", "1"]],
                &[&["x", "1", "1"]],
            ),
            (
                "t: * @ A rises until y — r",
                &[&["x", "1", "0"], &["y", "2", "0"], &["z", "0", "0"]],
                &[&["x", "2", "0"], &["y", "1", "0"], &["z", "3", "0"]],
            ),
            (
                "t: * @ A in 1..2 — b",
                &[&["x", "1", "0"], &["y", "2", "0"]],
                &[&["x", "2.5", "0"]],
            ),
            (
                "t: * @ A / B in 0.4..0.6 — b",
                &[&["x", "1", "2"]],
                &[&["x", "1", "1"]],
            ),
            (
                "t: * @ A = * @ B — e",
                &[&["x", "64 K", "64 K"]],
                &[&["x", "320 MB", "320.00 MB"]],
            ),
        ];
        for &(formula, good, bad) in cases {
            assert!(holds(formula, good), "{formula} should hold on {good:?}");
            assert!(!holds(formula, bad), "{formula} should fail on {bad:?}");
        }
    }

    #[test]
    fn comparisons_skip_oom_cells_but_must_compare_something() {
        let rows: &[&[&str]] = &[&["x", "O.O.M.", "1"], &["y", "1", "2"]];
        assert!(holds("t: * @ A < * @ B — o", rows));
        assert!(holds("t: * @ A in 1..1 — b", rows));
        assert!(!holds("t: x @ A < x @ B — o", rows), "compares nothing");
    }

    #[test]
    fn malformed_claims_are_errors_not_failures() {
        for bad in [
            "t: * @ A — no check",
            "t * @ A rises — x",
            "t: * @ A rises",
            "t: * @ A in 1 — b",
        ] {
            assert!(Claim::parse(bad).is_err(), "{bad}");
        }
        let t = [table(&[&["x", "1", "2"]])];
        for bad in [
            "u: * @ A rises — r",
            "t: * @ Z rises — r",
            "t: q @ A rises — r",
            "t: * @ A rises until q — r",
        ] {
            assert!(Claim::parse(bad).unwrap().check(&t).is_err(), "{bad}");
        }
        let words = [table(&[&["x", "n/a", "2"]])];
        assert!(Claim::parse("t: * @ A rises — r")
            .unwrap()
            .check(&words)
            .is_err());
    }

    #[test]
    fn cells_read_as_numbers() {
        assert_eq!(value("1:4"), Ok(Some(0.25)));
        assert_eq!(value("2.5:1"), Ok(Some(2.5)));
        assert_eq!(value("10.0%"), Ok(Some(10.0)));
        assert_eq!(value("1.87x"), Ok(Some(1.87)));
        assert_eq!(value("O.O.M."), Ok(None));
        assert!(value("n/a").is_err());
    }
}
