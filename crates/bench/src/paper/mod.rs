//! The paper's evaluation as one table: [`EXPERIMENTS`] has a row per
//! table or figure of Sec. 7 and Appendices C–E, plus the Sec. 8 and
//! Sec. 1/9 claims and the ablations.
//!
//! A row names the paper artefact, its dataset grids, the paper's values,
//! the function that runs its cells, and the paper's claims as formulas
//! ([`claim`]). A claim this reproduction does not meet is followed by a
//! `deviates: CAUSE` line, its Deviation. The runner judges every claim:
//! one that fails without a Deviation fails the run, and so does a
//! Deviation whose claim holds, so a stale one cannot linger.
//!
//! Two entry points, two grids: [`bench()`] (`cargo bench -p gts-bench`)
//! runs the bench grids, and a tier-1 test runs the small smoke grids,
//! where the claims marked `smoke` must hold.

pub mod claim;
mod rows;

use crate::table::{workspace_root, Table};
pub use claim::Claim;
use gts_graph::Dataset;
pub use rows::EXPERIMENTS;
use std::path::Path;

/// The grid an entry point runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The row's own grid, at 1/1024 of the paper's scale.
    Bench,
    /// The small grid tier-1 runs; only `smoke` claims are judged.
    Smoke,
}

/// One table or figure of the paper's evaluation.
pub struct Experiment {
    /// The filter key, the name of the bench target it replaces.
    pub id: &'static str,
    /// The paper artefact.
    pub artefact: &'static str,
    /// Its datasets: the bench grid, then the smoke grid.
    pub grid: [&'static [Dataset]; 2],
    /// The paper's values its tables print beside the bench grid's rows.
    pub paper: &'static [&'static str],
    /// Runs the cells.
    pub run: fn(&Ctx) -> Result<Vec<Table>, String>,
    /// The claims ([`claim`]), each optionally followed by its Deviation.
    pub claims: &'static [&'static str],
}

/// What a row's `run` sees: its grid, and the paper's values for it (none
/// on the smoke grid, whose stand-in datasets the paper has no values
/// for).
pub struct Ctx<'a> {
    /// The grid.
    pub datasets: &'a [Dataset],
    /// The paper's values, row by row, a row's values `", "`-separated.
    pub paper: &'a [&'static str],
}

impl Ctx<'_> {
    /// Row `i` of the paper's values, or `n` dashes.
    pub fn paper_row(&self, i: usize, n: usize) -> Vec<&'static str> {
        let row = self.paper.get(i);
        row.map_or(vec!["-"; n], |row| row.split(", ").collect())
    }
}

/// A claim's verdict.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// It holds.
    Holds,
    /// It fails (why), and its Deviation (cause) admits it.
    Deviates(String, &'static str),
    /// It fails (why), and nothing admits it.
    Fails(String),
    /// It holds, but its Deviation says it does not.
    Stale,
}

impl Verdict {
    /// Whether the run may pass.
    pub fn ok(&self) -> bool {
        matches!(self, Verdict::Holds | Verdict::Deviates(..))
    }

    /// The verdict on `claim`, for the console and EXPERIMENTS.md.
    pub fn line(&self, claim: &Claim) -> String {
        let text = claim.text;
        match self {
            Verdict::Holds => format!("✅ {text}"),
            Verdict::Deviates(why, cause) => format!("⚠️ {text} — {why}; deviation: {cause}"),
            Verdict::Fails(why) => format!("❌ {text} — FAILS: {why}"),
            Verdict::Stale => format!("❌ {text} — holds, but its Deviation says it does not"),
        }
    }
}

/// One experiment's run: its tables, and each judged claim's verdict.
pub type Outcome = (Vec<Table>, Vec<(Claim, Verdict)>);

impl Experiment {
    /// Run `scale`'s grid and judge the claims: every claim, with its
    /// Deviation, on the bench grid; the `smoke` claims on the smoke grid,
    /// where each must hold.
    pub fn run(&self, scale: Scale) -> Result<Outcome, String> {
        let (datasets, bench) = (self.grid[scale as usize], scale == Scale::Bench);
        let paper = if bench { self.paper } else { &[] };
        let tables = (self.run)(&Ctx { datasets, paper })?;
        let mut verdicts = Vec::new();
        for claim in Claim::parse_all(self.claims)? {
            if !bench && !claim.smoke {
                continue;
            }
            let deviation = claim.deviation.filter(|_| bench);
            let verdict = match (claim.check(&tables)?, deviation) {
                (None, None) => Verdict::Holds,
                (None, Some(_)) => Verdict::Stale,
                (Some(why), None) => Verdict::Fails(why),
                (Some(why), Some(cause)) => Verdict::Deviates(why, cause),
            };
            verdicts.push((claim, verdict));
        }
        Ok((tables, verdicts))
    }
}

/// The bench entry point: run each experiment whose id contains `filter`
/// on its bench grid, print its tables and write their CSVs under
/// `target/experiments/`, and print each claim's verdict. With `bless`,
/// also rewrite the experiments' blocks of EXPERIMENTS.md (and, on an
/// unfiltered run, its scorecard). Returns the exit code: 1 when an
/// experiment fails to run, a claim fails, or a Deviation is stale.
pub fn bench(filter: Option<&str>, bless: bool) -> i32 {
    let root = workspace_root();
    let mut failed = false;
    let mut done = Vec::new();
    let dir = root.join("target").join("experiments");
    for exp in EXPERIMENTS
        .iter()
        .filter(|e| filter.is_none_or(|f| e.id.contains(f)))
    {
        let (tables, verdicts) = match exp.run(Scale::Bench) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("\n{}: {e}", exp.id);
                failed = true;
                continue;
            }
        };
        for t in &tables {
            let csv = t.write_csv(&dir).expect("write CSV");
            println!("{}  -> {}", t.render(), csv.display());
        }
        println!("\n  claims of {} ({}):", exp.id, exp.artefact);
        for (claim, verdict) in &verdicts {
            println!("  {}", verdict.line(claim));
            failed |= !verdict.ok();
        }
        done.push((exp, (tables, verdicts)));
    }
    if bless && !failed {
        if let Err(e) = bless_experiments(&root.join("EXPERIMENTS.md"), &done, filter.is_none()) {
            eprintln!("bless: {e}");
            failed = true;
        }
    }
    i32::from(failed)
}

/// Rewrite the block of `path` of each experiment in `done` — its tables
/// and verdicts — and, when `all` ran, the scorecard. Prose outside the
/// blocks stays as it is.
fn bless_experiments(
    path: &Path,
    done: &[(&Experiment, Outcome)],
    all: bool,
) -> Result<(), String> {
    let mut doc = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut card = String::from("| Experiment | Id | Claims |\n|---|---|---|\n");
    for (exp, (tables, verdicts)) in done {
        let tables = tables.iter().map(|t| t.markdown() + "\n");
        let lines = verdicts.iter().map(|(c, v)| format!("- {}\n", v.line(c)));
        doc = splice(&doc, exp.id, &tables.chain(lines).collect::<String>())?;
        let held = verdicts.iter().filter(|(_, v)| *v == Verdict::Holds);
        let held = held.count();
        let tally = match verdicts.len() - held {
            0 => format!("✅ {held} hold"),
            n => format!("✅ {held} hold · ⚠️ {n} deviate"),
        };
        card += &format!("| {} | `{}` | {tally} |\n", exp.artefact, exp.id);
    }
    if all {
        doc = splice(&doc, "scorecard", &card)?;
    }
    std::fs::write(path, doc).map_err(|e| format!("{}: {e}", path.display()))
}

/// Replace what lies between `<!-- BEGIN paper:KEY -->` and
/// `<!-- END paper:KEY -->`.
fn splice(doc: &str, key: &str, body: &str) -> Result<String, String> {
    let begin = format!("<!-- BEGIN paper:{key} -->\n");
    let end = format!("<!-- END paper:{key} -->");
    let missing = || format!("EXPERIMENTS.md has no `{begin}` … `{end}` block");
    let start = doc.find(&begin).ok_or_else(missing)? + begin.len();
    let stop = start + doc[start..].find(&end).ok_or_else(missing)?;
    Ok(format!("{}{body}{}", &doc[..start], &doc[stop..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tables(_: &Ctx) -> Result<Vec<Table>, String> {
        let mut t = Table::new("t", "test", "key, A, B");
        t.row(vec!["x".into(), "1".into(), "2".into()]);
        Ok(vec![t])
    }

    fn judge(claims: &'static [&'static str], scale: Scale) -> Result<Vec<Verdict>, String> {
        let grid = [&[][..], &[][..]];
        let (id, artefact, paper, run) = ("t", "test", &[][..], tables as fn(&Ctx) -> _);
        let exp = Experiment {
            id,
            artefact,
            grid,
            paper,
            run,
            claims,
        };
        Ok(exp.run(scale)?.1.into_iter().map(|(_, v)| v).collect())
    }

    #[test]
    fn a_deviation_admits_a_failing_claim_and_fails_a_holding_one() {
        const HOLDS: &str = "t: * @ A < * @ B — A beats B";
        const FAILS: &str = "t: * @ B < * @ A — B beats A";
        assert_eq!(judge(&[HOLDS], Scale::Bench).unwrap(), [Verdict::Holds]);
        let failed = judge(&[FAILS], Scale::Bench).unwrap();
        assert!(matches!(&failed[..], [Verdict::Fails(_)]) && !failed[0].ok());
        let admitted = judge(&[FAILS, "deviates: c"], Scale::Bench).unwrap();
        assert!(matches!(&admitted[..], [Verdict::Deviates(_, "c")]) && admitted[0].ok());
        let stale = judge(&[HOLDS, "deviates: c"], Scale::Bench).unwrap();
        assert_eq!(stale, [Verdict::Stale]);
        assert!(
            !stale[0].ok(),
            "a Deviation on a claim that holds must fail the run"
        );
    }

    #[test]
    fn a_deviation_must_follow_a_claim() {
        assert!(judge(&["deviates: c"], Scale::Bench).is_err());
        assert!(judge(
            &["t: * @ A < * @ B — a", "deviates: c", "deviates: d"],
            Scale::Bench
        )
        .is_err());
    }

    #[test]
    fn the_smoke_grid_judges_only_smoke_claims_and_ignores_deviations() {
        let claims = &[
            "smoke t: * @ B < * @ A — B beats A",
            "deviates: c",
            "t: * @ A < * @ B — a",
        ];
        let verdicts = judge(claims, Scale::Smoke).unwrap();
        assert!(matches!(&verdicts[..], [Verdict::Fails(_)]));
    }

    #[test]
    fn table2_matches_the_paper_cell_for_cell() {
        let table2 = EXPERIMENTS.iter().find(|e| e.id == "table2").unwrap();
        let (tables, verdicts) = table2.run(Scale::Bench).unwrap();
        let [(claim, verdict)] = &verdicts[..] else {
            panic!("one claim")
        };
        assert!(matches!(claim.kind, claim::Kind::CellEq { .. }));
        assert_eq!(*verdict, Verdict::Holds);
        // Every one of the nine measured cells is pinned.
        for row in 0..3 {
            for col in [3, 5, 7] {
                let mut t = tables.clone();
                t[0].rows[row][col].push('0');
                assert!(claim.check(&t).unwrap().is_some(), "row {row} col {col}");
            }
        }
    }

    #[test]
    fn splice_replaces_only_the_block() {
        let doc = "a\n<!-- BEGIN paper:x -->\nold\n<!-- END paper:x -->\nb\n";
        let new = splice(doc, "x", "new\n").unwrap();
        assert_eq!(
            new,
            "a\n<!-- BEGIN paper:x -->\nnew\n<!-- END paper:x -->\nb\n"
        );
        assert_eq!(splice(&new, "x", "new\n").unwrap(), new);
        assert!(splice(doc, "y", "").is_err());
    }
}
