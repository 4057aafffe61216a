//! Whole-set runs, the results file, `--compare` and the `--smoke`
//! validation.

use crate::env;
use crate::json::{obj, Json};
use crate::metrics::{well_formed_name, END_TO_END, PER_LAYER, WORKLOADS};
use crate::{home, read_json, Opts};
use std::path::Path;
use std::process::{Command, Stdio};

const SCHEMA: &str = "gts-benchmark-results/v1";

/// Run one workload in a process of its own and return its result line
/// and detail file, both parsed.
fn spawn(workload: &str, opts: &Opts, trace: bool) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out_dir = home().join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let detail = out_dir.join(format!("detail-{workload}-trace{}.json", u8::from(trace)));
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--detail")
        .arg(&detail)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if opts.smoke {
        cmd.arg("--smoke");
    }
    if let Some(dir) = &opts.durable_dir {
        cmd.arg("--durable-dir").arg(dir);
    }
    // `output` waits for the child, so no process outlives this call.
    let out = cmd
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("{workload}: exited with {}\n{stdout}", out.status));
    }
    let (body, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .ok_or_else(|| format!("{workload}: no result line"))?;
    println!("{body}");
    let result = crate::json::parse(last).map_err(|e| format!("{workload}: result line: {e}"))?;
    let detail_json = read_json(&detail)?;
    let _ = std::fs::remove_file(&detail);
    Ok((result, detail_json))
}

/// Metrics of a child's result line, with the sample counts from its
/// detail file folded in.
fn metrics_with_counts(result: &Json, detail: &Json) -> Json {
    let fields = result.get("metrics").and_then(Json::as_obj).unwrap_or(&[]);
    obj(fields.iter().map(|(name, m)| {
        let n = detail.at(&["samples", name]).cloned().unwrap_or(Json::Null);
        let mut f = m.as_obj().unwrap_or(&[]).to_vec();
        f.push(("n".to_string(), n));
        (name.as_str(), Json::Obj(f))
    }))
}

/// Field `key` of `from`, or null.
fn pick(from: &Json, key: &str) -> Json {
    from.get(key).cloned().unwrap_or(Json::Null)
}

/// Run every workload (one OS process each), print every metric, write
/// the results file. `Ok(false)` when an operation failed or a traced
/// run did not reconcile.
pub fn run_set(opts: &Opts) -> Result<bool, String> {
    let started = std::time::Instant::now();
    let mut all_ok = true;
    let mut workloads = Vec::new();
    let mut env_fields: Option<Vec<(&str, Json)>> = None;
    for name in WORKLOADS {
        let (result, detail) = spawn(name, opts, false)?;
        let mut fields = vec![
            ("threads", pick(&detail, "threads")),
            ("digests", pick(&detail, "digests")),
            ("ops_attempted", pick(&result, "attempted")),
            ("ops_failed", pick(&result, "failed")),
            ("wall_s", pick(&detail, "wall_s")),
            ("end_to_end", metrics_with_counts(&result, &detail)),
            ("timings", pick(&detail, "timings")),
        ];
        all_ok &= result.get("correct") == Some(&Json::Bool(true));
        env_fields.get_or_insert_with(|| {
            ["nproc", "durable_fs", "flush_policy"]
                .into_iter()
                .map(|k| (k, pick(&detail, k)))
                .collect()
        });
        if opts.trace || opts.smoke {
            let (traced, tdetail) = spawn(name, opts, true)?;
            all_ok &= traced.get("correct") == Some(&Json::Bool(true));
            let reconcile = pick(&tdetail, "reconcile");
            for r in reconcile.as_arr().unwrap_or(&[]) {
                let holds = r.get("holds") == Some(&Json::Bool(true));
                let by_construction = r.get("tolerance").and_then(Json::as_f64) == Some(0.0);
                println!(
                    "  reconcile {:<4} {} (lhs {:.4e}, rhs {:.4e})",
                    if holds { "ok" } else { "MISS" },
                    r.get("what").and_then(Json::as_str).unwrap_or("?"),
                    r.get("lhs").and_then(Json::as_f64).unwrap_or(f64::NAN),
                    r.get("rhs").and_then(Json::as_f64).unwrap_or(f64::NAN),
                );
                // At smoke scales a timing tolerance is noise; identities
                // that hold by construction are checked everywhere.
                all_ok &= holds || (opts.smoke && !by_construction);
            }
            fields.push(("per_layer", metrics_with_counts(&traced, &tdetail)));
            fields.push(("reconcile", reconcile));
            fields.push(("traced_ops_failed", pick(&traced, "failed")));
            fields.push(("trace_file", pick(&tdetail, "trace_file")));
        }
        workloads.push((name, obj(fields)));
    }

    let mut env_json = vec![
        ("commit", Json::from(env::commit_hash())),
        ("rustc", Json::from(env::rustc_version())),
        ("seed", Json::from(opts.seed)),
        ("seconds", Json::from(u64::from(opts.seconds))),
        ("smoke", Json::from(opts.smoke)),
    ];
    env_json.extend(env_fields.unwrap_or_default());
    env_json.push(("wall_s", Json::from(started.elapsed().as_secs_f64())));
    let results = obj([
        ("schema", Json::from(SCHEMA)),
        ("env", obj(env_json)),
        ("workloads", obj(workloads)),
    ]);
    let path = opts.out.clone().unwrap_or_else(|| {
        let tag = if opts.smoke { "smoke" } else { "results" };
        home()
            .join("out")
            .join(format!("{tag}-seed{}.json", opts.seed))
    });
    std::fs::write(&path, results.pretty())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!(
        "wrote {} ({:.1} s)",
        path.display(),
        started.elapsed().as_secs_f64()
    );

    if opts.smoke {
        let problems = validate(
            &results,
            &read_json(&home().join("..").join("BENCHMARK.json"))?,
        );
        for problem in &problems {
            eprintln!("smoke: {problem}");
        }
        all_ok &= problems.is_empty();
        println!("smoke: {}", if all_ok { "ok" } else { "FAILED" });
    }
    Ok(all_ok)
}

/// What `--smoke` checks of a results file against `BENCHMARK.json` and
/// the catalogue: names, counts, every declared metric present and
/// finite, no failed operation.
pub fn validate(results: &Json, declared: &Json) -> Vec<String> {
    let mut problems = Vec::new();
    let names_of = |key: &str| -> Vec<String> {
        declared
            .get(key)
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|m| m.get("name").and_then(Json::as_str).map(str::to_string))
            .collect()
    };
    let (dw, de, dl) = (
        names_of("workloads"),
        names_of("end_to_end"),
        names_of("per_layer"),
    );
    for (what, names, limit) in [
        ("workloads", &dw, 8),
        ("end_to_end", &de, 16),
        ("per_layer", &dl, 128),
    ] {
        if names.is_empty() || names.len() > limit {
            problems.push(format!(
                "BENCHMARK.json declares {} {what} (limit {limit})",
                names.len()
            ));
        }
        for n in names.iter().filter(|n| !well_formed_name(n)) {
            problems.push(format!("BENCHMARK.json: malformed name {n:?}"));
        }
    }
    let same = |declared: &[String], catalogue: Vec<&str>| {
        declared.iter().map(String::as_str).collect::<Vec<_>>() == catalogue
    };
    if !same(&dw, WORKLOADS.to_vec())
        || !same(&de, END_TO_END.iter().map(|m| m.name).collect())
        || !same(&dl, PER_LAYER.iter().map(|m| m.name).collect())
    {
        problems.push("BENCHMARK.json and the metric catalogue list different names".to_string());
    }
    // Unit, direction and bound of every declared metric match the
    // catalogue's.
    let field = |section: &str, name: &str, key: &str| -> Option<Json> {
        declared
            .get(section)?
            .as_arr()?
            .iter()
            .find(|m| m.get("name").and_then(Json::as_str) == Some(name))?
            .get(key)
            .cloned()
    };
    let catalogue = END_TO_END
        .iter()
        .map(|e| ("end_to_end", e.name, e.unit, e.better, Some(e.bound)))
        .chain(
            PER_LAYER
                .iter()
                .map(|m| ("per_layer", m.name, m.unit, m.better, None)),
        );
    for (section, name, unit, better, bound) in catalogue {
        let same = field(section, name, "unit") == Some(Json::from(unit))
            && field(section, name, "better") == Some(Json::from(better))
            && field(section, name, "bound") == bound.map(Json::from);
        if !same {
            problems.push(format!(
                "{name}: BENCHMARK.json and the catalogue disagree on unit, direction or bound"
            ));
        }
    }

    for w in &dw {
        let Some(run) = results.at(&["workloads", w]) else {
            problems.push(format!("{w}: missing from the results"));
            continue;
        };
        for (section, names) in [("end_to_end", &de), ("per_layer", &dl)] {
            for name in names {
                match run.at(&[section, name, "value"]).and_then(Json::as_f64) {
                    Some(v) if v.is_finite() => {}
                    _ => problems.push(format!(
                        "{w}: {section} metric {name} missing or not finite"
                    )),
                }
            }
        }
        for key in ["ops_failed", "traced_ops_failed"] {
            if run.get(key).and_then(Json::as_f64) != Some(0.0) {
                problems.push(format!("{w}: {key} is not 0"));
            }
        }
    }
    problems
}

/// Check result set `b` against `a`, metric by metric. Refuses (an
/// error) when the two were not measured on the same inputs and
/// environment; `Ok(false)` when a metric misses its bound.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let (ja, jb) = (read_json(a)?, read_json(b)?);
    for j in [&ja, &jb] {
        if j.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("not a {SCHEMA} file"));
        }
    }
    for key in ["nproc", "durable_fs", "seed", "seconds", "smoke"] {
        let (va, vb) = (ja.at(&["env", key]), jb.at(&["env", key]));
        if va != vb {
            return Err(format!(
                "refusing to compare: env.{key} differs ({va:?} vs {vb:?})"
            ));
        }
    }
    for w in WORKLOADS {
        for key in ["digests", "threads"] {
            let (va, vb) = (ja.at(&["workloads", w, key]), jb.at(&["workloads", w, key]));
            if va.is_none() || va != vb {
                return Err(format!(
                    "refusing to compare: {w}.{key} differs ({va:?} vs {vb:?})"
                ));
            }
        }
    }

    let mut ok = true;
    println!(
        "{:<16} {:<22} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "change", "bound"
    );
    for w in WORKLOADS {
        for e in END_TO_END {
            let value = |j: &Json| {
                j.at(&["workloads", w, "end_to_end", e.name, "value"])
                    .and_then(Json::as_f64)
            };
            let (Some(va), Some(vb)) = (value(&ja), value(&jb)) else {
                println!("{w:<16} {:<22} missing", e.name);
                ok = false;
                continue;
            };
            let change = if va == 0.0 {
                f64::from(u8::from(vb != 0.0))
            } else {
                (vb - va) / va.abs()
            };
            let (bound, pass) = if e.exact {
                ("exact".to_string(), va == vb)
            } else {
                (format!("{:.2}", e.bound), change.abs() <= e.bound)
            };
            ok &= pass;
            println!(
                "{w:<16} {:<22} {va:>16.4} {vb:>16.4} {:>+8.2}% {bound:>7}  {}",
                e.name,
                change * 100.0,
                if pass { "ok" } else { "MISS" }
            );
        }
        // Simulated and counted layer metrics of two traced sets.
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            let value = |j: &Json| {
                j.at(&["workloads", w, "per_layer", m.name, "value"])
                    .and_then(Json::as_f64)
            };
            if let (Some(va), Some(vb)) = (value(&ja), value(&jb)) {
                if va != vb {
                    println!("{w:<16} {:<40} {va} vs {vb}  exact  MISS", m.name);
                    ok = false;
                }
            }
        }
        let failed = |j: &Json| j.at(&["workloads", w, "ops_failed"]).and_then(Json::as_f64);
        if failed(&ja) != Some(0.0) || failed(&jb) != Some(0.0) {
            println!("{w:<16} ops_failed is not 0 in both sets");
            ok = false;
        }
    }
    println!("compare: {}", if ok { "ok" } else { "MISS" });
    Ok(ok)
}

/// The run-to-run spread the driver holds against each bound: over
/// result sets of the same code (one per seed), the distance between the
/// first and third quartile of every end-to-end metric as a share of its
/// median. `Ok(false)` when a spread exceeds its bound (`setup_s` is
/// reported but, as in the driver, not held).
pub fn spread(files: &[std::path::PathBuf]) -> Result<bool, String> {
    let sets = files
        .iter()
        .map(|f| read_json(f))
        .collect::<Result<Vec<_>, _>>()?;
    if sets.len() < 2 {
        return Err("--spread needs at least two result files".to_string());
    }
    let mut ok = true;
    println!(
        "{:<16} {:<22} {:>3} {:>16} {:>8} {:>6}  verdict",
        "workload", "metric", "n", "median", "spread", "bound"
    );
    for w in WORKLOADS {
        for e in END_TO_END {
            let values: Vec<f64> = sets
                .iter()
                .filter_map(|j| {
                    j.at(&["workloads", w, "end_to_end", e.name, "value"])?
                        .as_f64()
                })
                .collect();
            let share = crate::stats::iqr_share(&values).unwrap_or(f64::NAN);
            let verdict = if share <= e.bound / 3.0 {
                "steady"
            } else if share <= e.bound || e.name == "setup_s" {
                "within"
            } else {
                ok = false;
                "WIDE"
            };
            println!(
                "{w:<16} {:<22} {:>3} {:>16.4} {:>7.2}% {:>6.2}  {verdict}",
                e.name,
                values.len(),
                crate::stats::median(&values),
                share * 100.0,
                e.bound
            );
        }
    }
    println!("spread: {}", if ok { "ok" } else { "WIDE" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared() -> Json {
        let metric = |name: &str, unit: &str, better: &str| {
            vec![
                ("name", Json::from(name)),
                ("unit", Json::from(unit)),
                ("better", Json::from(better)),
            ]
        };
        obj([
            (
                "workloads",
                Json::Arr(
                    WORKLOADS
                        .iter()
                        .map(|w| obj([("name", Json::from(*w))]))
                        .collect(),
                ),
            ),
            (
                "end_to_end",
                Json::Arr(
                    END_TO_END
                        .iter()
                        .map(|e| {
                            let mut f = metric(e.name, e.unit, e.better);
                            f.push(("bound", Json::from(e.bound)));
                            obj(f)
                        })
                        .collect(),
                ),
            ),
            (
                "per_layer",
                Json::Arr(
                    PER_LAYER
                        .iter()
                        .map(|m| obj(metric(m.name, m.unit, m.better)))
                        .collect(),
                ),
            ),
        ])
    }

    fn results(value: f64) -> Json {
        let metrics = |names: Vec<&str>| {
            obj(names
                .into_iter()
                .map(|n| (n, obj([("value", Json::from(value))]))))
        };
        obj([(
            "workloads",
            obj(WORKLOADS.map(|w| {
                (
                    w,
                    obj([
                        (
                            "end_to_end",
                            metrics(END_TO_END.iter().map(|m| m.name).collect()),
                        ),
                        (
                            "per_layer",
                            metrics(PER_LAYER.iter().map(|m| m.name).collect()),
                        ),
                        ("ops_failed", Json::from(0u64)),
                        ("traced_ops_failed", Json::from(0u64)),
                    ]),
                )
            })),
        )])
    }

    #[test]
    fn validation_accepts_a_complete_set_and_names_what_is_wrong() {
        assert_eq!(validate(&results(1.5), &declared()), Vec::<String>::new());
        let nan = validate(&results(f64::NAN), &declared());
        assert_eq!(
            nan.len(),
            WORKLOADS.len() * (END_TO_END.len() + PER_LAYER.len())
        );
        let mut short = declared();
        if let Json::Obj(fields) = &mut short {
            fields[1].1 = Json::Arr(Vec::new());
        }
        assert!(validate(&results(1.0), &short)
            .iter()
            .any(|p| p.contains("different names")));
    }
}
