//! `perf compare`: the delta table between two result files.
//!
//! One row per (workload, end-to-end metric) with both values, the
//! relative delta with its base, and the bound. A metric past its
//! bound is a regression. A metric within its bound whose own
//! chunk-to-chunk spread — in either file — is wider than the bound is
//! reported as *unresolved*, not as unchanged: the run cannot tell.
//!
//! One more row per workload, [`LATE_OVER_EARLY`], guards what
//! fastest-chunk statistics are weakest at: a cost that grows with the
//! state while the run goes on.

use crate::harness::json::Json;
use crate::harness::stats::relative_spread;
use crate::report::{self, Better, END_TO_END};
use crate::workloads;

/// Row name of the throughput drift over the timed region: the
/// fastest chunk of the last quarter over the fastest chunk of the
/// first. Judged like `ops_per_s` (same bound): it falls when the late
/// state got slower relative to the early one.
pub const LATE_OVER_EARLY: &str = "ops_per_s.late/early";

/// What a row says about its metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Worse than the base by more than the bound.
    Regressed,
    /// Within the bound, but the spread is wider than the bound.
    Unresolved,
    /// Better than the base by more than the bound.
    Improved,
    /// Within the bound.
    Within,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
            Verdict::Improved => "improved",
            Verdict::Within => "within",
        }
    }
}

/// One row of the table.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: &'static str,
    /// Value in the first (base) file.
    pub base: f64,
    /// Value in the second file.
    pub new: f64,
    /// `(new - base) / base`.
    pub delta: f64,
    /// The metric's bound.
    pub bound: f64,
    /// Widest chunk spread of the two files, where chunks exist.
    pub spread: Option<f64>,
    /// The judgement.
    pub verdict: Verdict,
}

/// The comparison of two result files.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// The table.
    pub rows: Vec<Row>,
    /// Workloads whose failed/attempted share rose.
    pub fail_share_rose: Vec<String>,
    /// Exact values (digest, counts, allocations) that differ, in
    /// words. Informational: two builds of different code may differ.
    pub exact_differences: Vec<String>,
}

impl Comparison {
    /// Whether `perf compare` must exit 1.
    pub fn failed(&self) -> bool {
        !self.fail_share_rose.is_empty()
            || self.rows.iter().any(|r| r.verdict == Verdict::Regressed)
    }
}

fn judge(better: Better, delta: f64, bound: f64, spread: Option<f64>) -> Verdict {
    let worsening = match better {
        Better::Higher => -delta,
        Better::Lower => delta,
    };
    if worsening > bound {
        Verdict::Regressed
    } else if spread.is_some_and(|s| s > bound) {
        Verdict::Unresolved
    } else if worsening < -bound {
        Verdict::Improved
    } else {
        Verdict::Within
    }
}

fn metric_value(run: &Json, metric: &str) -> Option<f64> {
    run.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

fn chunk_spread(run: &Json, metric: &str) -> Option<f64> {
    let chunks: Vec<f64> = run
        .get("chunks")?
        .get(metric)?
        .as_array()?
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    relative_spread(&chunks)
}

fn late_over_early(run: &Json) -> Option<f64> {
    let chunks: Vec<f64> = run
        .get("chunks")?
        .get("ops_per_s")?
        .as_array()?
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    let quarter = chunks.len() / 4;
    let fastest = |chunks: &[f64]| chunks.iter().copied().fold(0.0, f64::max);
    let early = fastest(&chunks[..quarter]);
    (early > 0.0).then(|| fastest(&chunks[chunks.len() - quarter..]) / early)
}

fn fail_share(run: &Json) -> f64 {
    let number = |key| run.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    let attempted = number("attempted");
    if attempted > 0.0 {
        number("failed") / attempted
    } else {
        0.0
    }
}

/// Compares result file `new` against `base`.
///
/// # Errors
///
/// A file that is not a result file, or names a workload or metric the
/// benchmark does not have.
pub fn compare(base: &Json, new: &Json) -> Result<Comparison, String> {
    let runs = |file: &Json, which: &str| -> Result<Vec<(String, Json)>, String> {
        let members = file
            .get("workloads")
            .and_then(Json::as_object)
            .ok_or_else(|| format!("{which} file has no `workloads` object"))?;
        for (name, run) in members {
            if workloads::find(name).is_none() {
                return Err(format!("{which} file names an unknown workload `{name}`"));
            }
            let metrics = run
                .get("metrics")
                .and_then(Json::as_object)
                .ok_or_else(|| format!("{which} file: `{name}` has no `metrics` object"))?;
            if let Some((metric, _)) = metrics
                .iter()
                .find(|(m, _)| !END_TO_END.iter().any(|e| e.name == m))
            {
                return Err(format!(
                    "{which} file: `{name}` has an unknown end-to-end metric `{metric}`"
                ));
            }
        }
        Ok(members.to_vec())
    };
    let base_runs = runs(base, "first")?;
    let new_runs = runs(new, "second")?;

    let mut out = Comparison {
        rows: Vec::new(),
        fail_share_rose: Vec::new(),
        exact_differences: Vec::new(),
    };
    for (workload, a) in &base_runs {
        let Some((_, b)) = new_runs.iter().find(|(name, _)| name == workload) else {
            return Err(format!("second file has no workload `{workload}`"));
        };
        for m in END_TO_END {
            let (Some(base), Some(new)) = (metric_value(a, m.name), metric_value(b, m.name)) else {
                return Err(format!(
                    "`{workload}` lacks `{}` in one of the files",
                    m.name
                ));
            };
            let delta = if base == 0.0 {
                0.0
            } else {
                (new - base) / base
            };
            let spread = match (chunk_spread(a, m.name), chunk_spread(b, m.name)) {
                (Some(x), Some(y)) => Some(x.max(y)),
                (x, y) => x.or(y),
            };
            out.rows.push(Row {
                workload: workload.clone(),
                metric: m.name,
                base,
                new,
                delta,
                bound: m.bound,
                spread,
                verdict: judge(m.better, delta, m.bound, spread),
            });
        }
        if let (Some(base), Some(new)) = (late_over_early(a), late_over_early(b)) {
            let ops_per_s = report::end_to_end("ops_per_s").expect("a listed metric");
            let delta = (new - base) / base;
            out.rows.push(Row {
                workload: workload.clone(),
                metric: LATE_OVER_EARLY,
                base,
                new,
                delta,
                bound: ops_per_s.bound,
                spread: None,
                verdict: judge(ops_per_s.better, delta, ops_per_s.bound, None),
            });
        }
        if fail_share(b) > fail_share(a) {
            out.fail_share_rose.push(workload.clone());
        }
        let same_input = a.get("seed") == b.get("seed") && a.get("ops") == b.get("ops");
        if same_input {
            for key in ["state_digest", "counts"] {
                if a.get(key) != b.get(key) {
                    out.exact_differences
                        .push(format!("{workload}: `{key}` differs"));
                }
            }
            for metric in ["allocs_per_op", "alloc_bytes_per_op"] {
                if metric_value(a, metric) != metric_value(b, metric) {
                    out.exact_differences
                        .push(format!("{workload}: `{metric}` differs"));
                }
            }
        }
    }
    Ok(out)
}

/// Prints the table and the notes under it.
pub fn print(comparison: &Comparison) {
    println!(
        "{:<17} {:<19} {:>14} {:>14} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "base", "new", "delta", "bound", "spread"
    );
    for r in &comparison.rows {
        println!(
            "{:<17} {:<19} {:>14.4} {:>14.4} {:>+8.2}% {:>6.1}% {:>8}  {}",
            r.workload,
            r.metric,
            r.base,
            r.new,
            r.delta * 100.0,
            r.bound * 100.0,
            r.spread
                .map_or_else(|| "-".to_owned(), |s| format!("{:.2}%", s * 100.0)),
            r.verdict.label()
        );
    }
    println!("# delta = (new - base) / base; spread = widest chunk IQR / median of the two files");
    println!(
        "# {LATE_OVER_EARLY} = fastest chunk of the last quarter / fastest chunk of the first"
    );
    for workload in &comparison.fail_share_rose {
        println!("# {workload}: fail_share rose");
    }
    if comparison.exact_differences.is_empty() {
        println!(
            "# exact values (state_digest, counts, allocations) agree where seed and ops match"
        );
    }
    for difference in &comparison.exact_differences {
        println!("# {difference}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::json::parse;

    fn file(ops_per_s: f64, chunks: &str, failed: u32) -> Json {
        let metrics: String = END_TO_END
            .iter()
            .map(|m| {
                let v = if m.name == "ops_per_s" {
                    ops_per_s
                } else {
                    10.0
                };
                format!("\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}", m.name, m.unit)
            })
            .collect::<Vec<_>>()
            .join(",");
        parse(&format!(
            "{{\"workloads\":{{\"fed_write\":{{\"seed\":1,\"ops\":100,\"attempted\":100,\
             \"failed\":{failed},\"state_digest\":\"00\",\"counts\":{{}},\
             \"metrics\":{{{metrics}}},\"chunks\":{{\"ops_per_s\":{chunks}}}}}}}}}"
        ))
        .unwrap()
    }

    const STEADY: &str = "[100,100,101,100,99,100,100,101,100,100]";
    const NOISY: &str = "[100,60,140,100,50,150,100,70,130,100]";

    fn ops_row(c: &Comparison) -> &Row {
        c.rows.iter().find(|r| r.metric == "ops_per_s").unwrap()
    }

    #[test]
    fn a_drop_past_the_bound_fails() {
        let c = compare(&file(100.0, STEADY, 0), &file(70.0, STEADY, 0)).unwrap();
        assert_eq!(ops_row(&c).verdict, Verdict::Regressed);
        assert!((ops_row(&c).delta + 0.30).abs() < 1e-12);
        assert!(c.failed());
    }

    #[test]
    fn a_small_change_is_within_and_a_gain_is_improved() {
        let c = compare(&file(100.0, STEADY, 0), &file(98.0, STEADY, 0)).unwrap();
        assert_eq!(ops_row(&c).verdict, Verdict::Within);
        assert!(!c.failed());
        let c = compare(&file(100.0, STEADY, 0), &file(140.0, STEADY, 0)).unwrap();
        assert_eq!(ops_row(&c).verdict, Verdict::Improved);
        // Every other metric is identical and has no chunks.
        assert!(c
            .rows
            .iter()
            .filter(|r| r.metric != "ops_per_s")
            .all(|r| r.verdict == Verdict::Within && r.spread.is_none()));
    }

    #[test]
    fn wide_chunk_spread_is_unresolved_not_unchanged() {
        let c = compare(&file(100.0, STEADY, 0), &file(99.0, NOISY, 0)).unwrap();
        assert_eq!(ops_row(&c).verdict, Verdict::Unresolved);
        assert!(!c.failed());
        // A regression stays a regression however noisy.
        let c = compare(&file(100.0, NOISY, 0), &file(60.0, NOISY, 0)).unwrap();
        assert_eq!(ops_row(&c).verdict, Verdict::Regressed);
    }

    #[test]
    fn a_late_slowdown_fails_though_the_best_chunk_is_unchanged() {
        let flat = "[100,100,100,100,100,100,100,100]";
        let sagging = "[100,100,95,90,80,75,70,65]";
        let c = compare(&file(100.0, flat, 0), &file(100.0, sagging, 0)).unwrap();
        let row = c.rows.iter().find(|r| r.metric == LATE_OVER_EARLY).unwrap();
        assert_eq!((row.base, row.new), (1.0, 0.7));
        assert_eq!(row.verdict, Verdict::Regressed);
        assert!(c.failed());
        let c = compare(&file(100.0, sagging, 0), &file(100.0, sagging, 0)).unwrap();
        assert!(!c.failed());
    }

    #[test]
    fn a_rise_in_fail_share_fails() {
        let c = compare(&file(100.0, STEADY, 0), &file(100.0, STEADY, 1)).unwrap();
        assert_eq!(c.fail_share_rose, vec!["fed_write".to_owned()]);
        assert!(c.failed());
    }

    #[test]
    fn unknown_names_are_refused() {
        let odd = parse("{\"workloads\":{\"nope\":{\"metrics\":{}}}}").unwrap();
        assert!(compare(&odd, &odd)
            .unwrap_err()
            .contains("unknown workload"));
        let odd = parse("{\"workloads\":{\"fed_write\":{\"metrics\":{\"speed\":{}}}}}").unwrap();
        assert!(compare(&odd, &odd)
            .unwrap_err()
            .contains("unknown end-to-end metric"));
        assert!(compare(&Json::Null, &Json::Null).is_err());
    }

    #[test]
    fn exact_values_are_checked_when_inputs_match() {
        let a = file(100.0, STEADY, 0);
        let mut b = file(100.0, STEADY, 0);
        assert!(compare(&a, &b).unwrap().exact_differences.is_empty());
        if let Json::Obj(top) = &mut b {
            if let Json::Obj(ws) = &mut top[0].1 {
                if let Json::Obj(run) = &mut ws[0].1 {
                    run.iter_mut().find(|(k, _)| k == "state_digest").unwrap().1 =
                        Json::Str("ff".into());
                }
            }
        }
        assert_eq!(
            compare(&a, &b).unwrap().exact_differences,
            vec!["fed_write: `state_digest` differs".to_owned()]
        );
    }
}
