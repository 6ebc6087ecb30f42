//! Chapter 2 reproduction: constraint validation approaches
//! (Figures 2.1–2.6 and the §2.3.2 lookup study), measured in
//! wall-clock time over the project-management reference application.
//!
//! The lab it measures (the crate's private `model`, `constraints_def`,
//! `scenario` and `strategies` modules, in this directory) builds Rust
//! equivalents of the dissertation's Java strategies over the §2.3
//! reference application and its 78 constraints:
//!
//! | Paper approach | Here |
//! |---|---|
//! | No checks | `Strategy::NoChecks` |
//! | Handcrafted | `Strategy::Handcrafted` |
//! | AspectJ-Interceptor (inline aspects) | `Strategy::InterceptorInline` |
//! | JML (compiler-generated) | `Strategy::Generated` |
//! | {AspectJ, JBossAOP, Proxy} × repository | `Strategy::Repository` with a `Mechanism` |
//! | Dresden OCL (tool-generated, interpreted) | `Strategy::Interpreted` |
//!
//! Figure 2.3's runtime slices (R1 application, R2 interception, R3
//! parameter extraction, R4 repository search, R5 checks) gate a
//! repository strategy through `SliceLevel`; R1 alone is
//! `Strategy::NoChecks`.

use crate::scenario::{lookup_time_study, measure};
use crate::strategies::{Mechanism, SliceLevel, Strategy};
use crate::table::{f2, print_table};
use crate::{Run, Verdict};

/// One comparison row.
struct OverheadRow {
    /// Strategy label (paper vocabulary).
    label: String,
    /// Measured nanoseconds per scenario run.
    nanos_per_run: f64,
    /// Overhead factor vs the baseline.
    overhead: f64,
    /// The value the paper reports (where applicable).
    paper: Option<f64>,
}

fn rows_vs_baseline(
    baseline: Strategy,
    strategies: &[(Strategy, Option<f64>)],
) -> Vec<OverheadRow> {
    let base = measure(baseline);
    let mut rows = vec![OverheadRow {
        label: format!("{} (baseline)", baseline.label()),
        nanos_per_run: base,
        overhead: 1.0,
        paper: Some(1.0),
    }];
    for (strategy, paper) in strategies {
        let nanos = measure(*strategy);
        rows.push(OverheadRow {
            label: strategy.label(),
            nanos_per_run: nanos,
            overhead: nanos / base,
            paper: *paper,
        });
    }
    rows
}

/// Prints one comparison table; wall-clock rows carry no contract.
fn print_rows(title: &str, rows: &[OverheadRow]) -> Verdict {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                format!("{:.0}", r.nanos_per_run),
                f2(r.overhead),
                r.paper.map(f2).unwrap_or_else(|| "-".into()),
            ]
        })
        .collect();
    print_table(
        title,
        &[
            "approach",
            "ns/run",
            "overhead (measured)",
            "overhead (paper)",
        ],
        &table_rows,
    );
    Ok(Vec::new())
}

/// Figure 2.1 — the fastest approaches, overhead relative to
/// handcrafted constraints.
pub fn fig2_1(_: &Run) -> Verdict {
    let rows = rows_vs_baseline(
        Strategy::Handcrafted,
        &[
            (Strategy::InterceptorInline, Some(1.06)),
            (Strategy::repository(Mechanism::Dyn, true), Some(7.99)),
            (
                Strategy::repository(Mechanism::Reflective, true),
                Some(9.54),
            ),
            (Strategy::repository(Mechanism::Static, true), Some(10.86)),
        ],
    );
    print_rows("Figure 2.1 — fastest approaches (vs handcrafted)", &rows)
}

/// Figure 2.2 — the slowest approaches, overhead relative to
/// handcrafted constraints.
pub fn fig2_2(_: &Run) -> Verdict {
    let rows = rows_vs_baseline(
        Strategy::Handcrafted,
        &[
            (
                Strategy::repository(Mechanism::Reflective, false),
                Some(48.03),
            ),
            (Strategy::Generated, Some(61.37)),
            (Strategy::repository(Mechanism::Static, false), Some(70.71)),
            (Strategy::repository(Mechanism::Dyn, false), Some(103.17)),
            (Strategy::Interpreted, Some(405.71)),
        ],
    );
    print_rows("Figure 2.2 — slowest approaches (vs handcrafted)", &rows)
}

/// Figure 2.3 — the runtime slices R1…R5 of one full repository
/// strategy (JBossAOP-Rep-Opt), as cumulative measurements.
pub fn fig2_3(_: &Run) -> Verdict {
    let base = measure(Strategy::NoChecks);
    let mut rows = vec![OverheadRow {
        label: "R1 (application)".into(),
        nanos_per_run: base,
        overhead: 1.0,
        paper: None,
    }];
    for (slice, label) in [
        (SliceLevel::R2, "R1+R2 (interception)"),
        (SliceLevel::R3, "R1..R3 (param extraction)"),
        (SliceLevel::R4, "R1..R4 (repository search)"),
        (SliceLevel::R5, "R1..R5 (constraint checks)"),
    ] {
        let nanos = measure(Strategy::Repository {
            mechanism: Mechanism::Dyn,
            cached: true,
            slice,
        });
        rows.push(OverheadRow {
            label: label.into(),
            nanos_per_run: nanos,
            overhead: nanos / base,
            paper: None,
        });
    }
    print_rows("Figure 2.3 — runtime slices (JBossAOP-Rep-Opt)", &rows)
}

/// Figure 2.4 — search overhead (R1+R2+R3+R4)/R1 per mechanism, for
/// the optimized and the search-per-invocation repository.
pub fn fig2_4(_: &Run) -> Verdict {
    let base = measure(Strategy::NoChecks);
    let paper: std::collections::HashMap<(&str, bool), f64> = [
        (("Java-Proxy", true), 65.38),
        (("JBossAOP", true), 70.38),
        (("AspectJ", true), 163.38),
        (("Java-Proxy", false), 1412.62),
        (("JBossAOP", false), 3389.62),
        (("AspectJ", false), 2224.50),
    ]
    .into_iter()
    .collect();
    let mut rows = Vec::new();
    for cached in [true, false] {
        for mechanism in Mechanism::ALL {
            let nanos = measure(Strategy::Repository {
                mechanism,
                cached,
                slice: SliceLevel::R4,
            });
            rows.push(OverheadRow {
                label: format!(
                    "{} ({})",
                    mechanism.label(),
                    if cached {
                        "optimized"
                    } else {
                        "search/invocation"
                    }
                ),
                nanos_per_run: nanos,
                overhead: nanos / base,
                paper: paper.get(&(mechanism.label(), cached)).copied(),
            });
        }
    }
    print_rows("Figure 2.4 — search overhead (R1..R4)/R1", &rows)
}

/// Figure 2.5 — interception overhead (R1+R2)/R1 per mechanism.
pub fn fig2_5(_: &Run) -> Verdict {
    print_rows(
        "Figure 2.5 — interception overhead (R1+R2)/R1",
        &slice_rows(
            SliceLevel::R2,
            &[("AspectJ", 2.38), ("JBossAOP", 9.25), ("Java-Proxy", 28.13)],
        ),
    )
}

/// Figure 2.6 — interception + parameter extraction (R1+R2+R3)/R1 per
/// mechanism (note the order flip vs Figure 2.5).
pub fn fig2_6(_: &Run) -> Verdict {
    print_rows(
        "Figure 2.6 — interception + parameter extraction (R1..R3)/R1",
        &slice_rows(
            SliceLevel::R3,
            &[
                ("JBossAOP", 19.50),
                ("Java-Proxy", 36.62),
                ("AspectJ", 98.26),
            ],
        ),
    )
}

fn slice_rows(slice: SliceLevel, paper: &[(&str, f64)]) -> Vec<OverheadRow> {
    let base = measure(Strategy::NoChecks);
    Mechanism::ALL
        .into_iter()
        .map(|mechanism| {
            let nanos = measure(Strategy::Repository {
                mechanism,
                cached: true,
                slice,
            });
            OverheadRow {
                label: mechanism.label().to_owned(),
                nanos_per_run: nanos,
                overhead: nanos / base,
                paper: paper
                    .iter()
                    .find(|(l, _)| *l == mechanism.label())
                    .map(|(_, v)| *v),
            }
        })
        .collect()
}

/// §2.3.2 — repository lookup times, warm cache, over growing entry
/// counts (paper: 0.25–0.52 µs, independent of the count).
pub fn tab2_lookup(_: &Run) -> Verdict {
    let rows: Vec<Vec<String>> = lookup_time_study()
        .into_iter()
        .map(|r| {
            vec![
                r.classes.to_string(),
                r.methods_per_class.to_string(),
                r.constraints.to_string(),
                format!("{:.3}", r.nanos_per_lookup / 1000.0),
                "0.25–0.52".into(),
            ]
        })
        .collect();
    print_table(
        "§2.3.2 — repository lookup times (warm cache)",
        &[
            "classes",
            "methods/class",
            "constraints",
            "µs/lookup",
            "paper µs",
        ],
        &rows,
    );
    println!("  paper finding: lookup time independent of the entry count");
    Ok(Vec::new())
}
