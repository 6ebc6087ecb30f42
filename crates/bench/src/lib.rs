//! # dedisys-bench
//!
//! The reproduction harness behind the `repro` binary
//! (`cargo run -p dedisys-bench --bin repro -- <experiment>`). Every
//! experiment is one [`Experiment`] entry of [`EXPERIMENTS`]: its id,
//! the flags it accepts, the trace files it writes and a `run` that
//! prints its tables and returns the contracts it found broken.
//! EXPERIMENTS.md records a full run; `receipts.txt` pins the stdout and
//! trace bytes of every experiment but `ch2` (`tests/receipts.rs`).
//!
//! * `ch2` — the constraint-validation comparison (Figures 2.1–2.6 and
//!   the lookup-time study), measured in wall-clock time; no contracts.
//! * `ch5` — the middleware evaluation (Figures 1.3, 5.1–5.4, 5.6, 5.8
//!   and the §5.5 improvement studies), measured in deterministic
//!   virtual time; each checks the paper's shape as its contracts.
//! * `chaos-soak` — random fault schedules against the full stack,
//!   invariants checked after every fault; `--shards K` runs the
//!   cross-shard transfer mix.
//! * `flap-sweep` — spurious mode transitions under link flapping,
//!   fixed-timeout baseline vs the φ-accrual detector with flap damping.
//! * `overload-sweep` — goodput and Critical-class p99 per offered load,
//!   request plane vs a no-admission FIFO.
//! * `shard-sweep` — federated goodput and cross-shard abort rate per
//!   shard count, load and partition pattern, value conserved in every
//!   cell.
//! * `fig-compile` — interpreted vs compiled vs compiled + verdict-cache
//!   validation cost, verdicts transparent across all three.

mod ch2;
mod ch5;
mod chaos_soak;
mod fig_compile;
mod flap_sweep;
mod overload_sweep;
mod shard_sweep;
mod table;

// The Chapter 2 lab that `ch2` measures: the §2.3 reference
// application, its 78 constraints, the scenario and the strategies.
// Its files live under `ch2/`; the modules hang off the crate root,
// private to it, so the lab's files name each other `crate::model` and
// so on, and nothing outside the crate can reach them.
#[path = "ch2/constraints_def.rs"]
mod constraints_def;
#[path = "ch2/model.rs"]
mod model;
#[path = "ch2/scenario.rs"]
mod scenario;
#[path = "ch2/strategies/mod.rs"]
mod strategies;

// The chaos engine that `chaos-soak` runs, and `overload-sweep` and
// `shard-sweep` borrow from: the seeded schedule, the engine, its
// invariants (`engine.rs`'s module doc) and the tests of its schedules.
// Its files live under `chaos/` and hang off the crate root the same
// way, so they name each other `crate::engine` and so on.
#[cfg(test)]
#[path = "chaos/robustness.rs"]
mod chaos_robustness;
#[path = "chaos/engine.rs"]
mod engine;
#[path = "chaos/invariant.rs"]
mod invariant;
#[path = "chaos/plan.rs"]
mod plan;

use dedisys_core::{Cluster, ClusterBuilder, JsonlExporter, Telemetry};
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// A command line an experiment cannot run with: `repro` prints it
/// with the usage and exits 2.
#[derive(Debug, PartialEq, Eq)]
pub struct BadFlags(pub String);

/// What an experiment returns: the contracts it found broken, one line
/// each (none: every contract held).
pub type Verdict = Result<Vec<String>, BadFlags>;

/// One `repro` experiment.
pub struct Experiment {
    /// The command-line id.
    pub id: &'static str,
    /// `ch2` / `ch5` for the chapter figures (`repro ch5` runs them all).
    pub group: Option<&'static str>,
    /// The flags it accepts besides `--trace`, as the usage shows them.
    pub flags: &'static [&'static str],
    /// The suffixes of the trace files it writes under `--trace <path>`.
    pub traces: &'static [&'static str],
    /// Prints the tables and checks the contracts.
    pub run: fn(&Run) -> Verdict,
}

impl Experiment {
    /// Whether `flag` is one of [`Experiment::flags`].
    pub fn accepts(&self, flag: &str) -> bool {
        self.flags.iter().any(|f| f.split(' ').next() == Some(flag))
    }
}

const fn chapter(group: &'static str, id: &'static str, run: fn(&Run) -> Verdict) -> Experiment {
    Experiment {
        group: Some(group),
        ..tool(id, &[], run)
    }
}

const fn tool(
    id: &'static str,
    flags: &'static [&'static str],
    run: fn(&Run) -> Verdict,
) -> Experiment {
    Experiment {
        id,
        group: None,
        flags,
        traces: &[""],
        run,
    }
}

/// Every experiment, one entry per id.
pub const EXPERIMENTS: &[Experiment] = &[
    chapter("ch2", "fig2-1", ch2::fig2_1),
    chapter("ch2", "fig2-2", ch2::fig2_2),
    chapter("ch2", "fig2-3", ch2::fig2_3),
    chapter("ch2", "fig2-4", ch2::fig2_4),
    chapter("ch2", "fig2-5", ch2::fig2_5),
    chapter("ch2", "fig2-6", ch2::fig2_6),
    chapter("ch2", "tab2-lookup", ch2::tab2_lookup),
    chapter("ch5", "fig1-3", ch5::fig1_3),
    chapter("ch5", "fig5-1", ch5::fig5_1),
    chapter("ch5", "fig5-2", ch5::fig5_2),
    chapter("ch5", "fig5-3", ch5::fig5_3),
    chapter("ch5", "fig5-4", ch5::fig5_4),
    chapter("ch5", "fig5-6", ch5::fig5_6),
    chapter("ch5", "fig5-8", ch5::fig5_8),
    chapter("ch5", "tab5-async", ch5::tab5_async),
    chapter("ch5", "tab5-psc", ch5::tab5_psc),
    chapter("ch5", "tab-avail", ch5::tab_avail),
    chapter("ch5", "tab-worth", ch5::tab_worth),
    tool(
        "chaos-soak",
        &[
            "--seed S",
            "--shards K",
            "--nodes N",
            "--ops O",
            "--faults F",
            "--sweep N",
            "--detector",
        ],
        chaos_soak::run,
    ),
    tool(
        "flap-sweep",
        &["--seed S", "--nodes N", "--flaps F", "--sweep K"],
        flap_sweep::run,
    ),
    tool(
        "overload-sweep",
        &["--seed S", "--nodes N", "--ticks T"],
        overload_sweep::run,
    ),
    tool(
        "shard-sweep",
        &["--seed S", "--nodes N", "--ticks T"],
        shard_sweep::run,
    ),
    Experiment {
        traces: fig_compile::TRACES,
        ..tool("fig-compile", &[], fig_compile::run)
    },
];

/// The one flag set and trace sink of a `repro` command line, shared by
/// every experiment it names. `None` leaves the experiment's default.
#[derive(Debug, Default)]
pub struct Run {
    /// `--seed`: the seed of a single run, the first of a sweep.
    pub seed: u64,
    /// `--nodes`: cluster size (per shard in a federation).
    pub nodes: Option<u32>,
    /// `--ops`: chaos-soak workload operations.
    pub ops: Option<u64>,
    /// `--faults`: chaos-soak fault steps.
    pub faults: Option<usize>,
    /// `--flaps`: flap-sweep down/up cycles per cell.
    pub flaps: Option<u32>,
    /// `--ticks`: arrival ticks per sweep cell.
    pub ticks: Option<u32>,
    /// `--shards`: chaos-soak shards (more than one: the transfer mix).
    pub shards: Option<u32>,
    /// `--sweep N`: run seeds `seed..seed + N` instead of one.
    pub sweep: Option<u64>,
    /// `--detector`: chaos-soak under detector-driven membership.
    pub detector: bool,
    /// `--trace`: where the event streams go.
    pub trace: Trace,
}

impl Run {
    /// Builds `builder`'s cluster and attaches the trace to it — how
    /// the experiments materialize clusters.
    pub(crate) fn cluster(&self, builder: ClusterBuilder) -> Cluster {
        let cluster = builder.build().expect("cluster");
        self.trace.attach(cluster.telemetry());
        cluster
    }

    /// The one seed loop of `--sweep n`: runs `one` on seeds
    /// `seed..seed + n`. Returns every failure, prefixed with its seed,
    /// and how many seeds had one.
    pub(crate) fn sweep_seeds(
        &self,
        n: u64,
        mut one: impl FnMut(u64) -> Verdict,
    ) -> Result<(Vec<String>, u64), BadFlags> {
        let mut failures = Vec::new();
        let mut dirty = 0;
        for seed in self.seed..self.seed + n {
            let found = one(seed)?;
            dirty += u64::from(!found.is_empty());
            failures.extend(found.iter().map(|f| format!("seed {seed}: {f}")));
        }
        Ok((failures, dirty))
    }
}

/// The one trace sink: the files `--trace <path>` names, created before
/// any experiment runs. Without `--trace` it holds none and writes
/// nothing.
#[derive(Debug, Default)]
pub struct Trace {
    /// `(suffix, path, append-mode handle)` per file.
    files: Vec<(&'static str, PathBuf, File)>,
}

impl Trace {
    /// Creates (or truncates) `<path><suffix>` for every suffix — the
    /// one place a trace file is created.
    ///
    /// # Errors
    ///
    /// The first file that cannot be created, e.g. in a missing
    /// directory.
    pub fn create(path: &Path, suffixes: &[&'static str]) -> io::Result<Self> {
        let mut trace = Self::default();
        for &suffix in suffixes {
            if trace.file(suffix).is_some() {
                continue;
            }
            let mut name = path.as_os_str().to_owned();
            name.push(suffix);
            let file = OpenOptions::new().create(true).append(true).open(&name)?;
            file.set_len(0)?;
            trace.files.push((suffix, name.into(), file));
        }
        Ok(trace)
    }

    fn file(&self, suffix: &str) -> Option<&File> {
        self.files.iter().find(|f| f.0 == suffix).map(|f| &f.2)
    }

    /// The files created, for the closing note.
    pub fn paths(&self) -> impl Iterator<Item = &Path> {
        self.files.iter().map(|f| f.1.as_path())
    }

    /// Appends the event stream of `telemetry` to the trace file. Each
    /// attached bus gets its own exporter over its own handle on the
    /// append-mode file, so two clusters alive at once interleave as
    /// their exporters flush.
    pub(crate) fn attach(&self, telemetry: &Telemetry) {
        if let Some(file) = self.file("") {
            let handle = file.try_clone().expect("trace file handle");
            telemetry.attach(Box::new(JsonlExporter::new(Box::new(handle))));
        }
    }

    /// Writes `bytes` to the trace file `<path><suffix>`, if there is one.
    pub(crate) fn write(&self, suffix: &str, bytes: &[u8]) -> io::Result<()> {
        self.file(suffix)
            .map_or(Ok(()), |mut file| file.write_all(bytes))
    }
}

/// `Err(BadFlags)` with `problem` unless `holds`.
fn require(holds: bool, problem: &str) -> Result<(), BadFlags> {
    if holds {
        Ok(())
    } else {
        Err(BadFlags(problem.to_owned()))
    }
}

/// The failures among `contracts`: each pairs whether it holds with
/// what its failure means.
fn broken(contracts: &[(bool, &str)]) -> Vec<String> {
    let failed = contracts.iter().filter(|(holds, _)| !holds);
    failed.map(|(_, what)| what.to_string()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doctored_measurements_break_their_contracts() {
        assert_eq!(ch5::narrative([77, 78, 85, 80]), Vec::<String>::new());
        assert_eq!(ch5::narrative([77, 78, 85, 81]).len(), 1);
        let cell = |transitions, damped| flap_sweep::CellOutcome {
            transitions,
            damped,
            standing: 0,
        };
        assert!(flap_sweep::contract(&[cell(16, 0), cell(2, 1)], 1).is_empty());
        assert_eq!(
            flap_sweep::contract(&[cell(16, 0), cell(16, 1)], 1).len(),
            1
        );
        assert_eq!(flap_sweep::contract(&[cell(16, 0), cell(2, 0)], 1).len(), 1);
    }

    #[test]
    fn a_trace_in_a_missing_directory_fails_typed() {
        let path = std::env::temp_dir().join("dedisys-no-such-dir/trace.jsonl");
        let error = Trace::create(&path, &[""]).unwrap_err();
        assert_eq!(error.kind(), io::ErrorKind::NotFound);
    }
}
