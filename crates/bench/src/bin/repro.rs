//! The reproduction driver: regenerates every table and figure of the
//! dissertation's evaluation, and runs the robustness and extension
//! studies. Every experiment is one entry of
//! [`dedisys_bench::EXPERIMENTS`]; the usage below is printed from it.
//!
//! ```text
//! repro <experiment>|ch2|ch5|all [--trace <path>]
//! repro chaos-soak [--seed S] [--shards K] [--nodes N] [--ops O] [--faults F] [--sweep N] [--detector] [--trace <path>]
//! repro flap-sweep [--seed S] [--nodes N] [--flaps F] [--sweep K] [--trace <path>]
//! repro overload-sweep [--seed S] [--nodes N] [--ticks T] [--trace <path>]
//! repro shard-sweep [--seed S] [--nodes N] [--ticks T] [--trace <path>]
//! repro fig-compile [--trace <path>]
//! ```
//!
//! Experiments: fig2-1 … fig2-6, tab2-lookup (`ch2`, wall clock),
//! fig1-3, fig5-1 … fig5-4, fig5-6, fig5-8, tab5-async, tab5-psc,
//! tab-avail, tab-worth (`ch5`, virtual time). `all` runs `ch5`, then
//! `ch2`. See DESIGN.md §3 for the per-experiment index and
//! EXPERIMENTS.md for a recorded run.
//!
//! Each experiment prints its tables and checks its contracts — the
//! paper's shape for the Chapter 5 figures, the invariants and strict
//! wins of the studies. `--sweep N` runs seeds `S..S+N` from `--seed S`
//! (default 0), one contract check per seed.
//!
//! `--trace <path>` exports the typed telemetry stream of every cluster
//! the named experiments build as JSONL into `<path>` — one `{seq, at,
//! event}` object per line, stamped in virtual time only, so two runs
//! of the same command write byte-identical files. `fig-compile` writes
//! one file per engine configuration: `<path>.interp` /
//! `<path>.compiled` / `<path>.cached`. The files are created before
//! any experiment runs; a trace belongs to a single run, not to a
//! sweep.
//!
//! Exit status: 0 when every contract held, 1 when one broke (each
//! broken contract is printed on stderr), 2 for a malformed command
//! line — an unknown experiment or flag, a bad flag value, or a trace
//! file that cannot be created.

use dedisys_bench::{BadFlags, Experiment, Run, Trace, EXPERIMENTS};
use std::path::PathBuf;
use std::process::exit;

/// Prints `problem` (if any) and the usage, then exits 2.
fn usage(problem: &str) -> ! {
    if !problem.is_empty() {
        eprintln!("{problem}");
    }
    eprintln!("usage: repro <experiment>|ch2|ch5|all [--trace <path>]");
    for e in EXPERIMENTS.iter().filter(|e| e.group.is_none()) {
        let flags: String = e.flags.iter().map(|f| format!("[{f}] ")).collect();
        eprintln!("       repro {} {flags}[--trace <path>]", e.id);
    }
    let chapters: Vec<&str> = EXPERIMENTS
        .iter()
        .filter(|e| e.group.is_some())
        .map(|e| e.id)
        .collect();
    eprintln!("experiments: {}", chapters.join(", "));
    exit(2);
}

/// The value following `flag`.
fn value<T: std::str::FromStr>(flag: &str, value: Option<&str>) -> Result<T, String> {
    let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
    value
        .parse()
        .map_err(|_| format!("{flag}: '{value}' is not a valid value"))
}

/// The experiments a command line names (ids and groups first, then
/// flags every one of them accepts), its flags and its trace path.
fn parse(args: &[String]) -> Result<(Vec<&'static Experiment>, Run, Option<PathBuf>), String> {
    let mut trace = None;
    let mut words = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if arg == "--trace" {
            trace = Some(args.next().ok_or("--trace needs a file path")?.into());
        } else {
            words.push(arg.as_str());
        }
    }
    let mut words = words.into_iter().peekable();
    let mut experiments = Vec::new();
    while let Some(word) = words.next_if(|w| !w.starts_with("--")) {
        let group = |g| EXPERIMENTS.iter().filter(move |e| e.group == Some(g));
        let named: Vec<_> = match word {
            "all" => group("ch5").chain(group("ch2")).collect(),
            _ => (EXPERIMENTS.iter())
                .filter(|e| e.id == word || e.group == Some(word))
                .collect(),
        };
        if named.is_empty() {
            return Err(format!("unknown experiment '{word}'"));
        }
        experiments.extend(named);
    }
    if experiments.is_empty() {
        return Err(String::new());
    }
    let mut run = Run::default();
    while let Some(flag) = words.next() {
        if let Some(e) = experiments.iter().find(|e| !e.accepts(flag)) {
            return Err(format!("unknown {} flag '{flag}'", e.id));
        }
        match flag {
            "--seed" => run.seed = value(flag, words.next())?,
            "--nodes" => run.nodes = Some(value(flag, words.next())?),
            "--ops" => run.ops = Some(value(flag, words.next())?),
            "--faults" => run.faults = Some(value(flag, words.next())?),
            "--flaps" => run.flaps = Some(value(flag, words.next())?),
            "--ticks" => run.ticks = Some(value(flag, words.next())?),
            "--shards" => run.shards = Some(value(flag, words.next())?),
            "--sweep" => run.sweep = Some(value(flag, words.next())?),
            "--detector" => run.detector = true,
            _ => return Err(format!("unparsed flag '{flag}'")),
        }
    }
    if run.sweep.is_some() && trace.is_some() {
        return Err("--trace applies to single runs only, not sweeps".into());
    }
    Ok((experiments, run, trace))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (experiments, mut run, trace) = parse(&args).unwrap_or_else(|problem| usage(&problem));
    if let Some(path) = &trace {
        let suffixes: Vec<&str> = experiments.iter().flat_map(|e| e.traces).copied().collect();
        run.trace = Trace::create(path, &suffixes).unwrap_or_else(|e| {
            eprintln!("--trace {}: {e}", path.display());
            exit(2);
        });
    }
    let mut broken = false;
    for e in experiments {
        match (e.run)(&run) {
            Ok(failures) => {
                for failure in &failures {
                    eprintln!("{}: {failure}", e.id);
                }
                broken |= !failures.is_empty();
            }
            Err(BadFlags(problem)) => usage(&format!("{}: {problem}", e.id)),
        }
    }
    for path in run.trace.paths() {
        eprintln!("trace written to {}", path.display());
    }
    if broken {
        exit(1);
    }
}
