//! The reproduction driver: regenerates every table and figure of the
//! dissertation's evaluation.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p dedisys-bench --bin repro -- <experiment>|all [--trace <path>]
//! ```
//!
//! Experiments: fig1-3, fig2-1 … fig2-6, tab2-lookup, fig5-1 … fig5-4,
//! fig5-6, fig5-8, tab5-async, tab5-psc. See DESIGN.md for the
//! per-experiment index and EXPERIMENTS.md for a recorded run.
//!
//! `repro chaos-soak [--seed S] [--shards K] [--nodes N] [--ops O]
//! [--faults F] [--sweep N] [--detector] [--trace <path>]` runs the
//! seeded chaos engine instead: one reproducible fault-injection run
//! (optionally traced to JSONL), or a sweep over seeds `S..S+N`. One
//! shard runs the item mix under a random fault plan; with `--detector`
//! the cluster runs the adaptive failure-detection pipeline and the
//! plan draws from the extended fault vocabulary (link flaps,
//! asymmetric loss, jitter, torn journal writes). `--shards K` (K ≥ 2)
//! runs the cross-shard transfer mix under shard partitions, aborts and
//! federation-coordinator crashes, tracing the federation bus. Exits 1
//! on any invariant violation.
//!
//! `repro flap-sweep [--seed S] [--nodes N] [--flaps F] [--sweep K]
//! [--trace <path>]` runs the failure-detection damping study: link
//! flapping at several periods against the fixed-timeout +
//! passthrough baseline and the φ-accrual detector across damping
//! windows, printing the spurious-transition table. Exits 1 unless
//! the adaptive pipeline is strictly quieter than the baseline on
//! every row (and on every seed of a `--sweep`).
//!
//! `repro overload-sweep [--seed S] [--nodes N] [--ticks T]
//! [--trace <path>]` runs the request-plane overload study: goodput
//! and Critical-class p99 latency per offered load and system mode,
//! token-bucket admission + priority shedding against a no-admission
//! FIFO baseline on the same arrivals. Exits 1 unless the plane's
//! Critical p99 is strictly below the baseline's at the highest
//! offered load in both modes.
//!
//! `repro shard-sweep [--seed S] [--nodes N] [--ticks T]
//! [--trace <path>]` runs the federation study: goodput and
//! cross-shard abort rate per shard count, offered load and partition
//! pattern, with cross-shard 2PC (including coordinator crashes
//! recovered by presumed abort) under the `RejectDegraded` routing
//! policy. Exits 1 if transferred value is not conserved across the
//! shards in any cell.
//!
//! `repro fig-compile [--trace <path>]` runs the constraint-engine
//! study: one invariant-heavy workload under the interpreted walker,
//! the compiled programs, and compiled + verdict cache, reporting the
//! deterministic virtual-time validation cost per engine and checking
//! that verdicts are transparent across all three (exits 1 otherwise).
//! With `--trace` the three JSONL traces are written to
//! `<path>.interp` / `<path>.compiled` / `<path>.cached`.
//!
//! `--trace <path>` exports the typed telemetry stream of every cluster
//! the Chapter 5 experiments build as JSONL — one `{seq, at, event}`
//! object per line, stamped in virtual time only, so two runs of the
//! same experiment write byte-identical files.
//!
//! A malformed command line prints the usage and exits 2.

use dedisys_bench::{ch2, ch5, chaos_soak, fig_compile, flap_sweep, overload_sweep, shard_sweep};
use std::path::PathBuf;

const CH2: &[&str] = &[
    "fig2-1",
    "fig2-2",
    "fig2-3",
    "fig2-4",
    "fig2-5",
    "fig2-6",
    "tab2-lookup",
];
const CH5: &[&str] = &[
    "fig1-3",
    "fig5-1",
    "fig5-2",
    "fig5-3",
    "fig5-4",
    "fig5-6",
    "fig5-8",
    "tab5-async",
    "tab5-psc",
    "tab-avail",
    "tab-worth",
];

fn usage() -> ! {
    eprintln!("usage: repro <experiment>|ch2|ch5|all [--trace <path>]");
    eprintln!(
        "       repro chaos-soak [--seed S] [--shards K] [--nodes N] [--ops O] [--faults F] \
         [--sweep N] [--detector] [--trace <path>]"
    );
    eprintln!(
        "       repro flap-sweep [--seed S] [--nodes N] [--flaps F] [--sweep K] \
         [--trace <path>]"
    );
    eprintln!("       repro overload-sweep [--seed S] [--nodes N] [--ticks T] [--trace <path>]");
    eprintln!("       repro shard-sweep [--seed S] [--nodes N] [--ticks T] [--trace <path>]");
    eprintln!("       repro fig-compile [--trace <path>]");
    eprintln!(
        "experiments: {}",
        CH2.iter()
            .chain(CH5)
            .cloned()
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(2);
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut args: Vec<String> = Vec::new();
    let mut trace: Option<PathBuf> = None;
    let mut it = raw.into_iter();
    while let Some(arg) = it.next() {
        if arg == "--trace" {
            match it.next() {
                Some(path) => trace = Some(path.into()),
                None => {
                    eprintln!("--trace needs a file path");
                    usage();
                }
            }
        } else {
            args.push(arg);
        }
    }
    if args.is_empty() {
        usage();
    }
    match args[0].as_str() {
        "chaos-soak" => return chaos_soak_main(&args[1..], trace),
        "flap-sweep" => return flap_sweep_main(&args[1..], trace),
        "overload-sweep" => return overload_sweep_main(&args[1..], trace),
        "shard-sweep" => return shard_sweep_main(&args[1..], trace),
        // Writes one trace per configuration itself (`<path>.interp` /
        // `.compiled` / `.cached`) — the shared append-to-one-file
        // tracing below does not apply.
        "fig-compile" => return fig_compile::run(trace.as_deref()),
        _ => {}
    }
    // One file accumulates the traces of every experiment requested.
    start_trace(&trace, None);
    ch5::set_trace_path(trace.clone());
    for arg in &args {
        match arg.as_str() {
            "all" => {
                for id in CH5.iter().chain(CH2) {
                    dispatch(id);
                }
            }
            "ch2" => CH2.iter().for_each(|id| dispatch(id)),
            "ch5" => CH5.iter().for_each(|id| dispatch(id)),
            id => dispatch(id),
        }
    }
    if let Some(path) = &trace {
        ch5::set_trace_path(None);
        eprintln!("trace written to {}", path.display());
    }
}

/// The `--flag value` arguments of one subcommand: the one flag parser
/// behind `chaos-soak`, `flap-sweep`, `overload-sweep` and
/// `shard-sweep`.
struct Flags<'a> {
    command: &'a str,
    args: std::slice::Iter<'a, String>,
}

impl<'a> Flags<'a> {
    fn new(command: &'a str, args: &'a [String]) -> Self {
        Self {
            command,
            args: args.iter(),
        }
    }

    fn next(&mut self) -> Option<&'a str> {
        self.args.next().map(String::as_str)
    }

    /// The parsed value following `flag`.
    fn value<T: std::str::FromStr>(&mut self, flag: &str) -> T {
        let Some(value) = self.args.next() else {
            eprintln!("{flag} needs a value");
            usage();
        };
        value.parse().unwrap_or_else(|_| {
            eprintln!("{flag}: '{value}' is not a valid value");
            usage();
        })
    }

    fn unknown(&self, flag: &str) -> ! {
        eprintln!("unknown {} flag '{flag}'", self.command);
        usage();
    }

    /// Prints `problem` and the usage unless `ok`.
    fn require(&self, ok: bool, problem: &str) {
        if !ok {
            eprintln!("{}: {problem}", self.command);
            usage();
        }
    }
}

/// Truncates the trace file once — every exporter of the run then
/// appends to it. A trace belongs to a single run, not to a `--sweep`.
fn start_trace(trace: &Option<PathBuf>, sweep: Option<u64>) {
    if sweep.is_some() && trace.is_some() {
        eprintln!("--trace applies to single runs only, not sweeps");
        usage();
    }
    if let Some(path) = trace {
        std::fs::File::create(path).expect("create trace file");
    }
}

fn chaos_soak_main(args: &[String], trace: Option<PathBuf>) {
    let mut opts = chaos_soak::SoakOptions {
        trace,
        ..chaos_soak::SoakOptions::default()
    };
    let mut flags = Flags::new("chaos-soak", args);
    while let Some(flag) = flags.next() {
        match flag {
            "--seed" => opts.seed = flags.value(flag),
            "--shards" => opts.shards = flags.value(flag),
            "--nodes" => opts.nodes = Some(flags.value(flag)),
            "--ops" => opts.ops = Some(flags.value(flag)),
            "--faults" => opts.faults = flags.value(flag),
            "--sweep" => opts.sweep = Some(flags.value(flag)),
            "--detector" => opts.detector = true,
            other => flags.unknown(other),
        }
    }
    start_trace(&opts.trace, opts.sweep);
    chaos_soak::run(&opts);
}

fn flap_sweep_main(args: &[String], trace: Option<PathBuf>) {
    let mut opts = flap_sweep::FlapSweepOptions {
        trace,
        ..flap_sweep::FlapSweepOptions::default()
    };
    let mut flags = Flags::new("flap-sweep", args);
    while let Some(flag) = flags.next() {
        match flag {
            "--seed" => opts.seed = flags.value(flag),
            "--nodes" => opts.nodes = flags.value(flag),
            "--flaps" => opts.flaps = flags.value(flag),
            "--sweep" => opts.sweep = Some(flags.value(flag)),
            other => flags.unknown(other),
        }
    }
    flags.require(
        opts.nodes >= 3,
        "needs a quorum-capable cluster (--nodes 3 or more)",
    );
    start_trace(&opts.trace, opts.sweep);
    flap_sweep::run(&opts);
}

fn overload_sweep_main(args: &[String], trace: Option<PathBuf>) {
    let mut opts = overload_sweep::OverloadOptions {
        trace,
        ..overload_sweep::OverloadOptions::default()
    };
    let mut flags = Flags::new("overload-sweep", args);
    while let Some(flag) = flags.next() {
        match flag {
            "--seed" => opts.seed = flags.value(flag),
            "--nodes" => opts.nodes = flags.value(flag),
            "--ticks" => opts.ticks = flags.value(flag),
            other => flags.unknown(other),
        }
    }
    flags.require(opts.nodes >= 2, "needs at least two nodes");
    flags.require(opts.ticks >= 1, "needs at least one tick");
    start_trace(&opts.trace, None);
    overload_sweep::run(&opts);
}

fn shard_sweep_main(args: &[String], trace: Option<PathBuf>) {
    let mut opts = shard_sweep::ShardSweepOptions {
        trace,
        ..shard_sweep::ShardSweepOptions::default()
    };
    let mut flags = Flags::new("shard-sweep", args);
    while let Some(flag) = flags.next() {
        match flag {
            "--seed" => opts.seed = flags.value(flag),
            "--nodes" => opts.nodes = flags.value(flag),
            "--ticks" => opts.ticks = flags.value(flag),
            other => flags.unknown(other),
        }
    }
    flags.require(opts.nodes >= 2, "needs at least two nodes per shard");
    flags.require(opts.ticks >= 3, "needs at least three ticks");
    start_trace(&opts.trace, None);
    shard_sweep::run(&opts);
}

fn dispatch(id: &str) {
    if CH2.contains(&id) {
        ch2::run(id);
    } else if CH5.contains(&id) {
        ch5::run(id);
    } else {
        eprintln!("unknown experiment '{id}'");
        std::process::exit(2);
    }
}
