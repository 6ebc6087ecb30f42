//! The `perf` command line.
//!
//! ```text
//! perf run     --workload <w> [--seed n] [--seconds s] [--trace 0|1] [--out file]
//! perf trace   --workload <w> [--seed n] [--seconds s] [--spans-out file]
//! perf all     [--seed n] [--seconds s] [--out file] [--check-repeat]
//! perf layers  [--seed n]
//! perf compare <a.json> <b.json>
//! ```
//!
//! Every failure is one line on stderr and its own exit code.

use crate::harness::json::{self, Json};
use crate::report::{self, Value};
use crate::workload::{self, Plan, RunError, RunResult, Spec};
use crate::workloads::{self, WORKLOADS};
use crate::{compare, layers, slices};
use std::process::Command;

/// Seconds a run measures when `--seconds` is not given; the
/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 8.0;

/// Why the command line did not succeed; the discriminant is the exit
/// code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// `perf compare` found a regression (exit 1).
    Regression,
    /// Unknown command, flag, workload or metric (exit 2).
    Usage(String),
    /// Set-up failed (exit 3).
    Setup(String),
    /// A correctness check failed (exit 4).
    Check(String),
    /// `fail_share` > 0 (exit 5).
    FailShare(String),
    /// A file could not be read or written, or a child did not run
    /// (exit 6).
    Io(String),
}

impl Failure {
    /// The process exit code.
    pub fn code(&self) -> i32 {
        match self {
            Failure::Regression => 1,
            Failure::Usage(_) => 2,
            Failure::Setup(_) => 3,
            Failure::Check(_) => 4,
            Failure::FailShare(_) => 5,
            Failure::Io(_) => 6,
        }
    }
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Regression => f.write_str("a metric is past its bound or fail_share rose"),
            Failure::Usage(why) => write!(f, "usage: {why}"),
            Failure::Setup(why)
            | Failure::Check(why)
            | Failure::FailShare(why)
            | Failure::Io(why) => f.write_str(why),
        }
    }
}

impl From<RunError> for Failure {
    fn from(e: RunError) -> Self {
        let text = e.to_string();
        match e {
            RunError::Setup(_) => Failure::Setup(text),
            RunError::Check(_) => Failure::Check(text),
            RunError::Failed { .. } => Failure::FailShare(text),
        }
    }
}

/// Parsed flags of one invocation.
#[derive(Debug, Default)]
struct Flags {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    out: Option<String>,
    spans_out: Option<String>,
    check_repeat: bool,
    positional: Vec<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, Failure> {
    let mut flags = Flags::default();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .cloned()
                .ok_or_else(|| Failure::Usage(format!("{flag} needs a value")))
        };
        let bad = |flag: &str, v: &str| Failure::Usage(format!("{flag}: cannot read `{v}`"));
        match arg.as_str() {
            "--workload" => flags.workload = Some(value("--workload")?),
            "--seed" => {
                let v = value("--seed")?;
                flags.seed = Some(v.parse().map_err(|_| bad("--seed", &v))?);
            }
            "--seconds" => {
                let v = value("--seconds")?;
                let seconds: f64 = v.parse().map_err(|_| bad("--seconds", &v))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad("--seconds", &v));
                }
                flags.seconds = Some(seconds);
            }
            "--trace" => {
                flags.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad("--trace", v)),
                }
            }
            "--out" => flags.out = Some(value("--out")?),
            "--spans-out" => flags.spans_out = Some(value("--spans-out")?),
            "--check-repeat" => flags.check_repeat = true,
            flag if flag.starts_with("--") => {
                return Err(Failure::Usage(format!("unknown flag `{flag}`")))
            }
            _ => flags.positional.push(arg.clone()),
        }
    }
    Ok(flags)
}

fn spec_named(name: Option<&str>) -> Result<&'static Spec, Failure> {
    let name = name.ok_or_else(|| Failure::Usage("--workload is required".into()))?;
    workloads::find(name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        Failure::Usage(format!(
            "unknown workload `{name}` (known: {})",
            known.join(", ")
        ))
    })
}

fn write_file(path: &str, text: &str) -> Result<(), Failure> {
    std::fs::write(path, text).map_err(|e| Failure::Io(format!("cannot write {path}: {e}")))
}

fn read_json(path: &str) -> Result<Json, Failure> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| Failure::Io(format!("cannot read {path}: {e}")))?;
    json::parse(&text).map_err(|e| Failure::Io(format!("{path} is not JSON: {e}")))
}

/// A result file holding `runs`.
fn result_file(seed: u64, seconds: f64, runs: Vec<(String, Json)>) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::Str("dedisys-perf/1".into())),
        ("seed".into(), Json::Num(seed as f64)),
        ("seconds".into(), Json::Num(seconds)),
        ("machine".into(), report::machine_json()),
        ("workloads".into(), Json::Obj(runs)),
    ])
}

fn print_header(run: &RunResult) {
    println!("# {}", report::STAND_IN_NOTE);
    println!(
        "# {}: seed {}, {} timed ops after {} warm-up ops, timed region {:.3} s \
         ({:.0} ops/s sustained), {} latency samples (p99 {:.3} us, max {:.3} us), \
         {} cycles, state_digest {:016x}",
        run.workload,
        run.plan.seed,
        run.plan.ops,
        run.plan.warmup,
        run.wall_s,
        run.sustained_ops_per_s(),
        run.latency.samples,
        run.p99_us(),
        run.latency.max_ns as f64 / 1e3,
        run.cycle_ms.len(),
        run.state_digest
    );
}

/// The layer probes, slice rungs and calibration ratios.
fn layer_values(seed: u64) -> Vec<Value> {
    let mut values = layers::run();
    values.extend(slices::run(seed));
    values
}

/// `perf run` / `perf trace`: one run of one workload. Ends with the
/// one-line JSON object of the driver contract.
fn run_one(flags: &Flags) -> Result<(), Failure> {
    let spec = spec_named(flags.workload.as_deref())?;
    let seed = flags.seed.unwrap_or(1);
    let seconds = flags.seconds.unwrap_or(DEFAULT_SECONDS);
    let mut plan = Plan::for_seconds(spec, seed, seconds, flags.trace);
    plan.keep_spans = flags.spans_out.is_some();
    let run = workload::run(spec, &plan)?;
    print_header(&run);
    let values = if flags.trace {
        let mut values = report::traced_values(&run);
        values.extend(layer_values(seed));
        let names: Vec<&str> = values.iter().map(|v| v.name).collect();
        let listed: Vec<&str> = report::PER_LAYER.iter().map(|(name, _)| *name).collect();
        assert_eq!(
            names, listed,
            "report::PER_LAYER is out of step with the code"
        );
        values
    } else {
        report::end_to_end_values(&run)
    };
    report::print_lines(spec.name, &values);
    if let Some(path) = &flags.spans_out {
        write_file(path, &run.spans_json.render())?;
    }
    if let Some(path) = &flags.out {
        let file = result_file(
            seed,
            seconds,
            vec![(spec.name.to_owned(), report::run_json(&run, &values))],
        );
        write_file(path, &file.render_pretty())?;
    }
    // A run that failed is still on record, with its counts: the line
    // says `correct: false` and the exit code says why.
    println!(
        "{}",
        report::contract_line(run.error().is_none(), run.attempted(), run.failed, &values)
    );
    run.error().map_or(Ok(()), |e| Err(e.into()))
}

/// `perf all`: every workload, each in a process of its own so that
/// `VmHWM` is that workload's and no heap is inherited.
fn run_all(flags: &Flags) -> Result<(), Failure> {
    let seed = flags.seed.unwrap_or(1);
    let seconds = flags.seconds.unwrap_or(DEFAULT_SECONDS);
    if flags.check_repeat {
        return check_repeat(seed, seconds / 10.0).map_err(Failure::Check);
    }
    let exe = std::env::current_exe()
        .map_err(|e| Failure::Io(format!("cannot find this executable: {e}")))?;
    let out = flags
        .out
        .clone()
        .unwrap_or_else(|| "perf-results.json".into());
    let mut runs = Vec::new();
    let mut first_failure = None;
    for spec in &WORKLOADS {
        let part = format!("{out}.{}.part", spec.name);
        // A part left by an interrupted `all` is not this child's.
        let _ = std::fs::remove_file(&part);
        let status = Command::new(&exe)
            .args(["run", "--workload", spec.name, "--out", &part])
            .args([
                "--seed",
                &seed.to_string(),
                "--seconds",
                &seconds.to_string(),
            ])
            .status()
            .map_err(|e| Failure::Io(format!("cannot start the {} run: {e}", spec.name)))?;
        if !status.success() {
            // The child has said why on stderr; pass its code on, at
            // once if it left no result, else after the file is written.
            let code = status.code().unwrap_or(6);
            if !std::path::Path::new(&part).exists() {
                std::process::exit(code);
            }
            first_failure.get_or_insert(code);
        }
        let file = read_json(&part)?;
        let _ = std::fs::remove_file(&part);
        let run = file
            .get("workloads")
            .and_then(|w| w.get(spec.name))
            .cloned()
            .ok_or_else(|| Failure::Io(format!("{part} holds no {} result", spec.name)))?;
        runs.push((spec.name.to_owned(), run));
    }
    write_file(&out, &result_file(seed, seconds, runs).render_pretty())?;
    println!("# wrote {out}");
    if let Some(code) = first_failure {
        std::process::exit(code);
    }
    Ok(())
}

/// The determinism self-check: every workload twice with the same seed
/// must agree on the state digest, every exact count and the
/// allocation counts, and a different seed must change the digest.
///
/// # Errors
///
/// The first disagreement, or the first run that failed.
pub fn check_repeat(seed: u64, seconds: f64) -> Result<(), String> {
    for spec in &WORKLOADS {
        let run = |seed| {
            let mut plan = Plan::for_seconds(spec, seed, seconds, false);
            plan.setups = 1;
            workload::run(spec, &plan)
                .and_then(|run| run.error().map_or(Ok(run), Err))
                .map_err(|e| format!("{}: {e}", spec.name))
        };
        let (a, b, other) = (run(seed)?, run(seed)?, run(seed.wrapping_add(1))?);
        if a.state_digest != b.state_digest {
            return Err(format!(
                "{}: same seed, different state_digest ({:016x} vs {:016x})",
                spec.name, a.state_digest, b.state_digest
            ));
        }
        if a.counts != b.counts {
            return Err(format!("{}: same seed, different per-op counts", spec.name));
        }
        if a.allocs_per_op != b.allocs_per_op || a.alloc_bytes_per_op != b.alloc_bytes_per_op {
            return Err(format!(
                "{}: same seed, different allocations ({} / {} B vs {} / {} B per op)",
                spec.name,
                a.allocs_per_op,
                a.alloc_bytes_per_op,
                b.allocs_per_op,
                b.alloc_bytes_per_op
            ));
        }
        if a.state_digest == other.state_digest {
            return Err(format!(
                "{}: a different seed left the state_digest unchanged",
                spec.name
            ));
        }
        println!(
            "# {}: {} ops twice: digest {:016x}, {} counts and {} allocs/op identical; \
             seed {} gives {:016x}",
            spec.name,
            a.plan.ops,
            a.state_digest,
            a.counts.len(),
            a.allocs_per_op,
            seed.wrapping_add(1),
            other.state_digest
        );
    }
    Ok(())
}

fn run_compare(flags: &Flags) -> Result<(), Failure> {
    let [base, new] = flags.positional.as_slice() else {
        return Err(Failure::Usage("compare takes two result files".into()));
    };
    let comparison =
        compare::compare(&read_json(base)?, &read_json(new)?).map_err(Failure::Usage)?;
    compare::print(&comparison);
    if comparison.failed() {
        Err(Failure::Regression)
    } else {
        Ok(())
    }
}

/// Runs the command line `args` (without the program name).
///
/// # Errors
///
/// See [`Failure`].
pub fn main(args: &[String]) -> Result<(), Failure> {
    let Some((command, rest)) = args.split_first() else {
        return Err(Failure::Usage(
            "perf <run|trace|all|layers|compare> … (see perf/README.md)".into(),
        ));
    };
    let mut flags = parse_flags(rest)?;
    match command.as_str() {
        "run" => run_one(&flags),
        "trace" => {
            flags.trace = true;
            run_one(&flags)
        }
        "all" => run_all(&flags),
        "layers" => {
            println!("# {}", report::STAND_IN_NOTE);
            report::print_lines("-", &layer_values(flags.seed.unwrap_or(1)));
            Ok(())
        }
        "compare" => run_compare(&flags),
        other => Err(Failure::Usage(format!("unknown command `{other}`"))),
    }
}
