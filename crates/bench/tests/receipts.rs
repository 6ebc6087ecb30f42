//! Every `repro` command line of `receipts.txt`, run and pinned: the
//! byte length and FNV-1a of its stdout and of each trace file it
//! writes. "Same output as before" is this test passing. A change that
//! means to move an output re-pins the file — a failing run prints the
//! whole file as it now reads — so the move shows as a diff of lines.

use dedisys_bench::{Experiment, EXPERIMENTS};
use dedisys_types::{fnv1a, FNV_OFFSET};
use std::fs::{self, File};
use std::io::{self, Read};
use std::path::Path;
use std::process::{Command, Stdio};

/// One line per command line: `<arguments> | stdout <bytes> <fnv1a> |
/// trace<suffix> <bytes> <fnv1a> …`, where a bare `--trace` is given a
/// fresh path. Comment lines (`#`) and blank lines are kept as they are.
const RECEIPTS: &str = include_str!("../receipts.txt");

fn is_command(line: &str) -> bool {
    !line.is_empty() && !line.starts_with('#')
}

/// The `repro` arguments of a receipt line.
fn command(line: &str) -> &str {
    line.split(" | ").next().unwrap_or(line)
}

/// The experiments a command line names (ids and groups before the
/// first flag).
fn named(command: &str) -> Vec<&'static Experiment> {
    let words = command.split_whitespace();
    let names = words.take_while(|w| !w.starts_with("--"));
    names
        .flat_map(|w| (EXPERIMENTS.iter()).filter(move |e| e.id == w || e.group == Some(w)))
        .collect()
}

/// `<bytes> <fnv1a>` of the file at `path`, read a chunk at a time.
fn receipt(path: &Path) -> io::Result<String> {
    let mut file = File::open(path)?;
    let mut chunk = vec![0; 1 << 16];
    let (mut len, mut hash) = (0, FNV_OFFSET);
    loop {
        let n = file.read(&mut chunk)?;
        if n == 0 {
            return Ok(format!("{len} {hash:016x}"));
        }
        len += n;
        hash = fnv1a(hash, &chunk[..n]);
    }
}

/// The receipt line of `command`, run with its output under `out`:
/// stdout in `<out>.stdout`, traces in `<out>.jsonl<suffix>`.
fn receipt_line(command: &str, out: &Path) -> String {
    let receipt = |path: &Path| receipt(path).unwrap_or_else(|e| e.to_string());
    let mut line = format!(
        "{command} | stdout {}",
        receipt(&out.with_extension("stdout"))
    );
    if command.contains("--trace") {
        let experiments = named(command);
        let mut suffixes: Vec<&str> = experiments.iter().flat_map(|e| e.traces).copied().collect();
        suffixes.dedup();
        for suffix in suffixes {
            let mut path = out.with_extension("jsonl").into_os_string();
            path.push(suffix);
            line += &format!(" | trace{suffix} {}", receipt(Path::new(&path)));
        }
    }
    line
}

#[test]
fn every_experiment_matches_its_receipt() {
    let commands: Vec<&str> = RECEIPTS
        .lines()
        .filter(|l| is_command(l))
        .map(command)
        .collect();
    for e in EXPERIMENTS.iter().filter(|e| e.group != Some("ch2")) {
        let runs = |c: &&str| named(c).iter().any(|n| n.id == e.id);
        assert!(commands.iter().any(runs), "no receipt line runs {}", e.id);
    }

    let dir = std::env::temp_dir().join(format!("dedisys-receipts-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let out = |i: usize| dir.join(i.to_string());
    // Every line at once: the slowest line, not the sum, sets the time.
    let children: Vec<_> = (commands.iter().enumerate())
        .map(|(i, command)| {
            let mut repro = Command::new(env!("CARGO_BIN_EXE_repro"));
            for word in command.split_whitespace() {
                repro.arg(word);
                if word == "--trace" {
                    repro.arg(out(i).with_extension("jsonl"));
                }
            }
            let stdout = File::create(out(i).with_extension("stdout")).unwrap();
            let stderr = File::create(out(i).with_extension("stderr")).unwrap();
            repro.stdin(Stdio::null()).stdout(stdout).stderr(stderr);
            repro.spawn().unwrap()
        })
        .collect();
    let mut failed = Vec::new();
    let mut receipts = Vec::new();
    for ((i, command), mut child) in commands.iter().enumerate().zip(children) {
        let status = child.wait().unwrap();
        if !status.success() {
            let stderr = fs::read_to_string(out(i).with_extension("stderr"));
            failed.push(format!(
                "repro {command}: {status}\n{}",
                stderr.unwrap_or_default()
            ));
        }
        receipts.push(receipt_line(command, &out(i)));
    }
    fs::remove_dir_all(&dir).unwrap();
    assert!(failed.is_empty(), "{}", failed.join("\n"));

    let mut receipts = receipts.into_iter();
    let actual: String = (RECEIPTS.lines())
        .map(|l| {
            let line = if is_command(l) {
                receipts.next().unwrap_or_default()
            } else {
                l.to_owned()
            };
            line + "\n"
        })
        .collect();
    let moved: Vec<&str> = (actual.lines().zip(RECEIPTS.lines()))
        .filter(|(a, r)| a != r)
        .map(|(a, _)| command(a))
        .collect();
    assert!(
        actual == RECEIPTS,
        "receipts moved: {moved:?}. If the move is intended, \
         crates/bench/receipts.txt reads:\n{actual}"
    );
}
