//! Constraint expressions are untrusted input (a deployment descriptor,
//! an operator's `add_constraint`): whatever bytes arrive, lexer →
//! parser → compiler → VM answer `Ok` or `Err` and never panic, and
//! whatever parses means the same thing to both engines.
//!
//! Seeded, not random: every assert names its seed, and
//! `for seed in 0..SEEDS` is the whole corpus.

use dedisys_constraints::expr::ExprConstraint;
use dedisys_constraints::{Constraint, ConstraintEngine, MapAccess, ValidationContext};
use dedisys_types::{ChaosRng, MethodName, ObjectId, Value};
use std::panic::{catch_unwind, AssertUnwindSafe};

const SEEDS: u64 = 512;
const MUTANTS_PER_SEED: usize = 8;

/// Well-formed expressions, between them using every operator and form
/// of `expr/ast.rs` (and both spellings where the lexer has two).
const CORPUS: [&str; 24] = [
    "self.a + 1 <= self.seats",
    "self.a - arg(0) >= 0",
    "self.a * 2 < 100 and self.seats / 4 > 1",
    "self.seats % 7 = 3 or self.seats % 7 <> 3",
    "self.a == 5 implies self.seats != 0",
    "not (self.flag and false) or null = null",
    "-self.a < 0 and - 2.5 < self.ratio",
    "self.ratio * 2.0 >= 1.5",
    "self.name + \"-x\" = \"LH-441-x\"",
    "size(self.items) = 3 and size(self.name) > 0",
    "self.next.a + self.next.seats > self.a",
    "count(\"Flight\") >= 1 and count(\"Nothing\") = 0",
    "env(\"partitionWeight\") > 0.5 implies self.a <= self.seats",
    "pre(\"sold\") + arg(0) = self.a",
    "result() = true or result() = false",
    "arg(1) = \"economy\" and arg(0) > 0",
    "(self.a + (self.seats - (self.a * (2 / (1 % 3)))))  >  0",
    "true and not false implies 1 < 2",
    "self.missing = null or self.missing.deeper = 1",
    "1 / 0 = 0 or 1 % 0 = 0",
    "9223372036854775807 + 1 > 0",
    "env(\"absent\") = null and pre(\"absent\") = null",
    "self.items = self.items and self.next = self.next",
    "\"a\" < \"b\" and 1 < 2.0 and true <> false",
];

/// Bytes an insertion draws from: the language's own alphabet, so a
/// mutant often lexes, plus what a lexer must refuse.
const INSERTS: &[u8] = b"()+-*/%<>=!.\"', 0123456789eEanorsizfltu_\\\0\x7f\xc3\xa9\xff";

fn mutate(rng: &mut ChaosRng, source: &str) -> String {
    let mut bytes = source.as_bytes().to_vec();
    for _ in 0..=rng.below(3) {
        if bytes.is_empty() {
            break;
        }
        let at = rng.below(bytes.len() as u64) as usize;
        match rng.below(4) {
            0 => bytes[at] ^= 1 << rng.below(8),
            1 => {
                bytes.remove(at);
            }
            2 => bytes.insert(at, *rng.pick(INSERTS)),
            _ => bytes.truncate(at),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

fn world() -> (ObjectId, MapAccess) {
    let (flight, next) = (
        ObjectId::new("Flight", "LH-441"),
        ObjectId::new("Flight", "LH-442"),
    );
    let mut world = MapAccess::new();
    world.put_field(&flight, "a", Value::Int(5));
    world.put_field(&flight, "seats", Value::Int(80));
    world.put_field(&flight, "ratio", Value::Float(0.75));
    world.put_field(&flight, "flag", Value::Bool(true));
    world.put_field(&flight, "name", Value::from("LH-441"));
    world.put_field(
        &flight,
        "items",
        Value::List(vec![Value::Int(1), Value::from("two"), Value::Null]),
    );
    world.put_field(&flight, "next", Value::Ref(next.clone()));
    world.put_field(&next, "a", Value::Int(7));
    world.put_field(&next, "seats", Value::Int(90));
    (flight, world)
}

/// `constraint` under `engine` on the one fixed world, as a
/// postcondition context (so `arg`, `result`, `pre` and `env` all have
/// something to answer with).
fn verdict(constraint: &ExprConstraint, engine: ConstraintEngine) -> dedisys_types::Result<bool> {
    let (flight, mut world) = world();
    let args = vec![Value::Int(2), Value::from("economy")];
    let mut ctx = ValidationContext::for_method(flight, MethodName::from("sell"), args, &mut world);
    ctx.set_result(Value::Bool(true));
    ctx.store_pre("sold", Value::Int(3));
    ctx.set_env("partitionWeight", Value::Float(0.6));
    constraint.validate_with(engine, &mut ctx)
}

/// Parses `source` and, if it parses, runs both engines; a panic
/// anywhere fails with the seed and the input.
fn check(seed: u64, source: &str) -> Option<dedisys_types::Result<bool>> {
    let run = catch_unwind(AssertUnwindSafe(|| {
        let constraint = ExprConstraint::parse(source).ok()?;
        let interpreted = verdict(&constraint, ConstraintEngine::Interpreted);
        let compiled = verdict(&constraint, ConstraintEngine::Compiled);
        Some((interpreted, compiled))
    }));
    let outcome = run.unwrap_or_else(|_| panic!("seed {seed}: panicked on {source:?}"));
    let (interpreted, compiled) = outcome?;
    assert_eq!(
        interpreted, compiled,
        "seed {seed}: the engines disagree on {source:?}"
    );
    Some(interpreted)
}

#[test]
fn the_corpus_parses_and_both_engines_agree_on_it() {
    let mut evaluated = 0;
    for (index, source) in CORPUS.iter().enumerate() {
        let verdict = check(index as u64, source);
        assert!(verdict.is_some(), "corpus entry {index} does not parse");
        evaluated += usize::from(verdict.is_some_and(|v| v.is_ok()));
    }
    // The corpus is not vacuous: most of it evaluates, some of it fails
    // at run time (division by zero, overflow), and both happen.
    assert!((16..CORPUS.len()).contains(&evaluated), "{evaluated}");
}

#[test]
fn mutated_expressions_never_panic_and_mean_the_same_to_both_engines() {
    let (mut parsed, mut refused) = (0u32, 0u32);
    for seed in 0..SEEDS {
        let mut rng = ChaosRng::new(seed);
        let base = CORPUS[(seed % CORPUS.len() as u64) as usize];
        for _ in 0..MUTANTS_PER_SEED {
            match check(seed, &mutate(&mut rng, base)) {
                Some(_) => parsed += 1,
                None => refused += 1,
            }
        }
    }
    // Both sides of the fuzzer's job were exercised.
    assert!(parsed > 500, "only {parsed} mutants parsed");
    assert!(refused > 500, "only {refused} mutants were refused");
}
