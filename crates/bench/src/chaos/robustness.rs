//! The chaos engine under explicit, seeded and exhaustive schedules:
//! crashes mid-2PC inside a full run, random schedules that keep every
//! invariant, seed determinism, and every three-step schedule over a
//! small fault vocabulary.

use crate::engine::{ChaosConfig, ChaosEngine, ChaosReport};
use crate::plan::{FaultStep, Schedule};
use dedisys_federation::ShardId;
use dedisys_types::{ChaosRng, NodeId};

const S0: ShardId = ShardId(0);

// ---------------------------------------------------------------------
// Explicit chaos schedule — crash mid-2PC inside a full engine run
// ---------------------------------------------------------------------

#[test]
fn explicit_schedule_with_mid_2pc_crashes_stays_clean() {
    let schedule = Schedule::with_faults(
        200,
        [
            (25, S0, FaultStep::Crash(NodeId(1))),
            (
                60,
                S0,
                FaultStep::Partition(vec![vec![NodeId(0), NodeId(2)], vec![NodeId(3)]]),
            ),
            (90, S0, FaultStep::Restart(NodeId(1))),
            (110, S0, FaultStep::Crash(NodeId(3))),
            (140, S0, FaultStep::Heal),
            (
                170,
                S0,
                FaultStep::WriteFaultWindow {
                    node: NodeId(2),
                    failures: 3,
                },
            ),
        ],
    );
    let report = ChaosEngine::new(ChaosConfig {
        nodes: 4,
        ops: 200,
        seed: 11,
        ..ChaosConfig::default()
    })
    .unwrap()
    .run_schedule(&schedule)
    .unwrap();
    assert!(report.clean(), "violations: {:?}", report.violations);
    assert!(report.ops_ok > 0);
}

// ---------------------------------------------------------------------
// Seeded properties — random schedules
// ---------------------------------------------------------------------

/// Any seeded random schedule leaves every invariant intact, from
/// the per-step checks through final convergence — over 24 drawn
/// engine configurations.
#[test]
fn random_chaos_schedules_keep_all_invariants() {
    for case in 0..24 {
        let mut rng = ChaosRng::new(case);
        let config = ChaosConfig {
            seed: rng.below(10_000),
            nodes: 2 + rng.below(4) as u32,
            ops: 40 + rng.below(100),
            faults: 4 + rng.below(14) as usize,
            ..ChaosConfig::default()
        };
        let report = ChaosEngine::new(config).unwrap().run().unwrap();
        assert!(
            report.clean(),
            "case {case} ({config:?}): {:?}",
            report.violations
        );
        // After the final repair sequence the ledger balances exactly.
        let tx = &report.final_stats[0].tx;
        assert_eq!(
            tx.begun,
            tx.committed + tx.rolled_back,
            "case {case} ({config:?})"
        );
    }
}

/// A chaos run is a pure function of its seed: equal seeds yield
/// identical outcomes along every observable axis — over 24 drawn
/// seeds.
#[test]
fn chaos_runs_are_seed_deterministic() {
    for case in 0..24 {
        let seed = ChaosRng::new(case).below(10_000);
        let run = || {
            ChaosEngine::new(ChaosConfig {
                seed,
                ops: 80,
                faults: 10,
                ..ChaosConfig::default()
            })
            .unwrap()
            .run()
            .unwrap()
        };
        let observed = |r: ChaosReport| {
            (
                r.ops_ok,
                r.ops_failed,
                r.faults_applied,
                r.in_doubt_resolved,
                r.final_stats[0].now_ns,
                r.final_stats[0].events_emitted,
            )
        };
        assert_eq!(observed(run()), observed(run()), "seed {seed}");
    }
}

// ---------------------------------------------------------------------
// Small scope, exhaustively
// ---------------------------------------------------------------------

/// Every 3-step schedule over five faults — a crash and a restart of
/// n1, a split, a heal and a write-fault window on n2 — placed at ops
/// 10, 20 and 30 of a 40-op run on 3 nodes: 125 schedules, one freshly
/// built cluster each, every one clean.
#[test]
fn every_three_step_schedule_stays_clean() {
    let vocabulary = [
        FaultStep::Crash(NodeId(1)),
        FaultStep::Restart(NodeId(1)),
        FaultStep::Partition(vec![vec![NodeId(0), NodeId(1)], vec![NodeId(2)]]),
        FaultStep::Heal,
        FaultStep::WriteFaultWindow {
            node: NodeId(2),
            failures: 2,
        },
    ];
    let mut schedules = 0;
    for a in &vocabulary {
        for b in &vocabulary {
            for c in &vocabulary {
                let faults = [(10, a), (20, b), (30, c)].map(|(at, f)| (at, S0, f.clone()));
                let schedule = Schedule::with_faults(40, faults);
                let report = ChaosEngine::new(ChaosConfig {
                    nodes: 3,
                    ops: 40,
                    seed: 26,
                    ..ChaosConfig::default()
                })
                .unwrap()
                .run_schedule(&schedule)
                .unwrap();
                assert!(
                    report.clean(),
                    "schedule {a} / {b} / {c}: {:?}",
                    report.violations
                );
                schedules += 1;
            }
        }
    }
    assert_eq!(schedules, 125);
}
