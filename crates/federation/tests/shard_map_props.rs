//! Seeded-schedule properties of the consistent-hash shard map: total,
//! deterministic routing and minimal key movement under rebalancing.
//! Every property runs 256 cases, each drawn from `ChaosRng::new(seed)`;
//! a failure names its seed.

use dedisys_federation::{ShardId, ShardMap};
use dedisys_types::{ChaosRng, ObjectId};

const CASES: u64 = 256;

fn population(n: u64) -> Vec<ObjectId> {
    (0..n)
        .map(|i| ObjectId::new("Item", format!("key-{i}")))
        .collect()
}

/// A uniform draw in `lo..hi`.
fn between(rng: &mut ChaosRng, lo: u64, hi: u64) -> u64 {
    lo + rng.below(hi - lo)
}

/// Routing is total (every key lands on a valid shard) and
/// deterministic (an identically-constructed ring agrees on every
/// key) for arbitrary ring shapes and seeds.
#[test]
fn routing_is_total_and_deterministic() {
    for seed in 0..CASES {
        let mut rng = ChaosRng::new(seed);
        let shards = between(&mut rng, 1, 8) as u32;
        let vnodes = between(&mut rng, 1, 64) as u32;
        let ring_seed = rng.next_u64();
        let keys = between(&mut rng, 1, 300);
        let map = ShardMap::new(shards, vnodes, ring_seed).unwrap();
        let twin = ShardMap::new(shards, vnodes, ring_seed).unwrap();
        for id in population(keys) {
            let owner = map.shard_of(&id);
            assert!(
                owner.0 < shards,
                "seed {seed}: {id} routed to nonexistent {owner}"
            );
            assert_eq!(
                owner,
                twin.shard_of(&id),
                "seed {seed}: twin disagrees on {id}"
            );
        }
    }
}

/// Seeds shuffle placement but never break totality: two different
/// seeds still route every key to a valid shard of the same ring
/// size.
#[test]
fn routing_is_total_across_seeds() {
    for seed in 0..CASES {
        let mut rng = ChaosRng::new(seed);
        let shards = between(&mut rng, 1, 6) as u32;
        let vnodes = between(&mut rng, 1, 48) as u32;
        let a = ShardMap::new(shards, vnodes, rng.next_u64()).unwrap();
        let b = ShardMap::new(shards, vnodes, rng.next_u64()).unwrap();
        for id in population(100) {
            assert!(a.shard_of(&id).0 < shards, "seed {seed}: {id}");
            assert!(b.shard_of(&id).0 < shards, "seed {seed}: {id}");
        }
    }
}

/// Growing the ring by one shard moves only the keys whose ring
/// segment the new shard claimed: every migration step lands on
/// the added shard, and every key outside the plan keeps its
/// owner.
#[test]
fn growth_moves_only_the_new_shards_segments() {
    for seed in 0..CASES {
        let mut rng = ChaosRng::new(seed);
        let shards = between(&mut rng, 1, 7) as u32;
        let vnodes = between(&mut rng, 1, 48) as u32;
        let old = ShardMap::new(shards, vnodes, rng.next_u64()).unwrap();
        let new = old.with_shards(shards + 1).unwrap();
        let pop = population(between(&mut rng, 1, 300));
        let steps = old.plan_rebalance(&new, &pop);
        let moved: std::collections::BTreeSet<_> = steps.iter().map(|s| s.object.clone()).collect();
        for step in &steps {
            assert_eq!(
                step.to,
                ShardId(shards),
                "seed {seed}: grown ring may only feed the new shard (step {step:?})"
            );
            assert_eq!(step.from, old.shard_of(&step.object), "seed {seed}");
        }
        for id in &pop {
            if !moved.contains(id) {
                assert_eq!(
                    old.shard_of(id),
                    new.shard_of(id),
                    "seed {seed}: unmoved key {id} changed owner"
                );
            }
        }
    }
}

/// Shrinking the ring by one shard moves only the keys the removed
/// shard owned — surviving shards never trade keys among
/// themselves.
#[test]
fn shrink_moves_only_the_removed_shards_keys() {
    for seed in 0..CASES {
        let mut rng = ChaosRng::new(seed);
        let shards = between(&mut rng, 2, 8) as u32;
        let vnodes = between(&mut rng, 1, 48) as u32;
        let old = ShardMap::new(shards, vnodes, rng.next_u64()).unwrap();
        let new = old.with_shards(shards - 1).unwrap();
        let pop = population(between(&mut rng, 1, 300));
        let steps = old.plan_rebalance(&new, &pop);
        for step in &steps {
            assert_eq!(
                step.from,
                ShardId(shards - 1),
                "seed {seed}: only the removed shard gives keys up (step {step:?})"
            );
            assert!(step.to.0 < shards - 1, "seed {seed}: step {step:?}");
        }
    }
}

/// The ring hash as `shard_map.rs` specifies it (FNV-1a, then the
/// splitmix64 finalizer), restated here as the reference.
fn reference_ring_hash(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

/// An object's ring point is the hash of `seed ‖ id.to_string()`:
/// `shard_of` feeds the id's parts to the hash without formatting
/// them, and must land every object where the formatted id did.
#[test]
fn shard_of_is_the_owner_of_the_displayed_ids_ring_point() {
    const SHARDS: u32 = 5;
    const VNODES: u32 = 24;
    for seed in [0u64, 7, 0xDEAD_BEEF_0BAD_CAFE] {
        let mut ring = std::collections::BTreeMap::new();
        for shard in 0..SHARDS {
            for vnode in 0..VNODES {
                let point = seed.to_le_bytes().into_iter();
                let point = point.chain(shard.to_le_bytes()).chain(vnode.to_le_bytes());
                ring.entry(reference_ring_hash(point)).or_insert(shard);
            }
        }
        let map = ShardMap::new(SHARDS, VNODES, seed).unwrap();
        let mut rng = ChaosRng::new(seed);
        for _ in 0..1_000 {
            let class = *rng.pick(&["Item", "Account", "É#", ""]);
            let id = ObjectId::new(class, format!("k#{}", rng.next_u64()));
            let h =
                reference_ring_hash(seed.to_le_bytes().into_iter().chain(id.to_string().bytes()));
            let owner = ring.range(h..).next().or_else(|| ring.iter().next());
            assert_eq!(
                map.shard_of(&id),
                ShardId(*owner.unwrap().1),
                "seed {seed}: {id}"
            );
        }
    }
}
