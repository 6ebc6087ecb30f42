//! The deterministic consistent-hash shard map.
//!
//! A [`ShardMap`] places every [`ObjectId`] on one shard via a
//! consistent-hash ring with virtual nodes: each shard contributes
//! `vnodes` points ([`ShardMap::new`]) to a `u64` ring, and an object
//! belongs to the shard owning the first point at or after the object's
//! own hash (wrapping). Ring points depend only on `(seed, shard, vnode)`
//! — never on the total shard count — so growing or shrinking the
//! federation leaves every surviving shard's points in place and moves
//! exactly the keys whose ring segment changed hands (the classic
//! minimal-disruption property, checked over 256 seeded rings in
//! `tests/shard_map_props.rs`).
//!
//! Rebalancing is explicit: [`ShardMap::plan_rebalance`] diffs two
//! maps over a concrete key population into per-object
//! [`MigrationStep`]s. `FederatedCluster::rebalance` makes that plan
//! from the committed population and runs it in the same call, whole
//! or not at all. Nothing moves implicitly.

use dedisys_types::{fnv1a, Error, ObjectId, Result, FNV_OFFSET};
use serde::{Deserialize, Serialize};

/// Identifies one shard (one [`Cluster`](dedisys_core::Cluster)) in a
/// federation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ShardId(pub u32);

impl ShardId {
    /// The shard's index into the federation's shard vector.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ShardId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// The ring hash, from the FNV-1a state `h` over the bytes: a
/// splitmix64-style avalanche finalizer. Stable across platforms and
/// Rust versions (std's `DefaultHasher` makes no such promise). Plain
/// FNV-1a is not enough here — on short structured inputs
/// (`seed‖shard‖vnode`) its high bits barely avalanche, which clumps
/// ring points and key hashes into narrow bands; the finalizer spreads
/// them over the full `u64` ring.
fn ring_hash(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

/// One typed step of a rebalance: move `object`'s committed state from
/// shard `from` to shard `to`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MigrationStep {
    /// The object whose ring segment changed hands.
    pub object: ObjectId,
    /// The shard giving the object up.
    pub from: ShardId,
    /// The shard that owns it under the target map.
    pub to: ShardId,
}

/// The deterministic consistent-hash ring (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    shards: u32,
    vnodes: u32,
    seed: u64,
    /// The FNV-1a state after the seed's bytes, where every object's
    /// hash starts.
    seeded: u64,
    /// `(ring point, owning shard)`, sorted by point, one entry per
    /// point.
    ring: Vec<(u64, u32)>,
}

impl ShardMap {
    /// Builds the ring for `shards` shards with `vnodes` virtual nodes
    /// per shard, seeded by `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] when `shards` or `vnodes` is zero.
    pub fn new(shards: u32, vnodes: u32, seed: u64) -> Result<Self> {
        if shards == 0 {
            return Err(Error::Config("a shard map needs at least one shard".into()));
        }
        if vnodes == 0 {
            return Err(Error::Config(
                "a shard map needs at least one virtual node per shard".into(),
            ));
        }
        let seeded = fnv1a(FNV_OFFSET, &seed.to_le_bytes());
        let mut ring = Vec::with_capacity(shards as usize * vnodes as usize);
        for shard in 0..shards {
            for vnode in 0..vnodes {
                let h = fnv1a(fnv1a(seeded, &shard.to_le_bytes()), &vnode.to_le_bytes());
                ring.push((ring_hash(h), shard));
            }
        }
        // On the astronomically unlikely point collision the lower
        // shard id wins, deterministically: it sorts first and stays.
        ring.sort_unstable();
        ring.dedup_by_key(|&mut (point, _)| point);
        Ok(Self {
            shards,
            vnodes,
            seed,
            seeded,
            ring,
        })
    }

    /// Number of shards on the ring.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// The ring seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// A map with the same seed and virtual-node count over a
    /// different shard count — the usual way to spell a grow/shrink
    /// target for [`ShardMap::plan_rebalance`].
    ///
    /// # Errors
    ///
    /// As [`ShardMap::new`].
    pub fn with_shards(&self, shards: u32) -> Result<Self> {
        Self::new(shards, self.vnodes, self.seed)
    }

    /// The shard owning `id`: the first ring point at or after the
    /// object's hash, wrapping past the top. Total — every object maps
    /// to exactly one shard.
    pub fn shard_of(&self, id: &ObjectId) -> ShardId {
        // The bytes of `seed ‖ id.to_string()`: the seed's are absorbed
        // already, the id's display text is one slice.
        let h = ring_hash(fnv1a(self.seeded, id.text().as_bytes()));
        let at = self.ring.partition_point(|&(point, _)| point < h);
        let (_, owner) = self.ring.get(at).unwrap_or(&self.ring[0]);
        ShardId(*owner)
    }

    /// Diffs this map against `target` over `keys` and returns the
    /// migration steps for exactly the keys whose owner changed,
    /// sorted by object id (deterministic execution order).
    pub fn plan_rebalance<'a>(
        &self,
        target: &ShardMap,
        keys: impl IntoIterator<Item = &'a ObjectId>,
    ) -> Vec<MigrationStep> {
        let mut steps: Vec<MigrationStep> = keys
            .into_iter()
            .filter_map(|id| {
                let from = self.shard_of(id);
                let to = target.shard_of(id);
                (from != to).then(|| MigrationStep {
                    object: id.clone(),
                    from,
                    to,
                })
            })
            .collect();
        steps.sort_by(|a, b| a.object.cmp(&b.object));
        steps.dedup();
        steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: u32) -> Vec<ObjectId> {
        (0..n)
            .map(|i| ObjectId::new("Item", format!("k{i}")))
            .collect()
    }

    #[test]
    fn routing_is_total_and_stable() {
        let map = ShardMap::new(4, 16, 7).unwrap();
        let again = ShardMap::new(4, 16, 7).unwrap();
        for id in keys(200) {
            let s = map.shard_of(&id);
            assert!(s.0 < 4);
            assert_eq!(s, again.shard_of(&id));
        }
    }

    #[test]
    fn zero_shards_or_vnodes_is_a_config_error() {
        assert!(matches!(ShardMap::new(0, 8, 0), Err(Error::Config(_))));
        assert!(matches!(ShardMap::new(3, 0, 0), Err(Error::Config(_))));
    }

    #[test]
    fn growth_moves_keys_only_to_the_new_shard() {
        let old = ShardMap::new(3, 32, 11).unwrap();
        let new = old.with_shards(4).unwrap();
        let population = keys(500);
        let steps = old.plan_rebalance(&new, &population);
        assert!(!steps.is_empty(), "some keys should move");
        for step in &steps {
            assert_eq!(step.to, ShardId(3), "grown ring only feeds the new shard");
        }
        // And far from everything moves.
        assert!(steps.len() < population.len() / 2);
    }
}
