//! The constraint repository (§2.1.4, §4.2.2).

use crate::{ConstraintKind, RegisteredConstraint};
use dedisys_types::{ClassName, ConstraintName, Error, MethodSignature, Result, TxBuildHasher};
use std::collections::HashMap;
use std::sync::Arc;

/// How [`ConstraintRepository::lookup`] searches.
///
/// Chapter 2 measures both: the naive repository scans all constraints
/// on every query; the optimized one caches query results in a hash
/// table keyed by class + method + constraint type, reducing a lookup
/// to a single hash probe (§2.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LookupMode {
    /// Hash-cache query results (the "optimized repository").
    #[default]
    Cached,
    /// Linear scan per query (the "search per invocation" repository).
    Scan,
}

/// Kind filter of a lookup. All invariant kinds share one bucket — the
/// CCMgr decides *when* each fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LookupKind {
    /// Preconditions of the method.
    Precondition,
    /// Postconditions of the method.
    Postcondition,
    /// Invariants (hard, soft, async) affected by the method.
    Invariant,
}

impl LookupKind {
    /// Number of kinds — the width of a cache row.
    const COUNT: usize = 3;

    fn matches(self, kind: ConstraintKind) -> bool {
        match self {
            LookupKind::Precondition => kind == ConstraintKind::Precondition,
            LookupKind::Postcondition => kind == ConstraintKind::Postcondition,
            LookupKind::Invariant => kind.is_invariant(),
        }
    }
}

/// Lookup/search counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RepositoryStats {
    /// Lookup calls.
    pub lookups: u64,
    /// Lookups answered from the cache.
    pub cache_hits: u64,
    /// Constraints examined by linear scans.
    pub scanned: u64,
}

/// The result of a [`ConstraintRepository::lookup`]: the matching
/// constraints in registration order, shared with the repository's
/// cache rather than copied out of it.
pub type Matches = Arc<[Arc<RegisteredConstraint>]>;

/// The runtime registry of an application's integrity constraints.
///
/// Supports the full explicit-runtime-management surface of §2.1.4:
/// register, remove, enable and disable during runtime, plus queries by
/// affected method and by context class.
#[derive(Debug, Clone)]
pub struct ConstraintRepository {
    constraints: Vec<Arc<RegisteredConstraint>>,
    mode: LookupMode,
    /// Cached query results: one row per signature, one slot per
    /// [`LookupKind`], so a hit is probed with the caller's borrowed
    /// signature and answered by sharing the stored list. Hashed
    /// without a per-process seed (FNV-1a over the names' bytes): it is
    /// probed on every checked call, and a seeded SipHash costs more
    /// than the probe.
    cache: HashMap<MethodSignature, [Option<Matches>; LookupKind::COUNT], TxBuildHasher>,
    /// Class-sharded trigger index: a lookup for `Class::method` only
    /// scans the constraints with a trigger point on `Class`, instead
    /// of the whole registry. Rebuilt on every mutation.
    shards: HashMap<ClassName, Vec<usize>>,
    stats: RepositoryStats,
}

impl Default for ConstraintRepository {
    fn default() -> Self {
        Self::new(LookupMode::Cached)
    }
}

impl ConstraintRepository {
    /// Creates an empty repository with the given lookup mode.
    pub fn new(mode: LookupMode) -> Self {
        Self {
            constraints: Vec::new(),
            mode,
            cache: HashMap::default(),
            shards: HashMap::new(),
            stats: RepositoryStats::default(),
        }
    }

    /// Number of class shards in the trigger index (the batch engine
    /// reports this alongside its batch telemetry).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn rebuild_shards(&mut self) {
        self.shards.clear();
        for (i, c) in self.constraints.iter().enumerate() {
            for m in &c.affected_methods {
                let shard = self.shards.entry(m.signature.class.clone()).or_default();
                if shard.last() != Some(&i) {
                    shard.push(i);
                }
            }
        }
    }

    /// The lookup mode.
    pub fn mode(&self) -> LookupMode {
        self.mode
    }

    /// Accumulated counters.
    pub fn stats(&self) -> RepositoryStats {
        self.stats
    }

    /// Number of registered constraints (enabled or not).
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// Whether the repository is empty.
    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty()
    }

    /// Registers a constraint.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] if the name is already registered
    /// (names are unique per application, §4.2.2).
    pub fn register(&mut self, constraint: RegisteredConstraint) -> Result<()> {
        if self.get(constraint.name()).is_some() {
            return Err(Error::Config(format!(
                "constraint '{}' already registered",
                constraint.name()
            )));
        }
        self.constraints.push(Arc::new(constraint));
        self.cache.clear();
        self.rebuild_shards();
        Ok(())
    }

    /// Removes a constraint by name, returning it.
    pub fn remove(&mut self, name: &ConstraintName) -> Option<Arc<RegisteredConstraint>> {
        let idx = self.constraints.iter().position(|c| c.name() == name)?;
        self.cache.clear();
        let removed = self.constraints.remove(idx);
        self.rebuild_shards();
        Some(removed)
    }

    /// Enables or disables a constraint.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] if the name is unknown.
    pub fn set_enabled(&mut self, name: &ConstraintName, enabled: bool) -> Result<()> {
        let c = self
            .constraints
            .iter_mut()
            .find(|c| c.name() == name)
            .ok_or_else(|| Error::Config(format!("constraint '{name}' not registered")))?;
        Arc::make_mut(c).enabled = enabled;
        self.cache.clear();
        Ok(())
    }

    /// Looks up a constraint by name.
    pub fn get(&self, name: &ConstraintName) -> Option<&Arc<RegisteredConstraint>> {
        self.constraints.iter().find(|c| c.name() == name)
    }

    /// Enabled constraints of `kind` affected by `sig`.
    pub fn lookup(&mut self, sig: &MethodSignature, kind: LookupKind) -> Matches {
        self.stats.lookups += 1;
        if self.mode == LookupMode::Cached {
            if let Some(hit) = self
                .cache
                .get(sig)
                .and_then(|row| row[kind as usize].as_ref())
            {
                self.stats.cache_hits += 1;
                return Arc::clone(hit);
            }
        }
        let matches: Matches = self
            .scan_indices(sig, kind)
            .into_iter()
            .map(|i| Arc::clone(&self.constraints[i]))
            .collect();
        if self.mode == LookupMode::Cached {
            self.cache.entry(sig.clone()).or_default()[kind as usize] = Some(Arc::clone(&matches));
        }
        matches
    }

    /// All enabled constraints.
    pub fn enabled(&self) -> impl Iterator<Item = &Arc<RegisteredConstraint>> {
        self.constraints.iter().filter(|c| c.enabled)
    }

    fn scan_indices(&mut self, sig: &MethodSignature, kind: LookupKind) -> Vec<usize> {
        // Criteria matching mirrors the original implementation: the
        // search builds a criteria key and compares it against a
        // string representation of every candidate's trigger points
        // (the reflective `equals`-based filtering whose cost §2.3.2
        // quantifies — 1412–3390× on the per-invocation repository).
        // The optimized repository only pays this on a cache miss, and
        // the class-sharded trigger index bounds it to the candidates
        // with a trigger point on the signature's class.
        let needle = sig.to_string();
        let mut out = Vec::new();
        let Some(shard) = self.shards.get(&sig.class) else {
            return out;
        };
        for &i in shard {
            let c = &self.constraints[i];
            self.stats.scanned += 1;
            if c.enabled
                && kind.matches(c.meta.kind)
                && c.affected_methods
                    .iter()
                    .any(|m| m.signature.to_string() == needle)
            {
                out.push(i);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConstraintMeta, ContextPreparation, ValidationContext};
    use std::sync::Arc as StdArc;

    fn dummy(name: &str, kind: ConstraintKind, method: &str) -> RegisteredConstraint {
        RegisteredConstraint::new(
            ConstraintMeta::new(name).kind(kind),
            StdArc::new(|_: &mut ValidationContext<'_>| Ok(true)),
        )
        .context_class("Flight")
        .affects("Flight", method, ContextPreparation::CalledObject)
    }

    fn sig(method: &str) -> MethodSignature {
        MethodSignature::new("Flight", method)
    }

    #[test]
    fn register_rejects_duplicate_names() {
        let mut repo = ConstraintRepository::default();
        repo.register(dummy("C1", ConstraintKind::HardInvariant, "setSeats"))
            .unwrap();
        assert!(repo
            .register(dummy("C1", ConstraintKind::HardInvariant, "setSeats"))
            .is_err());
    }

    #[test]
    fn lookup_filters_by_kind_and_method() {
        let mut repo = ConstraintRepository::default();
        repo.register(dummy("Inv", ConstraintKind::HardInvariant, "setSeats"))
            .unwrap();
        repo.register(dummy("Pre", ConstraintKind::Precondition, "setSeats"))
            .unwrap();
        repo.register(dummy("Other", ConstraintKind::HardInvariant, "setName"))
            .unwrap();

        let invariants = repo.lookup(&sig("setSeats"), LookupKind::Invariant);
        assert_eq!(invariants.len(), 1);
        assert_eq!(invariants[0].name().as_str(), "Inv");
        let pres = repo.lookup(&sig("setSeats"), LookupKind::Precondition);
        assert_eq!(pres.len(), 1);
        assert!(repo
            .lookup(&sig("setSeats"), LookupKind::Postcondition)
            .is_empty());
    }

    #[test]
    fn soft_and_async_count_as_invariants() {
        let mut repo = ConstraintRepository::default();
        repo.register(dummy("S", ConstraintKind::SoftInvariant, "m"))
            .unwrap();
        repo.register(dummy("A", ConstraintKind::AsyncInvariant, "m"))
            .unwrap();
        assert_eq!(repo.lookup(&sig("m"), LookupKind::Invariant).len(), 2);
    }

    #[test]
    fn cached_mode_hits_cache_on_repeat() {
        let mut repo = ConstraintRepository::new(LookupMode::Cached);
        repo.register(dummy("C", ConstraintKind::HardInvariant, "m"))
            .unwrap();
        repo.lookup(&sig("m"), LookupKind::Invariant);
        repo.lookup(&sig("m"), LookupKind::Invariant);
        let stats = repo.stats();
        assert_eq!(stats.lookups, 2);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.scanned, 1, "only the initial miss scanned");
    }

    #[test]
    fn cache_hits_share_one_list_per_signature_and_kind() {
        let mut repo = ConstraintRepository::new(LookupMode::Cached);
        repo.register(dummy("Inv", ConstraintKind::HardInvariant, "m"))
            .unwrap();
        repo.register(dummy("Pre", ConstraintKind::Precondition, "m"))
            .unwrap();
        let first = repo.lookup(&sig("m"), LookupKind::Invariant);
        let again = repo.lookup(&sig("m"), LookupKind::Invariant);
        assert!(
            Arc::ptr_eq(&first, &again),
            "a hit hands back the cached list"
        );
        // The other kinds of the same signature are separate entries,
        // an empty result included.
        assert_eq!(repo.lookup(&sig("m"), LookupKind::Precondition).len(), 1);
        assert!(repo.lookup(&sig("m"), LookupKind::Postcondition).is_empty());
        assert!(repo.lookup(&sig("m"), LookupKind::Postcondition).is_empty());
        let stats = repo.stats();
        assert_eq!((stats.lookups, stats.cache_hits), (5, 2));
        // A registration drops every cached list.
        repo.register(dummy("Inv2", ConstraintKind::SoftInvariant, "m"))
            .unwrap();
        assert_eq!(repo.lookup(&sig("m"), LookupKind::Invariant).len(), 2);
        assert_eq!(first.len(), 1, "lists already handed out are unaffected");
        assert_eq!(repo.stats().cache_hits, 2);
    }

    #[test]
    fn scan_mode_rescans_every_time() {
        let mut repo = ConstraintRepository::new(LookupMode::Scan);
        repo.register(dummy("C", ConstraintKind::HardInvariant, "m"))
            .unwrap();
        repo.lookup(&sig("m"), LookupKind::Invariant);
        repo.lookup(&sig("m"), LookupKind::Invariant);
        let stats = repo.stats();
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.scanned, 2);
    }

    #[test]
    fn disable_hides_from_lookup_and_invalidates_cache() {
        let mut repo = ConstraintRepository::new(LookupMode::Cached);
        repo.register(dummy("C", ConstraintKind::HardInvariant, "m"))
            .unwrap();
        assert_eq!(repo.lookup(&sig("m"), LookupKind::Invariant).len(), 1);
        repo.set_enabled(&ConstraintName::from("C"), false).unwrap();
        assert!(repo.lookup(&sig("m"), LookupKind::Invariant).is_empty());
        repo.set_enabled(&ConstraintName::from("C"), true).unwrap();
        assert_eq!(repo.lookup(&sig("m"), LookupKind::Invariant).len(), 1);
    }

    #[test]
    fn remove_unregisters() {
        let mut repo = ConstraintRepository::default();
        repo.register(dummy("C", ConstraintKind::HardInvariant, "m"))
            .unwrap();
        assert!(repo.remove(&ConstraintName::from("C")).is_some());
        assert!(repo.is_empty());
        assert!(repo.remove(&ConstraintName::from("C")).is_none());
    }
}
