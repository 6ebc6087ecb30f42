//! The federated cluster: N shards, one virtual clock, one router.
//!
//! See the crate docs for the subsystem overview. Everything here is
//! synchronous and deterministic: shards are stepped by the caller,
//! all randomness lives in the caller's seed, and the federation's own
//! telemetry bus shares the one [`SimClock`] every shard runs on.

use crate::shard_map::{ShardId, ShardMap};
use dedisys_core::{Cluster, ClusterBuilder, RequestPlane, Session};
use dedisys_net::SimClock;
use dedisys_object::{AppDescriptor, EntityState};
use dedisys_telemetry::{Telemetry, TraceEvent};
use dedisys_types::{
    Error, NodeId, ObjectId, PriorityClass, Result, SimDuration, SimTime, SystemMode, TxId, Value,
};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// How the router treats a request whose target shard is not in
/// [`SystemMode::Healthy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum RoutingPolicy {
    /// Consistency-first: refuse the request at the router — before it
    /// reaches the shard's request plane — while the target shard is
    /// degraded or reconciling.
    RejectDegraded,
    /// Availability-first: route regardless of the target shard's
    /// mode; degraded shards serve with threatened consistency, as in
    /// the single-cluster trade.
    #[default]
    RouteAnyway,
}

/// Federation-level counters — the one place these are counted; the
/// federation bus's metrics registry holds only what has no field here
/// (`federation.xshard.in_doubt`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FederationStats {
    /// Routing decisions taken (admitted or not).
    pub routed: u64,
    /// Requests refused by the `RejectDegraded` policy at the router.
    pub rejected_degraded: u64,
    /// Objects migrated between shards by explicit rebalances.
    pub migrated: u64,
    /// Cross-shard transactions begun: those that staged a participant.
    /// One refused before its first write leaves no count anywhere —
    /// a routing refusal is counted in `rejected_degraded`, not as a
    /// 2PC abort.
    pub xshard_begun: u64,
    /// Cross-shard transactions that reached the prepared state on
    /// every participant.
    pub xshard_prepared: u64,
    /// Cross-shard transactions committed on every participant.
    pub xshard_committed: u64,
    /// Cross-shard transactions aborted (explicitly, by a failed
    /// prepare, or by presumed abort).
    pub xshard_aborted: u64,
    /// Aborts that came from federation-level presumed-abort recovery.
    pub xshard_presumed_aborted: u64,
}

/// Virtual nodes per shard on the consistent-hash ring.
const VNODES: u32 = 32;

/// Presumed-abort deadline of a cross-shard transaction whose
/// federation coordinator crashed — shorter than the default cost
/// model's shard-level `in_doubt_timeout` (250 ms), so waiting that out
/// resolves both.
pub const XSHARD_TIMEOUT: SimDuration = SimDuration::from_millis(50);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum XState {
    Staging,
    Prepared,
    /// Prepared everywhere, then the federation coordinator crashed:
    /// waiting for the presumed-abort deadline.
    InDoubt {
        deadline: SimTime,
    },
}

#[derive(Debug)]
struct OpenXTx {
    state: XState,
    /// The participant transactions in shard order. (Each shard numbers
    /// its own transactions, so a `TxId` identifies a participant only
    /// together with its shard.) A participant runs on the node it
    /// began on, `tx.node`.
    participants: Vec<(ShardId, TxId)>,
}

/// The error every operation on a shard without a live node returns.
fn every_node_crashed(shard: ShardId) -> Error {
    Error::Config(format!("{shard}: every node crashed"))
}

/// The error for an xtx that is unknown or not in `state`, built only
/// when it is returned.
fn not_in_state(xtx: u64, state: &str) -> Error {
    Error::Config(format!("xshard tx {xtx} is not {state}"))
}

/// A shard-assembly hook applied to every shard's builder.
type ConfigureHook = Box<dyn Fn(ClusterBuilder) -> ClusterBuilder>;

/// Builder for [`FederatedCluster`].
pub struct FederationBuilder {
    shards: u32,
    nodes_per_shard: u32,
    app: AppDescriptor,
    seed: u64,
    policy: RoutingPolicy,
    configure: Option<ConfigureHook>,
}

impl FederationBuilder {
    /// Seeds the ring hash (default: 0). Same seed ⇒ identical
    /// placement.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects the degraded-shard routing policy (default:
    /// [`RoutingPolicy::RouteAnyway`]).
    pub fn policy(mut self, policy: RoutingPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Applies `f` to every shard's [`ClusterBuilder`] before build:
    /// its configuration, methods, weights or reconciliation
    /// instructions. The federation's shared clock and per-shard
    /// membership seed are applied after `f`, so it cannot unshare
    /// them.
    pub fn configure(mut self, f: impl Fn(ClusterBuilder) -> ClusterBuilder + 'static) -> Self {
        self.configure = Some(Box::new(f));
        self
    }

    /// Builds the federation: every shard on one shared clock, one
    /// request plane per shard, and the federation telemetry bus on
    /// the same clock.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] for zero shards/nodes or an invalid
    /// shard config.
    pub fn build(self) -> Result<FederatedCluster> {
        let map = ShardMap::new(self.shards, VNODES, self.seed)?;
        let clock = SimClock::new();
        let telemetry = Telemetry::new(clock.clone());
        let mut shards = Vec::with_capacity(self.shards as usize);
        let mut planes = Vec::with_capacity(self.shards as usize);
        for shard in 0..self.shards {
            let mut builder = ClusterBuilder::new(self.nodes_per_shard, self.app.clone());
            if let Some(f) = &self.configure {
                builder = f(builder);
            }
            let builder = builder.clock(clock.clone()).configure(|c| {
                // Distinct per-shard membership seeds keep detector
                // draws independent while still derived from the one
                // federation seed.
                c.membership.seed = self.seed.wrapping_add(u64::from(shard));
            });
            shards.push(builder.build()?);
            planes.push(RequestPlane::new());
        }
        Ok(FederatedCluster {
            clock,
            telemetry,
            shards,
            planes,
            map,
            policy: self.policy,
            next_xtx: 0,
            open_x: BTreeMap::new(),
            spare_participants: Vec::new(),
            stats: FederationStats::default(),
        })
    }
}

/// N independent [`Cluster`] shards on one shared virtual clock, with
/// consistent-hash routing, explicit rebalancing, cross-shard 2PC and
/// mode-aware routing. See the crate docs.
pub struct FederatedCluster {
    clock: SimClock,
    telemetry: Telemetry,
    shards: Vec<Cluster>,
    planes: Vec<RequestPlane>,
    map: ShardMap,
    policy: RoutingPolicy,
    next_xtx: u64,
    open_x: BTreeMap<u64, OpenXTx>,
    /// The participant list of the last finished xtx, emptied: the
    /// next one stages into it instead of allocating its own.
    spare_participants: Vec<(ShardId, TxId)>,
    stats: FederationStats,
}

impl std::fmt::Debug for FederatedCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FederatedCluster")
            .field("shards", &self.shards.len())
            .field("open_xshard", &self.open_xshard_count())
            .field("stats", &self.stats)
            .finish()
    }
}

impl FederatedCluster {
    /// Starts a builder for `shards` shards of `nodes_per_shard` nodes
    /// each, every shard running `app`.
    pub fn builder(shards: u32, nodes_per_shard: u32, app: AppDescriptor) -> FederationBuilder {
        FederationBuilder {
            shards,
            nodes_per_shard,
            app,
            seed: 0,
            policy: RoutingPolicy::default(),
            configure: None,
        }
    }

    /// The shared virtual clock every shard runs on.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// The federation-level telemetry bus (routing, migration and
    /// cross-shard events; each shard keeps its own bus).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The current shard map.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// The degraded-shard routing policy.
    pub fn policy(&self) -> RoutingPolicy {
        self.policy
    }

    /// Number of shards.
    pub fn shard_count(&self) -> u32 {
        self.shards.len() as u32
    }

    /// Read access to one shard.
    pub fn shard(&self, shard: ShardId) -> &Cluster {
        &self.shards[shard.index()]
    }

    /// Write access to one shard (fault injection, direct operations).
    pub fn shard_mut(&mut self, shard: ShardId) -> &mut Cluster {
        &mut self.shards[shard.index()]
    }

    /// Read access to one shard's request plane.
    pub fn plane(&self, shard: ShardId) -> &RequestPlane {
        &self.planes[shard.index()]
    }

    /// Federation-level counters.
    pub fn stats(&self) -> &FederationStats {
        &self.stats
    }

    /// Cross-shard transactions still open (staging or prepared,
    /// including in-doubt ones) that have staged a participant.
    pub fn open_xshard_count(&self) -> usize {
        self.open_x
            .values()
            .filter(|x| !x.participants.is_empty())
            .count()
    }

    /// Whether `tx` on `shard` is a participant of a cross-shard
    /// transaction still open (staging, prepared or in doubt).
    pub fn is_open_participant(&self, shard: ShardId, tx: TxId) -> bool {
        self.open_x
            .values()
            .any(|x| x.participants.binary_search(&(shard, tx)).is_ok())
    }

    /// Cross-shard transactions waiting on the federation-level
    /// presumed-abort deadline.
    pub fn xshard_in_doubt_count(&self) -> usize {
        self.open_x
            .values()
            .filter(|x| matches!(x.state, XState::InDoubt { .. }))
            .count()
    }

    /// The node a shard-level operation executes on: the shard's first
    /// live node.
    pub fn coordinator_node(&self, shard: ShardId) -> Option<NodeId> {
        self.shards[shard.index()].live_nodes().next()
    }

    /// [`FederatedCluster::coordinator_node`], or the error every
    /// operation on a shard without a live node returns.
    fn live_coordinator(&self, shard: ShardId) -> Result<NodeId> {
        self.coordinator_node(shard)
            .ok_or_else(|| every_node_crashed(shard))
    }

    /// Routes `id` under the current map and policy, emitting a
    /// `shard_routed` event and counting it in [`FederationStats::routed`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::ModeRestriction`] when the policy is
    /// [`RoutingPolicy::RejectDegraded`] and the target shard is not
    /// healthy.
    pub fn route(&mut self, id: &ObjectId) -> Result<ShardId> {
        let shard = self.map.shard_of(id);
        let mode = self.shards[shard.index()].mode();
        let admitted =
            !(self.policy == RoutingPolicy::RejectDegraded && mode != SystemMode::Healthy);
        self.stats.routed += 1;
        self.telemetry.emit(|| TraceEvent::ShardRouted {
            object: id.text().into(),
            shard: shard.0,
            mode,
            admitted,
        });
        if !admitted {
            self.stats.rejected_degraded += 1;
            return Err(Error::ModeRestriction(format!(
                "routing refused: shard {shard} is {mode:?}"
            )));
        }
        Ok(shard)
    }

    /// Creates `id` (class defaults) on its owning shard, bypassing
    /// the degraded-mode policy — placement follows the map even while
    /// a shard is degraded. Returns the owning shard.
    ///
    /// # Errors
    ///
    /// Propagates shard-level create errors.
    pub fn create(&mut self, id: &ObjectId) -> Result<ShardId> {
        let shard = self.map.shard_of(id);
        let node = self.live_coordinator(shard)?;
        let cluster = &mut self.shards[shard.index()];
        let id = id.clone();
        cluster.run_tx(node, move |c, tx| {
            let entity = EntityState::for_class(c.app(), &id)?;
            c.create(node, tx, entity)
        })?;
        Ok(shard)
    }

    /// Runs `f` in a fresh single-shard transaction on `id`'s shard
    /// (routed, so the degraded-mode policy applies).
    ///
    /// # Errors
    ///
    /// Routing refusals ([`Error::ModeRestriction`]) and shard-level
    /// transaction errors.
    pub fn run_routed<T>(
        &mut self,
        id: &ObjectId,
        f: impl for<'a> FnOnce(Session<'a>) -> Result<T>,
    ) -> Result<T> {
        let shard = self.route(id)?;
        let node = self.live_coordinator(shard)?;
        f(self.shards[shard.index()].session(node))
    }

    /// Submits `work` for `id` through the target shard's request
    /// plane under `class` — the routed admission path. The routing
    /// policy is applied first: a request the router refuses never
    /// reaches the plane.
    ///
    /// # Errors
    ///
    /// Routing refusals plus every [`RequestPlane::submit`] error.
    pub fn submit(
        &mut self,
        id: &ObjectId,
        class: PriorityClass,
        work: impl for<'a> FnOnce(Session<'a>) -> Result<()> + 'static,
    ) -> Result<u64> {
        let shard = self.route(id)?;
        let node = self.live_coordinator(shard)?;
        self.planes[shard.index()].submit(&mut self.shards[shard.index()], node, class, work)
    }

    /// Takes one dispatch step across the federation: shards are
    /// stepped in shard order, one plane action each. Returns `false`
    /// once every plane is idle.
    pub fn step(&mut self) -> bool {
        let mut progressed = false;
        for i in 0..self.shards.len() {
            progressed |= self.planes[i].step(&mut self.shards[i]);
        }
        progressed
    }

    /// Drains every shard's plane. Returns the number of federation
    /// steps taken.
    pub fn run_until_idle(&mut self) -> u64 {
        let mut steps = 0;
        while self.step() {
            steps += 1;
        }
        steps
    }

    // ------------------------------------------------------------------
    // Cross-shard transactions
    // ------------------------------------------------------------------

    /// Opens a cross-shard transaction and returns its federation-wide
    /// id. Participants join lazily as objects are staged; the
    /// transaction counts as begun once the first one has.
    pub fn xshard_begin(&mut self) -> u64 {
        self.next_xtx += 1;
        let xtx = self.next_xtx;
        self.open_x.insert(
            xtx,
            OpenXTx {
                state: XState::Staging,
                participants: std::mem::take(&mut self.spare_participants),
            },
        );
        xtx
    }

    /// Stages one write (`id.field = value`) inside `xtx`, routing the
    /// object and lazily opening a participant transaction on its
    /// shard.
    ///
    /// # Errors
    ///
    /// Routing refusals, unknown/finished `xtx`
    /// ([`Error::NoSuchTransaction`] with the participant id 0), and
    /// shard-level invocation errors (the caller should
    /// [`FederatedCluster::xshard_abort`] on failure).
    pub fn xshard_set_field(
        &mut self,
        xtx: u64,
        id: &ObjectId,
        field: &str,
        value: Value,
    ) -> Result<ShardId> {
        let shard = self.route(id)?;
        let x = self
            .open_x
            .get_mut(&xtx)
            .filter(|x| x.state == XState::Staging)
            .ok_or_else(|| not_in_state(xtx, "staging"))?;
        let cluster = &mut self.shards[shard.index()];
        let tx = match x.participants.binary_search_by_key(&shard, |&(s, _)| s) {
            Ok(at) => x.participants[at].1,
            Err(at) => {
                let node = cluster
                    .live_nodes()
                    .next()
                    .ok_or_else(|| every_node_crashed(shard))?;
                let tx = cluster.session(node).detach();
                if x.participants.is_empty() {
                    self.stats.xshard_begun += 1;
                }
                x.participants.insert(at, (shard, tx));
                tx
            }
        };
        cluster.set_field(tx.node, tx, id, field, value)?;
        Ok(shard)
    }

    /// Phase 1 across shards: prepares every participant. On any
    /// refusal the already-prepared participants are rolled back and
    /// the transaction resolves aborted.
    ///
    /// # Errors
    ///
    /// The participant's prepare error, after the all-shards rollback.
    pub fn xshard_prepare(&mut self, xtx: u64) -> Result<()> {
        let x = self
            .open_x
            .get_mut(&xtx)
            .filter(|x| x.state == XState::Staging)
            .ok_or_else(|| not_in_state(xtx, "staging"))?;
        let refusal = x.participants.iter().find_map(|&(shard, tx)| {
            let refused = self.shards[shard.index()].prepare(tx).err();
            refused.map(|e| (shard, e))
        });
        if let Some((refusing, e)) = refusal {
            // One no vote aborts the whole transaction. The refusing
            // participant is already rolled back by `Cluster::prepare`;
            // unwind the rest.
            for &(other, other_tx) in &x.participants {
                if other != refusing {
                    let _ = self.shards[other.index()].rollback(other_tx);
                }
            }
            self.finish_xshard(xtx, false, false);
            return Err(e);
        }
        x.state = XState::Prepared;
        self.stats.xshard_prepared += 1;
        let participants = &x.participants;
        self.telemetry.emit(|| TraceEvent::XShardPrepared {
            xtx,
            shards: participants.iter().map(|(s, _)| s.0).collect(),
        });
        Ok(())
    }

    /// Phase 2 across shards: commits every participant. The decision
    /// point re-checks that every participant is still committable —
    /// if a shard-level coordinator crashed after phase 1 and dragged
    /// its participant into the shard's in-doubt registry, the
    /// federation aborts everywhere instead (the in-doubt participant
    /// resolves to the same abort by shard-level presumed abort).
    ///
    /// # Errors
    ///
    /// [`Error::TxInDoubt`] when the decision point had to abort;
    /// participant commit errors otherwise.
    pub fn xshard_commit(&mut self, xtx: u64) -> Result<()> {
        let x = self
            .open_x
            .get(&xtx)
            .filter(|x| x.state == XState::Prepared)
            .ok_or_else(|| not_in_state(xtx, "prepared"))?;
        if let Some(&(shard, tx)) = x
            .participants
            .iter()
            .find(|(s, tx)| self.shards[s.index()].in_doubt_txs().any(|(t, _)| t == *tx))
        {
            for &(other, other_tx) in &x.participants {
                if other != shard {
                    let _ = self.shards[other.index()].rollback(other_tx);
                }
            }
            self.finish_xshard(xtx, false, false);
            return Err(Error::TxInDoubt(tx));
        }
        let mut first_err = None;
        for &(shard, tx) in &x.participants {
            if let Err(e) = self.shards[shard.index()].commit(tx) {
                first_err.get_or_insert(e);
            }
        }
        self.finish_xshard(xtx, true, false);
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// Explicitly aborts `xtx`, rolling back every participant.
    ///
    /// # Errors
    ///
    /// Unknown or already-finished `xtx`.
    pub fn xshard_abort(&mut self, xtx: u64) -> Result<()> {
        let x = self
            .open_x
            .get(&xtx)
            .ok_or_else(|| not_in_state(xtx, "open"))?;
        for &(shard, tx) in &x.participants {
            let _ = self.shards[shard.index()].rollback(tx);
        }
        self.finish_xshard(xtx, false, false);
        Ok(())
    }

    /// Simulates the federation coordinator crashing after phase 1:
    /// `xtx` must be prepared everywhere; its participants stay
    /// prepared (locks held) until
    /// [`FederatedCluster::resolve_xshard_in_doubt`] passes the
    /// presumed-abort deadline.
    ///
    /// # Errors
    ///
    /// `xtx` is not in the prepared state.
    pub fn crash_coordinator(&mut self, xtx: u64) -> Result<()> {
        let deadline = self.clock.now() + XSHARD_TIMEOUT;
        let x = self
            .open_x
            .get_mut(&xtx)
            .filter(|x| x.state == XState::Prepared)
            .ok_or_else(|| not_in_state(xtx, "prepared"))?;
        x.state = XState::InDoubt { deadline };
        self.telemetry.metrics().incr("federation.xshard.in_doubt");
        Ok(())
    }

    /// Runs the federation-level in-doubt recovery: every coordinator-
    /// crashed cross-shard transaction whose deadline has passed rolls
    /// back on all participants (presumed abort, mirroring the
    /// shard-level protocol). Returns the number resolved.
    pub fn resolve_xshard_in_doubt(&mut self) -> usize {
        let now = self.clock.now();
        let due: Vec<u64> = self
            .open_x
            .iter()
            .filter(|(_, x)| matches!(x.state, XState::InDoubt { deadline } if deadline <= now))
            .map(|(xtx, _)| *xtx)
            .collect();
        let resolved = due.len();
        for xtx in due {
            // A participant may itself be shard-level in-doubt (its
            // node coordinator crashed too); that path presumes abort
            // on its own, to the same outcome.
            if let Some(x) = self.open_x.get(&xtx) {
                for &(shard, tx) in &x.participants {
                    let _ = self.shards[shard.index()].rollback(tx);
                }
            }
            self.finish_xshard(xtx, false, true);
        }
        resolved
    }

    /// Counts `xtx`'s outcome, reports it on the bus and forgets it.
    /// Under presumed abort no participant asks the coordinator for an
    /// outcome afterwards, so none is kept; the staging list goes back
    /// whole, emptied, for the next transaction to stage into. A
    /// transaction that staged nothing was never begun: it leaves no
    /// count and no event.
    fn finish_xshard(&mut self, xtx: u64, committed: bool, presumed_abort: bool) {
        let Some(OpenXTx {
            participants: mut staged,
            ..
        }) = self.open_x.remove(&xtx)
        else {
            return;
        };
        let begun = !staged.is_empty();
        staged.clear();
        self.spare_participants = staged;
        if !begun {
            return;
        }
        if committed {
            self.stats.xshard_committed += 1;
        } else {
            self.stats.xshard_aborted += 1;
            if presumed_abort {
                self.stats.xshard_presumed_aborted += 1;
            }
        }
        self.telemetry.emit(move || TraceEvent::XShardResolved {
            xtx,
            committed,
            presumed_abort,
        });
    }

    // ------------------------------------------------------------------
    // Rebalancing
    // ------------------------------------------------------------------

    /// Moves the federation onto a ring over `shards` shards (same
    /// seed and virtual-node count), whole or not at all, and returns
    /// the number of objects moved. The plan is made here, from the
    /// committed population: per step the object's committed state is
    /// evicted from its source shard and installed on its target over
    /// the journalled WAL path, emitting `shard_migrated`. The new map
    /// is installed last.
    ///
    /// A rebalance runs only at a quiescent point: every shard healthy
    /// (one partition and no crashed node, so any live node holds the
    /// whole population), no source shard with degraded residue or a
    /// standing threat to leave behind, and no moving object locked.
    ///
    /// # Errors
    ///
    /// * [`Error::ModeRestriction`] naming each blocker when the
    ///   federation is not quiescent; nothing has changed.
    /// * [`Error::Config`] for zero shards or more than the federation
    ///   hosts.
    pub fn rebalance(&mut self, shards: u32) -> Result<u64> {
        if shards > self.shard_count() {
            return Err(Error::Config(format!(
                "rebalance to {shards} shards, federation has {}",
                self.shard_count()
            )));
        }
        let target = self.map.with_shards(shards)?;
        let mut blockers = Vec::new();
        let mut population = BTreeSet::new();
        for (i, cluster) in self.shards.iter().enumerate() {
            let shard = ShardId(i as u32);
            let mode = cluster.mode();
            if mode != SystemMode::Healthy {
                blockers.push(format!("{shard} is {mode:?}"));
            } else if let Some(node) = self.coordinator_node(shard) {
                // An object the map does not place here (put there
                // through `shard_mut`) is not the router's to move.
                let owned = cluster.committed_ids_on(node).into_iter();
                population.extend(owned.filter(|id| self.map.shard_of(id) == shard));
            }
        }
        let steps = self.map.plan_rebalance(&target, &population);
        for (i, cluster) in self.shards.iter().enumerate() {
            let shard = ShardId(i as u32);
            if cluster.needs_reconciliation() && steps.iter().any(|s| s.from == shard) {
                blockers.push(format!("{shard} awaits reconciliation"));
            }
            for (id, tx) in cluster.held_locks() {
                if steps.binary_search_by(|s| s.object.cmp(&id)).is_ok() {
                    blockers.push(format!("{id} is locked by {tx} on {shard}"));
                }
            }
        }
        if !blockers.is_empty() {
            return Err(Error::ModeRestriction(format!(
                "rebalance refused: {}",
                blockers.join("; ")
            )));
        }
        let moved = steps.len() as u64;
        for step in steps {
            let snapshot = self.shards[step.from.index()]
                .evict_object(&step.object)
                .expect("the plan read the object on a live node of its quiescent source");
            let replicas = self.shards[step.to.index()]
                .install_object(snapshot)
                .expect("a healthy shard has a live node");
            self.stats.migrated += 1;
            let object = step.object.text().into();
            let (from, to) = (step.from.0, step.to.0);
            self.telemetry.emit(move || TraceEvent::ShardMigrated {
                object,
                from,
                to,
                replicas,
            });
        }
        self.map = target;
        Ok(moved)
    }
}
