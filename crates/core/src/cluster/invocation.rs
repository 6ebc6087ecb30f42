//! Invocation: the client-facing call, its way through the
//! interceptor chain, target routing, dispatch and the CCMgr's
//! before/after trigger points (Figure 4.5).

use super::{Cluster, HookInfo};
use crate::ccm::{PendingCheck, ReplicaAccess, ValidationCandidate};
use dedisys_constraints::{
    ConstraintKind, ContextPreparation, LookupKind, PreState, ValidationContext,
};
use dedisys_object::{Invocation, MethodKind};
use dedisys_telemetry::{CostBreakdown, InvocationOutcome, TraceEvent, TriggerKind};
use dedisys_types::{Error, MethodName, MethodSignature, NodeId, ObjectId, Result, TxId, Value};
use std::sync::Arc;

impl Cluster {
    /// Invokes `method` on `target` within `tx` — the central
    /// client-facing operation, passing through interception,
    /// constraint consistency management and replication. The call
    /// shares the name its class declares; only a method the class does
    /// not declare gets a name of its own.
    ///
    /// # Errors
    ///
    /// * Availability errors (unreachable object, blocked writes)
    ///   depending on the protocol and topology.
    /// * [`Error::ConstraintViolated`] / [`Error::ThreatRejected`] —
    ///   the transaction is marked rollback-only.
    pub fn invoke(
        &mut self,
        node: NodeId,
        tx: TxId,
        target: &ObjectId,
        method: impl AsRef<str>,
        mut args: Vec<Value>,
    ) -> Result<Value> {
        let method = method.as_ref();
        let declared = self.app.class(target.class()).and_then(|class| {
            class
                .methods()
                .iter()
                .find(|declared| declared.name().as_str() == method)
        });
        let method = declared.map_or_else(|| MethodName::from(method), |m| m.name().clone());
        self.invoke_named(node, tx, target, method, &mut args)
    }

    /// [`Cluster::invoke`] with the name already resolved. The call
    /// takes `args` and gives them back when it returns, as the
    /// interceptors left them.
    pub(super) fn invoke_named(
        &mut self,
        node: NodeId,
        tx: TxId,
        target: &ObjectId,
        method: MethodName,
        args: &mut Vec<Value>,
    ) -> Result<Value> {
        self.metrics.invocations += 1;
        self.inv_cost = CostBreakdown::default();
        // The one place the call is reified: everything below borrows
        // this invocation.
        let mut inv = Invocation::new(tx, target.clone(), method, std::mem::take(args));
        self.telemetry.emit(|| TraceEvent::InvocationStart {
            node,
            tx,
            target: target.text().into(),
            method: inv.method.text().into(),
        });
        // Pass the reified invocation through the deployed interceptor
        // chain (Figure 4.5) around the middleware pipeline. The chain
        // is configurable at runtime — the `standardjboss.xml`
        // extension point the original prototype hooked into.
        let mut chain = std::mem::take(&mut self.hooks);
        let mut info = HookInfo {
            node,
            mode: self.mode,
            at: self.clock.now(),
        };
        // Interceptors may rewrite the invocation; the end event names
        // the method the client called.
        let called = (!chain.is_empty()).then(|| inv.method.clone());
        let result = chain.invoke(&mut info, &mut inv, |_, inv| self.invoke_inner(node, inv));
        self.hooks = chain;
        let outcome = if result.is_err() {
            self.metrics.failed_invocations += 1;
            InvocationOutcome::Failed
        } else {
            InvocationOutcome::Ok
        };
        let cost = self.inv_cost;
        self.telemetry.emit(|| TraceEvent::InvocationEnd {
            node,
            tx,
            target: target.text().into(),
            method: called.as_ref().unwrap_or(&inv.method).text().into(),
            outcome,
            cost,
        });
        *args = inv.args;
        result
    }

    /// Appends an application/operator interceptor to the invocation
    /// chain (runs around every [`Cluster::invoke`] — auditing,
    /// security vetoes, custom payload attachment, …).
    pub fn add_interceptor(
        &mut self,
        interceptor: Box<dyn dedisys_object::Interceptor<HookInfo> + Send>,
    ) {
        self.hooks.push(interceptor);
    }

    fn invoke_inner(&mut self, node: NodeId, inv: &Invocation) -> Result<Value> {
        let tx = inv.tx;
        let target = &inv.target;
        self.check_open(node, tx)?;
        // Deployment check + method kind.
        let class = self
            .app
            .class(target.class())
            .ok_or_else(|| Error::ClassNotDeployed(target.class().to_string()))?;
        let kind = class
            .method(&inv.method)
            .map(dedisys_object::MethodDescriptor::kind)
            .unwrap_or(MethodKind::Write); // safe side (§5.1)

        // Base invocation + interceptor costs (R2 — interception).
        let t_r2 = self.clock.now();
        self.charge_interception();
        self.inv_cost.r2_interception_ns += self.clock.now().since(t_r2).as_nanos();

        // Choose the executing node (R3 — target routing + locks).
        let t_r3 = self.clock.now();
        let exec = match kind {
            MethodKind::Write => {
                if self.replication_enabled {
                    self.replication
                        .write_target(target, node, &self.topology)?
                } else {
                    node
                }
            }
            MethodKind::Read => self.read_target(node, tx, target)?,
        };
        self.charge_remote_hop(node, exec);
        if kind == MethodKind::Write {
            self.locks.acquire(tx, target)?;
        }
        self.txs.info_mut(tx)?.involve(exec);
        self.inv_cost.r3_preparation_ns += self.clock.now().since(t_r3).as_nanos();

        // The one signature every trigger point of this call looks up,
        // and the cluster's `@pre` slots, put back whatever the outcome.
        let sig = inv.signature();
        let mut pre_states = std::mem::take(&mut self.pre_states);
        let result = self.checked_dispatch(exec, kind, inv, &sig, &mut pre_states);
        self.pre_states = pre_states;
        result
    }

    /// The call on `exec` between its CCM trigger points: preconditions
    /// and `@pre` snapshots (into `pre_states`), dispatch, then
    /// postconditions and invariants.
    fn checked_dispatch(
        &mut self,
        exec: NodeId,
        kind: MethodKind,
        inv: &Invocation,
        sig: &MethodSignature,
        pre_states: &mut Vec<PreState>,
    ) -> Result<Value> {
        let tx = inv.tx;

        // --- CCM before-invocation: preconditions + @pre snapshots ---
        if self.ccm_enabled {
            self.ccm_phase(tx, |cluster| {
                cluster.check_before(exec, inv, sig, pre_states)
            })?;
        }

        // --- Dispatch (R1 — application/database work) ---
        let t_r1 = self.clock.now();
        let result =
            self.methods
                .dispatch(&mut self.containers[exec.index()], inv, self.clock.now());
        if kind == MethodKind::Read {
            self.clock.advance(self.costs.db_read);
        }
        self.inv_cost.r1_application_ns += self.clock.now().since(t_r1).as_nanos();
        let value = match result {
            Ok(v) => v,
            Err(e) => {
                let _ = self.txs.set_rollback_only(tx);
                return Err(e);
            }
        };

        // --- CCM after-invocation: postconditions + invariants ---
        if self.ccm_enabled {
            self.ccm_phase(tx, |cluster| {
                cluster.check_after(exec, inv, sig, &value, pre_states)
            })?;
        }
        Ok(value)
    }

    /// Entry check of every operation issued on `node` within `tx`:
    /// the transaction is active and the node is up.
    pub(super) fn check_open(&self, node: NodeId, tx: TxId) -> Result<()> {
        if !self.txs.is_active(tx) {
            return Err(Error::NoSuchTransaction(tx));
        }
        if self.crashed.contains(&node) {
            return Err(Error::NodeCrashed(node));
        }
        Ok(())
    }

    /// Charges the call's way through the deployed interceptors: the
    /// base invocation plus one interceptor per enabled service.
    pub(super) fn charge_interception(&self) {
        self.clock.advance(self.costs.base_invocation);
        if self.replication_enabled {
            self.clock.advance(self.costs.replication_interceptor);
        }
        if self.ccm_enabled {
            self.clock.advance(self.costs.ccm_interceptor);
        }
    }

    /// Charges the round trip to `exec` when the call executes on
    /// another node than the one it was issued on.
    pub(super) fn charge_remote_hop(&self, node: NodeId, exec: NodeId) {
        if exec != node {
            self.clock.advance(self.costs.net_hop * 2);
        }
    }

    /// Runs one CCM phase of an invocation: its virtual time goes to
    /// the R5 slice of the invocation in flight, and a failure marks
    /// the transaction rollback-only (§4.2.3).
    fn ccm_phase<T>(&mut self, tx: TxId, phase: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        let t_r5 = self.clock.now();
        let result = phase(self);
        self.inv_cost.r5_checks_ns += self.clock.now().since(t_r5).as_nanos();
        if result.is_err() {
            let _ = self.txs.set_rollback_only(tx);
        }
        result
    }

    /// Before the call runs: validates the preconditions of `sig` and
    /// lets its postconditions snapshot their `@pre` state, one slot of
    /// `pre_states` each, in lookup order (a slot is emptied and filled
    /// in place, and the hook gathers into the cluster's buffer).
    fn check_before(
        &mut self,
        exec: NodeId,
        inv: &Invocation,
        sig: &MethodSignature,
        pre_states: &mut Vec<PreState>,
    ) -> Result<()> {
        let tx = inv.tx;
        let pres = self.repository.lookup(sig, LookupKind::Precondition);
        self.telemetry.emit(|| TraceEvent::TriggerPoint {
            trigger: TriggerKind::Precondition,
            signature: sig.to_text(),
            matches: pres.len() as u32,
        });
        for constraint in pres.iter() {
            let candidate = ValidationCandidate {
                constraint,
                context_object: Some(&inv.target),
                call: Some(inv),
                result: None,
                pre_state: None,
            };
            self.validate_and_process(&candidate, exec, tx)?;
        }
        let posts = self.repository.lookup(sig, LookupKind::Postcondition);
        if pre_states.len() < posts.len() {
            pre_states.resize_with(posts.len(), Vec::new);
        }
        let mut gathered = std::mem::take(&mut self.gathered);
        for (constraint, slot) in posts.iter().zip(pre_states.iter_mut()) {
            let mut access = ReplicaAccess::new(
                &self.containers,
                &self.replication,
                &self.topology,
                exec,
                Some(tx),
            );
            let mut ctx = ValidationContext::borrowing(None, Some(inv), None, None, &mut access);
            ctx.gather_into(gathered);
            slot.clear();
            ctx.set_pre_state(std::mem::take(slot));
            constraint.implementation.before_method_invocation(&mut ctx);
            *slot = ctx.take_pre_state();
            gathered = ctx.take_accessed_objects();
        }
        self.gathered = gathered;
        Ok(())
    }

    /// After the call returned `value`: validates the postconditions
    /// of `sig` against their `pre_states` (as [`Cluster::check_before`]
    /// returned them), then its hard invariants; soft and async
    /// invariants are registered for commit-time validation.
    fn check_after(
        &mut self,
        exec: NodeId,
        inv: &Invocation,
        sig: &MethodSignature,
        value: &Value,
        pre_states: &[PreState],
    ) -> Result<()> {
        let tx = inv.tx;
        let target = &inv.target;
        let posts = self.repository.lookup(sig, LookupKind::Postcondition);
        self.telemetry.emit(|| TraceEvent::TriggerPoint {
            trigger: TriggerKind::Postcondition,
            signature: sig.to_text(),
            matches: posts.len() as u32,
        });
        for (constraint, pre_state) in posts.iter().zip(pre_states) {
            let candidate = ValidationCandidate {
                constraint,
                context_object: Some(target),
                call: Some(inv),
                result: Some(value),
                pre_state: Some(pre_state),
            };
            self.validate_and_process(&candidate, exec, tx)?;
        }
        let invariants = self.repository.lookup(sig, LookupKind::Invariant);
        self.telemetry.emit(|| TraceEvent::TriggerPoint {
            trigger: TriggerKind::Invariant,
            signature: sig.to_text(),
            matches: invariants.len() as u32,
        });
        // Resolve every context object first (§4.2.2: a failing
        // context preparation refuses the call before any invariant is
        // validated), then validate the hard invariants; soft/async
        // invariants are only registered for commit-time validation.
        // The resolved objects go to the cluster's reused buffer (an
        // error drops it; the next call starts a new one).
        let mut resolved = std::mem::take(&mut self.contexts);
        for constraint in invariants.iter() {
            let preparation = constraint
                .preparation_for(sig)
                .unwrap_or(&ContextPreparation::CalledObject);
            let mut access = ReplicaAccess::new(
                &self.containers,
                &self.replication,
                &self.topology,
                exec,
                Some(tx),
            );
            resolved.push(match preparation.resolve(target, &mut access) {
                Ok(context_object) => context_object,
                // Context preparation itself hit an unreachable
                // object: treat the constraint as uncheckable via a
                // no-context check.
                Err(Error::ObjectUnreachable(_)) => None,
                Err(e) => return Err(e),
            });
        }
        for (constraint, context_object) in invariants.iter().zip(resolved.drain(..)) {
            match constraint.meta.kind {
                ConstraintKind::HardInvariant => {
                    let candidate =
                        ValidationCandidate::invariant(constraint, context_object.as_ref());
                    self.validate_and_process(&candidate, exec, tx)?;
                }
                ConstraintKind::SoftInvariant | ConstraintKind::AsyncInvariant => {
                    self.txs.info_mut(tx)?.pending.push(PendingCheck {
                        constraint: Arc::clone(constraint),
                        context_object,
                    });
                }
                _ => {}
            }
        }
        self.contexts = resolved;
        Ok(())
    }

    fn read_target(&self, node: NodeId, tx: TxId, target: &ObjectId) -> Result<NodeId> {
        if self.containers[node.index()].exists(tx, target) {
            return Ok(node);
        }
        let partition = self.topology.partition_of(node);
        partition
            .iter()
            .find(|n| {
                self.containers[n.index()]
                    .committed_entity(target)
                    .is_some()
            })
            .copied()
            .ok_or_else(|| Error::ObjectUnreachable(target.clone()))
    }
}
