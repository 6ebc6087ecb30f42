//! The constraint trait and its runtime metadata (Figure 4.3).

use crate::{ContextPreparation, FreshnessCriterion, ValidationContext};
use dedisys_types::{ClassName, ConstraintName, MethodSignature, Result, SatisfactionDegree};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// How declarative constraints are executed (Chapter 2 attributes the
/// Dresden-OCL ~405× overhead to *interpretive* validation).
///
/// The engine is verdict-transparent: for any workload the verdicts,
/// threats and statistics are identical under both settings — only the
/// per-check virtual-time cost (and wall clock) changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConstraintEngine {
    /// Walk the expression AST on every validation (the tool-generated
    /// Dresden-OCL analogue of Chapter 2).
    #[default]
    Interpreted,
    /// Run the flat program each [`crate::expr::ExprConstraint`] lowers
    /// once, on a stack VM.
    Compiled,
}

/// Environment keys whose values change with the topology (partition
/// weight, health). A verdict that read them cannot be memoized by
/// object versions alone, so the CCM verdict cache bypasses any
/// constraint whose [`ReadSet`] touches them.
pub(crate) const VOLATILE_ENV_KEYS: &[&str] = &[
    "partitionWeight",
    "partitionWeightUnits",
    "totalWeightUnits",
    "healthy",
];

/// The static read-set of a compiled constraint program: everything a
/// validation's outcome can depend on besides the context object's own
/// attribute values. Computed once at compile time; the CCM verdict
/// cache uses it to decide whether a verdict is memoizable by
/// `(constraint, context object, version)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReadSet {
    /// `self` attributes read (`self.seats`, …).
    pub self_fields: BTreeSet<String>,
    /// Environment keys read via `env("…")`.
    pub env_keys: BTreeSet<String>,
    /// Whether the program navigates beyond the context object
    /// (`self.a.b`, `count("Class")`) — its outcome then depends on
    /// objects the version key does not cover.
    pub cross_object: bool,
    /// Whether the program reads per-call inputs (`arg(i)`, `result()`,
    /// `pre("…")`).
    pub call_dependent: bool,
}

impl ReadSet {
    /// Whether a verdict of this program may be memoized by
    /// `(constraint, context object, context-object version)`: no
    /// cross-object navigation, no per-call inputs, no volatile
    /// environment values.
    pub fn cacheable(&self) -> bool {
        !self.cross_object
            && !self.call_dependent
            && self
                .env_keys
                .iter()
                .all(|k| !VOLATILE_ENV_KEYS.contains(&k.as_str()))
    }
}

/// Summary of one lowered constraint program, reported by
/// [`Constraint::compiled`] for telemetry (`constraint_compiled`
/// events).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompiledInfo {
    /// Number of VM ops in the lowered program.
    pub ops: u32,
    /// Distinct `self` fields + env keys in the static read-set.
    pub reads: u32,
    /// Whether verdicts are memoizable ([`ReadSet::cacheable`]).
    pub cacheable: bool,
}

/// When a constraint is validated (§1.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConstraintKind {
    /// Checked before the affected method executes.
    Precondition,
    /// Checked after the affected method executed.
    Postcondition,
    /// Invariant checked at the end of each affected operation within a
    /// transaction ("hard", \[JQ92\]).
    HardInvariant,
    /// Invariant checked at the end of the transaction ("soft").
    SoftInvariant,
    /// §5.5.3 improvement: behaves like a soft invariant in healthy
    /// mode; in degraded mode it is **not validated at all** — a threat
    /// is recorded directly for re-evaluation during reconciliation.
    AsyncInvariant,
}

impl ConstraintKind {
    /// Whether this kind is an invariant (checkable at any time,
    /// re-evaluated during reconciliation — §3).
    pub fn is_invariant(self) -> bool {
        matches!(
            self,
            ConstraintKind::HardInvariant
                | ConstraintKind::SoftInvariant
                | ConstraintKind::AsyncInvariant
        )
    }

    /// Parses the configuration spelling (`"PRE"`, `"POST"`, `"HARD"`,
    /// `"SOFT"`, `"ASYNC"`).
    pub fn parse_config(s: &str) -> Option<Self> {
        match s.to_ascii_uppercase().as_str() {
            "PRE" | "PRECONDITION" => Some(ConstraintKind::Precondition),
            "POST" | "POSTCONDITION" => Some(ConstraintKind::Postcondition),
            "HARD" => Some(ConstraintKind::HardInvariant),
            "SOFT" => Some(ConstraintKind::SoftInvariant),
            "ASYNC" => Some(ConstraintKind::AsyncInvariant),
            _ => None,
        }
    }
}

impl fmt::Display for ConstraintKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ConstraintKind::Precondition => "precondition",
            ConstraintKind::Postcondition => "postcondition",
            ConstraintKind::HardInvariant => "hard invariant",
            ConstraintKind::SoftInvariant => "soft invariant",
            ConstraintKind::AsyncInvariant => "async invariant",
        };
        f.write_str(s)
    }
}

/// Whether a constraint may be traded during degraded mode (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ConstraintPriority {
    /// Critical for correct operation; must never be violated.
    /// Consistency threats are rejected automatically.
    #[default]
    NonTradeable,
    /// May temporarily be relaxed in degraded mode to increase
    /// availability (the configuration spelling is `RELAXABLE`).
    Tradeable,
}

impl ConstraintPriority {
    /// Parses the configuration spelling.
    pub fn parse_config(s: &str) -> Option<Self> {
        match s.to_ascii_uppercase().as_str() {
            "RELAXABLE" | "TRADEABLE" => Some(ConstraintPriority::Tradeable),
            "CRITICAL" | "NON_TRADEABLE" | "NONTRADEABLE" => Some(ConstraintPriority::NonTradeable),
            _ => None,
        }
    }
}

/// Intra- vs inter-object scope (§3.1, Figure 3.2).
///
/// Intra-object constraints touch only attributes of a single object;
/// under copy-selection replica reconciliation they cannot be violated
/// retrospectively, so an LCC may report `Satisfied` instead of
/// `PossiblySatisfied`, reducing the threat volume.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ObjectScope {
    /// Needs access to more than one object.
    #[default]
    InterObject,
    /// Evaluable on a single object's attributes.
    IntraObject,
}

/// The validation contract between middleware and application.
///
/// One implementing type represents exactly one integrity constraint
/// (§1.5). `validate` returns `Ok(true)` when satisfied, `Ok(false)`
/// when violated, or an error when checking is impossible (unreachable
/// objects) — the middleware maps that to `Uncheckable`.
pub trait Constraint: Send + Sync {
    /// Validates the constraint against the objects reachable through
    /// `ctx`.
    ///
    /// # Errors
    ///
    /// [`dedisys_types::Error::ObjectUnreachable`] (usually propagated
    /// from field access) makes the constraint uncheckable.
    fn validate(&self, ctx: &mut ValidationContext<'_>) -> Result<bool>;

    /// Called before the affected method runs, allowing postconditions
    /// to snapshot `@pre` state into the context (§4.2.1).
    fn before_method_invocation(&self, ctx: &mut ValidationContext<'_>) {
        let _ = ctx;
    }

    /// Validates under the given execution engine. Declarative
    /// constraints ([`crate::expr::ExprConstraint`]) dispatch to their
    /// compiled program for [`ConstraintEngine::Compiled`]; imperative
    /// constraints have nothing to compile and always interpret.
    ///
    /// # Errors
    ///
    /// As for [`Constraint::validate`].
    fn validate_with(
        &self,
        engine: ConstraintEngine,
        ctx: &mut ValidationContext<'_>,
    ) -> Result<bool> {
        let _ = engine;
        self.validate(ctx)
    }

    /// The static read-set of this constraint, when one can be derived
    /// (declarative constraints only). `None` means the middleware must
    /// assume the validation may read anything — no verdict caching.
    fn read_set(&self) -> Option<&ReadSet> {
        None
    }

    /// Forces compilation (when supported) and reports the program
    /// summary; `None` for imperative constraints.
    fn compiled(&self) -> Option<CompiledInfo> {
        None
    }
}

impl<F> Constraint for F
where
    F: Fn(&mut ValidationContext<'_>) -> Result<bool> + Send + Sync,
{
    fn validate(&self, ctx: &mut ValidationContext<'_>) -> Result<bool> {
        self(ctx)
    }
}

/// Runtime metadata of a constraint (the attribute block of Figure
/// 4.3).
#[derive(Debug, Clone)]
pub struct ConstraintMeta {
    /// Unique name within the application.
    pub name: ConstraintName,
    /// Validation kind.
    pub kind: ConstraintKind,
    /// Tradeable or not.
    pub priority: ConstraintPriority,
    /// Degraded-mode acceptance floor for *declarative* negotiation:
    /// threats at or above this degree are acceptable.
    pub min_satisfaction_degree: SatisfactionDegree,
    /// Human description.
    pub description: String,
    /// Whether validation starts from a context object (`true`) or from
    /// a query (`false`, §3.2.2 case 2).
    pub needs_context_object: bool,
    /// Intra- vs inter-object scope.
    pub scope: ObjectScope,
    /// Freshness criteria, one per affected class at most.
    pub freshness: Vec<FreshnessCriterion>,
}

impl ConstraintMeta {
    /// Creates metadata with the common defaults: hard invariant,
    /// non-tradeable, context object required, inter-object scope.
    pub fn new(name: impl Into<ConstraintName>) -> Self {
        Self {
            name: name.into(),
            kind: ConstraintKind::HardInvariant,
            priority: ConstraintPriority::NonTradeable,
            min_satisfaction_degree: SatisfactionDegree::Satisfied,
            description: String::new(),
            needs_context_object: true,
            scope: ObjectScope::InterObject,
            freshness: Vec::new(),
        }
    }

    /// Sets the kind.
    pub fn kind(mut self, kind: ConstraintKind) -> Self {
        self.kind = kind;
        self
    }

    /// Marks the constraint tradeable with the given acceptance floor.
    pub fn tradeable(mut self, min_degree: SatisfactionDegree) -> Self {
        self.priority = ConstraintPriority::Tradeable;
        self.min_satisfaction_degree = min_degree;
        self
    }

    /// Sets the description.
    pub fn describe(mut self, text: impl Into<String>) -> Self {
        self.description = text.into();
        self
    }

    /// Marks the constraint intra-object.
    pub fn intra_object(mut self) -> Self {
        self.scope = ObjectScope::IntraObject;
        self
    }

    /// Declares validation to start from a query instead of a context
    /// object.
    pub fn query_based(mut self) -> Self {
        self.needs_context_object = false;
        self
    }

    /// Adds a freshness criterion.
    pub fn with_freshness(mut self, criterion: FreshnessCriterion) -> Self {
        self.freshness.push(criterion);
        self
    }
}

/// An affected method of a constraint: the trigger point plus how to
/// derive the context object from the invocation (§4.2.2).
#[derive(Debug, Clone)]
pub struct AffectedMethod {
    /// The triggering method.
    pub signature: MethodSignature,
    /// How to obtain the context object.
    pub preparation: ContextPreparation,
}

/// A constraint registered with the repository: metadata, affected
/// methods, context class and the implementation.
#[derive(Clone)]
pub struct RegisteredConstraint {
    /// The metadata.
    pub meta: ConstraintMeta,
    /// Context class for invariants (e.g. `RepairReport`).
    pub context_class: Option<ClassName>,
    /// Trigger points.
    pub affected_methods: Vec<AffectedMethod>,
    /// The validation implementation.
    pub implementation: Arc<dyn Constraint>,
    /// Runtime-toggleable enablement.
    pub enabled: bool,
}

impl fmt::Debug for RegisteredConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RegisteredConstraint")
            .field("name", &self.meta.name)
            .field("kind", &self.meta.kind)
            .field("priority", &self.meta.priority)
            .field("context_class", &self.context_class)
            .field("affected_methods", &self.affected_methods.len())
            .field("enabled", &self.enabled)
            .finish()
    }
}

impl RegisteredConstraint {
    /// Creates a registered constraint.
    pub fn new(meta: ConstraintMeta, implementation: Arc<dyn Constraint>) -> Self {
        Self {
            meta,
            context_class: None,
            affected_methods: Vec::new(),
            implementation,
            enabled: true,
        }
    }

    /// Sets the context class.
    pub fn context_class(mut self, class: impl Into<ClassName>) -> Self {
        self.context_class = Some(class.into());
        self
    }

    /// Adds an affected method.
    pub fn affects(
        mut self,
        class: impl Into<ClassName>,
        method: impl Into<dedisys_types::MethodName>,
        preparation: ContextPreparation,
    ) -> Self {
        self.affected_methods.push(AffectedMethod {
            signature: MethodSignature::new(class.into(), method.into()),
            preparation,
        });
        self
    }

    /// The constraint name.
    pub fn name(&self) -> &ConstraintName {
        &self.meta.name
    }

    /// Whether `sig` triggers this constraint, and with which
    /// preparation.
    pub fn preparation_for(&self, sig: &MethodSignature) -> Option<&ContextPreparation> {
        self.affected_methods
            .iter()
            .find(|m| &m.signature == sig)
            .map(|m| &m.preparation)
    }

    /// Whether this constraint may be traded at all (§3.2).
    pub fn is_tradeable(&self) -> bool {
        self.meta.priority == ConstraintPriority::Tradeable
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MapAccess;
    use dedisys_types::{ObjectId, Value};

    #[test]
    fn kind_parsing_and_classification() {
        assert_eq!(
            ConstraintKind::parse_config("HARD"),
            Some(ConstraintKind::HardInvariant)
        );
        assert_eq!(
            ConstraintKind::parse_config("pre"),
            Some(ConstraintKind::Precondition)
        );
        assert!(ConstraintKind::HardInvariant.is_invariant());
        assert!(!ConstraintKind::Precondition.is_invariant());
        assert!(ConstraintKind::AsyncInvariant.is_invariant());
    }

    #[test]
    fn priority_parsing() {
        assert_eq!(
            ConstraintPriority::parse_config("RELAXABLE"),
            Some(ConstraintPriority::Tradeable)
        );
        assert_eq!(
            ConstraintPriority::parse_config("critical"),
            Some(ConstraintPriority::NonTradeable)
        );
    }

    #[test]
    fn closure_constraints_and_registration() {
        let implementation = Arc::new(|ctx: &mut ValidationContext<'_>| {
            let id = ctx.context_object().cloned().expect("has context");
            let sold = ctx.field(&id, "soldTickets")?.as_int().unwrap_or(0);
            let seats = ctx.field(&id, "seats")?.as_int().unwrap_or(0);
            Ok(sold <= seats)
        });
        let registered = RegisteredConstraint::new(
            ConstraintMeta::new("TicketConstraint")
                .tradeable(dedisys_types::SatisfactionDegree::PossiblySatisfied),
            implementation,
        )
        .context_class("Flight")
        .affects("Flight", "sellTickets", ContextPreparation::CalledObject);

        assert!(registered.is_tradeable());
        let sig = MethodSignature::new("Flight", "sellTickets");
        assert!(registered.preparation_for(&sig).is_some());
        assert!(registered
            .preparation_for(&MethodSignature::new("Flight", "getSeats"))
            .is_none());

        let flight = ObjectId::new("Flight", "F1");
        let mut world = MapAccess::new();
        world.put_field(&flight, "seats", Value::Int(80));
        world.put_field(&flight, "soldTickets", Value::Int(70));
        let mut ctx = ValidationContext::for_invariant(flight, &mut world);
        assert_eq!(registered.implementation.validate(&mut ctx), Ok(true));
    }

    #[test]
    fn meta_builder_defaults() {
        let meta = ConstraintMeta::new("C")
            .describe("d")
            .intra_object()
            .query_based();
        assert_eq!(meta.kind, ConstraintKind::HardInvariant);
        assert_eq!(meta.priority, ConstraintPriority::NonTradeable);
        assert_eq!(meta.scope, ObjectScope::IntraObject);
        assert!(!meta.needs_context_object);
    }
}
