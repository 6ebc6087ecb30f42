//! The constraint deployment descriptor (the Listing 4.1 equivalent).
//!
//! Constraints and their metadata are declared in a configuration file
//! read at application deployment (§4.2.2). The original used XML; here
//! the descriptor is JSON. Implementations are either declarative
//! (`"expr"`) or refer to a code-registered constraint class by name
//! (`"implementation"`), resolved through an [`ImplRegistry`].

use crate::expr::ExprConstraint;
use crate::{
    Constraint, ConstraintKind, ConstraintMeta, ConstraintPriority, ContextPreparation,
    FreshnessCriterion, ObjectScope, RegisteredConstraint,
};
use dedisys_types::{Error, Result, SatisfactionDegree};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Context-preparation declaration of an affected method.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq, Default)]
#[serde(tag = "kind", rename_all = "camelCase")]
pub(crate) enum PreparationConfig {
    /// The called object is the context object.
    #[default]
    CalledObject,
    /// Follow a reference field of the called object.
    #[serde(rename_all = "camelCase")]
    ReferenceField {
        /// The reference-holding field.
        field: String,
    },
    /// No context object.
    None,
}

impl From<PreparationConfig> for ContextPreparation {
    fn from(cfg: PreparationConfig) -> Self {
        match cfg {
            PreparationConfig::CalledObject => ContextPreparation::CalledObject,
            PreparationConfig::ReferenceField { field } => {
                ContextPreparation::ReferenceField(field)
            }
            PreparationConfig::None => ContextPreparation::None,
        }
    }
}

/// One `<affected-method>` declaration.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
#[serde(rename_all = "camelCase")]
pub(crate) struct AffectedMethodConfig {
    /// Declaring class of the method.
    pub class: String,
    /// Method name.
    pub method: String,
    /// Context preparation (defaults to called-object).
    #[serde(default)]
    pub preparation: PreparationConfig,
}

/// A freshness-criterion declaration.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
#[serde(rename_all = "camelCase")]
pub(crate) struct FreshnessConfig {
    /// The affected class.
    pub class: String,
    /// Maximum tolerated missed updates.
    pub max_age: u64,
}

/// One `<constraint>` declaration.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
#[serde(rename_all = "camelCase")]
pub(crate) struct ConstraintConfig {
    /// Unique constraint name.
    pub name: String,
    /// Kind: `PRE`, `POST`, `HARD`, `SOFT` or `ASYNC`.
    #[serde(rename = "type")]
    pub kind: String,
    /// `RELAXABLE` (tradeable) or `CRITICAL` (default).
    #[serde(default)]
    pub priority: Option<String>,
    /// Whether validation starts from a context object.
    #[serde(default = "default_true")]
    pub context_object: bool,
    /// Declarative negotiation floor, e.g. `"UNCHECKABLE"`.
    #[serde(default)]
    pub min_satisfaction_degree: Option<String>,
    /// Human description.
    #[serde(default)]
    pub description: String,
    /// Context class for invariants.
    #[serde(default)]
    pub context_class: Option<String>,
    /// Declarative implementation (constraint expression).
    #[serde(default)]
    pub expr: Option<String>,
    /// Name of a code-registered implementation (the `<class>` element).
    #[serde(default)]
    pub implementation: Option<String>,
    /// Intra-object scope flag (§3.1); default inter-object.
    #[serde(default)]
    pub intra_object: bool,
    /// Trigger points.
    #[serde(default)]
    pub affected_methods: Vec<AffectedMethodConfig>,
    /// Freshness criteria.
    #[serde(default)]
    pub freshness: Vec<FreshnessConfig>,
}

fn default_true() -> bool {
    true
}

/// Registry of code-provided constraint implementations, keyed by the
/// `implementation` name used in the descriptor.
#[derive(Clone, Default)]
pub struct ImplRegistry {
    impls: HashMap<String, Arc<dyn Constraint>>,
}

impl std::fmt::Debug for ImplRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut names: Vec<&String> = self.impls.keys().collect();
        names.sort();
        write!(f, "ImplRegistry{names:?}")
    }
}

impl ImplRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an implementation under `name`.
    pub fn register(&mut self, name: impl Into<String>, implementation: Arc<dyn Constraint>) {
        self.impls.insert(name.into(), implementation);
    }

    /// Looks up an implementation.
    pub fn get(&self, name: &str) -> Option<Arc<dyn Constraint>> {
        self.impls.get(name).cloned()
    }
}

/// A whole descriptor file: a list of constraint declarations.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Default)]
pub struct ConstraintConfigSet {
    /// The declared constraints.
    constraints: Vec<ConstraintConfig>,
}

impl ConstraintConfigSet {
    /// Parses a JSON descriptor.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] on malformed JSON.
    pub fn from_json(json: &str) -> Result<Self> {
        serde_json::from_str(json).map_err(|e| Error::Config(format!("descriptor: {e}")))
    }

    /// Serializes back to JSON (pretty).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] on serialization failure.
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string_pretty(self).map_err(|e| Error::Config(e.to_string()))
    }

    /// Resolves every declaration into a [`RegisteredConstraint`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] for unknown kinds/priorities/degrees,
    /// missing implementations, or declarations with neither `expr` nor
    /// `implementation`.
    pub fn resolve(&self, impls: &ImplRegistry) -> Result<Vec<RegisteredConstraint>> {
        self.constraints
            .iter()
            .map(|c| resolve_one(c, impls))
            .collect()
    }
}

fn resolve_one(cfg: &ConstraintConfig, impls: &ImplRegistry) -> Result<RegisteredConstraint> {
    let kind = ConstraintKind::parse_config(&cfg.kind)
        .ok_or_else(|| Error::Config(format!("{}: unknown type '{}'", cfg.name, cfg.kind)))?;
    let priority = match &cfg.priority {
        None => ConstraintPriority::NonTradeable,
        Some(p) => ConstraintPriority::parse_config(p)
            .ok_or_else(|| Error::Config(format!("{}: unknown priority '{p}'", cfg.name)))?,
    };
    let min_degree = match &cfg.min_satisfaction_degree {
        None => SatisfactionDegree::Satisfied,
        Some(d) => SatisfactionDegree::parse_config(d)
            .ok_or_else(|| Error::Config(format!("{}: unknown degree '{d}'", cfg.name)))?,
    };
    let implementation: Arc<dyn Constraint> = match (&cfg.expr, &cfg.implementation) {
        (Some(expr), None) => Arc::new(ExprConstraint::parse(expr)?),
        (None, Some(name)) => impls.get(name).ok_or_else(|| {
            Error::Config(format!(
                "{}: implementation '{name}' not registered",
                cfg.name
            ))
        })?,
        (Some(_), Some(_)) => {
            return Err(Error::Config(format!(
                "{}: give either 'expr' or 'implementation', not both",
                cfg.name
            )))
        }
        (None, None) => {
            return Err(Error::Config(format!(
                "{}: missing 'expr' or 'implementation'",
                cfg.name
            )))
        }
    };

    let mut meta = ConstraintMeta::new(cfg.name.clone())
        .kind(kind)
        .describe(cfg.description.clone());
    meta.priority = priority;
    meta.min_satisfaction_degree = min_degree;
    meta.needs_context_object = cfg.context_object;
    if cfg.intra_object {
        meta.scope = ObjectScope::IntraObject;
    }
    for f in &cfg.freshness {
        meta.freshness
            .push(FreshnessCriterion::new(f.class.clone(), f.max_age));
    }

    let mut registered = RegisteredConstraint::new(meta, implementation);
    if let Some(class) = &cfg.context_class {
        registered = registered.context_class(class.clone());
    }
    for m in &cfg.affected_methods {
        registered = registered.affects(
            m.class.clone(),
            m.method.clone(),
            m.preparation.clone().into(),
        );
    }
    Ok(registered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ValidationContext;

    /// The ATS descriptor of Listing 4.1, transliterated to JSON.
    const ATS_DESCRIPTOR: &str = r#"{
      "constraints": [
        {
          "name": "ComponentKindReferenceConsistency",
          "type": "HARD",
          "priority": "RELAXABLE",
          "contextObject": true,
          "minSatisfactionDegree": "UNCHECKABLE",
          "contextClass": "RepairReport",
          "expr": "self.componentKind = \"Signal Controller\" or self.componentKind = \"Signal Cable\"",
          "affectedMethods": [
            { "class": "RepairReport", "method": "setAffectedComponent",
              "preparation": { "kind": "calledObject" } },
            { "class": "Alarm", "method": "setAlarmKind",
              "preparation": { "kind": "referenceField", "field": "repairReport" } }
          ],
          "freshness": [ { "class": "Alarm", "maxAge": 5 } ]
        }
      ]
    }"#;

    #[test]
    fn parses_the_ats_descriptor() {
        let set = ConstraintConfigSet::from_json(ATS_DESCRIPTOR).unwrap();
        assert_eq!(set.constraints.len(), 1);
        let c = &set.constraints[0];
        assert_eq!(c.kind, "HARD");
        assert_eq!(c.affected_methods.len(), 2);
        assert_eq!(
            c.affected_methods[1].preparation,
            PreparationConfig::ReferenceField {
                field: "repairReport".into()
            }
        );
    }

    #[test]
    fn resolves_to_registered_constraints() {
        let set = ConstraintConfigSet::from_json(ATS_DESCRIPTOR).unwrap();
        let registered = set.resolve(&ImplRegistry::new()).unwrap();
        let c = &registered[0];
        assert_eq!(c.meta.kind, ConstraintKind::HardInvariant);
        assert_eq!(c.meta.priority, ConstraintPriority::Tradeable);
        assert_eq!(
            c.meta.min_satisfaction_degree,
            SatisfactionDegree::Uncheckable
        );
        assert_eq!(c.context_class.as_ref().unwrap().as_str(), "RepairReport");
        assert_eq!(c.affected_methods.len(), 2);
        assert_eq!(c.meta.freshness.len(), 1);
    }

    #[test]
    fn code_implementations_resolve_by_name() {
        let json = r#"{ "constraints": [ {
            "name": "C", "type": "SOFT", "implementation": "AlwaysTrue"
        } ] }"#;
        let set = ConstraintConfigSet::from_json(json).unwrap();
        assert!(set.resolve(&ImplRegistry::new()).is_err(), "unregistered");
        let mut impls = ImplRegistry::new();
        impls.register(
            "AlwaysTrue",
            Arc::new(|_: &mut ValidationContext<'_>| Ok(true)),
        );
        let registered = set.resolve(&impls).unwrap();
        assert_eq!(registered[0].meta.kind, ConstraintKind::SoftInvariant);
    }

    #[test]
    fn invalid_declarations_are_rejected() {
        for bad in [
            r#"{ "constraints": [ { "name": "C", "type": "WEIRD", "expr": "true" } ] }"#,
            r#"{ "constraints": [ { "name": "C", "type": "HARD" } ] }"#,
            r#"{ "constraints": [ { "name": "C", "type": "HARD", "expr": "true", "implementation": "X" } ] }"#,
            r#"{ "constraints": [ { "name": "C", "type": "HARD", "priority": "MAYBE", "expr": "true" } ] }"#,
            r#"{ "constraints": [ { "name": "C", "type": "HARD", "minSatisfactionDegree": "KINDA", "expr": "true" } ] }"#,
        ] {
            let set = ConstraintConfigSet::from_json(bad).unwrap();
            assert!(set.resolve(&ImplRegistry::new()).is_err(), "{bad}");
        }
    }

    #[test]
    fn json_roundtrip() {
        let set = ConstraintConfigSet::from_json(ATS_DESCRIPTOR).unwrap();
        let json = set.to_json().unwrap();
        let back = ConstraintConfigSet::from_json(&json).unwrap();
        assert_eq!(set, back);
    }
}
