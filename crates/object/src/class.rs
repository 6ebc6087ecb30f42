//! Class and method descriptors — the deployment metadata.

use crate::Fields;
use dedisys_types::{ClassName, FieldName, MethodName, Value};
use std::collections::BTreeMap;

/// Whether a method reads or writes entity state.
///
/// The replication service must know (§4.3): writes trigger update
/// propagation, reads execute locally. A declared field brings its
/// `set…`/`get…` accessors as a write and a read; other methods are
/// declared with their kind, and undeclared ones are conservatively
/// treated as writes ("to be on the safe side", §5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MethodKind {
    /// Local read; never propagated.
    Read,
    /// State-changing; executed on the primary and propagated.
    Write,
}

/// A deployed method.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodDescriptor {
    name: MethodName,
    kind: MethodKind,
}

impl MethodDescriptor {
    /// Declares a method with an explicit kind.
    pub fn with_kind(name: impl Into<MethodName>, kind: MethodKind) -> Self {
        Self {
            name: name.into(),
            kind,
        }
    }

    /// The method name.
    pub fn name(&self) -> &MethodName {
        &self.name
    }

    /// The read/write kind.
    pub fn kind(&self) -> MethodKind {
        self.kind
    }
}

/// A deployed class: field defaults plus declared methods.
///
/// Declaring a field `f` implicitly declares the conventional accessor
/// pair `setF`/`getF`.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassDescriptor {
    name: ClassName,
    /// Field → default value. The names are minted here once; every
    /// instance's state shares them.
    fields: Fields,
    methods: Vec<MethodDescriptor>,
    /// Field → its `(set…, get…)` names, minted once at deploy time so
    /// a call through an accessor clones a handle instead of
    /// formatting the name.
    accessors: BTreeMap<FieldName, (MethodName, MethodName)>,
}

impl ClassDescriptor {
    /// Creates an empty class descriptor.
    pub fn new(name: impl Into<ClassName>) -> Self {
        Self {
            name: name.into(),
            fields: Fields::default(),
            methods: Vec::new(),
            accessors: BTreeMap::new(),
        }
    }

    /// Adds a field with its default value, generating `set`/`get`
    /// accessors. Declaring a field again replaces its default; its
    /// accessors stay one pair.
    pub fn with_field(mut self, field: impl Into<String>, default: Value) -> Self {
        let field = FieldName::from(field.into());
        if !self.accessors.contains_key(&field) {
            let cap = capitalize(field.as_str());
            let setter = MethodName::from(format!("set{cap}"));
            let getter = MethodName::from(format!("get{cap}"));
            self.methods.push(MethodDescriptor::with_kind(
                setter.clone(),
                MethodKind::Write,
            ));
            self.methods.push(MethodDescriptor::with_kind(
                getter.clone(),
                MethodKind::Read,
            ));
            self.accessors.insert(field.clone(), (setter, getter));
        }
        self.fields.insert(field, default);
        self
    }

    /// Adds an explicitly described method.
    pub fn with_method(mut self, method: MethodDescriptor) -> Self {
        self.methods.push(method);
        self
    }

    /// The class name.
    pub fn name(&self) -> &ClassName {
        &self.name
    }

    /// Default field values for new instances, keyed by the class's
    /// own names (a clone shares them): one allocation of exactly the
    /// declared fields.
    pub(crate) fn default_fields(&self) -> Fields {
        self.fields.clone()
    }

    /// Declared field names in order.
    pub(crate) fn field_names(&self) -> impl Iterator<Item = &str> {
        self.fields.iter().map(|(name, _)| name.as_str())
    }

    /// The name of the generated setter of `field` (`None` for an
    /// undeclared field).
    pub fn setter(&self, field: &str) -> Option<&MethodName> {
        self.accessors.get(field).map(|(setter, _)| setter)
    }

    /// The name of the generated getter of `field` (`None` for an
    /// undeclared field).
    pub fn getter(&self, field: &str) -> Option<&MethodName> {
        self.accessors.get(field).map(|(_, getter)| getter)
    }

    /// Looks up a method by name.
    pub fn method(&self, name: &MethodName) -> Option<&MethodDescriptor> {
        self.methods.iter().find(|m| m.name() == name)
    }

    /// All declared methods.
    pub fn methods(&self) -> &[MethodDescriptor] {
        &self.methods
    }
}

/// A deployed application: a set of classes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AppDescriptor {
    name: String,
    classes: Vec<ClassDescriptor>,
}

impl AppDescriptor {
    /// Creates an empty application descriptor.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            classes: Vec::new(),
        }
    }

    /// Adds a class.
    pub fn with_class(mut self, class: ClassDescriptor) -> Self {
        self.classes.push(class);
        self
    }

    /// The application name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Looks up a class by name.
    pub fn class(&self, name: &ClassName) -> Option<&ClassDescriptor> {
        self.classes.iter().find(|c| c.name() == name)
    }

    /// All deployed classes.
    pub fn classes(&self) -> &[ClassDescriptor] {
        &self.classes
    }
}

fn capitalize(s: &str) -> String {
    let mut chars = s.chars();
    match chars.next() {
        Some(first) => first.to_uppercase().collect::<String>() + chars.as_str(),
        None => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn convention_based_kinds() {
        let class = ClassDescriptor::new("Flight").with_field("seats", Value::Int(0));
        let kind = |name: &str| class.method(&MethodName::from(name)).map(|m| m.kind());
        assert_eq!(kind("setSeats"), Some(MethodKind::Write));
        assert_eq!(kind("getSeats"), Some(MethodKind::Read));
        // Nothing is inferred from a name: an undeclared method has no
        // kind here, and the middleware treats it as a write.
        assert_eq!(kind("recompute"), None);
    }

    #[test]
    fn fields_generate_accessors() {
        let class = ClassDescriptor::new("Flight").with_field("seats", Value::Int(0));
        assert!(class.method(&MethodName::from("setSeats")).is_some());
        assert!(class.method(&MethodName::from("getSeats")).is_some());
        assert_eq!(class.setter("seats").unwrap().as_str(), "setSeats");
        assert_eq!(class.getter("seats").unwrap().as_str(), "getSeats");
        assert_eq!((class.setter("nope"), class.getter("Seats")), (None, None));
        assert_eq!(class.default_fields().get("seats"), Some(&Value::Int(0)));
    }

    #[test]
    fn a_redeclared_field_replaces_its_default_and_keeps_one_accessor_pair() {
        let class = ClassDescriptor::new("Flight")
            .with_field("seats", Value::Int(0))
            .with_field("gate", Value::Null)
            .with_field("seats", Value::Int(80));
        let names: Vec<&str> = class.methods().iter().map(|m| m.name().as_str()).collect();
        assert_eq!(names, ["setSeats", "getSeats", "setGate", "getGate"]);
        assert_eq!(class.field_names().collect::<Vec<_>>(), ["gate", "seats"]);
        assert_eq!(class.default_fields().get("seats"), Some(&Value::Int(80)));
        assert_eq!(class.setter("seats").unwrap().as_str(), "setSeats");
    }

    #[test]
    fn app_lookup() {
        let app = AppDescriptor::new("a").with_class(ClassDescriptor::new("Alarm"));
        assert!(app.class(&ClassName::from("Alarm")).is_some());
        assert!(app.class(&ClassName::from("Nope")).is_none());
        assert_eq!(app.name(), "a");
    }
}
