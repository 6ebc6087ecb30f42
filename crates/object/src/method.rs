//! Method bodies and dispatch.

use crate::{AppDescriptor, EntityContainer, Invocation};
use dedisys_types::{ClassName, Error, MethodName, ObjectId, Result, SimTime, Value};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Execution context handed to method bodies.
///
/// Gives the business logic transactional access to the entity
/// container — including *other* objects, enabling nested/cross-object
/// business operations like `Flight.sellTickets`.
pub struct MethodContext<'a> {
    /// The container of the executing node.
    pub container: &'a mut EntityContainer,
    /// The invocation being executed.
    pub invocation: &'a Invocation,
    /// Current virtual time.
    pub now: SimTime,
}

impl<'a> MethodContext<'a> {
    /// Reads a field of the invocation target.
    ///
    /// # Errors
    ///
    /// Propagates container lookup failures.
    pub fn read_own(&mut self, field: &str) -> Result<Value> {
        let invocation = self.invocation;
        self.read(&invocation.target, field)
    }

    /// Writes a field of the invocation target.
    ///
    /// # Errors
    ///
    /// Propagates container lookup failures.
    pub fn write_own(&mut self, field: &str, value: Value) -> Result<()> {
        let invocation = self.invocation;
        self.write(&invocation.target, field, value)
    }

    /// Reads a field of any object visible to the transaction.
    ///
    /// # Errors
    ///
    /// Propagates container lookup failures.
    pub fn read(&mut self, id: &ObjectId, field: &str) -> Result<Value> {
        self.container.read_field(self.invocation.tx, id, field)
    }

    /// Writes a field of any object visible to the transaction.
    ///
    /// # Errors
    ///
    /// Propagates container lookup failures.
    pub fn write(&mut self, id: &ObjectId, field: &str, value: Value) -> Result<()> {
        self.container
            .write_field(self.invocation.tx, id, field, value, self.now)
    }
}

/// Boxed business-logic function of a custom method body.
type CustomBody = Arc<dyn Fn(&mut MethodContext<'_>) -> Result<Value> + Send + Sync>;

/// The implementation of a deployed method.
#[derive(Clone)]
pub enum MethodBody {
    /// Writes the first argument into the named field.
    SetField(String),
    /// Returns the named field.
    GetField(String),
    /// Does nothing and returns [`Value::Null`] — the "empty method"
    /// of the Chapter 5 measurements.
    Empty,
    /// Arbitrary business logic.
    Custom(CustomBody),
}

impl fmt::Debug for MethodBody {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MethodBody::SetField(field) => write!(f, "SetField({field})"),
            MethodBody::GetField(field) => write!(f, "GetField({field})"),
            MethodBody::Empty => f.write_str("Empty"),
            MethodBody::Custom(_) => f.write_str("Custom(..)"),
        }
    }
}

impl MethodBody {
    /// Wraps a closure as a custom body.
    pub fn custom(
        f: impl Fn(&mut MethodContext<'_>) -> Result<Value> + Send + Sync + 'static,
    ) -> Self {
        MethodBody::Custom(Arc::new(f))
    }

    /// Executes the body.
    ///
    /// # Errors
    ///
    /// * [`Error::Config`] — a `SetField` body invoked without an
    ///   argument.
    /// * Anything the body itself produces.
    pub fn execute(&self, cx: &mut MethodContext<'_>) -> Result<Value> {
        match self {
            MethodBody::SetField(field) => set_field(cx, field),
            MethodBody::GetField(field) => cx.read_own(field),
            MethodBody::Empty => Ok(Value::Null),
            MethodBody::Custom(f) => f(cx),
        }
    }
}

/// The `SetField` body: writes the first argument into `field`.
fn set_field(cx: &mut MethodContext<'_>, field: &str) -> Result<Value> {
    let value = cx
        .invocation
        .arg0()
        .cloned()
        .ok_or_else(|| Error::Config(format!("set{field}: missing argument")))?;
    cx.write_own(field, value)?;
    Ok(Value::Null)
}

/// What an invocation resolves to: a registered body, or an accessor
/// derived from the class's deployed fields — borrowed, so dispatch
/// copies neither a body nor a field name.
enum Resolved<'a> {
    Registered(&'a MethodBody),
    Setter(&'a str),
    Getter(&'a str),
    Empty,
}

/// Registered method implementations, keyed by `(class, method)`.
///
/// Methods following the `set<Field>`/`get<Field>` convention for a
/// deployed field need no registration — dispatch derives the accessor
/// body automatically.
#[derive(Debug, Clone, Default)]
pub struct MethodTable {
    /// Class → method → body, so dispatch looks a body up with the
    /// invocation's own (borrowed) names.
    bodies: HashMap<ClassName, HashMap<MethodName, MethodBody>>,
}

impl MethodTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) the body for `(class, method)`.
    pub fn register(
        &mut self,
        class: impl Into<dedisys_types::ClassName>,
        method: impl Into<dedisys_types::MethodName>,
        body: MethodBody,
    ) {
        self.bodies
            .entry(class.into())
            .or_default()
            .insert(method.into(), body);
    }

    /// Resolves the body for an invocation: registered body first, then
    /// the accessor convention against the class's deployed fields.
    ///
    /// # Errors
    ///
    /// * [`Error::ClassNotDeployed`] / [`Error::MethodNotDeployed`] for
    ///   unknown targets.
    fn resolve<'a>(&'a self, app: &'a AppDescriptor, inv: &Invocation) -> Result<Resolved<'a>> {
        let registered = self
            .bodies
            .get(inv.target.class())
            .and_then(|methods| methods.get(&inv.method));
        if let Some(body) = registered {
            return Ok(Resolved::Registered(body));
        }
        let class = app
            .class(inv.target.class())
            .ok_or_else(|| Error::ClassNotDeployed(inv.target.class().to_string()))?;
        let name = inv.method.as_str();
        for (prefix, setter) in [("set", true), ("get", false)] {
            if let Some(rest) = name.strip_prefix(prefix) {
                if let Some(field) = class.field_names().find(|f| is_decapitalized(f, rest)) {
                    return Ok(if setter {
                        Resolved::Setter(field)
                    } else {
                        Resolved::Getter(field)
                    });
                }
            }
        }
        if class.method(&inv.method).is_some() {
            // Declared but no body and no accessor convention: empty.
            return Ok(Resolved::Empty);
        }
        Err(Error::MethodNotDeployed(inv.signature()))
    }

    /// Resolves and executes the invocation's method.
    ///
    /// # Errors
    ///
    /// Propagates resolution and execution failures.
    pub fn dispatch(
        &self,
        container: &mut EntityContainer,
        inv: &Invocation,
        now: SimTime,
    ) -> Result<Value> {
        // The container shares its descriptor, so the resolved field
        // name stays borrowed while the body writes to the container.
        let app = container.shared_app();
        let resolved = self.resolve(&app, inv)?;
        let mut cx = MethodContext {
            container,
            invocation: inv,
            now,
        };
        match resolved {
            Resolved::Registered(body) => body.execute(&mut cx),
            Resolved::Setter(field) => set_field(&mut cx, field),
            Resolved::Getter(field) => cx.read_own(field),
            Resolved::Empty => Ok(Value::Null),
        }
    }
}

/// Whether `field` is `rest` with its first character lower-cased
/// (`Seats` → `seats`), compared without building the string.
fn is_decapitalized(field: &str, rest: &str) -> bool {
    let mut chars = rest.chars();
    match chars.next() {
        Some(first) => first.to_lowercase().chain(chars).eq(field.chars()),
        None => field.is_empty(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AppDescriptor, ClassDescriptor, EntityState, MethodDescriptor, MethodKind};
    use dedisys_types::{MethodSignature, NodeId, TxId};

    fn setup() -> (EntityContainer, MethodTable, ObjectId, TxId) {
        let app = AppDescriptor::new("test").with_class(
            ClassDescriptor::new("Flight")
                .with_field("seats", Value::Int(0))
                .with_field("soldTickets", Value::Int(0))
                .with_method(MethodDescriptor::with_kind(
                    "sellTickets",
                    MethodKind::Write,
                ))
                .with_method(MethodDescriptor::with_kind("noop", MethodKind::Read)),
        );
        let mut container = EntityContainer::new(&app);
        let tx = TxId::new(NodeId(0), 1);
        let id = ObjectId::new("Flight", "F1");
        container
            .create(tx, EntityState::for_class(&app, &id).unwrap())
            .unwrap();
        (container, MethodTable::new(), id, tx)
    }

    fn inv(tx: TxId, id: &ObjectId, method: &str, args: Vec<Value>) -> Invocation {
        Invocation::new(tx, id.clone(), method, args)
    }

    #[test]
    fn conventional_accessors_need_no_registration() {
        let (mut c, table, id, tx) = setup();
        table
            .dispatch(
                &mut c,
                &inv(tx, &id, "setSeats", vec![Value::Int(80)]),
                SimTime::ZERO,
            )
            .unwrap();
        let got = table
            .dispatch(&mut c, &inv(tx, &id, "getSeats", vec![]), SimTime::ZERO)
            .unwrap();
        assert_eq!(got, Value::Int(80));
    }

    #[test]
    fn accessor_convention_matches_the_decapitalized_field() {
        assert!(is_decapitalized("soldTickets", "SoldTickets"));
        assert!(is_decapitalized("seats", "seats"));
        assert!(is_decapitalized("", ""));
        assert!(!is_decapitalized("seats", "Seat"));
        assert!(!is_decapitalized("seat", "Seats"));
        assert!(!is_decapitalized("Seats", "Seats"));
        // A first character whose lower case is more than one char.
        assert!(is_decapitalized("i\u{307}d", "\u{130}d"));

        let (mut c, table, id, tx) = setup();
        table
            .dispatch(
                &mut c,
                &inv(tx, &id, "setSoldTickets", vec![Value::Int(3)]),
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(c.read_field(tx, &id, "soldTickets").unwrap(), Value::Int(3));
        // Close, but not a deployed field.
        let err = table
            .dispatch(&mut c, &inv(tx, &id, "getSold", vec![]), SimTime::ZERO)
            .unwrap_err();
        assert_eq!(
            err,
            Error::MethodNotDeployed(MethodSignature::new("Flight", "getSold"))
        );
    }

    #[test]
    fn registered_body_wins_over_the_convention() {
        let (mut c, mut table, id, tx) = setup();
        table.register(
            "Flight",
            "getSeats",
            MethodBody::custom(|_| Ok(Value::Int(-1))),
        );
        table.register("Other", "getSeats", MethodBody::Empty);
        let got = table
            .dispatch(&mut c, &inv(tx, &id, "getSeats", vec![]), SimTime::ZERO)
            .unwrap();
        assert_eq!(got, Value::Int(-1));
    }

    #[test]
    fn unknown_class_rejected() {
        let (mut c, table, _, tx) = setup();
        let ghost = ObjectId::new("Ghost", "g");
        let err = table
            .dispatch(&mut c, &inv(tx, &ghost, "getSeats", vec![]), SimTime::ZERO)
            .unwrap_err();
        assert_eq!(err, Error::ClassNotDeployed("Ghost".into()));
    }

    #[test]
    fn declared_method_without_body_is_empty() {
        let (mut c, table, id, tx) = setup();
        let got = table
            .dispatch(&mut c, &inv(tx, &id, "noop", vec![]), SimTime::ZERO)
            .unwrap();
        assert_eq!(got, Value::Null);
    }

    #[test]
    fn custom_body_sells_tickets() {
        let (mut c, mut table, id, tx) = setup();
        table.register(
            "Flight",
            "sellTickets",
            MethodBody::custom(|cx| {
                let count = cx.invocation.arg0().and_then(Value::as_int).unwrap_or(1);
                let sold = cx.read_own("soldTickets")?.as_int().unwrap_or(0);
                cx.write_own("soldTickets", Value::Int(sold + count))?;
                Ok(Value::Int(sold + count))
            }),
        );
        let got = table
            .dispatch(
                &mut c,
                &inv(tx, &id, "sellTickets", vec![Value::Int(3)]),
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(got, Value::Int(3));
        assert_eq!(c.read_field(tx, &id, "soldTickets").unwrap(), Value::Int(3));
    }

    #[test]
    fn unknown_method_rejected() {
        let (mut c, table, id, tx) = setup();
        let err = table
            .dispatch(&mut c, &inv(tx, &id, "fly", vec![]), SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, Error::MethodNotDeployed(_)));
    }

    #[test]
    fn setter_without_argument_rejected() {
        let (mut c, table, id, tx) = setup();
        let err = table
            .dispatch(&mut c, &inv(tx, &id, "setSeats", vec![]), SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, Error::Config(_)));
    }
}
