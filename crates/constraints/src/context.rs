//! The `ConstraintValidationContext` of Figure 4.3.

use crate::constraint::VOLATILE_ENV_KEYS;
use dedisys_object::Invocation;
use dedisys_types::{ClassName, MethodName, ObjectId, Result, Value};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

/// How constraint implementations reach application objects.
///
/// The middleware implements this against the entity container (with
/// replica-aware semantics); tests use [`MapAccess`]. Access failures
/// ([`dedisys_types::Error::ObjectUnreachable`]) bubble out of
/// `validate` and make the constraint uncheckable.
///
/// `Send` is a supertrait: an access implementation is a view over
/// shared (`Sync`) middleware state and must not tie a validation
/// context to the thread that built it.
pub trait ObjectAccess: Send {
    /// Reads `field` of `id`.
    ///
    /// # Errors
    ///
    /// * [`dedisys_types::Error::ObjectUnreachable`] — no replica of the
    ///   object is reachable.
    /// * [`dedisys_types::Error::ObjectNotFound`] — the object does not
    ///   exist.
    fn field(&mut self, id: &ObjectId, field: &str) -> Result<Value>;

    /// Ids of all reachable objects of `class` (query-based
    /// constraints).
    fn objects_of_class(&mut self, class: &ClassName) -> Vec<ObjectId>;
}

/// A simple in-memory [`ObjectAccess`] for tests and examples.
#[derive(Debug, Clone, Default)]
pub struct MapAccess {
    fields: BTreeMap<ObjectId, BTreeMap<String, Value>>,
    unreachable: BTreeSet<ObjectId>,
}

impl MapAccess {
    /// Creates an empty world.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets a field of an object.
    pub fn put_field(&mut self, id: &ObjectId, field: &str, value: Value) {
        self.fields
            .entry(id.clone())
            .or_default()
            .insert(field.to_owned(), value);
    }

    /// Marks an object unreachable (all replicas lost).
    pub fn set_unreachable(&mut self, id: &ObjectId, unreachable: bool) {
        if unreachable {
            self.unreachable.insert(id.clone());
        } else {
            self.unreachable.remove(id);
        }
    }
}

impl ObjectAccess for MapAccess {
    fn field(&mut self, id: &ObjectId, field: &str) -> Result<Value> {
        if self.unreachable.contains(id) {
            return Err(dedisys_types::Error::ObjectUnreachable(id.clone()));
        }
        let obj = self
            .fields
            .get(id)
            .ok_or_else(|| dedisys_types::Error::ObjectNotFound(id.clone()))?;
        Ok(obj.get(field).cloned().unwrap_or(Value::Null))
    }

    fn objects_of_class(&mut self, class: &ClassName) -> Vec<ObjectId> {
        self.fields
            .keys()
            .filter(|id| id.class() == class && !self.unreachable.contains(id))
            .cloned()
            .collect()
    }
}

/// A `@pre` snapshot: each stored key with its value, in the order first
/// stored (a second store of a key overwrites its value). Keys are
/// usually literals, so storing one copies no text.
pub type PreState = Vec<(Cow<'static, str>, Value)>;

/// The validation context handed to [`crate::Constraint::validate`].
///
/// Carries (depending on constraint kind, §4.2.1) the context object,
/// the method and arguments, the method result for
/// postconditions, and a `@pre` store filled by
/// `before_method_invocation`. Every object touched through the
/// context is *gathered* (§4.2.3) so the CCMgr can ask the replication
/// manager about staleness afterwards; the gathered ids are a sorted,
/// deduplicated list ([`ValidationContext::take_accessed_objects`]).
///
/// The call data is held as [`Cow`]s: the owning constructors
/// ([`ValidationContext::for_method`] and friends) move their arguments
/// in, while the middleware builds one context per check with
/// [`ValidationContext::borrowing`] over the invocation in flight and
/// copies nothing. What a check fills it fills into buffers the
/// middleware lends and takes back: the gathered ids
/// ([`ValidationContext::gather_into`]) and the `@pre` snapshot
/// ([`ValidationContext::set_pre_state`]).
pub struct ValidationContext<'a> {
    access: &'a mut dyn ObjectAccess,
    context_object: Option<Cow<'a, ObjectId>>,
    method: Option<Cow<'a, MethodName>>,
    args: Cow<'a, [Value]>,
    result: Option<Cow<'a, Value>>,
    pre_state: Cow<'a, [(Cow<'static, str>, Value)]>,
    /// Sorted and deduplicated. The order reaches traces: the LCC
    /// staleness probe stops at the first stale id and reports it.
    accessed: Vec<ObjectId>,
    /// The values of [`VOLATILE_ENV_KEYS`], slot for slot — what the
    /// middleware sets on every check (partition weight, §5.5.2), kept
    /// out of the map so setting them allocates nothing.
    volatile_env: [Option<Value>; VOLATILE_ENV_KEYS.len()],
    /// Any other value exposed to constraints via `env(..)`.
    environment: BTreeMap<String, Value>,
}

impl<'a> ValidationContext<'a> {
    /// Context for a query-based invariant (no context object).
    pub fn for_query(access: &'a mut dyn ObjectAccess) -> Self {
        Self {
            access,
            context_object: None,
            method: None,
            args: Cow::Borrowed(&[]),
            result: None,
            pre_state: Cow::Borrowed(&[]),
            accessed: Vec::new(),
            volatile_env: Default::default(),
            environment: BTreeMap::new(),
        }
    }

    /// Context for an invariant starting from `context_object`.
    pub fn for_invariant(context_object: ObjectId, access: &'a mut dyn ObjectAccess) -> Self {
        Self {
            context_object: Some(Cow::Owned(context_object)),
            ..Self::for_query(access)
        }
    }

    /// Context for a pre-/postcondition of a method call.
    pub fn for_method(
        called_object: ObjectId,
        method: MethodName,
        args: Vec<Value>,
        access: &'a mut dyn ObjectAccess,
    ) -> Self {
        Self {
            context_object: Some(Cow::Owned(called_object)),
            method: Some(Cow::Owned(method)),
            args: Cow::Owned(args),
            ..Self::for_query(access)
        }
    }

    /// The middleware's constructor: a context over the invocation in
    /// flight that borrows every part instead of copying it. `call`
    /// makes it a pre-/postcondition context (called object, method,
    /// arguments; `result` for postconditions), `context_object`
    /// defaults to the called object, and `pre_state` is the `@pre`
    /// snapshot taken before the call.
    pub fn borrowing(
        context_object: Option<&'a ObjectId>,
        call: Option<&'a Invocation>,
        result: Option<&'a Value>,
        pre_state: Option<&'a [(Cow<'static, str>, Value)]>,
        access: &'a mut dyn ObjectAccess,
    ) -> Self {
        let mut ctx = Self::for_query(access);
        if let Some(call) = call {
            ctx.method = Some(Cow::Borrowed(&call.method));
            ctx.args = Cow::Borrowed(&call.args);
        }
        ctx.context_object = context_object
            .or(call.map(|call| &call.target))
            .map(Cow::Borrowed);
        ctx.result = result.map(Cow::Borrowed);
        if let Some(pre_state) = pre_state {
            ctx.pre_state = Cow::Borrowed(pre_state);
        }
        ctx
    }

    /// The context object (`getContextObject()`).
    pub fn context_object(&self) -> Option<&ObjectId> {
        self.context_object.as_deref()
    }

    /// The invoked method (`getMethod()`).
    pub fn method(&self) -> Option<&MethodName> {
        self.method.as_deref()
    }

    /// The method arguments (`getMethodArguments()`).
    pub fn args(&self) -> &[Value] {
        &self.args
    }

    /// The method result (`getMethodResult()`, postconditions only).
    pub fn result(&self) -> Option<&Value> {
        self.result.as_deref()
    }

    /// Sets the method result before postcondition validation.
    pub fn set_result(&mut self, result: Value) {
        self.result = Some(Cow::Owned(result));
    }

    /// Reads a field, recording the access.
    ///
    /// # Errors
    ///
    /// Propagates [`ObjectAccess::field`] failures; the unreachable
    /// object is still recorded as accessed.
    pub fn field(&mut self, id: &ObjectId, field: &str) -> Result<Value> {
        gather(&mut self.accessed, id);
        self.access.field(id, field)
    }

    /// Convenience: a field of the context object.
    ///
    /// # Errors
    ///
    /// [`dedisys_types::Error::Config`] if no context object is set;
    /// otherwise as [`ValidationContext::field`].
    pub fn self_field(&mut self, field: &str) -> Result<Value> {
        self.context_field(field)
            .unwrap_or_else(|| Err(dedisys_types::Error::Config("no context object".into())))
    }

    /// A field of the context object, read without materialising a
    /// reference to it; `None` when there is no context object. The
    /// expression engines resolve `self.f` through this.
    pub(crate) fn context_field(&mut self, field: &str) -> Option<Result<Value>> {
        let id = self.context_object.as_deref()?;
        gather(&mut self.accessed, id);
        Some(self.access.field(id, field))
    }

    /// Query all objects of a class (recorded as accessed).
    pub fn objects_of_class(&mut self, class: &ClassName) -> Vec<ObjectId> {
        let ids = self.access.objects_of_class(class);
        for id in &ids {
            gather(&mut self.accessed, id);
        }
        ids
    }

    /// Moves out the objects touched during validation (the "gathered
    /// affected objects" of Figure 4.4), sorted and each once: the
    /// middleware keeps them with the verdict, or gathers the next check
    /// into them.
    pub fn take_accessed_objects(&mut self) -> Vec<ObjectId> {
        std::mem::take(&mut self.accessed)
    }

    /// Gathers into `buffer` from here on: it is cleared, and
    /// [`ValidationContext::take_accessed_objects`] hands it back — so
    /// a caller that validates again and again allocates for the ids
    /// only while the buffer grows. Call it before the first access.
    pub fn gather_into(&mut self, mut buffer: Vec<ObjectId>) {
        buffer.clear();
        self.accessed = buffer;
    }

    /// Stores a `@pre` value (called from `before_method_invocation`);
    /// a key stored before is overwritten. A borrowed snapshot is
    /// copied first.
    pub fn store_pre(&mut self, key: impl Into<Cow<'static, str>>, value: Value) {
        let key = key.into();
        let state = self.pre_state.to_mut();
        match state.iter_mut().find(|(k, _)| *k == key) {
            Some((_, held)) => *held = value,
            None => state.push((key, value)),
        }
    }

    /// Reads a `@pre` value during `validate`.
    pub fn pre(&self, key: &str) -> Option<&Value> {
        self.pre_state
            .iter()
            .find_map(|(k, value)| (k == key).then_some(value))
    }

    /// Moves the pre-state out (middleware carries it between the
    /// before- and after-invocation hooks).
    pub fn take_pre_state(&mut self) -> PreState {
        std::mem::take(&mut self.pre_state).into_owned()
    }

    /// Restores a previously taken pre-state — or lends an emptied one
    /// for `before_method_invocation` to fill in place.
    pub fn set_pre_state(&mut self, state: PreState) {
        self.pre_state = Cow::Owned(state);
    }

    /// Exposes an environment value to the constraint.
    pub fn set_env(&mut self, key: impl AsRef<str> + Into<String>, value: Value) {
        match volatile_slot(key.as_ref()) {
            Some(slot) => self.volatile_env[slot] = Some(value),
            None => {
                self.environment.insert(key.into(), value);
            }
        }
    }

    /// Reads an environment value (e.g. `"partitionWeight"`).
    pub fn env(&self, key: &str) -> Option<&Value> {
        match volatile_slot(key) {
            Some(slot) => self.volatile_env[slot].as_ref(),
            None => self.environment.get(key),
        }
    }
}

/// The slot of `key` in [`VOLATILE_ENV_KEYS`], if it is one of them.
fn volatile_slot(key: &str) -> Option<usize> {
    VOLATILE_ENV_KEYS.iter().position(|k| *k == key)
}

/// Records `id` in the sorted `accessed` ids, copying the handle only
/// the first time. Called before the read, so an unreachable object is
/// recorded too.
fn gather(accessed: &mut Vec<ObjectId>, id: &ObjectId) {
    if let Err(at) = accessed.binary_search(id) {
        accessed.insert(at, id.clone());
    }
}

// `dedisys_core::Cluster` is `Send`, a public promise: a caller may
// build a cluster on one thread and drive it from another. These
// assertions pin the `Send`/`Sync` obligations of what validation
// touches at compile time, beside the types.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send::<ValidationContext<'_>>();
    assert_send_sync::<MapAccess>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use dedisys_types::Error;

    fn world() -> (MapAccess, ObjectId) {
        let id = ObjectId::new("Flight", "F1");
        let mut w = MapAccess::new();
        w.put_field(&id, "seats", Value::Int(80));
        (w, id)
    }

    #[test]
    fn field_access_records_objects() {
        let (mut w, id) = world();
        let other = ObjectId::new("Person", "P1");
        w.put_field(&other, "age", Value::Int(30));
        let mut ctx = ValidationContext::for_invariant(id.clone(), &mut w);
        ctx.self_field("seats").unwrap();
        ctx.field(&other, "age").unwrap();
        assert_eq!(ctx.accessed, [id, other]);
    }

    #[test]
    fn unreachable_objects_error_but_are_recorded() {
        let (mut w, id) = world();
        w.set_unreachable(&id, true);
        let mut ctx = ValidationContext::for_invariant(id.clone(), &mut w);
        assert_eq!(
            ctx.self_field("seats"),
            Err(Error::ObjectUnreachable(id.clone()))
        );
        assert!(ctx.accessed.contains(&id));
    }

    #[test]
    fn method_context_carries_call_info() {
        let (mut w, id) = world();
        let mut ctx = ValidationContext::for_method(
            id.clone(),
            MethodName::from("setSeats"),
            vec![Value::Int(90)],
            &mut w,
        );
        assert_eq!(ctx.context_object(), Some(&id));
        assert_eq!(ctx.method().unwrap().as_str(), "setSeats");
        assert_eq!(ctx.args(), &[Value::Int(90)]);
        ctx.set_result(Value::Bool(true));
        assert_eq!(ctx.result(), Some(&Value::Bool(true)));
    }

    #[test]
    fn pre_state_roundtrip() {
        let (mut w, id) = world();
        let mut ctx = ValidationContext::for_invariant(id, &mut w);
        ctx.store_pre("size", Value::Int(3));
        assert_eq!(ctx.pre("size"), Some(&Value::Int(3)));
        let state = ctx.take_pre_state();
        assert!(ctx.pre("size").is_none());
        ctx.set_pre_state(state);
        assert_eq!(ctx.pre("size"), Some(&Value::Int(3)));
    }

    #[test]
    fn environment_values() {
        let (mut w, id) = world();
        let mut ctx = ValidationContext::for_invariant(id, &mut w);
        ctx.set_env("partitionWeight", Value::Float(0.5));
        assert_eq!(ctx.env("partitionWeight"), Some(&Value::Float(0.5)));
        assert!(ctx.env("missing").is_none());
    }

    #[test]
    fn middleware_environment_keys_resolve() {
        let (mut w, id) = world();
        let mut ctx = ValidationContext::for_invariant(id, &mut w);
        assert!(VOLATILE_ENV_KEYS.iter().all(|k| ctx.env(k).is_none()));
        ctx.set_env("partitionWeight", Value::Float(0.5));
        ctx.set_env("partitionWeightUnits", Value::Int(1));
        ctx.set_env("totalWeightUnits", Value::Int(2));
        ctx.set_env("healthy", Value::Bool(false));
        ctx.set_env(String::from("quota"), Value::Int(9));
        assert_eq!(ctx.env("partitionWeight"), Some(&Value::Float(0.5)));
        assert_eq!(ctx.env("partitionWeightUnits"), Some(&Value::Int(1)));
        assert_eq!(ctx.env("totalWeightUnits"), Some(&Value::Int(2)));
        assert_eq!(ctx.env("healthy"), Some(&Value::Bool(false)));
        assert_eq!(ctx.env("quota"), Some(&Value::Int(9)));
        // A second set overwrites, whichever storage holds the key.
        ctx.set_env("healthy", Value::Bool(true));
        ctx.set_env("quota", Value::Int(10));
        assert_eq!(ctx.env("healthy"), Some(&Value::Bool(true)));
        assert_eq!(ctx.env("quota"), Some(&Value::Int(10)));
    }

    #[test]
    fn borrowing_context_matches_the_owning_one() {
        let (mut w, id) = world();
        let inv = Invocation::new(
            dedisys_types::TxId::new(dedisys_types::NodeId(0), 1),
            id.clone(),
            "setSeats",
            vec![Value::Int(90)],
        );
        let result = Value::Bool(true);
        let pre: PreState = vec![("size".into(), Value::Int(3))];
        let mut ctx =
            ValidationContext::borrowing(None, Some(&inv), Some(&result), Some(&pre), &mut w);
        // No context object given: it is the called object.
        assert_eq!(ctx.context_object(), Some(&id));
        assert_eq!(ctx.method().unwrap().as_str(), "setSeats");
        assert_eq!(ctx.args(), &[Value::Int(90)]);
        assert_eq!(ctx.result(), Some(&Value::Bool(true)));
        assert_eq!(ctx.pre("size"), Some(&Value::Int(3)));
        assert_eq!(ctx.self_field("seats"), Ok(Value::Int(80)));
        // Writing to a borrowed snapshot copies it; the original stays.
        ctx.store_pre("more", Value::Int(1));
        assert_eq!(ctx.take_pre_state().len(), 2);
        assert_eq!(ctx.take_accessed_objects(), vec![id.clone()]);
        drop(ctx);
        assert_eq!(pre.len(), 1);

        // A prepared context object overrides the called object; an
        // invariant context has no call data at all.
        let other = ObjectId::new("Flight", "F2");
        let ctx = ValidationContext::borrowing(Some(&other), Some(&inv), None, None, &mut w);
        assert_eq!(ctx.context_object(), Some(&other));
        assert_eq!(ctx.method().unwrap().as_str(), "setSeats");
        drop(ctx);
        let ctx = ValidationContext::borrowing(Some(&other), None, None, None, &mut w);
        assert_eq!(ctx.context_object(), Some(&other));
        assert!(ctx.method().is_none());
        assert!(ctx.args().is_empty() && ctx.result().is_none() && ctx.pre("size").is_none());
    }

    #[test]
    fn repeated_reads_gather_an_object_once() {
        let (mut w, id) = world();
        let mut ctx = ValidationContext::for_invariant(id.clone(), &mut w);
        ctx.self_field("seats").unwrap();
        ctx.field(&id, "seats").unwrap();
        ctx.self_field("missing").unwrap();
        assert_eq!(ctx.accessed.len(), 1);
        let mut w = MapAccess::new();
        let mut ctx = ValidationContext::for_query(&mut w);
        assert_eq!(
            ctx.self_field("seats"),
            Err(Error::Config("no context object".into()))
        );
        assert!(ctx.accessed.is_empty());
    }

    #[test]
    fn gathered_ids_are_sorted_once_each_into_the_lent_buffer() {
        let (mut w, f1) = world();
        let f2 = ObjectId::new("Flight", "F2");
        let (p1, p2) = (ObjectId::new("Person", "P1"), ObjectId::new("Person", "P2"));
        for id in [&f2, &p1, &p2] {
            w.put_field(id, "seats", Value::Int(1));
        }
        let pre: PreState = vec![("seats".into(), Value::Int(3))];
        let mut ctx = ValidationContext::borrowing(Some(&f2), None, None, Some(&pre), &mut w);
        // A lent buffer is cleared before the check gathers into it.
        let mut lent = Vec::with_capacity(8);
        lent.push(ObjectId::new("Stale", "S1"));
        let block = lent.as_ptr();
        ctx.gather_into(lent);
        assert!(ctx.accessed.is_empty());
        // F2, F1, F2, then `count("Person")`: in id order, each once.
        ctx.self_field("seats").unwrap();
        ctx.field(&f1, "seats").unwrap();
        ctx.field(&f2, "seats").unwrap();
        let query = crate::expr::ExprConstraint::parse("count(\"Person\") = 2").unwrap();
        assert_eq!(crate::Constraint::validate(&query, &mut ctx), Ok(true));
        let expected = [f1, f2.clone(), p1, p2];
        assert_eq!(ctx.accessed, expected);
        // The borrowed `@pre` snapshot is copied on write; a second
        // store of a key overwrites it.
        ctx.store_pre("seats", Value::Int(4));
        ctx.store_pre(String::from("seats"), Value::Int(5));
        assert_eq!(ctx.pre("seats"), Some(&Value::Int(5)));
        assert_eq!(
            ctx.take_pre_state(),
            [(Cow::Borrowed("seats"), Value::Int(5))]
        );
        // The ids come back in the very buffer that was lent.
        let gathered = ctx.take_accessed_objects();
        assert_eq!((gathered.as_ptr(), &gathered[..]), (block, &expected[..]));
        drop(ctx);
        assert_eq!(pre, [(Cow::Borrowed("seats"), Value::Int(3))]);
    }

    #[test]
    fn query_context_lists_class_objects() {
        let (mut w, id) = world();
        w.put_field(&ObjectId::new("Flight", "F2"), "seats", Value::Int(10));
        let mut ctx = ValidationContext::for_query(&mut w);
        let flights = ctx.objects_of_class(&ClassName::from("Flight"));
        assert_eq!(flights.len(), 2);
        assert!(ctx.accessed.contains(&id));
    }
}
