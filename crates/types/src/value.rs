//! Dynamic values held in entity fields and passed as method arguments.

use crate::{Error, ObjectId, Result};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A dynamically typed value.
///
/// Application entities (`dedisys-object`) store their attributes as
/// `Value`s, and invocation arguments/results are `Value`s — mirroring
/// how the original system moves attribute data through generic
/// invocation objects.
///
/// ```
/// use dedisys_types::Value;
/// let v = Value::from(42);
/// assert_eq!(v.as_int(), Some(42));
/// assert_eq!(v.type_name(), "int");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub enum Value {
    /// Absence of a value.
    #[default]
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Reference to another application object.
    Ref(ObjectId),
    /// Ordered list of values.
    List(Vec<Value>),
}

impl Value {
    /// Human-readable name of the value's type.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "str",
            Value::Ref(_) => "ref",
            Value::List(_) => "list",
        }
    }

    /// Returns the boolean if this is a [`Value::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the integer if this is a [`Value::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns a float if this is numeric ([`Value::Int`] widens).
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Returns the string slice if this is a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Truthiness used by the constraint expression language:
    /// `Null`/`false`/`0`/`0.0`/`""`/`[]` are falsy, everything else truthy.
    pub fn truthy(&self) -> bool {
        match self {
            Value::Null => false,
            Value::Bool(b) => *b,
            Value::Int(i) => *i != 0,
            Value::Float(f) => *f != 0.0,
            Value::Str(s) => !s.is_empty(),
            Value::Ref(_) => true,
            Value::List(items) => !items.is_empty(),
        }
    }

    /// Numeric/lexicographic comparison used by the constraint expression
    /// language. Returns `None` for incomparable types.
    pub fn compare(&self, other: &Value) -> Option<std::cmp::Ordering> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            _ => match (self.as_float(), other.as_float()) {
                (Some(a), Some(b)) => a.partial_cmp(&b),
                _ => None,
            },
        }
    }

    /// Refuses a value a journal could not give back. JSON has no
    /// non-finite numbers: the record would hold `null`, which does not
    /// decode as a float, so replaying the journal would fail or lose
    /// the record.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IllTypedField`] naming `name` (`expected:
    /// "finite float"`) for a NaN or infinite float at any list depth.
    pub fn check_journalable(&self, name: &str) -> Result<()> {
        match self {
            Value::Float(f) if !f.is_finite() => Err(Error::IllTypedField {
                name: name.to_owned(),
                expected: "finite float".to_owned(),
            }),
            Value::List(items) => items
                .iter()
                .try_for_each(|item| item.check_journalable(name)),
            _ => Ok(()),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Ref(id) => write!(f, "@{id}"),
            Value::List(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<ObjectId> for Value {
    fn from(id: ObjectId) -> Self {
        Value::Ref(id)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Self {
        Value::List(items.into_iter().map(Into::into).collect())
    }
}

impl FromIterator<Value> for Value {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Value::List(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    #[test]
    fn conversions_and_accessors() {
        assert_eq!(Value::from(7).as_int(), Some(7));
        assert_eq!(Value::from(true).as_bool(), Some(true));
        assert_eq!(Value::from("x").as_str(), Some("x"));
        assert_eq!(Value::from(2.5).as_float(), Some(2.5));
        assert_eq!(Value::Int(3).as_float(), Some(3.0));
        let id = ObjectId::new("Flight", "F1");
        assert_eq!(Value::from(id.clone()), Value::Ref(id));
        assert_eq!(
            Value::from(vec![1, 2]),
            Value::List(vec![Value::Int(1), Value::Int(2)])
        );
    }

    #[test]
    fn wrong_type_accessors_return_none() {
        assert_eq!(Value::from("x").as_int(), None);
        assert_eq!(Value::Null.as_bool(), None);
        assert_eq!(Value::from(1).as_str(), None);
    }

    #[test]
    fn truthiness() {
        assert!(!Value::Null.truthy());
        assert!(!Value::Int(0).truthy());
        assert!(!Value::Str(String::new()).truthy());
        assert!(!Value::List(vec![]).truthy());
        assert!(Value::Int(-1).truthy());
        assert!(Value::from("a").truthy());
    }

    #[test]
    fn compare_numeric_and_strings() {
        assert_eq!(Value::Int(1).compare(&Value::Int(2)), Some(Ordering::Less));
        assert_eq!(
            Value::Int(1).compare(&Value::Float(0.5)),
            Some(Ordering::Greater)
        );
        assert_eq!(
            Value::from("a").compare(&Value::from("b")),
            Some(Ordering::Less)
        );
        assert_eq!(Value::from("a").compare(&Value::Int(1)), None);
    }

    #[test]
    fn display_is_never_empty() {
        for v in [
            Value::Null,
            Value::Bool(false),
            Value::Int(0),
            Value::Float(0.0),
            Value::Str(String::new()),
            Value::List(vec![]),
        ] {
            assert!(!v.to_string().is_empty());
        }
    }

    #[test]
    fn compare_is_antisymmetric_for_numerics() {
        use std::cmp::Ordering;
        let cases = [
            (Value::Int(1), Value::Float(2.0)),
            (Value::Float(1.5), Value::Int(1)),
            (Value::Int(-3), Value::Int(7)),
        ];
        for (a, b) in cases {
            let ab = a.compare(&b).unwrap();
            let ba = b.compare(&a).unwrap();
            assert_eq!(ab, ba.reverse());
            assert_eq!(a.compare(&a), Some(Ordering::Equal));
        }
    }

    #[test]
    fn list_and_ref_conversions() {
        let id = ObjectId::new("A", "1");
        let v: Value = vec![Value::Ref(id.clone()), Value::Null]
            .into_iter()
            .collect();
        assert_eq!(v, Value::List(vec![Value::Ref(id), Value::Null]));
    }

    #[test]
    fn serde_roundtrip() {
        let v = Value::List(vec![
            Value::Int(1),
            Value::Str("x".into()),
            Value::Ref(ObjectId::new("A", "1")),
        ]);
        let json = serde_json::to_string(&v).unwrap();
        let back: Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v, back);
    }
}
