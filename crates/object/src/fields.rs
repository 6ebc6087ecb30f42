//! The field list of an entity state or a class's defaults.

use dedisys_types::{FieldName, Value};
use serde::json::{write_string, Reader};
use serde::{Deserialize, Serialize};

/// Named field values, one list kept in name order.
///
/// A state's copy is one allocation of exactly its fields, and shares
/// their names: cloning a name is a reference count. Lookups search
/// the sorted names, which for a class's handful of fields is a few
/// comparisons.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct Fields(Vec<(FieldName, Value)>);

impl Fields {
    /// The value of `name`, if the list holds it.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.position(name).ok().map(|at| &self.0[at].1)
    }

    /// The fields in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&FieldName, &Value)> {
        self.0.iter().map(|(name, value)| (name, value))
    }

    pub(crate) fn get_mut(&mut self, name: &str) -> Option<&mut Value> {
        let at = self.position(name).ok()?;
        Some(&mut self.0[at].1)
    }

    /// Sets `name` to `value`: a held field keeps its name and takes
    /// the value, a new one goes in at its place in name order.
    pub(crate) fn insert(&mut self, name: FieldName, value: Value) {
        match self.position(name.as_str()) {
            Ok(at) => self.0[at].1 = value,
            Err(at) => self.0.insert(at, (name, value)),
        }
    }

    fn position(&self, name: &str) -> Result<usize, usize> {
        self.0.binary_search_by(|(held, _)| held.as_str().cmp(name))
    }
}

/// `{"name":value,…}` in name order, as the `BTreeMap` it replaced
/// wrote.
impl Serialize for Fields {
    fn serialize_json(&self, out: &mut String) {
        out.push('{');
        for (i, (name, value)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_string(name.as_str(), out);
            out.push(':');
            value.serialize_json(out);
        }
        out.push('}');
    }
}

/// Reads the names in any order; of a name given twice the last value
/// stands, as it did in the `BTreeMap`.
impl<'de> Deserialize<'de> for Fields {
    fn deserialize_json(r: &mut Reader<'_>) -> Result<Self, serde::Error> {
        let mut fields = Self::default();
        let mut more = r.open("{", "}")?;
        while more {
            let name = FieldName::from(&*r.key()?);
            fields.insert(name, Value::deserialize_json(r)?);
            more = r.more("}")?;
        }
        Ok(fields)
    }
}
