//! Offline stand-in for `serde`, specialised to JSON. **Not serde.**
//!
//! The product crates use serde only through
//! `#[derive(Serialize, Deserialize)]` and `serde_json::{to_string,
//! to_string_pretty, from_str}`. This stand-in keeps those names and
//! serde_json's compact encoding (externally tagged enums, `null` for
//! `None`, newtype structs as their content) so the product compiles
//! unchanged where the registry is unreachable. Like serde_json it
//! writes straight into the output text and reads straight off the
//! input text, with no value tree in between — but it is a different
//! implementation, and every number that passes through it is labelled
//! as such (`perf/README.md`).
//!
//! The token-level reader and the string writer are the benchmark
//! harness's own (`perf/src/harness/json.rs`, included here by path):
//! one JSON implementation, not two.

#[path = "../../../src/harness/json.rs"]
pub mod json;

pub use serde_derive::{Deserialize, Serialize};

use json::Reader;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A (de)serialization failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    /// A required struct field was absent.
    pub fn missing_field(field: &str) -> Self {
        Self(format!("missing field `{field}`"))
    }

    /// The next value's JSON type does not fit `expected`.
    pub fn invalid_type(r: &Reader<'_>, expected: &str) -> Self {
        Self(r.error(&format!("invalid type: expected {expected}")))
    }

    /// An enum tag named no variant of `ty`.
    pub fn unknown_variant(ty: &str, found: &str) -> Self {
        Self(format!("unknown variant `{found}` of {ty}"))
    }
}

impl From<String> for Error {
    fn from(message: String) -> Self {
        Self(message)
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// A type that can write itself as compact JSON.
pub trait Serialize {
    /// Appends the JSON encoding of `self` to `out`.
    fn serialize_json(&self, out: &mut String);

    /// Appends `self` as an object key. JSON keys are strings, so
    /// numbers and newtypes over them are quoted, as in serde_json.
    fn serialize_key(&self, out: &mut String) {
        let start = out.len();
        self.serialize_json(out);
        if !out[start..].starts_with('"') {
            out.insert(start, '"');
            out.push('"');
        }
    }
}

/// A type that can read itself off JSON text.
pub trait Deserialize<'de>: Sized {
    /// Reads one `Self` at the cursor.
    fn deserialize_json(r: &mut Reader<'_>) -> Result<Self, Error>;

    /// The value of an absent struct field; only `Option` has one.
    fn missing(field: &'static str) -> Result<Self, Error> {
        Err(Error::missing_field(field))
    }

    /// Reads `Self` from an object key: the string itself, or the
    /// number it spells (the inverse of [`Serialize::serialize_key`]).
    fn from_key(key: &str) -> Result<Self, Error> {
        let mut quoted = String::with_capacity(key.len() + 2);
        json::write_string(key, &mut quoted);
        from_text(&quoted).or_else(|e| from_text(key).map_err(|_| e))
    }
}

/// Reads a `T` that is the whole of `text`.
pub fn from_text<'de, T: Deserialize<'de>>(text: &str) -> Result<T, Error> {
    let mut r = Reader::new(text);
    let value = T::deserialize_json(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// The string tag `tag` of the internally tagged enum object at the
/// cursor, wherever among the members it stands; the cursor does not
/// move (derive helper).
pub fn tag_of(r: &Reader<'_>, tag: &str) -> Result<String, Error> {
    let mut r = r.clone();
    let mut more = r.open("{", "}")?;
    while more {
        if r.key()? == tag {
            return Ok(r.string()?.into_owned());
        }
        r.skip_value()?;
        more = r.more("}")?;
    }
    Err(Error::missing_field(tag))
}

/// Appends an integer in decimal.
fn write_integer(negative: bool, magnitude: u64, out: &mut String) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut rest = magnitude;
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if negative {
        out.push('-');
    }
    out.extend(digits[at..].iter().map(|&d| d as char));
}

macro_rules! numbers {
    ($($t:ty => |$n:ident, $out:ident| $write:expr;)*) => {$(
        impl Serialize for $t {
            fn serialize_json(&self, $out: &mut String) {
                let $n = *self;
                $write
            }
        }
        impl<'de> Deserialize<'de> for $t {
            fn deserialize_json(r: &mut Reader<'_>) -> Result<Self, Error> {
                let text = r.number()?;
                text.parse().map_err(|_| Error::invalid_type(r, stringify!($t)))
            }
        }
    )*};
}

/// Appends a float; non-finite values become `null`, as in serde_json.
fn write_float(f: f64, out: &mut String) {
    use fmt::Write;
    if f.is_finite() {
        // `{:?}` keeps a fraction or exponent, so the text reads back
        // as a float (serde_json: `1.0`).
        let _ = write!(out, "{f:?}");
    } else {
        out.push_str("null");
    }
}

numbers! {
    u8 => |n, out| write_integer(false, u64::from(n), out);
    u16 => |n, out| write_integer(false, u64::from(n), out);
    u32 => |n, out| write_integer(false, u64::from(n), out);
    u64 => |n, out| write_integer(false, n, out);
    usize => |n, out| write_integer(false, n as u64, out);
    i8 => |n, out| write_integer(n < 0, u64::from(n.unsigned_abs()), out);
    i16 => |n, out| write_integer(n < 0, u64::from(n.unsigned_abs()), out);
    i32 => |n, out| write_integer(n < 0, u64::from(n.unsigned_abs()), out);
    i64 => |n, out| write_integer(n < 0, n.unsigned_abs(), out);
    f64 => |n, out| write_float(n, out);
}

impl Serialize for bool {
    fn serialize_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl<'de> Deserialize<'de> for bool {
    fn deserialize_json(r: &mut Reader<'_>) -> Result<Self, Error> {
        if r.eat("true") {
            Ok(true)
        } else if r.eat("false") {
            Ok(false)
        } else {
            Err(Error::invalid_type(r, "bool"))
        }
    }
}

impl Serialize for String {
    fn serialize_json(&self, out: &mut String) {
        json::write_string(self, out);
    }
}

impl<'de> Deserialize<'de> for String {
    fn deserialize_json(r: &mut Reader<'_>) -> Result<Self, Error> {
        Ok(r.string()?.into_owned())
    }

    fn from_key(key: &str) -> Result<Self, Error> {
        Ok(key.to_owned())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize_json(&self, out: &mut String) {
        match self {
            Some(inner) => inner.serialize_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn deserialize_json(r: &mut Reader<'_>) -> Result<Self, Error> {
        if r.eat("null") {
            Ok(None)
        } else {
            T::deserialize_json(r).map(Some)
        }
    }

    fn missing(_: &'static str) -> Result<Self, Error> {
        Ok(None)
    }
}

fn write_sequence<'a, T: Serialize + 'a>(items: impl Iterator<Item = &'a T>, out: &mut String) {
    out.push('[');
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.serialize_json(out);
    }
    out.push(']');
}

fn read_sequence<'de, T: Deserialize<'de>, C: Default + Extend<T>>(
    r: &mut Reader<'_>,
) -> Result<C, Error> {
    let mut items = C::default();
    let mut more = r.open("[", "]")?;
    while more {
        items.extend([T::deserialize_json(r)?]);
        more = r.more("]")?;
    }
    Ok(items)
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize_json(&self, out: &mut String) {
        write_sequence(self.iter(), out);
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn deserialize_json(r: &mut Reader<'_>) -> Result<Self, Error> {
        read_sequence(r)
    }
}

impl<T: Serialize> Serialize for BTreeSet<T> {
    fn serialize_json(&self, out: &mut String) {
        write_sequence(self.iter(), out);
    }
}

impl<'de, T: Deserialize<'de> + Ord> Deserialize<'de> for BTreeSet<T> {
    fn deserialize_json(r: &mut Reader<'_>) -> Result<Self, Error> {
        read_sequence(r)
    }
}

fn write_map<'a, K: Serialize + 'a, V: Serialize + 'a>(
    entries: impl Iterator<Item = (&'a K, &'a V)>,
    out: &mut String,
) {
    out.push('{');
    for (i, (key, value)) in entries.enumerate() {
        if i > 0 {
            out.push(',');
        }
        key.serialize_key(out);
        out.push(':');
        value.serialize_json(out);
    }
    out.push('}');
}

fn read_map<'de, K: Deserialize<'de>, V: Deserialize<'de>, C: Default + Extend<(K, V)>>(
    r: &mut Reader<'_>,
) -> Result<C, Error> {
    let mut entries = C::default();
    let mut more = r.open("{", "}")?;
    while more {
        let key = K::from_key(&r.key()?)?;
        entries.extend([(key, V::deserialize_json(r)?)]);
        more = r.more("}")?;
    }
    Ok(entries)
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize_json(&self, out: &mut String) {
        write_map(self.iter(), out);
    }
}

impl<'de, K: Deserialize<'de> + Ord, V: Deserialize<'de>> Deserialize<'de> for BTreeMap<K, V> {
    fn deserialize_json(r: &mut Reader<'_>) -> Result<Self, Error> {
        read_map(r)
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn serialize_json(&self, out: &mut String) {
        out.push('[');
        self.0.serialize_json(out);
        out.push(',');
        self.1.serialize_json(out);
        out.push(']');
    }
}

impl<'de, A: Deserialize<'de>, B: Deserialize<'de>> Deserialize<'de> for (A, B) {
    fn deserialize_json(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.expect("[")?;
        let first = A::deserialize_json(r)?;
        r.expect(",")?;
        let second = B::deserialize_json(r)?;
        r.expect("]")?;
        Ok((first, second))
    }
}
