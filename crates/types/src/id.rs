//! Identifier newtypes used across the workspace.
//!
//! Per C-NEWTYPE, each identifier is a distinct type so a [`NodeId`] can
//! never be confused with a [`TxId`] and a [`ClassName`] never with a
//! [`MethodName`].
//!
//! The string-bearing identities ([`ClassName`], [`MethodName`],
//! [`ConstraintName`], [`FieldName`], [`ObjectId`]) are *handles*: a
//! clone bumps a reference count and copies nothing. How an identity is
//! represented is this module's business alone — its order, display
//! form and serde bytes are those of the plain `String` fields it
//! replaced.

use serde::json::{write_string, Reader};
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

/// Identifies a node (server) in the distributed system.
///
/// Nodes are numbered densely from zero by the cluster builder.
///
/// ```
/// use dedisys_types::NodeId;
/// let n = NodeId(2);
/// assert_eq!(n.to_string(), "n2");
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the raw index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifies a transaction started through the transaction manager.
///
/// Transaction ids carry the originating node so ids minted on different
/// nodes never collide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TxId {
    /// Node on which the transaction was started.
    pub node: NodeId,
    /// Per-node sequence number.
    pub seq: u64,
}

impl TxId {
    /// Creates a transaction id from its parts.
    pub fn new(node: NodeId, seq: u64) -> Self {
        Self { node, seq }
    }
}

impl fmt::Display for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tx-{}-{}", self.node.0, self.seq)
    }
}

/// Identifies a group-membership view (§4.1, GMS).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct ViewId(pub u64);

impl ViewId {
    /// The view id following this one.
    pub fn next(self) -> ViewId {
        ViewId(self.0 + 1)
    }
}

impl fmt::Display for ViewId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

macro_rules! name_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(Arc<str>);

        impl $name {
            /// Creates the name from anything string-like.
            pub fn new(name: impl AsRef<str>) -> Self {
                Self(name.as_ref().into())
            }

            /// Returns the name as a string slice.
            pub fn as_str(&self) -> &str {
                &self.0
            }

            /// The name as shared text — what a holder that shows it
            /// (a trace event) clones instead of formatting.
            pub fn text(&self) -> &Arc<str> {
                &self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(&self.0)
            }
        }

        impl From<&str> for $name {
            fn from(s: &str) -> Self {
                Self(s.into())
            }
        }

        impl From<String> for $name {
            fn from(s: String) -> Self {
                Self(s.into())
            }
        }

        /// Shares the text: a reference count, no copy.
        impl From<&Arc<str>> for $name {
            fn from(s: &Arc<str>) -> Self {
                Self(Arc::clone(s))
            }
        }

        impl AsRef<str> for $name {
            fn as_ref(&self) -> &str {
                &self.0
            }
        }

        /// `Eq`, `Ord` and `Hash` are the text's, so a map keyed by the
        /// name answers `get(&str)`.
        impl Borrow<str> for $name {
            fn borrow(&self) -> &str {
                &self.0
            }
        }

        /// A bare JSON string, as the derive wrote the `String` newtype.
        impl Serialize for $name {
            fn serialize_json(&self, out: &mut String) {
                write_string(&self.0, out);
            }
        }

        impl<'de> Deserialize<'de> for $name {
            fn deserialize_json(r: &mut Reader<'_>) -> Result<Self, serde::Error> {
                Ok(Self(r.string()?.as_ref().into()))
            }

            fn from_key(key: &str) -> Result<Self, serde::Error> {
                Ok(Self(key.into()))
            }
        }
    };
}

name_type!(
    /// Name of an application class (e.g. `"Flight"`).
    ///
    /// Classes are the unit upon which invariant constraints define their
    /// context (§1.6).
    ClassName,
    "class"
);

name_type!(
    /// Name of a method of an application class (e.g. `"setAlarmKind"`).
    MethodName,
    "method"
);

name_type!(
    /// Unique name of an integrity constraint within an application
    /// (§4.2.2: constraint names are unique per application).
    ConstraintName,
    "constraint"
);

name_type!(
    /// Name of a field of an application class (e.g. `"balance"`). The
    /// class mints it once at deploy time; every instance's state shares
    /// it.
    FieldName,
    "field"
);

name_type!(
    /// The display text of an identity — an [`ObjectId`]'s `Class#key`,
    /// a method's or a constraint's name — held by sharing it
    /// (`SharedText::from(id.text())`), never by formatting a copy:
    /// what a trace event names its subjects with. On the wire it is
    /// the bare string an owned `String` field wrote.
    SharedText,
    "text"
);

/// The 64-bit FNV-1a offset basis: the hash of no bytes.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One FNV-1a pass over `bytes`, continuing from `hash` (start from
/// [`FNV_OFFSET`]), so a stream hashes chunk by chunk.
///
/// ```
/// use dedisys_types::{fnv1a, FNV_OFFSET};
/// assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
/// assert_eq!(fnv1a(fnv1a(FNV_OFFSET, b"fo"), b"o"), fnv1a(FNV_OFFSET, b"foo"));
/// ```
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// Identifies a single logical application object: a class plus a
/// primary key.
///
/// An id is a handle on one shared allocation holding the class, the
/// display form `Class#key` (the key is its tail) and a 64-bit hash of
/// class and key, computed once in [`ObjectId::new`] (FNV-1a, no
/// per-process seed). `clone` bumps a reference count; `==` answers by
/// pointer before it looks at a string; `Hash` feeds the stored word,
/// so a [`HashMap`](std::collections::HashMap) built with
/// [`IdBuildHasher`] finds an object without hashing or — apart from
/// the one confirming probe — comparing strings. `Ord`, `Display` and
/// the serde form are those of the plain `(class, key)` pair.
///
/// ```
/// use dedisys_types::ObjectId;
/// let alarm = ObjectId::new("Alarm", "A-17");
/// assert_eq!(alarm.to_string(), "Alarm#A-17");
/// ```
#[derive(Clone)]
pub struct ObjectId(Arc<IdParts>);

struct IdParts {
    class: ClassName,
    /// `class ‖ '#' ‖ key`.
    text: Arc<str>,
    hash: u64,
}

impl ObjectId {
    /// Creates an object id for `class` with primary key `key`.
    pub fn new(class: impl Into<ClassName>, key: impl AsRef<str>) -> Self {
        let (class, key) = (class.into(), key.as_ref());
        // 0xff occurs in no UTF-8 string, so ("ab", "c") and ("a", "bc")
        // hash apart.
        let hash = fnv1a(
            fnv1a(fnv1a(FNV_OFFSET, class.as_str().as_bytes()), &[0xff]),
            key.as_bytes(),
        );
        let text = [class.as_str(), "#", key].concat().into();
        Self(Arc::new(IdParts { class, text, hash }))
    }

    /// The class this object belongs to.
    pub fn class(&self) -> &ClassName {
        &self.0.class
    }

    /// The primary key within the class.
    pub fn key(&self) -> &str {
        &self.0.text[self.0.class.as_str().len() + 1..]
    }

    /// The display form (`Class#key`) as shared text — what a holder
    /// that keys by it (the journal) or shows it (a trace event) clones
    /// instead of formatting.
    pub fn text(&self) -> &Arc<str> {
        &self.0.text
    }
}

impl PartialEq for ObjectId {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
            // Equal texts split at equal offsets are equal parts.
            || (self.0.hash == other.0.hash
                && self.0.class.as_str().len() == other.0.class.as_str().len()
                && self.0.text == other.0.text)
    }
}

impl Eq for ObjectId {}

impl Ord for ObjectId {
    fn cmp(&self, other: &Self) -> Ordering {
        if Arc::ptr_eq(&self.0, &other.0) {
            return Ordering::Equal;
        }
        // Not the texts: '#' sorts after some characters a class may
        // end in.
        (self.class(), self.key()).cmp(&(other.class(), other.key()))
    }
}

impl PartialOrd for ObjectId {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for ObjectId {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.hash);
    }
}

impl fmt::Debug for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObjectId")
            .field("class", &self.0.class)
            .field("key", &self.key())
            .finish()
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0.text)
    }
}

/// `{"class":"…","key":"…"}`, as the derive wrote the two-field struct.
impl Serialize for ObjectId {
    fn serialize_json(&self, out: &mut String) {
        out.push_str("{\"class\":");
        write_string(self.0.class.as_str(), out);
        out.push_str(",\"key\":");
        write_string(self.key(), out);
        out.push('}');
    }
}

impl<'de> Deserialize<'de> for ObjectId {
    fn deserialize_json(r: &mut Reader<'_>) -> Result<Self, serde::Error> {
        /// The wire form; the derive reads its members in any order.
        #[derive(Deserialize)]
        struct Record {
            class: ClassName,
            key: String,
        }
        let Record { class, key } = Record::deserialize_json(r)?;
        Ok(Self::new(class, key))
    }
}

/// The [`Hasher`] behind [`IdBuildHasher`]: hands the word an
/// [`ObjectId`] stored at construction straight to the map.
///
/// Any other key still hashes correctly — its bytes are folded with
/// FNV-1a — but only an `ObjectId` gets the precomputed word (and a
/// composite key keeps nothing of what it fed before its id). There is
/// no per-process seed: the maps it serves are keyed by ids the
/// application itself mints, and their iteration order, while
/// arbitrary, is the same on every run.
#[derive(Debug, Clone, Copy)]
pub struct IdHasher(u64);

impl Default for IdHasher {
    fn default() -> Self {
        Self(FNV_OFFSET)
    }
}

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0 = fnv1a(self.0, bytes);
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = word;
    }
}

/// The `BuildHasher` of every map probed per request by exact
/// [`ObjectId`] (a container's committed states, the lock table, the
/// replica placements): `HashMap<ObjectId, V, IdBuildHasher>`.
pub type IdBuildHasher = BuildHasherDefault<IdHasher>;

/// An odd 64-bit multiplier with its set bits spread evenly (the one
/// `rustc`'s own Fx hash folds words with).
const TX_MIX: u64 = 0x517c_c1b7_2722_0a95;

/// The [`Hasher`] behind [`TxBuildHasher`]: each word a [`TxId`] feeds
/// (its node, then its sequence number) is folded in with one
/// rotate, xor and multiply, which spreads consecutive sequence numbers
/// over both the low bits a table indexes by and the high bits it tags
/// by. No per-process seed, for the reason [`IdHasher`] has none — and
/// because a table that fills and empties once per transaction grows
/// and rehashes at moments that depend on where its keys land, so a
/// seeded one allocates differently from run to run.
#[derive(Debug, Clone, Copy, Default)]
pub struct TxHasher(u64);

impl Hasher for TxHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0 = fnv1a(self.0, bytes);
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(TX_MIX);
    }
}

/// The `BuildHasher` of both tables keyed by [`TxId`] (the transaction
/// manager's records, which carry the cluster's, and a container's
/// write buffers): `HashMap<TxId, V, TxBuildHasher>`.
/// A composite key is safe here too — every word it feeds is kept,
/// which [`IdHasher`] does not promise — so the threat store files its
/// `(constraint, object)` identities through it, the constraint
/// repository its `(class, method)` signatures, and a journal's
/// compaction the 32-bit words it files keys by.
pub type TxBuildHasher = BuildHasherDefault<TxHasher>;

/// A `(class, method)` pair — the lookup key used by the constraint
/// repository to find constraints affected by an invocation (§2.1.4).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MethodSignature {
    /// Declaring class of the method.
    pub class: ClassName,
    /// Name of the method.
    pub method: MethodName,
}

impl MethodSignature {
    /// Creates a method signature from class and method names.
    pub fn new(class: impl Into<ClassName>, method: impl Into<MethodName>) -> Self {
        Self {
            class: class.into(),
            method: method.into(),
        }
    }

    /// The display form `Class::method` as an owned string, built in
    /// one allocation of its exact size (`to_string` grows its way
    /// there) — what a `trigger_point` event owns.
    pub fn to_text(&self) -> String {
        [self.class.as_str(), "::", self.method.as_str()].concat()
    }
}

impl fmt::Display for MethodSignature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}::{}", self.class, self.method)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ChaosRng;
    use std::collections::{BTreeMap, HashMap};
    use std::hash::BuildHasher;

    #[test]
    fn node_id_display_and_index() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(NodeId(3).index(), 3);
    }

    #[test]
    fn tx_ids_from_different_nodes_are_distinct() {
        let a = TxId::new(NodeId(0), 1);
        let b = TxId::new(NodeId(1), 1);
        assert_ne!(a, b);
        assert_eq!(a.to_string(), "tx-0-1");
    }

    #[test]
    fn view_id_next_increments() {
        assert_eq!(ViewId(1).next(), ViewId(2));
    }

    #[test]
    fn object_id_parts_and_display() {
        let id = ObjectId::new("Flight", "LH-441");
        assert_eq!(id.class().as_str(), "Flight");
        assert_eq!(id.key(), "LH-441");
        assert_eq!(id.to_string(), "Flight#LH-441");
    }

    #[test]
    fn method_signature_display() {
        let sig = MethodSignature::new("Alarm", "setAlarmKind");
        assert_eq!(sig.to_string(), "Alarm::setAlarmKind");
        assert_eq!(sig.to_text(), sig.to_string());
        assert_eq!(sig.to_text().capacity(), sig.to_text().len());
    }

    #[test]
    fn names_roundtrip_serde() {
        let c = ClassName::from("RepairReport");
        let json = serde_json::to_string(&c).unwrap();
        assert_eq!(json, r#""RepairReport""#, "a bare string");
        let back: ClassName = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
        // As a map key (quoted once, read back through `from_key`).
        let by_name = BTreeMap::from([(ConstraintName::from("c\"1"), 7u32)]);
        let json = serde_json::to_string(&by_name).unwrap();
        assert_eq!(json, r#"{"c\"1":7}"#);
        let back: BTreeMap<ConstraintName, u32> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, by_name);
        // Keyed by a name, answered by its text.
        assert_eq!(back.get("c\"1"), Some(&7));
        let fields = HashMap::from([(FieldName::from("balance"), 1u32)]);
        assert_eq!(
            (fields.get("balance"), fields.get("floor")),
            (Some(&1), None)
        );
    }

    /// The literals are what `#[derive(Serialize)]` wrote for the two
    /// owned `String`s (journals and traces written before the handle
    /// must still read).
    #[test]
    fn object_id_serde_bytes_are_those_of_the_two_field_struct() {
        let id = ObjectId::new("Flight", "LH-\"441");
        let json = serde_json::to_string(&id).unwrap();
        assert_eq!(json, r#"{"class":"Flight","key":"LH-\"441"}"#);
        assert_eq!(serde_json::from_str::<ObjectId>(&json).unwrap(), id);
        // Member order and unknown members are the reader's business.
        let reordered = r#"{"key":"LH-\"441","extra":[1],"class":"Flight"}"#;
        assert_eq!(serde_json::from_str::<ObjectId>(reordered).unwrap(), id);
        assert!(serde_json::from_str::<ObjectId>(r#"{"class":"Flight"}"#).is_err());
        let sig = MethodSignature::new("Alarm", "setAlarmKind");
        assert_eq!(
            serde_json::to_string(&sig).unwrap(),
            r#"{"class":"Alarm","method":"setAlarmKind"}"#
        );
        assert_eq!(
            format!("{id:?}"),
            r#"ObjectId { class: ClassName("Flight"), key: "LH-\"441" }"#
        );
    }

    fn random_id(rng: &mut ChaosRng) -> ObjectId {
        // Few distinct parts, so equal classes, equal keys and shared
        // prefixes all occur.
        let class = *rng.pick(&["A", "A!", "Ab", "B", ""]);
        let key = *rng.pick(&["", "1", "10", "2", "b", "#", "é"]);
        ObjectId::new(class, key)
    }

    #[test]
    fn object_id_orders_as_the_class_key_pair() {
        for seed in 0..256 {
            let mut rng = ChaosRng::new(seed);
            for _ in 0..32 {
                let (a, b) = (random_id(&mut rng), random_id(&mut rng));
                let by_parts = (a.class().as_str(), a.key()).cmp(&(b.class().as_str(), b.key()));
                assert_eq!(a.cmp(&b), by_parts, "{a} vs {b}");
                assert_eq!(a.partial_cmp(&b), Some(by_parts));
                assert_eq!(a == b, by_parts.is_eq());
            }
        }
    }

    #[test]
    fn ids_built_apart_from_equal_parts_are_one_identity() {
        let a = ObjectId::new("Flight", "LH-441");
        let b = ObjectId::new(ClassName::from("Flight"), String::from("LH-441"));
        assert!(!Arc::ptr_eq(&a.0, &b.0));
        assert_eq!(a, b);
        let word = |id: &ObjectId| IdBuildHasher::default().hash_one(id);
        assert_eq!(word(&a), word(&b));
        assert_eq!(word(&a), a.0.hash, "the map sees the stored word");
        let mut map: HashMap<ObjectId, u32, IdBuildHasher> = HashMap::default();
        map.insert(a.clone(), 1);
        assert_eq!(map.get(&b), Some(&1));
        assert_eq!(map.insert(b, 2), Some(1));
        assert_eq!(map.len(), 1);
        // The separator keeps the parts apart.
        assert_ne!(
            word(&ObjectId::new("ab", "c")),
            word(&ObjectId::new("a", "bc"))
        );
        assert_ne!(ObjectId::new("ab", "c"), ObjectId::new("a", "bc"));
        // Equal texts are not equal ids.
        let (left, right) = (ObjectId::new("a#b", "c"), ObjectId::new("a", "b#c"));
        assert_eq!(left.text(), right.text());
        assert_ne!(left, right);
        assert_eq!((left.key(), right.key()), ("c", "b#c"));
        // Any other key still hashes by content.
        let plain = |s: &str| IdBuildHasher::default().hash_one(s);
        assert_eq!(plain("x"), plain("x"));
        assert_ne!(plain("x"), plain("y"));
    }

    /// The literals pin the function: a table keyed by `TxId` puts a
    /// transaction in the same slot in every process, on every machine.
    #[test]
    fn tx_id_hash_has_no_seed() {
        let word = |tx: TxId| TxBuildHasher::default().hash_one(tx);
        assert_eq!(word(TxId::new(NodeId(0), 1)), 0x517c_c1b7_2722_0a95);
        assert_eq!(word(TxId::new(NodeId(2), 77)), 0x52ca_2ea6_8acf_118d);
        // Two builders, two processes: one answer.
        let (a, b) = (TxBuildHasher::default(), TxBuildHasher::default());
        for seq in 0..64 {
            let tx = TxId::new(NodeId(seq as u32 % 3), seq);
            assert_eq!(a.hash_one(tx), b.hash_one(tx));
        }
    }

    #[test]
    fn cloning_a_handle_copies_nothing() {
        let id = ObjectId::new("Flight", "LH-441");
        let copy = id.clone();
        assert!(Arc::ptr_eq(&id.0, &copy.0));
        assert_eq!(Arc::strong_count(&id.0), 2);
        assert!(Arc::ptr_eq(id.text(), copy.text()));
        assert_eq!(&**id.text(), "Flight#LH-441");
        let class = ClassName::from("Flight");
        let copy = class.clone();
        assert!(Arc::ptr_eq(&class.0, &copy.0));
        assert_eq!(Arc::strong_count(&class.0), 2);
    }

    #[test]
    fn default_names_are_empty() {
        assert_eq!(ClassName::default().as_str(), "");
        assert_eq!(MethodName::default().as_str(), "");
        assert_eq!(ConstraintName::default().as_str(), "");
        assert_eq!(FieldName::default().as_str(), "");
        assert_eq!(ClassName::default(), ClassName::from(""));
    }
}
