//! Entity state records.

use crate::{AppDescriptor, Fields};
use dedisys_types::{
    Error, FieldName, ObjectId, Result, SimDuration, SimTime, Value, Version, VersionInfo,
};
use serde::{Deserialize, Serialize};

/// The attribute record of one entity replica.
///
/// Implements the `VersionedEntity` contract of Figure 4.3: besides the
/// held [`Version`], the entity can estimate the latest version of the
/// logical object from its usual update interval, feeding the freshness
/// criteria used in threat negotiation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EntityState {
    id: ObjectId,
    /// Keyed by the class's own names, so a copy shares them.
    fields: Fields,
    version: Version,
    /// Virtual time of the last applied update.
    last_update_at: SimTime,
    /// If the entity is usually updated every `interval`, the estimated
    /// latest version grows accordingly while the copy is stale.
    expected_update_interval: Option<SimDuration>,
}

impl EntityState {
    /// Creates an entity with explicit initial fields.
    pub(crate) fn new(id: ObjectId, fields: Fields) -> Self {
        Self {
            id,
            fields,
            version: Version::INITIAL,
            last_update_at: SimTime::ZERO,
            expected_update_interval: None,
        }
    }

    /// Creates an entity with the default field values of its class in
    /// `app`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ClassNotDeployed`] if the class is unknown.
    pub fn for_class(app: &AppDescriptor, id: &ObjectId) -> Result<Self> {
        let class = app
            .class(id.class())
            .ok_or_else(|| Error::ClassNotDeployed(id.class().to_string()))?;
        Ok(Self::new(id.clone(), class.default_fields()))
    }

    /// The entity id.
    pub fn id(&self) -> &ObjectId {
        &self.id
    }

    /// The value of `field` ([`Value::Null`] if never set).
    pub fn field(&self, field: &str) -> &Value {
        static NULL: Value = Value::Null;
        self.fields.get(field).unwrap_or(&NULL)
    }

    /// All fields in name order.
    pub(crate) fn fields(&self) -> &Fields {
        &self.fields
    }

    /// Sets `field`, bumping the version and recording the update time.
    /// A field the state holds is overwritten in place; only one its
    /// class does not declare gets a name of its own.
    pub fn set_field(&mut self, field: impl AsRef<str>, value: Value, at: SimTime) {
        let field = field.as_ref();
        match self.fields.get_mut(field) {
            Some(slot) => *slot = value,
            None => {
                self.fields.insert(FieldName::from(field), value);
            }
        }
        self.version = self.version.next();
        self.last_update_at = at;
    }

    /// The held version (`getVersion()`).
    pub fn version(&self) -> Version {
        self.version
    }

    /// Declares the expected update interval used for freshness
    /// estimation.
    pub fn set_expected_update_interval(&mut self, interval: SimDuration) {
        self.expected_update_interval = Some(interval);
    }

    /// The `VersionedEntity` info at virtual time `now`
    /// (`getVersion()` / `getEstimatedLatestVersion()`).
    pub fn version_info(&self, now: SimTime) -> VersionInfo {
        let estimated = match self.expected_update_interval {
            Some(interval) if interval > SimDuration::ZERO && now > self.last_update_at => {
                let missed = now.since(self.last_update_at).as_nanos() / interval.as_nanos();
                Version(self.version.0 + missed)
            }
            _ => self.version,
        };
        VersionInfo::new(self.version, estimated)
    }

    /// Serializes the state for persistence/propagation.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Persistence`] on serialization failure.
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string(self).map_err(|e| Error::Persistence(e.to_string()))
    }

    /// Restores a state serialized by [`EntityState::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Persistence`] on deserialization failure.
    pub fn from_json(json: &str) -> Result<Self> {
        serde_json::from_str(json).map_err(|e| Error::Persistence(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entity() -> EntityState {
        EntityState::new(ObjectId::new("Flight", "F1"), Fields::default())
    }

    #[test]
    fn set_field_bumps_version() {
        let mut e = entity();
        assert_eq!(e.version(), Version(0));
        e.set_field("seats", Value::Int(80), SimTime::from_nanos(5));
        assert_eq!(e.version(), Version(1));
        assert_eq!(e.field("seats"), &Value::Int(80));
        assert_eq!(e.field("unknown"), &Value::Null);
    }

    #[test]
    fn version_info_estimates_missed_updates() {
        let mut e = entity();
        e.set_field("x", Value::Int(1), SimTime::from_nanos(0));
        e.set_expected_update_interval(SimDuration::from_millis(10));
        let info = e.version_info(SimTime::from_nanos(35_000_000));
        assert_eq!(info.version, Version(1));
        assert_eq!(info.missed_updates(), 3);
    }

    #[test]
    fn version_info_without_interval_is_fresh() {
        let e = entity();
        let info = e.version_info(SimTime::from_nanos(1_000_000));
        assert_eq!(info.missed_updates(), 0);
    }

    #[test]
    fn json_roundtrip() {
        let mut e = entity();
        e.set_field("seats", Value::Int(80), SimTime::from_nanos(1));
        let json = e.to_json().unwrap();
        let back = EntityState::from_json(&json).unwrap();
        assert_eq!(e, back);
    }

    /// A journal record as 442061c (ids as two owned `String`s) wrote
    /// it: the handle reads it to an equal state and writes it back
    /// byte for byte.
    #[test]
    fn a_record_written_before_the_id_handle_still_decodes() {
        const RECORD: &str = concat!(
            r#"{"id":{"class":"Flight","key":"LH-\"441"},"fields":{"partner":"#,
            r#"{"Ref":{"class":"Flight","key":"OS-1"}},"seats":{"Int":80}},"#,
            r#""version":2,"last_update_at":7,"expected_update_interval":10000000}"#
        );
        let mut e = EntityState::new(ObjectId::new("Flight", "LH-\"441"), Fields::default());
        e.set_field("seats", Value::Int(80), SimTime::from_nanos(5));
        let partner = Value::Ref(ObjectId::new("Flight", "OS-1"));
        e.set_field("partner", partner, SimTime::from_nanos(7));
        e.set_expected_update_interval(SimDuration::from_millis(10));
        assert_eq!(EntityState::from_json(RECORD).unwrap(), e);
        assert_eq!(e.to_json().unwrap(), RECORD);
    }

    /// A hand-edited record, its fields out of name order and one named
    /// twice, reads as the `BTreeMap` of earlier builds read it: name
    /// order, the last value of a repeated name. It writes back in name
    /// order.
    #[test]
    fn a_record_with_unsorted_and_repeated_fields_decodes_as_before() {
        const EDITED: &str = concat!(
            r#"{"id":{"class":"Flight","key":"F1"},"fields":{"seats":{"Int":80},"#,
            r#""gate":{"Str":"B7"},"seats":{"Int":90},"delayed":"Null"},"#,
            r#""version":3,"last_update_at":9,"expected_update_interval":null}"#
        );
        let state = EntityState::from_json(EDITED).unwrap();
        let fields: Vec<(&str, &Value)> = state
            .fields()
            .iter()
            .map(|(name, value)| (name.as_str(), value))
            .collect();
        assert_eq!(
            fields,
            [
                ("delayed", &Value::Null),
                ("gate", &Value::Str("B7".into())),
                ("seats", &Value::Int(90)),
            ]
        );
        assert_eq!(
            state.to_json().unwrap(),
            concat!(
                r#"{"id":{"class":"Flight","key":"F1"},"fields":{"delayed":"Null","#,
                r#""gate":{"Str":"B7"},"seats":{"Int":90}},"#,
                r#""version":3,"last_update_at":9,"expected_update_interval":null}"#
            )
        );
    }
}
