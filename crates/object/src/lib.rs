//! # dedisys-object
//!
//! The distributed-object container — the EJB entity-bean replacement.
//!
//! The target systems of the dissertation are tightly coupled,
//! data-centric distributed object systems (§1.4): business data is
//! encapsulated by objects and modified through (possibly nested)
//! method invocations. This crate provides that object model:
//!
//! * [`EntityState`] — an entity's attribute record with a version and
//!   freshness estimation (the `VersionedEntity` of Figure 4.3); its
//!   fields are one list in name order.
//! * [`ClassDescriptor`] / [`MethodDescriptor`] — deployed classes and
//!   their methods, with EJB-style `set*` write detection (§4.3).
//! * [`Invocation`] — the **command-pattern** invocation object that
//!   §5.3 identifies as the key enabling factor for middleware
//!   integration; arbitrary payload can be attached.
//! * [`Interceptor`] / [`InterceptorChain`] — the pluggable invocation
//!   interception of Figure 4.5.
//! * [`EntityContainer`] — per-node entity storage with transactional
//!   write buffering (read-your-writes, apply-on-commit).
//! * [`Snapshot`] — a committed state with its one JSON encoding,
//!   shared by the primary, its backups and their journals.
//! * [`MethodBody`] / [`AppDescriptor`] — application deployment:
//!   classes, default field values and method implementations.
//!
//! ## Example
//!
//! ```
//! use dedisys_object::{AppDescriptor, ClassDescriptor, EntityContainer, EntityState};
//! use dedisys_types::{NodeId, ObjectId, SimTime, TxId, Value};
//!
//! let flight_class = ClassDescriptor::new("Flight")
//!     .with_field("seats", Value::Int(0))
//!     .with_field("soldTickets", Value::Int(0));
//! let app = AppDescriptor::new("booking").with_class(flight_class);
//!
//! let mut container = EntityContainer::new(&app);
//! let tx = TxId::new(NodeId(0), 1);
//! let id = ObjectId::new("Flight", "LH-441");
//! container.create(tx, EntityState::for_class(&app, &id).unwrap()).unwrap();
//! container.write_field(tx, &id, "seats", Value::Int(80), SimTime::ZERO).unwrap();
//! container.commit(tx);
//! assert_eq!(container.committed_entity(&id).unwrap().field("seats"), &Value::Int(80));
//! ```

mod class;
mod container;
mod entity;
mod fields;
mod interceptor;
mod invocation;
mod method;
mod snapshot;

use fields::Fields;

pub use class::{AppDescriptor, ClassDescriptor, MethodDescriptor, MethodKind};
pub use container::EntityContainer;
pub use entity::EntityState;
pub use interceptor::{Interceptor, InterceptorChain};
pub use invocation::Invocation;
pub use method::{MethodBody, MethodContext, MethodTable};
pub use snapshot::Snapshot;
