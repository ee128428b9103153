//! # ltam-engine — LTAM authorization enforcement
//!
//! The enforcement architecture of the paper's Figure 3, built on
//! [`ltam_core`]:
//!
//! * [`profile`] — the **user profile database** (supervisors, groups;
//!   feeds the `Supervisor_Of` rule operator),
//! * [`movement`] — the **location & movements database**: an event-sourced
//!   log of enter/exit events with occupancy, whereabouts, presence and
//!   contact-tracing queries,
//! * [`engine`] — the **access control engine**: request checking
//!   (Definition 7), continuous movement monitoring, violation detection
//!   (tailgating, exit-window breaches, overstays), rule derivation and
//!   audit,
//! * [`violation`] — the violation taxonomy and security-desk alerts,
//! * [`baseline`] — the **card-reader baseline** of §1 (request-time-only
//!   checks) behind the same [`baseline::Enforcement`] trait, for
//!   comparative evaluation,
//! * [`query`] — the **query engine** with a small query language
//!   (`ACCESSIBLE FOR`, `CAN … ENTER … AT`, `WHO IN`, `CONTACTS OF`,
//!   `VIOLATIONS …`) over all databases,
//! * [`retention`] — the engine half of history retention: the record
//!   bundle a prune produces and the per-class watermarks a pruned
//!   engine exposes (policies live in [`ltam_core::retention`]; the
//!   archive tier lives in `ltam-store`),
//! * [`shared`] — a `parking_lot`-guarded, cloneable engine handle with a
//!   `crossbeam` alert channel for concurrent deployments.

#![warn(missing_docs)]

pub mod baseline;
pub mod batch;
mod digest;
pub mod engine;
pub mod movement;
pub mod profile;
pub mod query;
pub mod report;
pub mod retention;
pub mod shard;
pub mod shared;
pub mod snapshot;
pub mod view;
pub mod violation;

pub use baseline::{CardReaderEngine, Enforcement};
pub use batch::{
    BatchOutcome, EngineStatus, Event, PolicyCore, PolicyImage, ShardStats, ShardStatusRow,
    ShardedEngine,
};
pub use engine::{AccessControlEngine, AuditRecord, EngineConfig, DEFAULT_GRANT_TTL};
pub use movement::{Contact, MovementEvent, MovementKind, MovementsDb, Stay, TimelineError};
pub use profile::{Profile, UserProfileDb};
pub use query::{Query, QueryContext, QueryResult};
pub use report::{security_report, SecurityReport};
pub use retention::{HistoryWatermarks, PrunedHistory};
pub use shard::{PendingImage, PolicyView, ShardState, ShardStateImage};
pub use shared::SharedEngine;
pub use snapshot::EngineSnapshot;
pub use view::EngineReadView;
pub use violation::{Alert, Violation};
