//! [`EngineReadView`] — a cloneable, read-only handle over a shared
//! [`ShardedEngine`].
//!
//! The sharded engine is already safe to read concurrently: every
//! accessor takes `&self` and synchronizes per shard (brief mutex
//! holds) or on the policy epoch lock. What was missing is a *type*
//! that grants only those accessors. A serving tier wants to route
//! read-only queries around its write path — many reader threads, one
//! writer — and handing each reader the full engine would hand them
//! `ingest` and the policy-edit path too, where an accidental call
//! bypasses durability (see `ltam-store`'s `DurableEngine::engine`
//! warning). `EngineReadView` is that capability split: it wraps an
//! `Arc<ShardedEngine>` and re-exports the read surface, nothing else.
//!
//! Reads are **concurrent with writes, per shard**: a view's query
//! locks one shard at a time, so it interleaves with an in-flight
//! ingest batch rather than waiting for it — each answer is a
//! consistent point-in-time read of each shard it touches, in exchange
//! for not being a cross-shard barrier the way stopping ingest would
//! be. That is the same contract `ShardedEngine`'s own accessors have
//! always had.

use crate::batch::{EngineStatus, PolicyCore, ShardedEngine};
use crate::digest::Fnv;
use crate::retention::HistoryWatermarks;
use crate::shard::ShardState;
use crate::violation::Violation;
use ltam_core::subject::SubjectId;
use ltam_time::Time;
use std::sync::Arc;

/// A read-only, cloneable handle over a shared [`ShardedEngine`]. See
/// the [module docs](self).
#[derive(Debug, Clone)]
pub struct EngineReadView {
    engine: Arc<ShardedEngine>,
}

impl EngineReadView {
    /// Wrap a shared engine. Cloning the view (or holding it after the
    /// writer is gone) is cheap — it is an `Arc` bump.
    pub fn new(engine: Arc<ShardedEngine>) -> EngineReadView {
        EngineReadView { engine }
    }

    /// The shared engine, for read-only composition (e.g. the
    /// tier-aware history queries take `&ShardedEngine`). Mutating
    /// through this reference is impossible only by convention — every
    /// `&self` method on `ShardedEngine` is reachable — so keep uses to
    /// the read surface this type exists to delimit.
    pub fn engine(&self) -> &ShardedEngine {
        &self.engine
    }

    /// Operational counters, aggregated across shards.
    pub fn status(&self) -> EngineStatus {
        self.engine.status()
    }

    /// A snapshot of the current policy epoch.
    pub fn policy(&self) -> Arc<PolicyCore> {
        self.engine.policy()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.engine.shard_count()
    }

    /// The shard a subject's state lives on.
    pub fn shard_for(&self, subject: SubjectId) -> usize {
        self.engine.shard_for(subject)
    }

    /// Run read-only logic against one shard's state.
    pub fn read_shard<R>(&self, shard: usize, f: impl FnOnce(&ShardState) -> R) -> R {
        self.engine.read_shard(shard, f)
    }

    /// Per-class retention watermarks.
    pub fn watermarks(&self) -> HistoryWatermarks {
        self.engine.watermarks()
    }

    /// The movement-history retention watermark.
    pub fn retention_watermark(&self) -> Time {
        self.engine.retention_watermark()
    }

    /// All violations detected so far, in shard order.
    pub fn violations(&self) -> Vec<Violation> {
        self.engine.violations()
    }

    /// Number of violations detected so far.
    pub fn violation_count(&self) -> usize {
        self.engine.violation_count()
    }

    /// Total entries recorded across all shards' ledgers.
    pub fn total_entries(&self) -> u64 {
        self.engine.total_entries()
    }

    /// Number of events held on the quarantine ledger.
    pub fn quarantine_len(&self) -> usize {
        self.engine.quarantine_len()
    }

    /// Quarantined events concerning `subject` inside `window` (the
    /// flag a contact-tracing answer carries).
    pub fn quarantined_involving(
        &self,
        subject: SubjectId,
        window: ltam_time::Interval,
    ) -> Vec<crate::batch::QuarantinedEvent> {
        self.engine.quarantined_involving(subject, window)
    }

    /// Quarantined events inside `window`, optionally by source (the
    /// triage query).
    pub fn quarantined_in(
        &self,
        source: Option<SubjectId>,
        window: ltam_time::Interval,
    ) -> Vec<crate::batch::QuarantinedEvent> {
        self.engine.quarantined_in(source, window)
    }

    /// A deterministic digest of the engine's observable enforcement
    /// state, folded through FNV-1a: first a header of the shard
    /// count, the entry and live-violation totals and the three
    /// retention watermarks; then each shard's violation sub-digest in
    /// shard order; then the quarantine ledger's sub-digest. A
    /// sub-digest is the FNV-1a fold of its list's items in order, one
    /// fixed-width field encoding per item, so the digest still sees
    /// every field, every reordering within a shard and every move
    /// between shards.
    ///
    /// Two engines that ingested the same events in the same batches
    /// with the same shard count produce the same digest — the
    /// replication drill's cheap "is the follower byte-for-byte honest"
    /// check at a matched watermark. Not a cryptographic hash.
    ///
    /// The sub-digests are kept current wherever the lists change
    /// (append, retention, restore), so a call costs O(shards): it
    /// takes each shard lock and the quarantine lock once, briefly,
    /// reads a few counters under each, and clones nothing. The entry
    /// total sums each shard ledger's per-authorization counters, a
    /// cost that follows the policy's size, not the history's.
    pub fn state_digest(&self) -> u64 {
        let shards = self.shard_count();
        let mut entries = 0u64;
        let mut violations = 0u64;
        let mut marks = HistoryWatermarks::default();
        let mut sub_digests = Vec::with_capacity(shards);
        for i in 0..shards {
            self.read_shard(i, |s| {
                entries += s.ledger().total_entries();
                violations += s.violations().len() as u64;
                marks = marks.join(s.watermarks());
                sub_digests.push(s.violation_digest());
            });
        }
        let mut h = Fnv::new();
        h.u64(shards as u64);
        h.u64(entries);
        h.u64(violations);
        h.u64(marks.movements.0);
        h.u64(marks.audit.0);
        h.u64(marks.violations.0);
        for d in sub_digests {
            h.u64(d);
        }
        h.u64(self.engine.quarantine_digest());
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Event;
    use ltam_core::model::{Authorization, EntryLimit};
    use ltam_graph::examples::ntu_campus;
    use ltam_time::Interval;

    #[test]
    fn view_reads_track_the_writer() {
        let ntu = ntu_campus();
        let cais = ntu.cais;
        let mut core = PolicyCore::new(ntu.model);
        let alice = SubjectId(0);
        core.add_authorization(
            Authorization::new(
                Interval::lit(5, 40),
                Interval::lit(20, 100),
                alice,
                cais,
                EntryLimit::Unbounded,
            )
            .unwrap(),
        );
        let (engine, _alerts) = ShardedEngine::new(core, 2);
        let engine = Arc::new(engine);
        let view = EngineReadView::new(Arc::clone(&engine));
        let view2 = view.clone();
        assert_eq!(view.total_entries(), 0);
        engine.ingest(&[
            Event::Request {
                time: Time(10),
                subject: alice,
                location: cais,
            },
            Event::Enter {
                time: Time(10),
                subject: alice,
                location: cais,
            },
            Event::Exit {
                time: Time(15), // before the mandatory [20, 100] window
                subject: alice,
                location: cais,
            },
        ]);
        assert_eq!(view.total_entries(), 1);
        assert_eq!(view2.violation_count(), 1, "clones see the same state");
        assert_eq!(view.status().live_violations, 1);
        assert_eq!(view.shard_for(alice), engine.shard_for(alice));
    }

    #[test]
    fn concurrent_views_never_deadlock_with_ingest() {
        let ntu = ntu_campus();
        let core = PolicyCore::new(ntu.model);
        let cais = ntu.cais;
        let (engine, _alerts) = ShardedEngine::new(core, 2);
        let engine = Arc::new(engine);
        let view = EngineReadView::new(Arc::clone(&engine));
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let v = view.clone();
                std::thread::spawn(move || {
                    let mut last = 0;
                    for _ in 0..200 {
                        let s = v.status();
                        assert!(s.audit_records >= last, "audit count is monotone");
                        last = s.audit_records;
                    }
                    last
                })
            })
            .collect();
        for i in 0..50u64 {
            engine.ingest(&[Event::Request {
                time: Time(i),
                subject: SubjectId((i % 7) as u32),
                location: cais,
            }]);
        }
        for r in readers {
            assert!(r.join().unwrap() <= 50);
        }
    }
}
