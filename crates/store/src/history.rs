//! Tier-aware historical queries: live state within the retention
//! horizon, transparently merged with archive reads beyond it.
//!
//! The merge is sound because retention partitions history cleanly: a
//! stay (or audit record, or violation) lives in **exactly one** tier —
//! it is pruned to the archive only when it can no longer intersect the
//! live window (a stay's *exit* precedes the watermark), and a stay
//! straddling the watermark stays live. One crash window breaks the
//! partition: between a run's archive-write and the snapshot that
//! persists its prune, recovery resurrects the stranded segment's
//! records into live state while the archive also holds them. The
//! merges therefore filter the archive side by **segment provenance**:
//! a record counts only if its segment starts below the querying
//! class's live watermark — applied segments always do, while a
//! stranded segment starts exactly at the watermark and its contents
//! (including late-arriving records whose *timestamps* sit below the
//! watermark) are counted from the live side only. In steady state the
//! filter is vacuous. Union-then-sort then reproduces exactly what an
//! unpruned engine would answer; the workspace's
//! `retention_equivalence` test asserts this on a 100k-event trace
//! with a mid-trace crash.
//!
//! When the merge *cannot* be sound — the query dips below the
//! watermark and the archive does not reach it (segments deleted, or
//! retention ran without archiving) — the entry points refuse with
//! [`HistoryError::Unarchived`] instead of under-reporting. For the
//! paper's SARS contact-tracing motivation a silently shortened contact
//! list is the worst failure mode; an error the operator can see is the
//! correct one.

use crate::archive::ArchiveData;
use ltam_core::subject::SubjectId;
use ltam_engine::batch::ShardedEngine;
use ltam_engine::movement::Contact;
use ltam_engine::Violation;
use ltam_graph::LocationId;
use ltam_time::{Interval, Time};
use std::fmt;
use std::io;

/// Why a tier-aware historical query could not answer.
#[derive(Debug)]
pub enum HistoryError {
    /// The query needs history that was pruned from live state but is
    /// not in the archive — answering from what remains would silently
    /// under-report, so the query refuses instead.
    Unarchived {
        /// The earliest chronon the query needs.
        requested: Time,
        /// Archive coverage end (exclusive); 0 for no archive at all.
        archived_to: u64,
        /// The chronon live history is complete from.
        live_from: Time,
    },
    /// The archive tier could not be read (missing, gappy, or corrupt
    /// segments — the underlying error says which).
    Io(io::Error),
}

impl fmt::Display for HistoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HistoryError::Unarchived {
                requested,
                archived_to,
                live_from,
            } => write!(
                f,
                "query needs history at t={requested}, but live history starts at t={live_from} \
                 and the archive covers only [0, {archived_to}); the gap was discarded without \
                 archiving — refusing to answer rather than under-report"
            ),
            HistoryError::Io(e) => write!(f, "archive tier unreadable: {e}"),
        }
    }
}

impl std::error::Error for HistoryError {}

impl From<io::Error> for HistoryError {
    fn from(e: io::Error) -> Self {
        HistoryError::Io(e)
    }
}

/// Live presences in `location` over `window`, across all shards.
fn live_present_during(
    engine: &ShardedEngine,
    location: LocationId,
    window: Interval,
) -> Vec<(SubjectId, Interval)> {
    let mut out = Vec::new();
    for shard in 0..engine.shard_count() {
        out.extend(engine.read_shard(shard, |st| st.movements().present_during(location, window)));
    }
    out
}

/// Tier-merged whereabouts. Live answers win (a live stay straddling
/// the watermark is the latest stay that can contain `t`); the archive
/// answers only when live state has no stay containing `t`, and only
/// from applied segments (see the module docs).
pub fn merged_whereabouts(
    engine: &ShardedEngine,
    archive: Option<&ArchiveData>,
    subject: SubjectId,
    t: Time,
) -> Option<LocationId> {
    let live_from = engine.watermarks().movements;
    let shard = engine.shard_for(subject);
    engine
        .read_shard(shard, |st| st.movements().whereabouts(subject, t))
        .or_else(|| archive.and_then(|a| a.whereabouts(subject, t, live_from)))
}

/// Tier-merged presence rows, clipped to `window` and sorted by
/// `(subject, start)` — the same contract as the live query. The
/// archive side is filtered by segment provenance (a stranded
/// segment's records are counted from the live side only).
pub fn merged_present_during(
    engine: &ShardedEngine,
    archive: Option<&ArchiveData>,
    location: LocationId,
    window: Interval,
) -> Vec<(SubjectId, Interval)> {
    let live_from = engine.watermarks().movements;
    let mut out = archive
        .map(|a| a.present_during(location, window, live_from))
        .unwrap_or_default();
    out.extend(live_present_during(engine, location, window));
    out.sort_by_key(|&(s, i)| (s, i.start()));
    out
}

/// Tier-merged contact tracing: the subject's archived + live
/// exposures drive the same co-location join
/// [`MovementsDb::contacts`](ltam_engine::movement::MovementsDb::contacts)
/// runs, with each exposure's presence lookup itself tier-merged (and
/// both archive sides provenance-filtered at the movements watermark).
/// The exposures are collected first, so each shard answers all of them
/// under one lock: the query waits behind a batch apply at most once
/// per shard, not once per exposure per shard.
pub fn merged_contacts(
    engine: &ShardedEngine,
    archive: Option<&ArchiveData>,
    subject: SubjectId,
    window: Interval,
) -> Vec<Contact> {
    let live_from = engine.watermarks().movements;
    let mut exposures: Vec<(LocationId, Interval)> = archive
        .map(|a| {
            a.stays_of(subject)
                .iter()
                .filter(|&&(seg_from, _)| seg_from < live_from.get())
                .filter_map(|&(_, s)| Some((s.location, s.interval().intersect(window)?)))
                .collect()
        })
        .unwrap_or_default();
    // One shard holds the subject's whole live timeline.
    let home = engine.shard_for(subject);
    exposures.extend(engine.read_shard(home, |st| st.movements().exposures(subject, window)));
    let mut out = Vec::new();
    let mut join = |rows: Vec<(SubjectId, Interval)>, location: LocationId| {
        out.extend(rows.into_iter().filter(|&(other, _)| other != subject).map(
            |(other, overlap)| Contact {
                other,
                location,
                overlap,
            },
        ));
    };
    if let Some(a) = archive {
        for &(location, exposure) in &exposures {
            join(a.present_during(location, exposure, live_from), location);
        }
    }
    for shard in 0..engine.shard_count() {
        engine.read_shard(shard, |st| {
            for &(location, exposure) in &exposures {
                join(st.movements().present_during(location, exposure), location);
            }
        });
    }
    out.sort_by_key(|c| (c.other, c.overlap.start()));
    out
}

/// Tier-merged violation report over `window` (archived first, then
/// live in shard order; compare as a multiset). The archive side is
/// provenance-filtered at the live *violations* watermark.
pub fn merged_violations(
    engine: &ShardedEngine,
    archive: Option<&ArchiveData>,
    window: Interval,
) -> Vec<Violation> {
    let live_from = engine.watermarks().violations;
    let mut out = archive
        .map(|a| a.violations_in(window, live_from))
        .unwrap_or_default();
    out.extend(engine.violations_in(window));
    out
}
