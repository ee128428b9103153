//! Per-subject enforcement state, factored out of the engine so it can be
//! sharded.
//!
//! LTAM's data model splits cleanly in two:
//!
//! * **read-mostly policy** — the location model, effective graph,
//!   authorization database and prohibitions. Admins change these rarely;
//!   every card swipe reads them.
//! * **per-subject mutable state** — pending grants, active stays, usage
//!   counters, movement timelines and violation logs. Every sensor event
//!   writes these, but only ever for *one* subject.
//!
//! [`ShardState`] owns the second half. The single-threaded
//! [`AccessControlEngine`](crate::engine::AccessControlEngine) holds
//! exactly one `ShardState`; the concurrent
//! [`ShardedEngine`](crate::batch::ShardedEngine) holds `N` of them,
//! partitioned by `SubjectId` hash over one shared policy core. Both run
//! the *same* enforcement code below, so the sharded deployment detects
//! exactly the violations the paper's single engine would.
//!
//! Enforcement methods take a [`PolicyView`] — immutable borrows of the
//! policy stores plus the engine tunables — and return the violations
//! they raise; the caller is responsible for turning those into
//! security-desk alerts.

use crate::batch::shard_of;
use crate::digest::ViolationLog;
use crate::engine::{AuditRecord, EngineConfig};
use crate::movement::{MovementKind, MovementsDb};
use crate::retention::{HistoryWatermarks, PrunedHistory};
use crate::violation::Violation;
use ltam_core::db::{AuthId, AuthorizationDb};
use ltam_core::decision::{AccessRequest, Decision, DecisionContext};
use ltam_core::ledger::UsageLedger;
use ltam_core::prohibition::ProhibitionDb;
use ltam_core::retention::RetentionPolicy;
use ltam_core::subject::SubjectId;
use ltam_graph::LocationId;
use ltam_situate::{judge, IncidentId, SituationEffect, SituationPolicy};
use ltam_time::{Bound, Time};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// Immutable borrows of everything a shard needs to decide and monitor:
/// the read-mostly policy stores plus the enforcement tunables.
///
/// Build one per event batch (or per call) from whatever owns the policy —
/// the single engine's fields, or an epoch of the sharded engine's policy
/// core.
#[derive(Debug, Clone, Copy)]
pub struct PolicyView<'a> {
    /// The authorization database.
    pub db: &'a AuthorizationDb,
    /// Denial-takes-precedence prohibitions.
    pub prohibitions: &'a ProhibitionDb,
    /// Enforcement tunables (grant TTL).
    pub config: EngineConfig,
    /// The situation overlay (mode, responders, pins, workflow
    /// constraints) the decision path judges under.
    pub situation: &'a SituationPolicy,
}

impl<'a> PolicyView<'a> {
    /// The core decision context this view wraps.
    pub fn decision_context(&self) -> DecisionContext<'a> {
        DecisionContext {
            db: self.db,
            prohibitions: self.prohibitions,
        }
    }
}

/// What authorized a pending grant: a database authorization, or an
/// emergency override attributable to an incident declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum GrantKind {
    /// Granted by this database authorization (Definition 7).
    Auth(AuthId),
    /// Granted by the emergency declared under this incident; valid at
    /// the door only while that emergency is still live.
    Override(IncidentId),
}

/// A granted access request waiting for the physical entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PendingGrant {
    pub(crate) location: LocationId,
    pub(crate) grant: GrantKind,
    pub(crate) granted_at: Time,
}

/// The per-subject mutable half of the enforcement engine.
///
/// All state here is keyed by subject (pending grants, active stays,
/// overstay flags, movement timelines) or owned by exactly one subject's
/// authorizations (ledger counters — an [`AuthId`] belongs to one
/// subject), so partitioning subjects across `ShardState`s never splits
/// an invariant across shards.
#[derive(Debug, Default)]
pub struct ShardState {
    pub(crate) ledger: UsageLedger,
    pub(crate) movements: MovementsDb,
    pub(crate) pending: HashMap<SubjectId, PendingGrant>,
    pub(crate) active_auth: HashMap<SubjectId, (LocationId, AuthId)>,
    pub(crate) overstay_alerted: HashSet<SubjectId>,
    pub(crate) violations: ViolationLog,
    pub(crate) audit: Vec<AuditRecord>,
    /// Audit records are complete from this chronon (earlier ones pruned).
    pub(crate) audit_from: Time,
    /// Audit records dropped by retention.
    pub(crate) audit_pruned: u64,
    /// Violations are complete from this chronon (earlier ones pruned).
    pub(crate) violations_from: Time,
    /// Violations dropped by retention — still counted toward the alert
    /// sequence, so restart alerts stay monotone after pruning.
    pub(crate) violations_pruned: u64,
}

impl ShardState {
    /// An empty shard.
    pub fn new() -> ShardState {
        ShardState::default()
    }

    // --- read access ------------------------------------------------------

    /// This shard's slice of the usage ledger.
    pub fn ledger(&self) -> &UsageLedger {
        &self.ledger
    }

    /// This shard's movements database.
    pub fn movements(&self) -> &MovementsDb {
        &self.movements
    }

    /// Violations detected by this shard, in detection order.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// The running FNV-1a fold of [`ShardState::violations`], in
    /// detection order — this shard's part of the engine's state digest.
    pub fn violation_digest(&self) -> u64 {
        self.violations.digest()
    }

    /// The audited request decisions taken by this shard.
    pub fn audit(&self) -> &[AuditRecord] {
        &self.audit
    }

    /// The authorizations currently governing open stays on this shard.
    pub fn active_stays(&self) -> Vec<(SubjectId, LocationId, AuthId)> {
        self.active_auth
            .iter()
            .map(|(&s, &(l, a))| (s, l, a))
            .collect()
    }

    /// From which chronon each record class is complete on this shard.
    pub fn watermarks(&self) -> HistoryWatermarks {
        HistoryWatermarks {
            movements: self.movements.watermark(),
            audit: self.audit_from,
            violations: self.violations_from,
        }
    }

    /// Violations dropped by retention (the live list plus this is the
    /// total ever detected; the alert sequence counts both).
    pub fn violations_pruned(&self) -> u64 {
        self.violations_pruned
    }

    /// Audit records dropped by retention.
    pub fn audit_pruned(&self) -> u64 {
        self.audit_pruned
    }

    // --- retention ----------------------------------------------------------

    /// The records a retention run at `horizon` would remove, without
    /// mutating anything (a durable deployment archives these first).
    pub fn collect_prunable(&self, policy: &RetentionPolicy, horizon: Time) -> PrunedHistory {
        let mut out = PrunedHistory::default();
        if policy.movements {
            let (events, stays) = self.movements.collect_prunable(horizon);
            out.events = events;
            out.stays = stays;
        }
        if policy.audit {
            out.audit = self
                .audit
                .iter()
                .filter(|r| r.request.time < horizon)
                .copied()
                .collect();
        }
        if policy.violations {
            out.violations = self
                .violations
                .iter()
                .filter(|v| v.time() < horizon)
                .copied()
                .collect();
        }
        out
    }

    /// Drop every record of an enabled class older than `horizon` and
    /// advance that class's watermark. Enforcement state — ledger,
    /// pending grants, active stays, overstay flags, the movement
    /// time-regression guard — is untouched, so pruning never changes
    /// which violations future events raise.
    pub fn apply_retention(&mut self, policy: &RetentionPolicy, horizon: Time) {
        if policy.movements {
            self.movements.apply_prune(horizon);
        }
        if policy.audit {
            let before = self.audit.len();
            self.audit.retain(|r| r.request.time >= horizon);
            self.audit_pruned += (before - self.audit.len()) as u64;
            self.audit_from = self.audit_from.max(horizon);
        }
        if policy.violations {
            let dropped = self.violations.retain(|v| v.time() >= horizon);
            self.violations_pruned += dropped as u64;
            self.violations_from = self.violations_from.max(horizon);
        }
    }

    /// Collect-then-drop in one call (the volatile path; the caller
    /// decides whether the returned records are archived or discarded).
    pub fn prune(&mut self, policy: &RetentionPolicy, horizon: Time) -> PrunedHistory {
        let pruned = self.collect_prunable(policy, horizon);
        self.apply_retention(policy, horizon);
        pruned
    }

    // --- enforcement ------------------------------------------------------

    /// Process an access request (Definition 6), judged under the
    /// situation overlay. A grant is remembered so the subsequent
    /// physical entry is recognized as authorized.
    pub fn request_enter(
        &mut self,
        policy: &PolicyView<'_>,
        t: Time,
        subject: SubjectId,
        location: LocationId,
    ) -> Decision {
        let request = AccessRequest {
            time: t,
            subject,
            location,
        };
        let base = policy.decision_context().decide(&self.ledger, &request);
        let decision = if policy.situation.is_inert() {
            base
        } else {
            // "Entered `l` at or after `since`" against this subject's
            // own timeline — all the history a workflow constraint may
            // consult, and all of it lives on this shard.
            let entered = |l: LocationId, since: Time| {
                self.movements
                    .timeline(subject)
                    .iter()
                    .any(|s| s.location == l && s.enter >= since && s.enter <= t)
            };
            let (decision, effect) = judge(policy.situation, subject, location, t, base, &entered);
            count_effect(effect);
            decision
        };
        match decision {
            Decision::Granted { auth } => {
                self.pending.insert(
                    subject,
                    PendingGrant {
                        location,
                        grant: GrantKind::Auth(auth),
                        granted_at: t,
                    },
                );
            }
            Decision::GrantedOverride { incident } => {
                self.pending.insert(
                    subject,
                    PendingGrant {
                        location,
                        grant: GrantKind::Override(IncidentId(incident)),
                        granted_at: t,
                    },
                );
            }
            Decision::Denied { .. } => {}
        }
        self.audit.push(AuditRecord { request, decision });
        decision
    }

    fn record(&mut self, violation: Violation) -> Violation {
        self.violations.push(violation);
        violation
    }

    fn valid_pending(
        &self,
        policy: &PolicyView<'_>,
        subject: SubjectId,
        location: LocationId,
        t: Time,
    ) -> Option<GrantKind> {
        let g = self.pending.get(&subject)?;
        if g.location != location {
            return None;
        }
        if t < g.granted_at || t.get() - g.granted_at.get() > policy.config.grant_ttl {
            return None;
        }
        match g.grant {
            GrantKind::Auth(auth_id) => {
                let auth = policy.db.get(auth_id)?;
                if !auth.admits_entry_at(t) {
                    return None;
                }
                // A prohibition issued between the grant and the physical
                // entry voids the grant.
                if policy.decision_context().blocked(subject, location, t) {
                    return None;
                }
                // A lockdown declared between the grant and the entry
                // voids unpinned grants at the door.
                if !policy.situation.admits_entry_under(auth_id, t) {
                    return None;
                }
                Some(g.grant)
            }
            // An override grant dies with its emergency: if the
            // declaration expired (or was replaced) before the subject
            // reached the door, the entry is unauthorized again.
            GrantKind::Override(incident) => policy
                .situation
                .override_live(incident, t)
                .then_some(g.grant),
        }
    }

    /// Process an observed entry (from the tracking infrastructure).
    ///
    /// Returns the violation raised, if any; the violation is already
    /// recorded in [`ShardState::violations`] — the caller only needs to
    /// forward it as an alert.
    pub fn observe_enter(
        &mut self,
        policy: &PolicyView<'_>,
        t: Time,
        subject: SubjectId,
        location: LocationId,
    ) -> Option<Violation> {
        if self.movements.record_enter(t, subject, location).is_err() {
            return Some(self.record(Violation::InconsistentMovement {
                time: t,
                subject,
                location,
            }));
        }
        match self.valid_pending(policy, subject, location, t) {
            Some(GrantKind::Auth(auth)) => {
                // Definition 7's count: the subject "has entered l" once more.
                self.ledger.record_entry(auth);
                self.pending.remove(&subject);
                self.active_auth.insert(subject, (location, auth));
                self.overstay_alerted.remove(&subject);
                None
            }
            Some(GrantKind::Override(_)) => {
                // An override entry consumes no authorization budget and
                // has no exit window to monitor: the stay is recorded in
                // the movement history (above) but not tracked as an
                // authorized stay.
                self.pending.remove(&subject);
                self.overstay_alerted.remove(&subject);
                None
            }
            None => Some(self.record(Violation::UnauthorizedEntry {
                time: t,
                subject,
                location,
            })),
        }
    }

    /// Process an observed exit. Returns the violation raised, if any.
    pub fn observe_exit(
        &mut self,
        policy: &PolicyView<'_>,
        t: Time,
        subject: SubjectId,
        location: LocationId,
    ) -> Option<Violation> {
        if self.movements.record_exit(t, subject, location).is_err() {
            return Some(self.record(Violation::InconsistentMovement {
                time: t,
                subject,
                location,
            }));
        }
        let mut raised = None;
        if let Some((l, auth_id)) = self.active_auth.remove(&subject) {
            if l == location {
                if let Some(auth) = policy.db.get(auth_id) {
                    if !auth.admits_exit_at(t) {
                        raised = Some(self.record(Violation::ExitOutsideWindow {
                            time: t,
                            subject,
                            location,
                            auth: auth_id,
                        }));
                    }
                }
            }
        }
        self.overstay_alerted.remove(&subject);
        raised
    }

    /// Advance the monitoring clock: raise an overstay alert (once per
    /// stay) for every subject on this shard still inside after their exit
    /// window closed.
    pub fn tick(&mut self, policy: &PolicyView<'_>, now: Time) -> Vec<Violation> {
        let mut raised = Vec::new();
        let candidates: Vec<(SubjectId, LocationId, AuthId)> = self
            .active_auth
            .iter()
            .filter(|(s, _)| !self.overstay_alerted.contains(*s))
            .map(|(&s, &(l, a))| (s, l, a))
            .collect();
        for (subject, location, auth_id) in candidates {
            let Some(auth) = policy.db.get(auth_id) else {
                continue;
            };
            if let Bound::At(end) = auth.exit_window().end() {
                if now > end {
                    raised.push(self.record(Violation::Overstay {
                        detected_at: now,
                        subject,
                        location,
                        auth: auth_id,
                    }));
                    self.overstay_alerted.insert(subject);
                }
            }
        }
        raised
    }

    // --- administration hooks ---------------------------------------------

    /// An authorization was revoked: forget its usage counters, lapse any
    /// pending grant issued under it, and release active stays it was
    /// governing. (Stays under a revoked id were already unmonitorable —
    /// exit/overstay checks skip ids absent from the database — but the
    /// reference must not survive into a persistence image, where a later
    /// reuse of the id would make it resolve to the wrong authorization.)
    pub fn invalidate_auth(&mut self, id: AuthId) {
        self.ledger.clear(id);
        self.pending.retain(|_, g| g.grant != GrantKind::Auth(id));
        self.active_auth.retain(|_, &mut (_, a)| a != id);
    }

    // --- persistence hooks --------------------------------------------------

    /// Export the complete mutable state as a serializable image.
    ///
    /// Unlike [`EngineSnapshot`](crate::snapshot::EngineSnapshot) (which
    /// deliberately drops pending grants on operator-driven backups), the
    /// image is **exhaustive**: crash recovery must reproduce the exact
    /// enforcement state, or replaying the WAL tail after a restart would
    /// raise violations an uninterrupted run never saw. Collections are
    /// sorted so equal states export byte-identical images.
    pub fn image(&self) -> ShardStateImage {
        let mut pending: Vec<PendingImage> = self
            .pending
            .iter()
            .map(|(&subject, g)| {
                let (auth, incident) = match g.grant {
                    GrantKind::Auth(a) => (a, None),
                    // Override grants have no authorization; the auth
                    // field is a placeholder old readers would dangle
                    // on harmlessly (no live id is ever u64::MAX).
                    GrantKind::Override(i) => (AuthId(u64::MAX), Some(i.0)),
                };
                PendingImage {
                    subject,
                    location: g.location,
                    auth,
                    incident,
                    granted_at: g.granted_at,
                }
            })
            .collect();
        pending.sort_by_key(|p| p.subject);
        let mut active: Vec<(SubjectId, LocationId, AuthId)> = self
            .active_auth
            .iter()
            .map(|(&s, &(l, a))| (s, l, a))
            .collect();
        active.sort_by_key(|&(s, _, _)| s);
        let mut overstay_alerted: Vec<SubjectId> = self.overstay_alerted.iter().copied().collect();
        overstay_alerted.sort();
        ShardStateImage {
            ledger: self.ledger.clone(),
            movements: self.movements.clone(),
            pending,
            active,
            overstay_alerted,
            violations: self.violations.to_vec(),
            audit: self.audit.clone(),
            audit_from: Some(self.audit_from),
            audit_pruned: Some(self.audit_pruned),
            violations_from: Some(self.violations_from),
            violations_pruned: Some(self.violations_pruned),
        }
    }

    /// Rebuild a shard from an exported image (inverse of
    /// [`ShardState::image`]).
    pub fn from_image(image: ShardStateImage) -> ShardState {
        ShardState {
            ledger: image.ledger,
            movements: image.movements,
            pending: image
                .pending
                .into_iter()
                .map(|p| {
                    let grant = match p.incident {
                        Some(i) => GrantKind::Override(IncidentId(i)),
                        None => GrantKind::Auth(p.auth),
                    };
                    (
                        p.subject,
                        PendingGrant {
                            location: p.location,
                            grant,
                            granted_at: p.granted_at,
                        },
                    )
                })
                .collect(),
            active_auth: image
                .active
                .into_iter()
                .map(|(s, l, a)| (s, (l, a)))
                .collect(),
            overstay_alerted: image.overstay_alerted.into_iter().collect(),
            violations: ViolationLog::from_vec(image.violations),
            audit: image.audit,
            audit_from: image.audit_from.unwrap_or(Time::ZERO),
            audit_pruned: image.audit_pruned.unwrap_or(0),
            violations_from: image.violations_from.unwrap_or(Time::ZERO),
            violations_pruned: image.violations_pruned.unwrap_or(0),
        }
    }
}

/// Count what the situation overlay did to a decision (the audit trail
/// carries the rewritten decision itself; these series make the rates
/// scrapeable).
fn count_effect(effect: SituationEffect) {
    match effect {
        SituationEffect::None => {}
        SituationEffect::Overridden(_) => ltam_obs::counter!(
            "situate_overrides_total",
            "Denials rewritten into emergency override grants"
        )
        .inc(),
        SituationEffect::OverrideExpired => ltam_obs::counter!(
            "situate_override_expired_total",
            "Responder denials that stood because the declared emergency had auto-expired"
        )
        .inc(),
        SituationEffect::LockdownRefused => ltam_obs::counter!(
            "situate_lockdown_refusals_total",
            "Grants refused by lockdown default-deny (authorization not pinned)"
        )
        .inc(),
        SituationEffect::ConstraintRefused(_) => ltam_obs::counter!(
            "situate_constraint_refusals_total",
            "Entries refused by a workflow constraint (SoD, BoD, ordered steps)"
        )
        .inc(),
    }
}

/// A pending grant, flattened for serialization (see
/// [`ShardStateImage::pending`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PendingImage {
    /// The granted subject.
    pub subject: SubjectId,
    /// The location the grant admits them to.
    pub location: LocationId,
    /// The authorization the grant was issued under (a placeholder
    /// `u64::MAX` id for emergency-override grants — see `incident`).
    pub auth: AuthId,
    /// `Some(incident)` for an emergency-override grant: the grant was
    /// issued under this incident's declaration, not an authorization.
    /// `None` in pre-situation images and for ordinary grants.
    pub incident: Option<u64>,
    /// When the request was granted (the grant lapses `grant_ttl`
    /// chronons later).
    pub granted_at: Time,
}

/// Serializable image of one shard's complete mutable state.
///
/// Produced by [`ShardState::image`], consumed by
/// [`ShardState::from_image`]; `ltam-store` persists a vector of these
/// (one per shard) inside every engine snapshot. [`redistribute`]
/// re-deals subject-keyed state when an engine is recovered onto a
/// different shard count.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ShardStateImage {
    /// Per-authorization entry counters.
    pub ledger: UsageLedger,
    /// The shard's movements database (log, timelines, occupancy).
    pub movements: MovementsDb,
    /// Grants issued but not yet used, sorted by subject.
    pub pending: Vec<PendingImage>,
    /// Authorizations governing open stays, sorted by subject.
    pub active: Vec<(SubjectId, LocationId, AuthId)>,
    /// Subjects already alerted for their current overstay, sorted.
    pub overstay_alerted: Vec<SubjectId>,
    /// Violations detected by this shard, in detection order.
    pub violations: Vec<Violation>,
    /// Audited request decisions, in decision order.
    pub audit: Vec<AuditRecord>,
    /// Audit retention watermark (`None` in pre-retention images:
    /// complete from the epoch).
    pub audit_from: Option<Time>,
    /// Audit records dropped by retention (`None` = 0).
    pub audit_pruned: Option<u64>,
    /// Violation retention watermark (`None` = complete from the epoch).
    pub violations_from: Option<Time>,
    /// Violations dropped by retention (`None` = 0); carried so the
    /// alert sequence resumes past pruned violations after recovery.
    pub violations_pruned: Option<u64>,
}

/// Re-key per-subject state onto a different shard count: every piece of
/// a [`ShardStateImage`] is either keyed by subject (movements, pending
/// grants, active stays, overstay flags, violations, audit) or owned by
/// exactly one subject's authorization (ledger counters), so images can
/// be split and re-dealt without touching enforcement semantics.
pub fn redistribute(
    images: Vec<ShardStateImage>,
    shards: usize,
    db: &AuthorizationDb,
) -> Vec<ShardStateImage> {
    assert!(shards >= 1, "need at least one shard");
    let mut out: Vec<ShardStateImage> = (0..shards).map(|_| ShardStateImage::default()).collect();
    // Retention bookkeeping redistributes too: class watermarks join to
    // the max (sources pruned in lockstep, but a max is always sound —
    // claiming completeness below any source's watermark would not be),
    // and the pruned-record counters are global totals, parked on
    // shard 0 like revoked-authorization ledger counters.
    let movements_from = images
        .iter()
        .map(|i| i.movements.watermark())
        .max()
        .unwrap_or(Time::ZERO);
    let audit_from = images.iter().filter_map(|i| i.audit_from).max();
    let violations_from = images.iter().filter_map(|i| i.violations_from).max();
    let events_pruned: u64 = images.iter().map(|i| i.movements.pruned_events()).sum();
    let audit_pruned: u64 = images.iter().filter_map(|i| i.audit_pruned).sum();
    let violations_pruned: u64 = images.iter().filter_map(|i| i.violations_pruned).sum();
    for image in images {
        for event in image.movements.log() {
            let target = &mut out[shard_of(event.subject, shards)].movements;
            // Each subject's log replays in original order on its new
            // shard, so the physical-consistency checks cannot fire.
            let replayed = match event.kind {
                MovementKind::Enter => {
                    target.record_enter(event.time, event.subject, event.location)
                }
                MovementKind::Exit => target.record_exit(event.time, event.subject, event.location),
            };
            debug_assert!(replayed.is_ok(), "shard-local movement logs replay cleanly");
        }
        // After the replay (which rebuilds the guard for surviving
        // events), merge the source's latest-time guards so subjects
        // whose history was entirely pruned keep their time-regression
        // protection on the new shard.
        for (s, t) in image.movements.latest_times() {
            out[shard_of(s, shards)].movements.observe_latest(s, t);
        }
        for p in image.pending {
            out[shard_of(p.subject, shards)].pending.push(p);
        }
        for entry in image.active {
            out[shard_of(entry.0, shards)].active.push(entry);
        }
        for s in image.overstay_alerted {
            out[shard_of(s, shards)].overstay_alerted.push(s);
        }
        for v in image.violations {
            out[shard_of(v.subject(), shards)].violations.push(v);
        }
        for record in image.audit {
            out[shard_of(record.request.subject, shards)]
                .audit
                .push(record);
        }
        for (id, count) in image.ledger.counts() {
            // An authorization belongs to exactly one subject; counters
            // for revoked (absent) authorizations land on shard 0, where
            // they are as inert as they were on their old shard.
            let target = db
                .get(id)
                .map(|auth| shard_of(auth.subject(), shards))
                .unwrap_or(0);
            let merged = out[target].ledger.used(id).saturating_add(count);
            out[target].ledger.restore_count(id, merged);
        }
    }
    for image in &mut out {
        image.pending.sort_by_key(|p| p.subject);
        image.active.sort_by_key(|&(s, _, _)| s);
        image.overstay_alerted.sort();
        image.movements.set_watermark(movements_from);
        image.audit_from = audit_from;
        image.violations_from = violations_from;
    }
    out[0].movements.add_pruned_events(events_pruned);
    if audit_pruned > 0 {
        out[0].audit_pruned = Some(audit_pruned);
    }
    if violations_pruned > 0 {
        out[0].violations_pruned = Some(violations_pruned);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltam_core::model::{Authorization, EntryLimit};
    use ltam_time::Interval;

    const ALICE: SubjectId = SubjectId(0);
    const CAIS: LocationId = LocationId(3);

    fn policy_db() -> (AuthorizationDb, ProhibitionDb) {
        let mut db = AuthorizationDb::new();
        db.insert(
            Authorization::new(
                Interval::lit(5, 40),
                Interval::lit(20, 100),
                ALICE,
                CAIS,
                EntryLimit::Finite(1),
            )
            .unwrap(),
        );
        (db, ProhibitionDb::new())
    }

    #[test]
    fn shard_state_runs_the_full_cycle() {
        let (db, prohibitions) = policy_db();
        let situation = SituationPolicy::new();
        let policy = PolicyView {
            db: &db,
            prohibitions: &prohibitions,
            config: EngineConfig::default(),
            situation: &situation,
        };
        let mut s = ShardState::new();
        assert!(s.request_enter(&policy, Time(10), ALICE, CAIS).is_granted());
        assert_eq!(s.observe_enter(&policy, Time(11), ALICE, CAIS), None);
        assert_eq!(s.active_stays().len(), 1);
        // Exit at 25 is inside [20, 100]: clean.
        assert_eq!(s.observe_exit(&policy, Time(25), ALICE, CAIS), None);
        assert!(s.violations().is_empty());
        assert_eq!(s.audit().len(), 1);
        assert_eq!(s.ledger().used(ltam_core::db::AuthId(0)), 1);
    }

    #[test]
    fn shard_state_raises_the_taxonomy() {
        let (db, prohibitions) = policy_db();
        let situation = SituationPolicy::new();
        let policy = PolicyView {
            db: &db,
            prohibitions: &prohibitions,
            config: EngineConfig::default(),
            situation: &situation,
        };
        let mut s = ShardState::new();
        // Tailgate: enter without a grant.
        assert!(matches!(
            s.observe_enter(&policy, Time(6), ALICE, CAIS),
            Some(Violation::UnauthorizedEntry { .. })
        ));
        // Exiting the unauthorized stay breaches nothing: there is no
        // active authorization whose window could be violated.
        assert!(s.observe_exit(&policy, Time(7), ALICE, CAIS).is_none());
        // Inconsistent: exit again while outside.
        assert!(matches!(
            s.observe_exit(&policy, Time(8), ALICE, CAIS),
            Some(Violation::InconsistentMovement { .. })
        ));
        assert_eq!(s.violations().len(), 2);
    }

    #[test]
    fn image_round_trip_preserves_every_field() {
        let (db, prohibitions) = policy_db();
        let situation = SituationPolicy::new();
        let policy = PolicyView {
            db: &db,
            prohibitions: &prohibitions,
            config: EngineConfig::default(),
            situation: &situation,
        };
        let mut s = ShardState::new();
        // Exercise every piece of state: a used grant, an open stay, a
        // pending grant for a second subject, and a violation.
        assert!(s.request_enter(&policy, Time(10), ALICE, CAIS).is_granted());
        assert_eq!(s.observe_enter(&policy, Time(11), ALICE, CAIS), None);
        s.observe_enter(&policy, Time(6), SubjectId(7), CAIS); // tailgate
        let image = s.image();
        let restored = ShardState::from_image(image.clone());
        assert_eq!(restored.image(), image);
        assert_eq!(restored.violations(), s.violations());
        assert_eq!(restored.audit(), s.audit());
        assert_eq!(restored.active_stays(), s.active_stays());
        assert_eq!(restored.ledger().total_entries(), 1);
        // Unlike EngineSnapshot, pending grants DO survive an image: crash
        // recovery must not turn a granted entry into a violation.
        let mut pending = ShardState::new();
        assert!(pending
            .request_enter(&policy, Time(10), ALICE, CAIS)
            .is_granted());
        let mut back = ShardState::from_image(pending.image());
        assert_eq!(back.observe_enter(&policy, Time(11), ALICE, CAIS), None);
    }

    #[test]
    fn image_serde_round_trips_through_json() {
        let (db, prohibitions) = policy_db();
        let situation = SituationPolicy::new();
        let policy = PolicyView {
            db: &db,
            prohibitions: &prohibitions,
            config: EngineConfig::default(),
            situation: &situation,
        };
        let mut s = ShardState::new();
        assert!(s.request_enter(&policy, Time(10), ALICE, CAIS).is_granted());
        assert_eq!(s.observe_enter(&policy, Time(11), ALICE, CAIS), None);
        s.tick(&policy, Time(200));
        let image = s.image();
        let json = serde_json::to_string(&image).unwrap();
        let back: ShardStateImage = serde_json::from_str(&json).unwrap();
        assert_eq!(back, image);
    }

    #[test]
    fn retention_prunes_history_but_not_enforcement_state() {
        let (db, prohibitions) = policy_db();
        let situation = SituationPolicy::new();
        let policy = PolicyView {
            db: &db,
            prohibitions: &prohibitions,
            config: EngineConfig::default(),
            situation: &situation,
        };
        let mut s = ShardState::new();
        // A full early cycle (audit + movements + ledger) and a tailgate
        // violation, then a later open stay.
        assert!(s.request_enter(&policy, Time(10), ALICE, CAIS).is_granted());
        assert_eq!(s.observe_enter(&policy, Time(11), ALICE, CAIS), None);
        assert_eq!(s.observe_exit(&policy, Time(25), ALICE, CAIS), None);
        s.observe_enter(&policy, Time(12), SubjectId(7), CAIS); // tailgate
        s.observe_exit(&policy, Time(13), SubjectId(7), CAIS);
        let retention = ltam_core::RetentionPolicy::keep_last(10);
        let pruned = s.prune(&retention, Time(30));
        assert_eq!(pruned.stays.len(), 2, "{pruned:?}");
        assert_eq!(pruned.audit.len(), 1);
        assert_eq!(pruned.violations.len(), 1);
        assert!(s.violations().is_empty());
        assert!(s.audit().is_empty());
        assert_eq!(s.violations_pruned(), 1);
        assert_eq!(s.audit_pruned(), 1);
        let w = s.watermarks();
        assert_eq!(w.movements, Time(30));
        assert_eq!(w.audit, Time(30));
        assert_eq!(w.violations, Time(30));
        // The ledger survived: Alice's single entry stays spent.
        assert_eq!(s.ledger().used(AuthId(0)), 1);
        assert!(!s.request_enter(&policy, Time(31), ALICE, CAIS).is_granted());
        // Images round-trip the watermarks and counters.
        let restored = ShardState::from_image(s.image());
        assert_eq!(restored.watermarks(), w);
        assert_eq!(restored.violations_pruned(), 1);
        assert_eq!(restored.image(), s.image());
    }

    #[test]
    fn per_class_knobs_prune_independently() {
        let (db, prohibitions) = policy_db();
        let situation = SituationPolicy::new();
        let policy = PolicyView {
            db: &db,
            prohibitions: &prohibitions,
            config: EngineConfig::default(),
            situation: &situation,
        };
        let mut s = ShardState::new();
        s.observe_enter(&policy, Time(5), SubjectId(7), CAIS); // tailgate
        s.observe_exit(&policy, Time(6), SubjectId(7), CAIS);
        let retention = ltam_core::RetentionPolicy {
            violations: false,
            ..ltam_core::RetentionPolicy::keep_last(1)
        };
        let pruned = s.prune(&retention, Time(50));
        assert!(pruned.violations.is_empty());
        assert_eq!(s.violations().len(), 1, "violations class disabled");
        assert_eq!(s.watermarks().violations, Time::ZERO);
        assert_eq!(s.watermarks().movements, Time(50));
        assert_eq!(pruned.stays.len(), 1);
    }

    #[test]
    fn invalidate_auth_lapses_pending_and_counters() {
        let (db, prohibitions) = policy_db();
        let situation = SituationPolicy::new();
        let policy = PolicyView {
            db: &db,
            prohibitions: &prohibitions,
            config: EngineConfig::default(),
            situation: &situation,
        };
        let mut s = ShardState::new();
        let Decision::Granted { auth } = s.request_enter(&policy, Time(10), ALICE, CAIS) else {
            panic!("expected grant");
        };
        s.invalidate_auth(auth);
        assert!(matches!(
            s.observe_enter(&policy, Time(11), ALICE, CAIS),
            Some(Violation::UnauthorizedEntry { .. })
        ));
    }
}
