//! The location & movements database (Figure 3).
//!
//! "The location & movements database stores the location layout, as well
//! as users' movements. These data are then used for authorization
//! validation, system status checking, etc."
//!
//! The store is event-sourced: an append-only log of enter/exit events with
//! derived state — current position per subject, live occupancy per
//! location, and a per-subject timeline of *stays* supporting historical
//! queries (`where was s at t`, `who was in l during w`) and the
//! co-location joins behind contact tracing (the paper's SARS motivation).

use ltam_core::subject::SubjectId;
use ltam_graph::LocationId;
use ltam_time::{Bound, Interval, Time};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// What a tracked subject did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MovementKind {
    /// The subject entered the location.
    Enter,
    /// The subject left the location.
    Exit,
}

/// One tracked movement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MovementEvent {
    /// When the movement was observed.
    pub time: Time,
    /// Who moved.
    pub subject: SubjectId,
    /// Where.
    pub location: LocationId,
    /// Enter or exit.
    pub kind: MovementKind,
}

impl fmt::Display for MovementEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let verb = match self.kind {
            MovementKind::Enter => "enters",
            MovementKind::Exit => "leaves",
        };
        write!(
            f,
            "t={}: {} {} {}",
            self.time, self.subject, verb, self.location
        )
    }
}

/// A contiguous presence of a subject in one location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Stay {
    /// The location.
    pub location: LocationId,
    /// Entry time.
    pub enter: Time,
    /// Exit time; `None` while the stay is ongoing.
    pub exit: Option<Time>,
}

impl Stay {
    /// The stay as a closed interval (open stays extend to `∞`).
    pub fn interval(&self) -> Interval {
        match self.exit {
            Some(e) => Interval::new(self.enter, Bound::At(e)).expect("exit >= enter"),
            None => Interval::from_start(self.enter),
        }
    }
}

/// A co-location record returned by contact queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Contact {
    /// The other subject.
    pub other: SubjectId,
    /// Where the contact happened.
    pub location: LocationId,
    /// The shared presence interval.
    pub overlap: Interval,
}

/// Physically impossible movement sequences are rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MovementError {
    /// Event time precedes the subject's latest event.
    TimeRegression {
        /// The subject's latest recorded time.
        latest: Time,
        /// The offending event time.
        event: Time,
    },
    /// Enter while the subject is already inside some location.
    EnterWhileInside {
        /// Where the subject currently is.
        at: LocationId,
    },
    /// Exit from a location the subject is not in.
    ExitWithoutEntry {
        /// Where the subject actually is, if anywhere.
        at: Option<LocationId>,
    },
}

impl fmt::Display for MovementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MovementError::TimeRegression { latest, event } => {
                write!(f, "event at {event} precedes latest record {latest}")
            }
            MovementError::EnterWhileInside { at } => {
                write!(f, "enter while already inside {at}")
            }
            MovementError::ExitWithoutEntry { at } => match at {
                Some(l) => write!(f, "exit from wrong location (currently in {l})"),
                None => write!(f, "exit while not inside any location"),
            },
        }
    }
}

impl std::error::Error for MovementError {}

/// A stored timeline that breaks the invariant the history queries
/// search by (see [`MovementsDb::check_timelines`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineError {
    /// Whose timeline.
    pub subject: SubjectId,
    /// Position of the first stay out of order.
    pub index: usize,
    /// That stay.
    pub stay: Stay,
}

impl fmt::Display for TimelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let exit = self.stay.exit.map_or("open".to_string(), |e| e.to_string());
        write!(
            f,
            "timeline of {} is not chronological at stay {} ({} entered at {}, exit {})",
            self.subject, self.index, self.stay.location, self.stay.enter, exit
        )
    }
}

impl std::error::Error for TimelineError {}

/// The movements store.
///
/// ## Retention
///
/// History is append-only and unbounded by default. A deployment may
/// bound it by pruning closed stays (and their log events) older than a
/// horizon via [`MovementsDb::apply_prune`]; the **retention watermark**
/// ([`MovementsDb::watermark`]) then records the chronon before which
/// live history may be incomplete. Every query on this type is complete
/// for times at or after the watermark: a stay is pruned only when its
/// *exit* precedes the horizon, so any stay that could contain a
/// post-watermark chronon is retained. Callers asking about earlier
/// times must consult the archive tier (see `ltam-store`) or treat the
/// answer as unknown — never as "was nowhere".
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MovementsDb {
    log: Vec<MovementEvent>,
    timelines: BTreeMap<SubjectId, Vec<Stay>>,
    occupancy: BTreeMap<LocationId, BTreeSet<SubjectId>>,
    latest: BTreeMap<SubjectId, Time>,
    /// Retention watermark; `None` means never pruned (complete from
    /// the epoch). Optional so images from before retention existed
    /// still deserialize.
    watermark: Option<Time>,
    /// Events dropped by pruning (log length plus this is the total
    /// ever recorded). Optional for the same compatibility reason.
    pruned_events: Option<u64>,
}

impl MovementsDb {
    /// An empty store.
    pub fn new() -> MovementsDb {
        MovementsDb::default()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.log.len()
    }

    /// True if no events are recorded.
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }

    /// The raw event log, in arrival order.
    pub fn log(&self) -> &[MovementEvent] {
        &self.log
    }

    fn check_time(&self, subject: SubjectId, t: Time) -> Result<(), MovementError> {
        if let Some(&latest) = self.latest.get(&subject) {
            if t < latest {
                return Err(MovementError::TimeRegression { latest, event: t });
            }
        }
        Ok(())
    }

    /// Record that `subject` entered `location` at `t`.
    pub fn record_enter(
        &mut self,
        t: Time,
        subject: SubjectId,
        location: LocationId,
    ) -> Result<(), MovementError> {
        self.check_time(subject, t)?;
        if let Some(at) = self.current_location(subject) {
            return Err(MovementError::EnterWhileInside { at });
        }
        self.log.push(MovementEvent {
            time: t,
            subject,
            location,
            kind: MovementKind::Enter,
        });
        self.timelines.entry(subject).or_default().push(Stay {
            location,
            enter: t,
            exit: None,
        });
        self.occupancy.entry(location).or_default().insert(subject);
        self.latest.insert(subject, t);
        Ok(())
    }

    /// Record that `subject` left `location` at `t`.
    pub fn record_exit(
        &mut self,
        t: Time,
        subject: SubjectId,
        location: LocationId,
    ) -> Result<(), MovementError> {
        self.check_time(subject, t)?;
        let at = self.current_location(subject);
        if at != Some(location) {
            return Err(MovementError::ExitWithoutEntry { at });
        }
        self.log.push(MovementEvent {
            time: t,
            subject,
            location,
            kind: MovementKind::Exit,
        });
        let stay = self
            .timelines
            .get_mut(&subject)
            .and_then(|v| v.last_mut())
            .expect("open stay exists");
        stay.exit = Some(t);
        self.occupancy
            .get_mut(&location)
            .expect("occupancy entry exists")
            .remove(&subject);
        self.latest.insert(subject, t);
        Ok(())
    }

    /// Where the subject currently is, if inside any location.
    pub fn current_location(&self, subject: SubjectId) -> Option<LocationId> {
        self.timelines
            .get(&subject)
            .and_then(|v| v.last())
            .filter(|s| s.exit.is_none())
            .map(|s| s.location)
    }

    /// Subjects currently inside `location`.
    pub fn occupants(&self, location: LocationId) -> Vec<SubjectId> {
        self.occupancy
            .get(&location)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// The subject's full stay history.
    pub fn timeline(&self, subject: SubjectId) -> &[Stay] {
        self.timelines
            .get(&subject)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Where the subject was at time `t` (historically).
    ///
    /// Only the last stay entered at or before `t` can contain it: a
    /// timeline is chronological with nondecreasing exits (see
    /// [`MovementsDb::check_timelines`]).
    pub fn whereabouts(&self, subject: SubjectId, t: Time) -> Option<LocationId> {
        let stays = self.timelines.get(&subject)?;
        let idx = stays.partition_point(|s| s.enter <= t);
        stays[..idx]
            .last()
            .filter(|s| s.interval().contains(t))
            .map(|s| s.location)
    }

    /// The run of `stays` that can overlap `window`: stays entered at
    /// or before its end whose exit is not before its start. Two binary
    /// searches, because enters and exits are both nondecreasing.
    fn overlapping(stays: &[Stay], window: Interval) -> &[Stay] {
        let lo = stays.partition_point(|s| matches!(s.exit, Some(e) if e < window.start()));
        let hi = stays.partition_point(|s| window.end().admits(s.enter));
        // lo <= hi on every timeline `check_timelines` accepts; the max
        // keeps an unchecked one from panicking the query.
        &stays[lo..hi.max(lo)]
    }

    /// Subjects present in `location` at any point of `window`, with their
    /// overlapping presence intervals.
    pub fn present_during(
        &self,
        location: LocationId,
        window: Interval,
    ) -> Vec<(SubjectId, Interval)> {
        let mut out = Vec::new();
        for (&subject, stays) in &self.timelines {
            for s in Self::overlapping(stays, window) {
                if s.location == location {
                    if let Some(overlap) = s.interval().intersect(window) {
                        out.push((subject, overlap));
                    }
                }
            }
        }
        out.sort_by_key(|&(s, i)| (s, i.start()));
        out
    }

    /// The subject's exposures over `window`: each stay overlapping it,
    /// as `(location, stay ∩ window)`, chronological.
    pub fn exposures(&self, subject: SubjectId, window: Interval) -> Vec<(LocationId, Interval)> {
        Self::overlapping(self.timeline(subject), window)
            .iter()
            .filter_map(|s| Some((s.location, s.interval().intersect(window)?)))
            .collect()
    }

    /// Everyone who was co-located with `subject` during `window` — the
    /// contact-tracing join (§1's SARS scenario).
    pub fn contacts(&self, subject: SubjectId, window: Interval) -> Vec<Contact> {
        let mut out = Vec::new();
        for (location, exposure) in self.exposures(subject, window) {
            for (other, overlap) in self.present_during(location, exposure) {
                if other != subject {
                    out.push(Contact {
                        other,
                        location,
                        overlap,
                    });
                }
            }
        }
        out.sort_by_key(|c| (c.other, c.overlap.start()));
        out
    }

    /// Subjects with an open (ongoing) stay, with the stay.
    pub fn inside_now(&self) -> Vec<(SubjectId, Stay)> {
        self.timelines
            .iter()
            .filter_map(|(&s, v)| {
                v.last()
                    .filter(|stay| stay.exit.is_none())
                    .map(|stay| (s, *stay))
            })
            .collect()
    }

    /// Check the invariant the history queries rely on: in each
    /// subject's timeline every stay exits no earlier than it enters,
    /// and every stay but the last is closed no later than the next one
    /// enters. So enters and exits are both nondecreasing, and
    /// [`whereabouts`](MovementsDb::whereabouts),
    /// [`present_during`](MovementsDb::present_during) and
    /// [`contacts`](MovementsDb::contacts) can binary-search a
    /// timeline. `record_enter`/`record_exit` keep it (the
    /// time-regression guard); a store deserialized from an image is
    /// only as good as the image, so importers call this first.
    pub fn check_timelines(&self) -> Result<(), TimelineError> {
        for (&subject, stays) in &self.timelines {
            let mut prev_exit = Some(Time::ZERO);
            for (index, &stay) in stays.iter().enumerate() {
                let ordered = matches!(prev_exit, Some(e) if e <= stay.enter)
                    && stay.exit.is_none_or(|e| stay.enter <= e);
                if !ordered {
                    return Err(TimelineError {
                        subject,
                        index,
                        stay,
                    });
                }
                prev_exit = stay.exit;
            }
        }
        Ok(())
    }

    // --- retention ----------------------------------------------------------

    /// The retention watermark: live history is complete from this
    /// chronon onward; earlier history may have been pruned. `Time::ZERO`
    /// for a never-pruned store.
    pub fn watermark(&self) -> Time {
        self.watermark.unwrap_or(Time::ZERO)
    }

    /// True if queries at `t` are answerable completely from live state.
    pub fn covers(&self, t: Time) -> bool {
        t >= self.watermark()
    }

    /// Events dropped by pruning since the store was created.
    pub fn pruned_events(&self) -> u64 {
        self.pruned_events.unwrap_or(0)
    }

    /// Events ever recorded: the live log plus everything pruned.
    pub fn total_recorded(&self) -> u64 {
        self.log.len() as u64 + self.pruned_events()
    }

    /// The number of leading stays of `timeline` that are prunable at
    /// `horizon`: stays are chronological and exits nondecreasing, so
    /// the prunable set ("closed with `exit < horizon`") is always a
    /// prefix — an open stay, or one a query at `horizon` could still
    /// see, is never prunable.
    fn prunable_prefix(timeline: &[Stay], horizon: Time) -> usize {
        timeline.partition_point(|s| matches!(s.exit, Some(e) if e < horizon))
    }

    /// The history that [`MovementsDb::apply_prune`] at `horizon` would
    /// drop, without mutating anything: the pruned stays (with their
    /// subjects) and the log events backing them, both in stored order.
    /// A durable deployment archives these *before* pruning.
    pub fn collect_prunable(&self, horizon: Time) -> (Vec<MovementEvent>, Vec<(SubjectId, Stay)>) {
        let mut stays = Vec::new();
        // Each pruned stay is closed, i.e. exactly one Enter and one
        // Exit event — and they are the *first* log events of that
        // subject, because per-subject events are chronological.
        let mut remaining: BTreeMap<SubjectId, usize> = BTreeMap::new();
        for (&subject, timeline) in &self.timelines {
            let k = Self::prunable_prefix(timeline, horizon);
            if k > 0 {
                stays.extend(timeline[..k].iter().map(|&s| (subject, s)));
                remaining.insert(subject, 2 * k);
            }
        }
        let mut events = Vec::new();
        for e in &self.log {
            if let Some(r) = remaining.get_mut(&e.subject) {
                if *r > 0 {
                    events.push(*e);
                    *r -= 1;
                }
            }
        }
        (events, stays)
    }

    /// Drop all history prunable at `horizon` (see
    /// [`MovementsDb::collect_prunable`]) and advance the watermark to
    /// at least `horizon`. Returns the number of log events dropped.
    ///
    /// Enforcement state is untouched: open stays, current occupancy
    /// and the per-subject latest-time map (which guards against time
    /// regression) all survive, so pruning is invisible to
    /// `record_enter`/`record_exit`.
    pub fn apply_prune(&mut self, horizon: Time) -> u64 {
        let mut remaining: BTreeMap<SubjectId, usize> = BTreeMap::new();
        for (&subject, timeline) in &mut self.timelines {
            let k = Self::prunable_prefix(timeline, horizon);
            if k > 0 {
                timeline.drain(..k);
                remaining.insert(subject, 2 * k);
            }
        }
        self.timelines.retain(|_, t| !t.is_empty());
        let before = self.log.len();
        let mut kept = Vec::with_capacity(before);
        for e in self.log.drain(..) {
            match remaining.get_mut(&e.subject) {
                Some(r) if *r > 0 => *r -= 1,
                _ => kept.push(e),
            }
        }
        self.log = kept;
        let dropped = (before - self.log.len()) as u64;
        self.pruned_events = Some(self.pruned_events() + dropped);
        self.watermark = Some(self.watermark().max(horizon));
        dropped
    }

    // --- persistence / redistribution support -------------------------------

    /// The per-subject latest recorded times (the time-regression
    /// guard). Exposed so shard redistribution can preserve the guard
    /// for subjects whose events were all pruned.
    pub fn latest_times(&self) -> impl Iterator<Item = (SubjectId, Time)> + '_ {
        self.latest.iter().map(|(&s, &t)| (s, t))
    }

    /// Raise `subject`'s latest-time guard to at least `t`
    /// (redistribution import; never lowers it).
    pub fn observe_latest(&mut self, subject: SubjectId, t: Time) {
        let entry = self.latest.entry(subject).or_insert(t);
        *entry = (*entry).max(t);
    }

    /// Raise the retention watermark to at least `w` without pruning
    /// (redistribution import: the target store starts from an
    /// already-pruned log).
    pub fn set_watermark(&mut self, w: Time) {
        if w > self.watermark() {
            self.watermark = Some(w);
        }
    }

    /// Add `n` to the pruned-events counter (redistribution import).
    pub fn add_pruned_events(&mut self, n: u64) {
        if n > 0 {
            self.pruned_events = Some(self.pruned_events() + n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALICE: SubjectId = SubjectId(0);
    const BOB: SubjectId = SubjectId(1);
    const CAIS: LocationId = LocationId(10);
    const GO: LocationId = LocationId(11);

    #[test]
    fn enter_exit_round_trip() {
        let mut db = MovementsDb::new();
        db.record_enter(Time(10), ALICE, CAIS).unwrap();
        assert_eq!(db.current_location(ALICE), Some(CAIS));
        assert_eq!(db.occupants(CAIS), vec![ALICE]);
        db.record_exit(Time(20), ALICE, CAIS).unwrap();
        assert_eq!(db.current_location(ALICE), None);
        assert!(db.occupants(CAIS).is_empty());
        assert_eq!(db.len(), 2);
        assert_eq!(
            db.timeline(ALICE),
            &[Stay {
                location: CAIS,
                enter: Time(10),
                exit: Some(Time(20))
            }]
        );
    }

    #[test]
    fn impossible_sequences_rejected() {
        let mut db = MovementsDb::new();
        db.record_enter(Time(10), ALICE, CAIS).unwrap();
        assert_eq!(
            db.record_enter(Time(11), ALICE, GO).unwrap_err(),
            MovementError::EnterWhileInside { at: CAIS }
        );
        assert_eq!(
            db.record_exit(Time(12), ALICE, GO).unwrap_err(),
            MovementError::ExitWithoutEntry { at: Some(CAIS) }
        );
        assert_eq!(
            db.record_exit(Time(5), ALICE, CAIS).unwrap_err(),
            MovementError::TimeRegression {
                latest: Time(10),
                event: Time(5)
            }
        );
        db.record_exit(Time(15), ALICE, CAIS).unwrap();
        assert_eq!(
            db.record_exit(Time(16), ALICE, CAIS).unwrap_err(),
            MovementError::ExitWithoutEntry { at: None }
        );
    }

    #[test]
    fn whereabouts_is_historical() {
        let mut db = MovementsDb::new();
        db.record_enter(Time(10), ALICE, CAIS).unwrap();
        db.record_exit(Time(20), ALICE, CAIS).unwrap();
        db.record_enter(Time(30), ALICE, GO).unwrap();
        assert_eq!(db.whereabouts(ALICE, Time(5)), None);
        assert_eq!(db.whereabouts(ALICE, Time(10)), Some(CAIS));
        assert_eq!(db.whereabouts(ALICE, Time(20)), Some(CAIS));
        assert_eq!(db.whereabouts(ALICE, Time(25)), None);
        assert_eq!(db.whereabouts(ALICE, Time(35)), Some(GO)); // open stay
    }

    #[test]
    fn present_during_clips_to_window() {
        let mut db = MovementsDb::new();
        db.record_enter(Time(10), ALICE, CAIS).unwrap();
        db.record_exit(Time(20), ALICE, CAIS).unwrap();
        db.record_enter(Time(15), BOB, CAIS).unwrap();
        let rows = db.present_during(CAIS, Interval::lit(18, 40));
        assert_eq!(
            rows,
            vec![(ALICE, Interval::lit(18, 20)), (BOB, Interval::lit(18, 40)),]
        );
    }

    #[test]
    fn contacts_join_colocated_intervals() {
        let mut db = MovementsDb::new();
        // Alice in CAIS [10,20]; Bob in CAIS [15,30]; Carol in GO [0,50].
        db.record_enter(Time(10), ALICE, CAIS).unwrap();
        db.record_exit(Time(20), ALICE, CAIS).unwrap();
        db.record_enter(Time(15), BOB, CAIS).unwrap();
        db.record_exit(Time(30), BOB, CAIS).unwrap();
        let carol = SubjectId(2);
        db.record_enter(Time(0), carol, GO).unwrap();
        let contacts = db.contacts(ALICE, Interval::lit(0, 100));
        assert_eq!(
            contacts,
            vec![Contact {
                other: BOB,
                location: CAIS,
                overlap: Interval::lit(15, 20)
            }]
        );
        // Contact tracing is symmetric.
        let back = db.contacts(BOB, Interval::lit(0, 100));
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].other, ALICE);
        assert_eq!(back[0].overlap, Interval::lit(15, 20));
    }

    #[test]
    fn window_edges_and_point_windows_count_as_overlap() {
        let mut db = MovementsDb::new();
        db.record_enter(Time(10), ALICE, CAIS).unwrap();
        db.record_exit(Time(20), ALICE, CAIS).unwrap();
        db.record_enter(Time(20), ALICE, CAIS).unwrap();
        db.record_exit(Time(30), ALICE, CAIS).unwrap();
        // The window ends where the first stay starts, and starts where
        // the last one ends: both touch it for one chronon.
        assert_eq!(
            db.present_during(CAIS, Interval::lit(0, 10)),
            vec![(ALICE, Interval::point(10))]
        );
        assert_eq!(
            db.present_during(CAIS, Interval::from_start(30)),
            vec![(ALICE, Interval::point(30))]
        );
        // A point window at a same-chronon re-entry sees both stays.
        assert_eq!(
            db.present_during(CAIS, Interval::point(20)),
            vec![(ALICE, Interval::point(20)), (ALICE, Interval::point(20))]
        );
        assert!(db.present_during(CAIS, Interval::lit(31, 40)).is_empty());
        assert!(db.present_during(CAIS, Interval::lit(0, 9)).is_empty());
        assert_eq!(db.exposures(ALICE, Interval::lit(25, 40)).len(), 1);
    }

    #[test]
    fn check_timelines_rejects_out_of_order_stays() {
        let mut db = pruneable_db();
        assert_eq!(db.check_timelines(), Ok(()));
        let stay = |enter, exit: Option<u64>| Stay {
            location: CAIS,
            enter: Time(enter),
            exit: exit.map(Time),
        };
        for (bad, index) in [
            (vec![stay(30, Some(40)), stay(10, Some(20))], 1),
            (vec![stay(10, Some(20)), stay(15, Some(40))], 1),
            (vec![stay(10, None), stay(30, Some(40))], 1),
            (vec![stay(10, Some(5))], 0),
        ] {
            db.timelines.insert(BOB, bad.clone());
            assert_eq!(
                db.check_timelines(),
                Err(TimelineError {
                    subject: BOB,
                    index,
                    stay: bad[index],
                })
            );
        }
    }

    #[test]
    fn inside_now_lists_open_stays() {
        let mut db = MovementsDb::new();
        db.record_enter(Time(10), ALICE, CAIS).unwrap();
        db.record_enter(Time(12), BOB, GO).unwrap();
        db.record_exit(Time(14), BOB, GO).unwrap();
        let inside = db.inside_now();
        assert_eq!(inside.len(), 1);
        assert_eq!(inside[0].0, ALICE);
    }

    #[test]
    fn reentry_after_exit_allowed() {
        let mut db = MovementsDb::new();
        db.record_enter(Time(10), ALICE, CAIS).unwrap();
        db.record_exit(Time(20), ALICE, CAIS).unwrap();
        db.record_enter(Time(20), ALICE, CAIS).unwrap();
        assert_eq!(db.timeline(ALICE).len(), 2);
        assert_eq!(db.current_location(ALICE), Some(CAIS));
    }

    #[test]
    fn serde_round_trip() {
        let mut db = MovementsDb::new();
        db.record_enter(Time(10), ALICE, CAIS).unwrap();
        let json = serde_json::to_string(&db).unwrap();
        let back: MovementsDb = serde_json::from_str(&json).unwrap();
        assert_eq!(back.current_location(ALICE), Some(CAIS));
        assert_eq!(back.len(), 1);
    }

    /// Alice: two closed stays + one open; Bob: one closed stay.
    fn pruneable_db() -> MovementsDb {
        let mut db = MovementsDb::new();
        db.record_enter(Time(10), ALICE, CAIS).unwrap();
        db.record_exit(Time(20), ALICE, CAIS).unwrap();
        db.record_enter(Time(15), BOB, GO).unwrap();
        db.record_exit(Time(25), BOB, GO).unwrap();
        db.record_enter(Time(30), ALICE, GO).unwrap();
        db.record_exit(Time(40), ALICE, GO).unwrap();
        db.record_enter(Time(50), ALICE, CAIS).unwrap();
        db
    }

    #[test]
    fn prune_drops_only_closed_stays_before_the_horizon() {
        let mut db = pruneable_db();
        let (events, stays) = db.collect_prunable(Time(30));
        assert_eq!(stays.len(), 2, "{stays:?}"); // Alice [10,20] + Bob [15,25]
        assert_eq!(events.len(), 4);
        let dropped = db.apply_prune(Time(30));
        assert_eq!(dropped, 4);
        assert_eq!(db.watermark(), Time(30));
        assert_eq!(db.pruned_events(), 4);
        assert_eq!(db.len(), 3); // Alice's [30,40] + open [50, ..]
        assert_eq!(db.total_recorded(), 7);
        // Post-watermark queries stay complete.
        assert_eq!(db.whereabouts(ALICE, Time(35)), Some(GO));
        assert_eq!(db.whereabouts(ALICE, Time(55)), Some(CAIS));
        assert_eq!(db.current_location(ALICE), Some(CAIS));
        // Bob's whole timeline is gone; the subject key is dropped too.
        assert!(db.timeline(BOB).is_empty());
        assert!(!db.covers(Time(29)));
        assert!(db.covers(Time(30)));
    }

    #[test]
    fn prune_retains_a_stay_straddling_the_horizon() {
        let mut db = MovementsDb::new();
        db.record_enter(Time(10), ALICE, CAIS).unwrap();
        db.record_exit(Time(40), ALICE, CAIS).unwrap();
        // Horizon falls inside the stay: exit (40) is not before 30, so
        // the stay survives and whereabouts below the watermark that hit
        // it still answer from live state.
        assert_eq!(db.apply_prune(Time(30)), 0);
        assert_eq!(db.whereabouts(ALICE, Time(20)), Some(CAIS));
    }

    #[test]
    fn prune_handles_same_chronon_reentry() {
        let mut db = MovementsDb::new();
        db.record_enter(Time(10), ALICE, CAIS).unwrap();
        db.record_exit(Time(20), ALICE, CAIS).unwrap();
        db.record_enter(Time(20), ALICE, GO).unwrap();
        // Horizon 21: the first stay (exit 20 < 21) goes; the reentry at
        // the same chronon stays — event-count bookkeeping, not time
        // filtering, separates the Exit@20 from the Enter@20.
        assert_eq!(db.apply_prune(Time(21)), 2);
        assert_eq!(db.timeline(ALICE).len(), 1);
        assert_eq!(db.log()[0].kind, MovementKind::Enter);
        assert_eq!(db.log()[0].time, Time(20));
        assert_eq!(db.current_location(ALICE), Some(GO));
    }

    #[test]
    fn prune_preserves_the_time_regression_guard() {
        let mut db = MovementsDb::new();
        db.record_enter(Time(10), ALICE, CAIS).unwrap();
        db.record_exit(Time(20), ALICE, CAIS).unwrap();
        db.apply_prune(Time(100));
        assert!(db.timeline(ALICE).is_empty());
        // Alice's history is gone but her clock is not: a regressed
        // event is still rejected, exactly as without pruning.
        assert_eq!(
            db.record_enter(Time(5), ALICE, CAIS).unwrap_err(),
            MovementError::TimeRegression {
                latest: Time(20),
                event: Time(5)
            }
        );
        db.record_enter(Time(30), ALICE, CAIS).unwrap();
    }

    #[test]
    fn prune_is_idempotent_and_watermark_monotone() {
        let mut db = pruneable_db();
        db.apply_prune(Time(30));
        let snapshot = db.clone();
        assert_eq!(db.apply_prune(Time(30)), 0);
        assert_eq!(db, snapshot);
        // A lower horizon never lowers the watermark.
        db.apply_prune(Time(5));
        assert_eq!(db.watermark(), Time(30));
    }

    #[test]
    fn collect_prunable_matches_apply_prune() {
        let db = pruneable_db();
        let (events, stays) = db.collect_prunable(Time(30));
        let mut pruned = db.clone();
        pruned.apply_prune(Time(30));
        // Retained log + pruned events = the original log (order within
        // each side preserved).
        assert_eq!(events.len() + pruned.len(), db.len());
        for e in &events {
            assert!(db.log().contains(e));
            assert!(!pruned.log().contains(e));
        }
        for (s, stay) in &stays {
            assert!(!pruned.timeline(*s).contains(stay));
        }
    }

    #[test]
    fn pruned_db_serde_round_trips_watermark() {
        let mut db = pruneable_db();
        db.apply_prune(Time(30));
        let json = serde_json::to_string(&db).unwrap();
        let back: MovementsDb = serde_json::from_str(&json).unwrap();
        assert_eq!(back, db);
        assert_eq!(back.watermark(), Time(30));
        assert_eq!(back.pruned_events(), 4);
    }

    #[test]
    fn latest_times_and_observe_latest_support_redistribution() {
        let mut db = pruneable_db();
        db.apply_prune(Time(100));
        let latest: std::collections::BTreeMap<_, _> = db.latest_times().collect();
        assert_eq!(latest[&BOB], Time(25));
        let mut fresh = MovementsDb::new();
        for (s, t) in db.latest_times() {
            fresh.observe_latest(s, t);
        }
        fresh.observe_latest(BOB, Time(1)); // never lowers
        assert!(matches!(
            fresh.record_enter(Time(24), BOB, GO),
            Err(MovementError::TimeRegression { .. })
        ));
        fresh.set_watermark(Time(100));
        fresh.set_watermark(Time(50)); // never lowers
        assert_eq!(fresh.watermark(), Time(100));
        fresh.add_pruned_events(4);
        assert_eq!(fresh.total_recorded(), 4);
    }
}
