//! Running FNV-1a digests over the engine's append-mostly logs.
//!
//! [`EngineReadView::state_digest`](crate::view::EngineReadView::state_digest)
//! must not cost more as history grows: operators poll it, and the
//! serving tier answers it on the same thread that reads writer frames.
//! So each log whose contents the digest covers — every shard's
//! violation list and the engine's quarantine ledger — is a
//! [`DigestLog`]: the list plus the FNV-1a fold of its items, kept up
//! to date by the only methods that can change the list. A digest call
//! then reads one `u64` per log instead of walking every item.
//!
//! Items fold through [`Digestible`], a fixed-width field encoding with
//! a variant tag byte: no allocation per item, and no dependence on a
//! `Debug` rendering.
//!
//! The same single owner of every mutation keeps a second derived
//! structure: item positions grouped by time bucket, so a time-window
//! query ([`DigestLog::in_window`]) reads only the buckets it touches
//! instead of filtering the whole list.

use crate::batch::{Event, QuarantinedEvent};
use crate::violation::Violation;
use ltam_time::{Bound, Interval, Time};
use std::collections::BTreeMap;
use std::ops::Deref;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A running 64-bit FNV-1a hash. Not a cryptographic hash.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// The empty hash (the FNV-1a offset basis).
    pub fn new() -> Fnv {
        Fnv(FNV_OFFSET)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Fold one byte.
    pub fn u8(&mut self, v: u8) {
        self.bytes(&[v]);
    }

    /// Fold a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// Fold a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// A record with a fixed, allocation-free encoding for digests. The
/// encoding starts with a variant tag where the type has variants and
/// has a fixed width per variant, so a sequence of encodings parses
/// back unambiguously: two different lists never feed the hash the
/// same bytes.
pub trait Digestible {
    /// Fold this record into `h`.
    fn fold_into(&self, h: &mut Fnv);
}

impl Digestible for Violation {
    fn fold_into(&self, h: &mut Fnv) {
        match *self {
            Violation::UnauthorizedEntry {
                time,
                subject,
                location,
            } => {
                h.u8(0);
                h.u64(time.0);
                h.u32(subject.0);
                h.u32(location.0);
            }
            Violation::ExitOutsideWindow {
                time,
                subject,
                location,
                auth,
            } => {
                h.u8(1);
                h.u64(time.0);
                h.u32(subject.0);
                h.u32(location.0);
                h.u64(auth.0);
            }
            Violation::Overstay {
                detected_at,
                subject,
                location,
                auth,
            } => {
                h.u8(2);
                h.u64(detected_at.0);
                h.u32(subject.0);
                h.u32(location.0);
                h.u64(auth.0);
            }
            Violation::InconsistentMovement {
                time,
                subject,
                location,
            } => {
                h.u8(3);
                h.u64(time.0);
                h.u32(subject.0);
                h.u32(location.0);
            }
        }
    }
}

impl Digestible for Event {
    fn fold_into(&self, h: &mut Fnv) {
        let (tag, time, subject, location) = match *self {
            Event::Request {
                time,
                subject,
                location,
            } => (0, time, subject, location),
            Event::Enter {
                time,
                subject,
                location,
            } => (1, time, subject, location),
            Event::Exit {
                time,
                subject,
                location,
            } => (2, time, subject, location),
            Event::Tick { now } => {
                h.u8(3);
                h.u64(now.0);
                return;
            }
        };
        h.u8(tag);
        h.u64(time.0);
        h.u32(subject.0);
        h.u32(location.0);
    }
}

/// A record with a time, by which a [`DigestLog`] indexes it.
pub trait Timed {
    /// When the record happened.
    fn time(&self) -> Time;
}

impl Timed for Violation {
    fn time(&self) -> Time {
        Violation::time(self)
    }
}

impl Timed for QuarantinedEvent {
    fn time(&self) -> Time {
        self.event.time()
    }
}

impl Digestible for QuarantinedEvent {
    fn fold_into(&self, h: &mut Fnv) {
        h.u32(self.source.0);
        h.u8(self.level);
        self.event.fold_into(h);
    }
}

/// A list together with the running FNV-1a digest of its items, in
/// order, and an index of its positions by item time. Every way to
/// change the list goes through this type, so neither can go stale:
/// [`push`](DigestLog::push) and [`extend`](DigestLog::extend) fold and
/// index the new items, [`retain`](DigestLog::retain) refolds the
/// survivors and remaps the index, and [`from_vec`](DigestLog::from_vec)
/// folds and indexes a restored list whole. Reads go through
/// `Deref<Target = [T]>`.
///
/// The index groups positions by time bucket ([`BUCKET_BITS`]), each
/// group in list order. Detection order can run far from time order:
/// each subject's events carry its own clock, so a fast subject's
/// violations land far ahead of a slow one's on the same shard. A push
/// therefore appends to its bucket's group instead of inserting into
/// one sorted sequence, which would touch a spot deep inside it.
#[derive(Debug)]
pub struct DigestLog<T> {
    items: Vec<T>,
    digest: Fnv,
    /// Positions into `items` by time bucket, each group ascending.
    by_time: BTreeMap<u64, Vec<u32>>,
}

/// A time bucket spans `2^BUCKET_BITS` chronons. A window query reads
/// every position in the buckets it touches, so it scans its answer
/// plus at most the two partly covered buckets at its edges.
const BUCKET_BITS: u32 = 6;

fn bucket(t: Time) -> u64 {
    t.get() >> BUCKET_BITS
}

/// An index position. Memory bounds a list far below `u32::MAX` items,
/// so the index stores 4-byte positions.
fn position(index: usize) -> u32 {
    u32::try_from(index).expect("a log holds fewer than 2^32 items")
}

/// A shard's violations, in detection order.
pub type ViolationLog = DigestLog<Violation>;

/// The quarantine ledger, in arrival order.
pub type QuarantineLog = DigestLog<QuarantinedEvent>;

impl<T> Default for DigestLog<T> {
    fn default() -> DigestLog<T> {
        DigestLog {
            items: Vec::new(),
            digest: Fnv::new(),
            by_time: BTreeMap::new(),
        }
    }
}

impl<T: Digestible + Timed> DigestLog<T> {
    /// Take ownership of a list (a restored image), folding every item.
    pub fn from_vec(items: Vec<T>) -> DigestLog<T> {
        let mut log = DigestLog {
            items: Vec::with_capacity(items.len()),
            ..DigestLog::default()
        };
        for item in items {
            log.push(item);
        }
        log
    }

    /// Append one item.
    pub fn push(&mut self, item: T) {
        item.fold_into(&mut self.digest);
        let position = position(self.items.len());
        self.by_time
            .entry(bucket(item.time()))
            .or_default()
            .push(position);
        self.items.push(item);
    }

    /// Append items in order.
    pub fn extend(&mut self, items: impl IntoIterator<Item = T>) {
        for item in items {
            self.push(item);
        }
    }

    /// Keep only the items `keep` accepts, in order; returns how many
    /// were dropped. The survivors are refolded in the same pass.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) -> usize {
        let before = self.items.len();
        let mut digest = Fnv::new();
        // Each item's new position, or `None` if dropped.
        let mut moved_to = Vec::with_capacity(before);
        let mut kept = 0u32;
        self.items.retain(|item| {
            if keep(item) {
                item.fold_into(&mut digest);
                moved_to.push(Some(kept));
                kept += 1;
                true
            } else {
                moved_to.push(None);
                false
            }
        });
        self.digest = digest;
        for positions in self.by_time.values_mut() {
            positions.retain_mut(|p| match moved_to[*p as usize] {
                Some(q) => {
                    *p = q;
                    true
                }
                None => false,
            });
        }
        self.by_time.retain(|_, positions| !positions.is_empty());
        before - self.items.len()
    }

    /// The items whose time lies inside `window`, in list order: a range
    /// search over the time buckets, then their positions alone.
    pub fn in_window(&self, window: Interval) -> impl Iterator<Item = &T> + '_ {
        let from = bucket(window.start());
        let buckets = match window.end() {
            Bound::At(end) => self.by_time.range(from..=bucket(end)),
            Bound::Unbounded => self.by_time.range(from..),
        };
        let mut hits: Vec<u32> = buckets
            .flat_map(|(_, positions)| positions)
            .copied()
            .filter(|&p| window.contains(self.items[p as usize].time()))
            .collect();
        hits.sort_unstable();
        hits.into_iter().map(|p| &self.items[p as usize])
    }

    /// The FNV-1a fold of every item, in order (the offset basis when
    /// empty).
    pub fn digest(&self) -> u64 {
        self.digest.finish()
    }
}

impl<T> Deref for DigestLog<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.items
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{PolicyCore, ShardedEngine};
    use crate::shard::{ShardState, ShardStateImage};
    use crate::view::EngineReadView;
    use ltam_core::db::AuthId;
    use ltam_core::model::{Authorization, EntryLimit};
    use ltam_core::subject::SubjectId;
    use ltam_core::RetentionPolicy;
    use ltam_graph::examples::ntu_campus;
    use ltam_graph::LocationId;
    use ltam_time::{Interval, Time};
    use std::sync::Arc;

    /// The reference: the whole state digest folded from scratch over
    /// the current lists, ignoring every maintained sub-digest.
    fn from_scratch(engine: &ShardedEngine) -> u64 {
        let mut h = Fnv::new();
        h.u64(engine.shard_count() as u64);
        h.u64(engine.total_entries());
        h.u64(engine.violation_count() as u64);
        let marks = engine.watermarks();
        h.u64(marks.movements.0);
        h.u64(marks.audit.0);
        h.u64(marks.violations.0);
        for i in 0..engine.shard_count() {
            let mut sub = Fnv::new();
            engine.read_shard(i, |s| {
                for v in s.violations() {
                    v.fold_into(&mut sub);
                }
            });
            h.u64(sub.finish());
        }
        let mut quarantine = Fnv::new();
        for q in engine.export_quarantine() {
            q.fold_into(&mut quarantine);
        }
        h.u64(quarantine.finish());
        h.finish()
    }

    fn digest(engine: &Arc<ShardedEngine>) -> u64 {
        EngineReadView::new(Arc::clone(engine)).state_digest()
    }

    /// xorshift64: deterministic, dependency-free randomness.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }
    }

    /// A policy under which random traffic raises every violation kind:
    /// subjects 0..8 hold one-shot grants with closing exit windows at
    /// two locations; subjects 8..16 hold nothing.
    fn core() -> (PolicyCore, Vec<LocationId>) {
        let ntu = ntu_campus();
        let locations = vec![ntu.cais, ntu.chipes];
        let mut core = PolicyCore::new(ntu.model);
        for s in 0..8 {
            for (k, &l) in locations.iter().enumerate() {
                let start = 40 * (s + k as u64);
                core.add_authorization(
                    Authorization::new(
                        Interval::lit(start, start + 300),
                        Interval::lit(start + 5, start + 360),
                        SubjectId(s as u32),
                        l,
                        EntryLimit::Finite(3),
                    )
                    .unwrap(),
                );
            }
        }
        (core, locations)
    }

    fn random_batch(rng: &mut Rng, clock: &mut u64, locations: &[LocationId]) -> Vec<Event> {
        let mut batch = Vec::new();
        for _ in 0..1 + rng.below(24) {
            *clock += rng.below(3);
            let time = Time(*clock);
            let subject = SubjectId(rng.below(16) as u32);
            let location = locations[rng.below(locations.len() as u64) as usize];
            match rng.below(6) {
                // A visit: request, then walk in at once.
                0 | 1 => batch.extend([
                    Event::Request {
                        time,
                        subject,
                        location,
                    },
                    Event::Enter {
                        time,
                        subject,
                        location,
                    },
                ]),
                2 => batch.push(Event::Enter {
                    time,
                    subject,
                    location,
                }),
                3 | 4 => batch.push(Event::Exit {
                    time,
                    subject,
                    location,
                }),
                _ => batch.push(Event::Tick { now: time }),
            }
        }
        batch
    }

    #[test]
    fn maintained_digest_tracks_a_from_scratch_fold() {
        let (core, locations) = core();
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        let mut clock = 0u64;
        let (engine, _alerts) = ShardedEngine::new(core.clone(), 3);
        let mut engine = Arc::new(engine);
        let mut seen = [false; 4];
        let mut steps = [0usize; 5];
        for _ in 0..600 {
            let step = match rng.below(20) {
                0..=13 => 0,
                14 | 15 => 1,
                16 => 2,
                17 | 18 => 3,
                _ => 4,
            };
            steps[step] += 1;
            match step {
                0 => {
                    let batch = random_batch(&mut rng, &mut clock, &locations);
                    for v in engine.ingest(&batch).violations {
                        seen[match v {
                            Violation::UnauthorizedEntry { .. } => 0,
                            Violation::ExitOutsideWindow { .. } => 1,
                            Violation::Overstay { .. } => 2,
                            Violation::InconsistentMovement { .. } => 3,
                        }] = true;
                    }
                }
                1 => {
                    let horizon = Time(clock.saturating_sub(rng.below(200)));
                    engine.apply_retention(&RetentionPolicy::keep_last(1), horizon);
                }
                2 => {
                    // Restart from images, as recovery does.
                    let before = digest(&engine);
                    let states = engine
                        .export_images()
                        .into_iter()
                        .map(ShardState::from_image)
                        .collect();
                    let quarantine = engine.export_quarantine();
                    let (restored, _alerts) = ShardedEngine::with_states(core.clone(), states);
                    restored.load_quarantine(quarantine);
                    engine = Arc::new(restored);
                    assert_eq!(digest(&engine), before, "a restart keeps the digest");
                }
                3 => {
                    let batch = random_batch(&mut rng, &mut clock, &locations);
                    let source = SubjectId(100 + rng.below(3) as u32);
                    engine.ingest_quarantined(source, rng.below(4) as u8, &batch);
                }
                _ => {
                    // Reload a prefix of the ledger (a recovery from an
                    // older snapshot image).
                    let mut ledger = engine.export_quarantine();
                    ledger.truncate(rng.below(ledger.len() as u64 + 1) as usize);
                    engine.load_quarantine(ledger);
                }
            }
            assert_eq!(
                digest(&engine),
                from_scratch(&engine),
                "after step kind {step}"
            );
        }
        assert_eq!(
            seen, [true; 4],
            "random traffic raised every violation kind"
        );
        assert!(
            steps.iter().all(|&n| n > 0),
            "every step kind ran: {steps:?}"
        );
        assert!(engine.violation_count() > 0 && engine.quarantine_len() > 0);
    }

    fn engine_with(shards: Vec<Vec<Violation>>, quarantine: Vec<QuarantinedEvent>) -> u64 {
        let states = shards
            .into_iter()
            .map(|violations| {
                ShardState::from_image(ShardStateImage {
                    violations,
                    ..ShardStateImage::default()
                })
            })
            .collect();
        let (engine, _alerts) =
            ShardedEngine::with_states(PolicyCore::new(ntu_campus().model), states);
        engine.load_quarantine(quarantine);
        let engine = Arc::new(engine);
        let d = digest(&engine);
        assert_eq!(d, from_scratch(&engine));
        d
    }

    fn entry(time: u64, subject: u32, location: u32) -> Violation {
        Violation::UnauthorizedEntry {
            time: Time(time),
            subject: SubjectId(subject),
            location: LocationId(location),
        }
    }

    /// Every field of every variant, with a one-field perturbation of each.
    fn field_variants() -> Vec<(Violation, Violation)> {
        let exit = |time, subject, location, auth| Violation::ExitOutsideWindow {
            time: Time(time),
            subject: SubjectId(subject),
            location: LocationId(location),
            auth: AuthId(auth),
        };
        let overstay = |time, subject, location, auth| Violation::Overstay {
            detected_at: Time(time),
            subject: SubjectId(subject),
            location: LocationId(location),
            auth: AuthId(auth),
        };
        let glitch = |time, subject, location| Violation::InconsistentMovement {
            time: Time(time),
            subject: SubjectId(subject),
            location: LocationId(location),
        };
        vec![
            (entry(5, 1, 2), entry(6, 1, 2)),
            (entry(5, 1, 2), entry(5, 3, 2)),
            (entry(5, 1, 2), entry(5, 1, 4)),
            (exit(5, 1, 2, 7), exit(6, 1, 2, 7)),
            (exit(5, 1, 2, 7), exit(5, 3, 2, 7)),
            (exit(5, 1, 2, 7), exit(5, 1, 4, 7)),
            (exit(5, 1, 2, 7), exit(5, 1, 2, 8)),
            (overstay(5, 1, 2, 7), overstay(6, 1, 2, 7)),
            (overstay(5, 1, 2, 7), overstay(5, 3, 2, 7)),
            (overstay(5, 1, 2, 7), overstay(5, 1, 4, 7)),
            (overstay(5, 1, 2, 7), overstay(5, 1, 2, 8)),
            (glitch(5, 1, 2), glitch(6, 1, 2)),
            (glitch(5, 1, 2), glitch(5, 3, 2)),
            (glitch(5, 1, 2), glitch(5, 1, 4)),
            // Same fields, different kind.
            (entry(5, 1, 2), glitch(5, 1, 2)),
            (exit(5, 1, 2, 7), overstay(5, 1, 2, 7)),
        ]
    }

    #[test]
    fn the_digest_sees_every_difference() {
        let quarantined = |time| QuarantinedEvent {
            source: SubjectId(100),
            level: 1,
            event: Event::Enter {
                time: Time(time),
                subject: SubjectId(1),
                location: LocationId(2),
            },
        };
        let a = entry(5, 1, 2);
        let b = entry(9, 3, 2);
        let c = entry(7, 4, 2);
        let base = engine_with(vec![vec![a, b], vec![c]], vec![quarantined(3)]);
        assert_eq!(
            base,
            engine_with(vec![vec![a, b], vec![c]], vec![quarantined(3)]),
            "equal states digest equal"
        );

        for (v, w) in field_variants() {
            assert_ne!(
                engine_with(vec![vec![v, b], vec![c]], vec![]),
                engine_with(vec![vec![w, b], vec![c]], vec![]),
                "{v:?} vs {w:?}"
            );
        }
        let swapped = engine_with(vec![vec![b, a], vec![c]], vec![quarantined(3)]);
        assert_ne!(swapped, base, "two violations swapped within a shard");
        let moved = engine_with(vec![vec![a], vec![c, b]], vec![quarantined(3)]);
        assert_ne!(moved, base, "one violation moved to the other shard");
        let moved_first = engine_with(vec![vec![a], vec![b, c]], vec![quarantined(3)]);
        assert_ne!(
            moved_first, base,
            "one violation moved to the head of the other shard"
        );
        let extra = engine_with(
            vec![vec![a, b], vec![c]],
            vec![quarantined(3), quarantined(4)],
        );
        assert_ne!(extra, base, "one extra quarantined event");
    }

    #[test]
    fn the_time_index_answers_like_a_linear_filter() {
        let mut rng = Rng(0x2545_F491_4F6C_DD1D);
        let mut log = ViolationLog::default();
        let mut clock = 100u64;
        for step in 0..3000 {
            match rng.below(10) {
                // Mostly in time order, sometimes well behind it.
                0..=5 => {
                    clock += rng.below(3);
                    let late = if rng.below(4) == 0 { rng.below(40) } else { 0 };
                    log.push(entry(clock - late, rng.below(8) as u32, 1));
                }
                6 => log.extend((0..rng.below(5)).map(|_| entry(rng.below(clock), 2, 2))),
                7 => {
                    let salt = rng.below(7);
                    log.retain(|v| !(v.time().0 + salt).is_multiple_of(7));
                }
                8 => {
                    let digest = log.digest();
                    log = ViolationLog::from_vec(log.to_vec());
                    assert_eq!(log.digest(), digest);
                }
                _ => {
                    let start = rng.below(clock + 5);
                    let window = if rng.below(4) == 0 {
                        Interval::from_start(start)
                    } else {
                        Interval::lit(start, start + rng.below(30))
                    };
                    let naive: Vec<&Violation> =
                        log.iter().filter(|v| window.contains(v.time())).collect();
                    let got: Vec<&Violation> = log.in_window(window).collect();
                    assert_eq!(got, naive, "step {step}, window {window}");
                }
            }
            let mut indexed = Vec::new();
            for (&b, positions) in &log.by_time {
                assert!(positions.windows(2).all(|w| w[0] < w[1]));
                assert!(positions
                    .iter()
                    .all(|&p| bucket(log[p as usize].time()) == b));
                indexed.extend_from_slice(positions);
            }
            indexed.sort_unstable();
            assert!(indexed.iter().copied().eq(0..log.len() as u32));
        }
    }

    #[test]
    fn log_operations_keep_the_digest_current() {
        let from_scratch = |items: &[Violation]| {
            let mut h = Fnv::new();
            for v in items {
                v.fold_into(&mut h);
            }
            h.finish()
        };
        let mut log = ViolationLog::default();
        assert_eq!(log.digest(), Fnv::new().finish());
        log.push(entry(1, 1, 1));
        log.extend([entry(2, 2, 2), entry(3, 3, 3), entry(4, 4, 4)]);
        assert_eq!(log.digest(), from_scratch(&log));
        assert_eq!(log.retain(|v| v.time() != Time(2)), 1);
        assert_eq!(log.len(), 3);
        assert_eq!(log.digest(), from_scratch(&log));
        assert_eq!(log.retain(|_| true), 0);
        assert_eq!(log.digest(), from_scratch(&log));
        let restored = ViolationLog::from_vec(log.to_vec());
        assert_eq!(restored.digest(), log.digest());
        assert_eq!(log.retain(|_| false), 3);
        assert_eq!(log.digest(), ViolationLog::default().digest());
    }
}
