//! Differential battery for the live-tier history queries.
//!
//! `whereabouts`, `present_during` and `contacts` binary-search each
//! subject's timeline, and `violations_in` range-searches a per-shard
//! time index. Every other equivalence check in the workspace compares
//! the engine with itself (a reference engine runs the same
//! `MovementsDb` code), so a bug the queries share would pass them. Here
//! each answer is compared with a naive linear scan written in this
//! file: over the stays the generator itself laid down for movements,
//! and over the whole violation list for violations.
//!
//! Scenarios cover stays touching the window edges, point stays,
//! same-chronon re-entries, open stays, point and unbounded windows,
//! events interleaved out of time order across subjects, rejected
//! movements, and answers after retention, after an image round-trip
//! through JSON and after redistribution onto another shard count.

use ltam_core::model::{Authorization, EntryLimit};
use ltam_core::subject::SubjectId;
use ltam_core::RetentionPolicy;
use ltam_engine::batch::{Event, PolicyCore, ShardedEngine};
use ltam_engine::movement::Contact;
use ltam_engine::shard::{redistribute, ShardState, ShardStateImage};
use ltam_engine::Violation;
use ltam_graph::{LocationId, LocationModel};
use ltam_time::{Interval, Time};
use proptest::prelude::*;

/// xorshift64: the scenario generator's randomness, seeded by proptest.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed | 1)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }

    fn chance(&mut self, one_in: u64) -> bool {
        self.below(one_in) == 0
    }
}

/// A stay as the generator laid it down: the ground truth.
#[derive(Debug, Clone, Copy)]
struct TrueStay {
    subject: SubjectId,
    location: LocationId,
    enter: Time,
    exit: Option<Time>,
}

impl TrueStay {
    fn interval(&self) -> Interval {
        match self.exit {
            Some(e) => Interval::closed(self.enter, e).unwrap(),
            None => Interval::from_start(self.enter),
        }
    }
}

struct Scenario {
    core: PolicyCore,
    locations: Vec<LocationId>,
    subjects: Vec<SubjectId>,
    /// Every stay, per subject in chronological order.
    stays: Vec<TrueStay>,
    /// The events, interleaved across subjects out of time order.
    events: Vec<Event>,
    /// One past the latest chronon any event carries.
    end: u64,
}

/// A line of rooms; even subjects hold one-shot grants to every room
/// whose exit windows close early, so traffic raises unauthorized
/// entries, exits outside the window and (with ticks) overstays.
fn scenario(seed: u64, subjects: u32, rooms: usize) -> Scenario {
    let mut rng = Rng::new(seed);
    let mut model = LocationModel::new("W");
    let locations: Vec<LocationId> = (0..rooms)
        .map(|i| model.add_primitive(model.root(), format!("r{i}")).unwrap())
        .collect();
    for w in locations.windows(2) {
        model.add_edge(w[0], w[1]).unwrap();
    }
    model.set_entry(locations[0]).unwrap();
    let mut core = PolicyCore::new(model);
    let subjects: Vec<SubjectId> = (0..subjects).map(SubjectId).collect();
    for &s in subjects.iter().step_by(2) {
        for &l in &locations {
            core.add_authorization(
                Authorization::new(
                    Interval::lit(0, 20),
                    Interval::lit(0, 25),
                    s,
                    l,
                    EntryLimit::Finite(2),
                )
                .unwrap(),
            );
        }
    }

    let mut stays = Vec::new();
    let mut queues: Vec<Vec<Event>> = Vec::new();
    let mut end = 0u64;
    for &subject in &subjects {
        let mut queue = Vec::new();
        let mut t = rng.below(6);
        for k in 0..rng.below(7) {
            let location = locations[rng.below(rooms as u64) as usize];
            if rng.chance(2) {
                queue.push(Event::Request {
                    time: Time(t),
                    subject,
                    location,
                });
            }
            queue.push(Event::Enter {
                time: Time(t),
                subject,
                location,
            });
            let enter = Time(t);
            // Point stays (0) and same-chronon re-entries (gap 0) are
            // deliberately common.
            t += rng.below(5);
            if rng.chance(6) {
                // A rejected movement: exit from the wrong room.
                let wrong =
                    locations[(locations.iter().position(|&l| l == location).unwrap() + 1) % rooms];
                if wrong != location {
                    queue.push(Event::Exit {
                        time: Time(t),
                        subject,
                        location: wrong,
                    });
                }
            }
            let open = rng.chance(3) && k > 0;
            if open {
                stays.push(TrueStay {
                    subject,
                    location,
                    enter,
                    exit: None,
                });
                break;
            }
            queue.push(Event::Exit {
                time: Time(t),
                subject,
                location,
            });
            stays.push(TrueStay {
                subject,
                location,
                enter,
                exit: Some(Time(t)),
            });
            t += rng.below(4);
        }
        end = end.max(t + 1);
        queue.reverse();
        queues.push(queue);
    }
    // Interleave: each step takes the next event of a random subject,
    // so consecutive events are out of time order across subjects.
    let mut events = Vec::new();
    while queues.iter().any(|q| !q.is_empty()) {
        let live: Vec<usize> = (0..queues.len())
            .filter(|&i| !queues[i].is_empty())
            .collect();
        let i = live[rng.below(live.len() as u64) as usize];
        events.push(queues[i].pop().unwrap());
        if rng.chance(8) {
            events.push(Event::Tick {
                now: Time(rng.below(end + 1)),
            });
        }
    }
    Scenario {
        core,
        locations,
        subjects,
        stays,
        events,
        end,
    }
}

/// Query windows that stress the searches: every stay's edges as point
/// windows, windows ending exactly at an entry and starting exactly at
/// an exit, unbounded windows, and a few random ones.
fn windows(sc: &Scenario, rng: &mut Rng) -> Vec<Interval> {
    let mut out = vec![Interval::ALL, Interval::from_start(sc.end)];
    for s in sc.stays.iter().take(12) {
        out.push(Interval::point(s.enter));
        out.push(Interval::closed(Time(s.enter.0.saturating_sub(3)), s.enter).unwrap());
        if let Some(e) = s.exit {
            out.push(Interval::point(e));
            out.push(Interval::closed(e, Time(e.0 + 2)).unwrap());
            out.push(Interval::from_start(e));
        }
    }
    for _ in 0..6 {
        let a = rng.below(sc.end + 2);
        out.push(Interval::closed(Time(a), Time(a + rng.below(8))).unwrap());
    }
    out
}

// --- the naive side ---------------------------------------------------------

fn naive_whereabouts(stays: &[TrueStay], subject: SubjectId, t: Time) -> Option<LocationId> {
    stays
        .iter()
        .rfind(|s| s.subject == subject && s.interval().contains(t))
        .map(|s| s.location)
}

fn naive_present(
    stays: &[TrueStay],
    location: LocationId,
    window: Interval,
) -> Vec<(SubjectId, Interval)> {
    let mut out: Vec<_> = stays
        .iter()
        .filter(|s| s.location == location)
        .filter_map(|s| Some((s.subject, s.interval().intersect(window)?)))
        .collect();
    out.sort();
    out
}

fn naive_contacts(stays: &[TrueStay], subject: SubjectId, window: Interval) -> Vec<Contact> {
    let mut out = Vec::new();
    for mine in stays.iter().filter(|s| s.subject == subject) {
        let Some(exposure) = mine.interval().intersect(window) else {
            continue;
        };
        for theirs in stays
            .iter()
            .filter(|s| s.subject != subject && s.location == mine.location)
        {
            if let Some(overlap) = theirs.interval().intersect(exposure) {
                out.push(Contact {
                    other: theirs.subject,
                    location: mine.location,
                    overlap,
                });
            }
        }
    }
    canonical(out)
}

fn canonical(mut contacts: Vec<Contact>) -> Vec<Contact> {
    contacts.sort_by_key(|c| (c.other, c.overlap, c.location));
    contacts
}

/// The stays retention keeps at `horizon`: everything but closed stays
/// that exit before it.
fn surviving(stays: &[TrueStay], horizon: Time) -> Vec<TrueStay> {
    stays
        .iter()
        .filter(|s| s.exit.is_none_or(|e| e >= horizon))
        .copied()
        .collect()
}

// --- the engine side --------------------------------------------------------

fn present(
    engine: &ShardedEngine,
    location: LocationId,
    window: Interval,
) -> Vec<(SubjectId, Interval)> {
    let mut out = Vec::new();
    for shard in 0..engine.shard_count() {
        let rows = engine.read_shard(shard, |st| st.movements().present_during(location, window));
        assert!(
            rows.windows(2)
                .all(|w| (w[0].0, w[0].1.start()) <= (w[1].0, w[1].1.start())),
            "rows come sorted by (subject, start): {rows:?}"
        );
        out.extend(rows);
    }
    out.sort();
    out
}

/// Contacts across shards: the subject's exposures from its own shard,
/// joined with every shard's presences.
fn contacts(engine: &ShardedEngine, subject: SubjectId, window: Interval) -> Vec<Contact> {
    let exposures = engine.read_shard(engine.shard_for(subject), |st| {
        st.movements().exposures(subject, window)
    });
    let mut out = Vec::new();
    for (location, exposure) in exposures {
        for (other, overlap) in present(engine, location, exposure) {
            if other != subject {
                out.push(Contact {
                    other,
                    location,
                    overlap,
                });
            }
        }
    }
    canonical(out)
}

/// Compare every query over `engine` with the naive scans over `stays`.
fn check(
    engine: &ShardedEngine,
    sc: &Scenario,
    stays: &[TrueStay],
    windows: &[Interval],
    what: &str,
) {
    for &subject in &sc.subjects {
        let shard = engine.shard_for(subject);
        for t in 0..=sc.end + 1 {
            let t = Time(t);
            let got = engine.read_shard(shard, |st| st.movements().whereabouts(subject, t));
            assert_eq!(
                got,
                naive_whereabouts(stays, subject, t),
                "{what}: whereabouts of {subject} at {t}"
            );
        }
    }
    for &w in windows {
        for &l in &sc.locations {
            assert_eq!(
                present(engine, l, w),
                naive_present(stays, l, w),
                "{what}: present_during {l} {w}"
            );
        }
        for &subject in &sc.subjects {
            assert_eq!(
                contacts(engine, subject, w),
                naive_contacts(stays, subject, w),
                "{what}: contacts of {subject} over {w}"
            );
        }
        let all = engine.violations();
        let naive: Vec<Violation> = all
            .iter()
            .filter(|v| w.contains(v.time()))
            .copied()
            .collect();
        assert_eq!(engine.violations_in(w), naive, "{what}: violations_in {w}");
    }
}

fn images_through_json(engine: &ShardedEngine) -> Vec<ShardStateImage> {
    engine
        .export_images()
        .iter()
        .map(|i| serde_json::from_str(&serde_json::to_string(i).unwrap()).unwrap())
        .collect()
}

fn from_images(core: &PolicyCore, images: Vec<ShardStateImage>) -> ShardedEngine {
    for image in &images {
        image
            .movements
            .check_timelines()
            .expect("imported timelines are chronological");
    }
    let states = images.into_iter().map(ShardState::from_image).collect();
    ShardedEngine::with_states(core.clone(), states).0
}

fn run(seed: u64, subjects: u32, rooms: usize, shards: usize, reshard: usize) {
    let sc = scenario(seed, subjects, rooms);
    let mut rng = Rng::new(seed ^ 0x5DEE_CE66);
    let windows = windows(&sc, &mut rng);
    let (engine, _alerts) = ShardedEngine::new(sc.core.clone(), shards);
    let mut rest = &sc.events[..];
    while !rest.is_empty() {
        let n = (1 + rng.below(9) as usize).min(rest.len());
        engine.ingest(&rest[..n]);
        rest = &rest[n..];
    }
    check(&engine, &sc, &sc.stays, &windows, "ingested");

    let horizon = Time(rng.below(sc.end + 1));
    engine.apply_retention(&RetentionPolicy::keep_last(0), horizon);
    let stays = surviving(&sc.stays, horizon);
    check(&engine, &sc, &stays, &windows, "pruned");

    let restored = from_images(&sc.core, images_through_json(&engine));
    check(&restored, &sc, &stays, &windows, "restored");

    let images = redistribute(images_through_json(&restored), reshard, sc.core.db());
    let resharded = from_images(&sc.core, images);
    check(&resharded, &sc, &stays, &windows, "redistributed");

    // On one shard a single store holds every timeline, so its own
    // contact join must agree too.
    let single = from_images(
        &sc.core,
        redistribute(resharded.export_images(), 1, sc.core.db()),
    );
    for &w in &windows {
        for &subject in &sc.subjects {
            let got = single.read_shard(0, |st| st.movements().contacts(subject, w));
            assert!(
                got.windows(2)
                    .all(|c| (c[0].other, c[0].overlap.start())
                        <= (c[1].other, c[1].overlap.start())),
                "contacts come sorted by (other, start): {got:?}"
            );
            assert_eq!(canonical(got), naive_contacts(&stays, subject, w));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn history_queries_match_naive_scans(
        seed in any::<u64>(),
        subjects in 2u32..7,
        rooms in 1usize..4,
        shards in 1usize..4,
        reshard in 1usize..5,
    ) {
        run(seed, subjects, rooms, shards, reshard);
    }
}

/// Shard state restored from an image and then pruned keeps answering
/// `violations_in` exactly as a linear filter of its list, while
/// further out-of-order violations arrive.
#[test]
fn violation_index_survives_retain_and_restore() {
    let mut rng = Rng::new(0xC0FF_EE11);
    let mut out_of_order = 0;
    for round in 0..20 {
        let sc = scenario(rng.below(u64::MAX), 6, 2);
        let (mut engine, _alerts) = ShardedEngine::new(sc.core.clone(), 2);
        let mut rest = &sc.events[..];
        while !rest.is_empty() {
            let n = (1 + rng.below(5) as usize).min(rest.len());
            engine.ingest(&rest[..n]);
            rest = &rest[n..];
            match rng.below(6) {
                0 => engine
                    .apply_retention(&RetentionPolicy::keep_last(0), Time(rng.below(sc.end + 1))),
                1 => engine = from_images(&sc.core, engine.export_images()),
                _ => {}
            }
            for _ in 0..4 {
                let a = rng.below(sc.end + 2);
                let w = if rng.chance(4) {
                    Interval::from_start(a)
                } else {
                    Interval::closed(Time(a), Time(a + rng.below(10))).unwrap()
                };
                let naive: Vec<Violation> = engine
                    .violations()
                    .into_iter()
                    .filter(|v| w.contains(v.time()))
                    .collect();
                assert_eq!(engine.violations_in(w), naive, "round {round}, window {w}");
            }
        }
        for shard in 0..engine.shard_count() {
            engine.read_shard(shard, |st| {
                let v = st.violations();
                out_of_order += v.windows(2).filter(|p| p[0].time() > p[1].time()).count();
            });
        }
    }
    assert!(
        out_of_order > 0,
        "some violations were detected out of time order"
    );
}
