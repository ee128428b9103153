//! Everything a run sends, generated from the workload seed: the
//! movement trace (`ltam_sim`'s canonical serving workload), the
//! situation declared for `door_swipes`, the analyst's query mix for
//! `contact_tracing`, and the open-loop swipe schedule. The server
//! receives only these generated inputs.

use ltam_core::subject::SubjectId;
use ltam_engine::batch::{Event, PolicyCore};
use ltam_graph::LocationId;
use ltam_serve::HistoryQuery;
use ltam_sim::{multi_shard_trace, TraceWorld};
use ltam_situate::{IncidentId, SituationMode, SituationOp, WorkflowConstraint};
use ltam_store::StoreConfig;
use ltam_time::{Interval, Time};
use rand::rngs::StdRng;
use rand::Rng;
use std::time::Duration;

/// Simulated population (1/16 of it are emergency responders on
/// `door_swipes`).
pub const SUBJECTS: usize = 1024;
/// Engine shards in the served store: one per vCPU of the benchmark box
/// (four cost more in thread hand-offs than they gain on two vCPUs).
pub const SHARDS: usize = 2;
/// Events per `Ingest` frame on the pipelined writers.
pub const BATCH: usize = 64;
/// `Ingest` frames in flight per pipelined window.
pub const DEPTH: usize = 4;
/// A sensor-ingest connection sends one `Check` probe after every this
/// many windows.
pub const PROBE_EVERY_WINDOWS: usize = 4;
/// The latency limit behind `ingest_in_limit_ratio` and
/// `answer_in_limit_ratio`: a door must open within 10 ms of a swipe.
pub const LIMIT: Duration = Duration::from_millis(10);

/// The store configuration of every run: fsync on, retention off, and
/// no automatic snapshots. In a run of fixed length the number of
/// cadence snapshots flips with the run's speed, and each one costs
/// seconds of CPU on a large history, so snapshots are taken
/// explicitly (the `contact_tracing` prep) and their cost is measured
/// by the traced run's replay instead.
pub fn store_config() -> StoreConfig {
    StoreConfig {
        segment_bytes: 8 << 20,
        snapshot_every: 0,
        fsync: true,
        retention: None,
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Two closed-loop pipelined ingest connections from an empty store.
    SensorIngest,
    /// One open-loop connection, one frame per trace event, under a
    /// declared emergency with workflow constraints.
    DoorSwipes,
    /// A pipelined writer beside a closed-loop analyst, on a store
    /// recovered from a large preloaded history.
    ContactTracing,
}

impl Workload {
    /// Every workload, in the order they are documented.
    pub const ALL: [Workload; 3] = [
        Workload::SensorIngest,
        Workload::DoorSwipes,
        Workload::ContactTracing,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SensorIngest => "sensor_ingest",
            Workload::DoorSwipes => "door_swipes",
            Workload::ContactTracing => "contact_tracing",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Sizes::FULL`] is what the benchmark measures;
/// [`Sizes::TINY`] keeps the same shapes at a size the unit tests can
/// afford.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    /// Events preloaded before `contact_tracing` recovers.
    pub preload: usize,
    /// Trace events generated per measured second for the pipelined
    /// writers (a ceiling on what they can send).
    pub writer_events_per_s: usize,
    /// `door_swipes` frames per second.
    pub swipe_rate: f64,
    /// Set-ups per run (the reported `setup_s` is their median).
    pub setups: usize,
}

impl Sizes {
    /// The measured configuration. Swipes run at 4,000 frames/s: at
    /// 6,000 a run that met a burst of CPU steal built a backlog it did
    /// not drain before the end.
    pub const FULL: Sizes = Sizes {
        preload: 1_000_000,
        writer_events_per_s: 800_000,
        swipe_rate: 4_000.0,
        setups: 3,
    };
    /// The unit-test configuration.
    pub const TINY: Sizes = Sizes {
        preload: 20_000,
        writer_events_per_s: 1_000_000,
        swipe_rate: 5_000.0,
        setups: 1,
    };
}

/// The movement trace of `events` events for `seed`.
pub fn trace(seed: u64, events: usize) -> TraceWorld {
    multi_shard_trace(&ltam_sim::TraceConfig {
        seed,
        ..ltam_bench::serve_workload(SUBJECTS, events)
    })
}

/// Split `events` into `n` per-subject streams (each subject's events
/// stay in one stream, in trace order).
pub fn streams(events: &[Event], n: usize) -> Vec<Vec<Event>> {
    let mut out = vec![Vec::new(); n];
    for e in events {
        let s = e.subject().expect("serving traces carry no ticks");
        out[ltam_engine::batch::shard_of(s, n)].push(*e);
    }
    out
}

/// The policy the served store starts from: the trace's authorizations
/// and, on `door_swipes`, the declared situation.
pub fn policy(workload: Workload, seed: u64) -> PolicyCore {
    let mut core = trace(seed, 0).build_policy_core();
    for op in situation_ops(workload, seed) {
        core.apply_situation(&op);
    }
    core
}

/// Seed perturbations that keep the benchmark's own random choices
/// independent of the trace generator's.
const SITUATION_STREAM: u64 = 0x5171_A710;
const ANALYST_STREAM: u64 = 0xA7A1_7575;

/// The trace world's locations.
pub fn locations(seed: u64) -> Vec<LocationId> {
    trace(seed, 0).world.graph.locations().collect()
}

/// The situation `door_swipes` declares at set-up: an emergency that
/// outlasts the trace, 1/16 of subjects registered as responders, and
/// one workflow constraint of each kind. Empty for the other workloads.
pub fn situation_ops(workload: Workload, seed: u64) -> Vec<SituationOp> {
    if workload != Workload::DoorSwipes {
        return Vec::new();
    }
    let mut r = ltam_sim::rng(seed ^ SITUATION_STREAM);
    let locations = locations(seed);
    let mut loc = || locations[r.gen_range(0..locations.len())];
    let (a, b, c, d) = (loc(), loc(), loc(), loc());
    let steps = vec![loc(), loc(), loc()];
    let mut ops = vec![SituationOp::Declare(SituationMode::Emergency {
        incident: IncidentId(seed),
        until: Time(1 << 40),
    })];
    let offset = (seed % 16) as usize;
    ops.extend(
        (offset..SUBJECTS)
            .step_by(16)
            .map(|s| SituationOp::AddResponder(SubjectId(s as u32))),
    );
    ops.push(SituationOp::AddConstraint(
        WorkflowConstraint::SeparationOfDuty {
            first: a,
            second: b,
            window: 60,
        },
    ));
    ops.push(SituationOp::AddConstraint(
        WorkflowConstraint::BindingOfDuty {
            prerequisite: c,
            dependent: d,
            window: 60,
        },
    ));
    ops.push(SituationOp::AddConstraint(
        WorkflowConstraint::OrderedSteps { steps, window: 60 },
    ));
    ops
}

/// One analyst request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalystOp {
    /// A history query (checked against the reference engine).
    Query(HistoryQuery),
    /// A metrics scrape (checked by validating the exposition).
    Metrics,
}

/// The analyst's fixed mix, per 32 requests: 16 `Whereabouts`,
/// 8 `Contacts`, 4 `ViolationsIn`, 2 `PresentDuring`, 1 `Status`,
/// 1 `Metrics`.
const MIX: [u8; 32] = *b"WCWVWCWPWCWVWCWSWCWVWCWPWCWVWCWM";

/// `n` analyst requests whose windows all end before `cut`, the
/// earliest time any event sent after the preload carries — so every
/// history answer is fixed by the preloaded history alone.
pub fn analyst_ops(seed: u64, n: usize, cut: Time, locations: &[LocationId]) -> Vec<AnalystOp> {
    let mut r = ltam_sim::rng(seed ^ ANALYST_STREAM);
    let horizon = cut.get().max(2);
    (0..n)
        .map(|i| {
            let subject = SubjectId(r.gen_range(0..SUBJECTS as u32));
            let window = |r: &mut StdRng, len: u64| {
                let len = len.min(horizon - 1);
                let start = r.gen_range(0..horizon - len);
                Interval::lit(start, start + len)
            };
            match MIX[i % MIX.len()] {
                b'W' => AnalystOp::Query(HistoryQuery::Whereabouts {
                    subject,
                    at: Time(r.gen_range(0..horizon)),
                }),
                b'C' => AnalystOp::Query(HistoryQuery::Contacts {
                    subject,
                    window: window(&mut r, 30),
                }),
                b'V' => AnalystOp::Query(HistoryQuery::ViolationsIn {
                    window: window(&mut r, 200),
                }),
                b'P' => AnalystOp::Query(HistoryQuery::PresentDuring {
                    location: locations[r.gen_range(0..locations.len())],
                    window: window(&mut r, 30),
                }),
                b'S' => AnalystOp::Query(HistoryQuery::Status),
                _ => AnalystOp::Metrics,
            }
        })
        .collect()
}

/// When open-loop frame `i` is due, as an offset from the start of the
/// schedule at `rate` frames per second (rounded to whole nanoseconds,
/// so the schedule is exact and repeatable).
pub fn due_offset(i: usize, rate: f64) -> Duration {
    Duration::from_nanos((i as f64 * 1e9 / rate).round() as u64)
}

/// How many frames are due strictly before `elapsed`: the frames an
/// open-loop run of that length attempts.
pub fn frames_before(elapsed: Duration, rate: f64) -> usize {
    let mut n = (elapsed.as_secs_f64() * rate) as usize;
    while due_offset(n, rate) < elapsed {
        n += 1;
    }
    while n > 0 && due_offset(n - 1, rate) >= elapsed {
        n -= 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_uniform_and_counts_due_frames() {
        let rate = 6_000.0;
        assert_eq!(due_offset(0, rate), Duration::ZERO);
        assert_eq!(due_offset(6_000, rate), Duration::from_secs(1));
        // Gaps are the period, to within the nanosecond rounding.
        for i in [1usize, 10, 5_999, 59_999] {
            let step = due_offset(i + 1, rate) - due_offset(i, rate);
            assert!(step.abs_diff(Duration::from_nanos(166_667)) <= Duration::from_nanos(1));
        }
        assert_eq!(frames_before(Duration::ZERO, rate), 0);
        assert_eq!(frames_before(Duration::from_nanos(1), rate), 1);
        assert_eq!(frames_before(Duration::from_secs(1), rate), 6_000);
        assert_eq!(frames_before(Duration::from_secs(10), rate), 60_000);
        for i in [0usize, 1, 17, 5_999, 60_000] {
            let due = due_offset(i, rate);
            assert_eq!(frames_before(due, rate), i);
            assert_eq!(frames_before(due + Duration::from_nanos(1), rate), i + 1);
        }
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        assert_eq!(trace(5, 2_000).events, trace(5, 2_000).events);
        assert_ne!(trace(5, 2_000).events, trace(6, 2_000).events);
        let cut = Time(500);
        let locs = locations(5);
        assert_eq!(
            analyst_ops(5, 64, cut, &locs),
            analyst_ops(5, 64, cut, &locs)
        );
        assert_ne!(
            analyst_ops(5, 64, cut, &locs),
            analyst_ops(6, 64, cut, &locs)
        );
        assert_eq!(
            situation_ops(Workload::DoorSwipes, 9),
            situation_ops(Workload::DoorSwipes, 9)
        );
        assert!(situation_ops(Workload::SensorIngest, 9).is_empty());
    }

    #[test]
    fn analyst_mix_and_windows() {
        let cut = Time(400);
        let ops = analyst_ops(3, 320, cut, &locations(3));
        let count = |f: &dyn Fn(&AnalystOp) -> bool| ops.iter().filter(|o| f(o)).count();
        use HistoryQuery as Q;
        assert_eq!(
            count(&|o| matches!(o, AnalystOp::Query(Q::Whereabouts { .. }))),
            160
        );
        assert_eq!(
            count(&|o| matches!(o, AnalystOp::Query(Q::Contacts { .. }))),
            80
        );
        assert_eq!(
            count(&|o| matches!(o, AnalystOp::Query(Q::ViolationsIn { .. }))),
            40
        );
        assert_eq!(
            count(&|o| matches!(o, AnalystOp::Query(Q::PresentDuring { .. }))),
            20
        );
        assert_eq!(count(&|o| matches!(o, AnalystOp::Query(Q::Status))), 10);
        assert_eq!(count(&|o| matches!(o, AnalystOp::Metrics)), 10);
        for op in &ops {
            let end = match op {
                AnalystOp::Query(Q::Whereabouts { at, .. }) => *at,
                AnalystOp::Query(
                    Q::Contacts { window, .. }
                    | Q::ViolationsIn { window }
                    | Q::PresentDuring { window, .. },
                ) => window.end().finite().expect("finite window"),
                _ => Time::ZERO,
            };
            assert!(end < cut, "{op:?} ends at or after the cut");
        }
    }

    #[test]
    fn door_swipes_situation_shape() {
        let ops = situation_ops(Workload::DoorSwipes, 21);
        let responders = ops
            .iter()
            .filter(|o| matches!(o, SituationOp::AddResponder(_)))
            .count();
        assert_eq!(responders, SUBJECTS / 16);
        let constraints = ops
            .iter()
            .filter(|o| matches!(o, SituationOp::AddConstraint(_)))
            .count();
        assert_eq!(constraints, 3);
        assert!(matches!(
            ops[0],
            SituationOp::Declare(SituationMode::Emergency { .. })
        ));
    }
}
