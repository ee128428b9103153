//! Live-tier history queries over a long history.
//!
//! A 2-shard engine ingests a 200k-event serving trace
//! (`ltam_bench::serve_workload`, 1024 subjects on the 8×8 grid). Each
//! query then runs over 30-chronon windows inside that history, the
//! shape an analyst's `Contacts`, `PresentDuring` and `ViolationsIn`
//! requests take. The searches cost O(log history + answer) per
//! timeline or shard, so these numbers should stay flat as the trace
//! grows. The `linear` variants filter every stay or violation, the
//! cost the searches replace.

use criterion::{criterion_group, criterion_main, Criterion};
use ltam_bench::serve_workload;
use ltam_core::subject::SubjectId;
use ltam_engine::batch::ShardedEngine;
use ltam_graph::LocationId;
use ltam_sim::multi_shard_trace;
use ltam_store::history::merged_contacts;
use ltam_time::{Interval, Time};
use std::hint::black_box;
use std::time::Duration;

const SUBJECTS: u32 = 1024;
const EVENTS: usize = 200_000;
const WINDOW: u64 = 30;

struct History {
    engine: ShardedEngine,
    locations: Vec<LocationId>,
    /// One past the last chronon of the trace.
    end: u64,
}

fn history() -> History {
    let trace = multi_shard_trace(&serve_workload(SUBJECTS as usize, EVENTS));
    let (engine, _alerts) = trace.build_sharded(2);
    for batch in trace.events.chunks(256) {
        engine.ingest(batch);
    }
    let end = trace
        .events
        .iter()
        .map(|e| e.time().get())
        .max()
        .unwrap_or(0)
        + 1;
    History {
        engine,
        locations: trace.world.graph.locations().collect(),
        end,
    }
}

/// The `i`-th query window: 30 chronons, spread over the history.
fn window(h: &History, i: u64) -> Interval {
    let start = (i * 7919) % h.end.saturating_sub(WINDOW).max(1);
    Interval::lit(start, start + WINDOW)
}

fn present_linear(h: &History, location: LocationId, w: Interval) -> usize {
    (0..h.engine.shard_count())
        .map(|shard| {
            h.engine.read_shard(shard, |st| {
                (0..SUBJECTS)
                    .flat_map(|s| st.movements().timeline(SubjectId(s)))
                    .filter(|s| s.location == location && s.interval().overlaps(w))
                    .count()
            })
        })
        .sum()
}

fn queries(c: &mut Criterion) {
    let h = history();
    let mut group = c.benchmark_group("history");
    let mut i = 0u64;
    let mut next = || {
        i += 1;
        i
    };
    group.bench_function("whereabouts", |b| {
        b.iter(|| {
            let k = next();
            let subject = SubjectId((k % SUBJECTS as u64) as u32);
            let t = Time(window(&h, k).start().get());
            black_box(h.engine.read_shard(h.engine.shard_for(subject), |st| {
                st.movements().whereabouts(subject, t)
            }))
        })
    });
    group.bench_function("present_during", |b| {
        b.iter(|| {
            let k = next();
            let location = h.locations[k as usize % h.locations.len()];
            let w = window(&h, k);
            let rows: usize = (0..h.engine.shard_count())
                .map(|shard| {
                    h.engine
                        .read_shard(shard, |st| st.movements().present_during(location, w).len())
                })
                .sum();
            black_box(rows)
        })
    });
    group.bench_function("present_during/linear", |b| {
        b.iter(|| {
            let k = next();
            let location = h.locations[k as usize % h.locations.len()];
            black_box(present_linear(&h, location, window(&h, k)))
        })
    });
    group.bench_function("contacts", |b| {
        b.iter(|| {
            let k = next();
            let subject = SubjectId((k % SUBJECTS as u64) as u32);
            black_box(merged_contacts(&h.engine, None, subject, window(&h, k)))
        })
    });
    group.bench_function("violations_in", |b| {
        b.iter(|| black_box(h.engine.violations_in(window(&h, next()))))
    });
    group.bench_function("violations_in/linear", |b| {
        b.iter(|| {
            let w = window(&h, next());
            let hits: usize = (0..h.engine.shard_count())
                .map(|shard| {
                    h.engine.read_shard(shard, |st| {
                        st.violations()
                            .iter()
                            .filter(|v| w.contains(v.time()))
                            .count()
                    })
                })
                .sum();
            black_box(hits)
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(900));
    targets = queries
}
criterion_main!(benches);
