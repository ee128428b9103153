//! The traced run's own spans and layer replays.
//!
//! Spans are kept in memory by the benchmark's code only — one root
//! span per request, keyed by op index, with children around the
//! client's codec calls — and written out when the run ends. The layer
//! replays time calls into each layer's public functions on the run's
//! own inputs, in this process, after the load has stopped.

use ltam_core::decision::AccessRequest;
use ltam_core::ledger::UsageLedger;
use ltam_engine::batch::{Event, PolicyCore, ShardedEngine};
use ltam_engine::EngineReadView;
use ltam_serve::{wire, Request};
use ltam_store::DurableEngine;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{self, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Root span of one request, from send (or due time) to decoded reply.
pub const REQUEST: &str = "request";
/// Child span around the client's `wire::encode_request` + framing.
pub const ENCODE: &str = "client.encode";
/// Child span around the client's `wire::decode_response`.
pub const DECODE: &str = "client.decode";

/// One recorded span. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// The span that caused this one (0 for a root).
    pub parent: u64,
    /// The layer boundary the span covers.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

/// The id of request `op`'s root span; its codec children are
/// `id + 1` (encode) and `id + 2` (decode).
pub fn request_id(op: u64) -> u64 {
    (op + 1) << 2
}

/// First id of the replay spans (above every request id).
const REPLAY_BASE: u64 = 1 << 62;

/// In-memory span log. When off, recording is a no-op.
#[derive(Debug, Clone)]
pub struct Spans {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    next_replay: u64,
}

impl Spans {
    /// A log with `epoch` as time zero.
    pub fn new(on: bool, epoch: Instant) -> Spans {
        Spans {
            on,
            epoch,
            spans: Vec::new(),
            next_replay: REPLAY_BASE,
        }
    }

    /// An empty log with the same switch and epoch (for another
    /// thread; merge it back with [`Spans::absorb`]).
    pub fn sibling(&self) -> Spans {
        Spans::new(self.on, self.epoch)
    }

    /// Is recording on?
    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a span.
    pub fn add(&mut self, id: u64, parent: u64, name: &'static str, start: Instant, end: Instant) {
        if self.on {
            let (start_ns, end_ns) = (self.ns(start), self.ns(end));
            self.spans.push(Span {
                id,
                parent,
                name,
                start_ns,
                end_ns,
            });
        }
    }

    /// Record request `op`'s root span and its codec children.
    pub fn request(
        &mut self,
        op: u64,
        (start, end): (Instant, Instant),
        encode: (Instant, Instant),
        decode: (Instant, Instant),
    ) {
        let id = request_id(op);
        self.add(id, 0, REQUEST, start, end);
        self.add(id + 1, id, ENCODE, encode.0, encode.1);
        self.add(id + 2, id, DECODE, decode.0, decode.1);
    }

    /// Run `f` under a root replay span named `name`.
    pub fn replay<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let id = self.next_replay;
        self.next_replay += 1;
        self.add(id, 0, name, start, Instant::now());
        out
    }

    /// Move `other`'s spans into this log (same epoch).
    pub fn absorb(&mut self, other: Spans) {
        self.spans.extend(other.spans);
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per layer name: span count, total time and self time (total
    /// minus the part of each span its children cover), in ns.
    pub fn self_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                children
                    .entry(s.parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for s in &self.spans {
            let total = s.end_ns.saturating_sub(s.start_ns);
            let covered = children
                .get(&s.id)
                .map_or(0, |c| covered_ns(s.start_ns, s.end_ns, c));
            let entry = out.entry(s.name).or_default();
            entry.count += 1;
            entry.total_ns += total;
            entry.self_ns += total - covered.min(total);
        }
        out
    }

    /// Write every span as tab-separated `id parent name start_ns end_ns`.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Time accounted to one layer name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans recorded.
    pub count: u64,
    /// Summed span durations, ns.
    pub total_ns: u64,
    /// Summed self times, ns.
    pub self_ns: u64,
}

/// How much of `[start, end]` the union of `intervals` covers, in ns.
pub fn covered_ns(start: u64, end: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(start), b.min(end)))
        .filter(|&(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (a, b) in clipped {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

/// What the layer replays re-run: the served policy, the history
/// preloaded before the run, and every write frame the run sent, in
/// send order.
#[derive(Debug, Default)]
pub struct ReplayInput {
    /// Events ingested (untimed) before the timed replay.
    pub preload: Vec<Event>,
    /// The run's `Ingest` and `Check` frames.
    pub frames: Vec<Request>,
}

/// Per-layer costs measured by the replays.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCosts {
    /// `wire::decode_request` time per event carried, ns.
    pub wire_decode_ns_per_event: f64,
    /// `ShardedEngine::ingest` time per event, ns.
    pub engine_ingest_ns_per_event: f64,
    /// `DecisionContext::decide` time per access request, ns.
    pub decide_ns: f64,
    /// `EngineReadView::state_digest` at end-of-run history, ms.
    pub state_digest_ms: f64,
    /// `DurableEngine::snapshot` of the end-of-run history, ms.
    pub snapshot_ms: f64,
    /// `ltam_obs::encode_text` of this process's registry, ms.
    pub encode_text_ms: f64,
}

fn frame_events(frame: &Request) -> &[Event] {
    match frame {
        Request::Ingest(events) => events,
        Request::Check(event) => std::slice::from_ref(event),
        _ => &[],
    }
}

fn median_of(mut f: impl FnMut() -> f64, n: usize) -> f64 {
    let v: Vec<f64> = (0..n).map(|_| f()).collect();
    crate::stats::median(&v).unwrap_or(0.0)
}

/// Time each layer's public entry point on the run's own inputs;
/// `policy` builds the served policy, `store_dir` is an empty directory
/// for the snapshot replay's store.
pub fn replay_layers(
    policy: impl Fn() -> PolicyCore,
    input: &ReplayInput,
    store_dir: &Path,
    spans: &mut Spans,
) -> Result<LayerCosts, String> {
    let mut costs = LayerCosts::default();
    let events: usize = input.frames.iter().map(|f| frame_events(f).len()).sum();

    // serve: the server's frame decoder on the run's own frames.
    let payloads: Vec<Vec<u8>> = input.frames.iter().map(wire::encode_request).collect();
    costs.wire_decode_ns_per_event = spans.replay("replay.serve.wire_decode", || {
        let start = Instant::now();
        for p in &payloads {
            black_box(wire::decode_request(black_box(p)).expect("own frames decode"));
        }
        start.elapsed().as_nanos() as f64 / events.max(1) as f64
    });
    drop(payloads);

    // core: Definition 7 on every access request the run sent, against
    // the served policy's decision context.
    let requests: Vec<AccessRequest> = input
        .frames
        .iter()
        .flat_map(frame_events)
        .filter_map(|e| match *e {
            Event::Request {
                time,
                subject,
                location,
            } => Some(AccessRequest {
                time,
                subject,
                location,
            }),
            _ => None,
        })
        .collect();
    let ledger = UsageLedger::new();
    let core = policy();
    costs.decide_ns = spans.replay("replay.core.decide", || {
        let ctx = core.view().decision_context();
        let start = Instant::now();
        for r in &requests {
            black_box(ctx.decide(&ledger, black_box(r)));
        }
        start.elapsed().as_nanos() as f64 / requests.len().max(1) as f64
    });

    // engine: the same batches through the sharded engine in memory.
    let (engine, alerts) = ShardedEngine::new(core, crate::inputs::SHARDS);
    drop(alerts);
    for chunk in input.preload.chunks(4096) {
        engine.ingest(chunk);
    }
    costs.engine_ingest_ns_per_event = spans.replay("replay.engine.ingest", || {
        let start = Instant::now();
        for f in &input.frames {
            black_box(engine.ingest(frame_events(f)));
        }
        start.elapsed().as_nanos() as f64 / events.max(1) as f64
    });
    let view = EngineReadView::new(Arc::new(engine));
    costs.state_digest_ms = spans.replay("replay.engine.state_digest", || {
        median_of(
            || {
                let start = Instant::now();
                black_box(view.state_digest());
                start.elapsed().as_secs_f64() * 1e3
            },
            3,
        )
    });
    drop(view);

    // store: one snapshot of the same end-of-run history.
    let (mut durable, alerts) = DurableEngine::create(
        store_dir,
        policy(),
        crate::inputs::SHARDS,
        crate::inputs::store_config(),
    )
    .map_err(|e| format!("snapshot replay: create store: {e}"))?;
    drop(alerts);
    let all: Vec<Event> = input
        .preload
        .iter()
        .chain(input.frames.iter().flat_map(frame_events))
        .copied()
        .collect();
    for chunk in all.chunks(4096) {
        durable
            .ingest(chunk)
            .map_err(|e| format!("snapshot replay: ingest: {e}"))?;
    }
    drop(all);
    costs.snapshot_ms = spans
        .replay("replay.store.snapshot", || {
            let start = Instant::now();
            durable
                .snapshot()
                .map(|_| start.elapsed().as_secs_f64() * 1e3)
        })
        .map_err(|e| format!("snapshot replay: {e}"))?;
    drop(durable);

    // obs: the exposition encoder over this process's registry, which
    // the replays above populated with the engine's series.
    costs.encode_text_ms = spans.replay("replay.obs.encode_text", || {
        median_of(
            || {
                let start = Instant::now();
                black_box(ltam_obs::encode_text(ltam_obs::registry()));
                start.elapsed().as_secs_f64() * 1e3
            },
            5,
        )
    });
    Ok(costs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_once() {
        assert_eq!(covered_ns(0, 100, &[(10, 20), (15, 30), (90, 150)]), 30);
        assert_eq!(covered_ns(0, 100, &[]), 0);
        assert_eq!(covered_ns(50, 60, &[(0, 10)]), 0);

        let epoch = Instant::now();
        let at = |us: u64| epoch + Duration::from_micros(us);
        let mut spans = Spans::new(true, epoch);
        spans.request(0, (at(0), at(100)), (at(0), at(10)), (at(90), at(100)));
        spans.request(1, (at(0), at(50)), (at(0), at(5)), (at(45), at(50)));
        let t = spans.self_times();
        assert_eq!(t[REQUEST].count, 2);
        assert_eq!(t[REQUEST].total_ns, 150_000);
        assert_eq!(t[REQUEST].self_ns, 150_000 - 30_000);
        assert_eq!(t[ENCODE].total_ns, 15_000);
        assert_eq!(t[DECODE].self_ns, 15_000);

        let mut off = Spans::new(false, epoch);
        off.request(0, (at(0), at(1)), (at(0), at(1)), (at(0), at(1)));
        assert!(off.spans().is_empty());
    }
}
