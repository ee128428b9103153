//! Turning an [`Outcome`] into the named metrics, and printing them.

use crate::inputs::{self, Sizes, Workload};
use crate::stats::{mean, median, percentile, sliced};
use crate::trace::{LayerCosts, DECODE, ENCODE, REQUEST};
use crate::workloads::Outcome;
use std::fmt::Write as _;
use std::path::Path;

/// A metric's declaration: name, unit, and which direction is better.
pub type MetricDecl = (&'static str, &'static str, &'static str);

/// The end-to-end metrics, reported by every untraced run. Latency
/// enters as the share of requests answered correctly within
/// [`inputs::LIMIT`]: on a shared 2-vCPU box the percentiles themselves
/// move with the neighbours' load by more than any allowed bound (see
/// [`info`]).
pub const END_TO_END: [MetricDecl; 6] = [
    ("setup_s", "s", "lower"),
    ("ingest_events_per_s", "1/s", "higher"),
    ("ingest_in_limit_ratio", "ratio", "higher"),
    ("answer_in_limit_ratio", "ratio", "higher"),
    ("cpu_us_per_event", "us", "lower"),
    ("rss_peak_kb_per_event", "KiB", "lower"),
];

/// The view-query kinds the store times.
const VIEW_KINDS: [&str; 4] = ["whereabouts", "contacts", "violations_in", "present_during"];

/// The per-layer metrics, reported by every traced run (0 where a
/// layer does no such work on the workload).
pub const PER_LAYER: [MetricDecl; 47] = [
    ("serve.request_us_p50.ingest", "us", "lower"),
    ("serve.request_us_p99.ingest", "us", "lower"),
    ("serve.request_us_p50.check", "us", "lower"),
    ("serve.request_us_p99.check", "us", "lower"),
    ("serve.request_us_p50.query", "us", "lower"),
    ("serve.request_us_p99.query", "us", "lower"),
    ("serve.poll_iteration_us_p99", "us", "lower"),
    ("serve.wire_decode_ns_per_event", "ns", "lower"),
    ("serve.wire_bytes_per_event", "B", "lower"),
    ("serve.backpressure_total", "count", "lower"),
    ("store.group_queue_wait_us_p50", "us", "lower"),
    ("store.group_queue_wait_us_p99", "us", "lower"),
    ("store.fsync_us_p50", "us", "lower"),
    ("store.fsync_us_p99", "us", "lower"),
    ("store.group_events_mean", "events", "higher"),
    ("store.fsyncs_per_1k_events", "count", "lower"),
    ("store.wal_bytes_per_event", "B", "lower"),
    ("store.snapshot_ms", "ms", "lower"),
    ("store.snapshots", "count", "lower"),
    ("store.recovery_open_s", "s", "lower"),
    ("store.recovery_replay_s", "s", "lower"),
    ("store.view_query_us_p50.whereabouts", "us", "lower"),
    ("store.view_query_us_p99.whereabouts", "us", "lower"),
    ("store.view_query_us_p50.contacts", "us", "lower"),
    ("store.view_query_us_p99.contacts", "us", "lower"),
    ("store.view_query_us_p50.violations_in", "us", "lower"),
    ("store.view_query_us_p99.violations_in", "us", "lower"),
    ("store.view_query_us_p50.present_during", "us", "lower"),
    ("store.view_query_us_p99.present_during", "us", "lower"),
    ("engine.ingest_ns_per_event", "ns", "lower"),
    ("engine.state_digest_ms", "ms", "lower"),
    ("engine.state_digest_poll_share", "ratio", "lower"),
    ("engine.decisions.granted", "count", "higher"),
    ("engine.decisions.denied", "count", "lower"),
    ("core.decide_ns", "ns", "lower"),
    ("situate.overrides_total", "count", "lower"),
    ("situate.constraint_refusals_total", "count", "lower"),
    ("obs.encode_text_ms", "ms", "lower"),
    ("bench.gen_late_ms_p99", "ms", "lower"),
    ("bench.final_backlog", "count", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
    ("bench.unexplained_share", "ratio", "lower"),
    ("bench.client_encode_us_mean", "us", "lower"),
    ("bench.client_decode_us_mean", "us", "lower"),
    ("bench.client_request_us_mean", "us", "lower"),
    ("bench.server_request_us_mean", "us", "lower"),
    ("bench.requests", "count", "higher"),
];

/// Metric values by name, in declaration order.
pub type Metrics = Vec<(&'static str, f64)>;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Latency figures printed with the end-to-end metrics but not gated:
/// percentiles over the whole run, and the same as medians over ten
/// slices of it.
pub fn info(out: &Outcome) -> Vec<(String, f64, &'static str)> {
    let mut v = Vec::new();
    for (name, samples) in [("ingest", &out.ingest_ms), ("answer", &out.answer_ms)] {
        v.push((format!("{name}_samples"), samples.len() as f64, "count"));
        v.push((format!("{name}_mean_ms"), mean(samples), "ms"));
        for p in [50.0, 90.0, 99.0] {
            let pct = |s: &[f64]| percentile(s, p).unwrap_or(0.0);
            v.push((format!("{name}_p{p}_ms"), pct(samples), "ms"));
            let min_per_slice = (10.0 / (1.0 - p / 100.0)).ceil() as usize;
            v.push((
                format!("{name}_p{p}_sliced_ms"),
                sliced(samples, 10, min_per_slice, pct),
                "ms",
            ));
        }
    }
    v.push(("server_peak_rss_mb".to_string(), out.rss_mb, "MiB"));
    v
}

/// Mean latency over every timed request of the run, ms.
pub fn mean_request_ms(out: &Outcome) -> f64 {
    let all: Vec<f64> = out
        .ingest_ms
        .iter()
        .chain(&out.answer_ms)
        .copied()
        .collect();
    mean(&all)
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(out: &Outcome) -> Metrics {
    let values = [
        median(&out.setup_s).unwrap_or(0.0),
        ratio(out.acked_events as f64, out.elapsed_s),
        ratio(out.ingests_in_limit as f64, out.ingests_attempted as f64),
        ratio(out.answers_in_limit as f64, out.answers_attempted as f64),
        ratio(out.cpu_s * 1e6, out.acked_events as f64),
        ratio(out.rss_mb * 1024.0, out.events_held as f64),
    ];
    END_TO_END.iter().map(|d| d.0).zip(values).collect()
}

/// The per-layer metrics of a traced run. `untraced_mean_ms` is the
/// mean request latency of the untraced run made just before it.
pub fn per_layer(out: &Outcome, costs: &LayerCosts, untraced_mean_ms: f64) -> Metrics {
    let (before, after) = &out.scrapes;
    let hist = |name: &str, labels: &[(&str, &str)]| {
        after.hist(name, labels).since(&before.hist(name, labels))
    };
    let count = |name: &str, labels: &[(&str, &str)]| {
        after.value(name, labels) - before.value(name, labels)
    };
    let family = |name: &str| after.family_sum(name) - before.family_sum(name);
    let us = |name: &str, labels: &[(&str, &str)], p: f64| hist(name, labels).percentile(p) * 1e6;
    let events = out.acked_events as f64;

    let mut m: Vec<f64> = Vec::with_capacity(PER_LAYER.len());
    for kind in ["ingest", "check", "query"] {
        let labels = [("kind", kind)];
        m.push(us("serve_request_seconds", &labels, 50.0));
        m.push(us("serve_request_seconds", &labels, 99.0));
    }
    m.push(us("serve_poll_iteration_seconds", &[], 99.0));
    m.push(costs.wire_decode_ns_per_event);
    m.push(ratio(out.wire_bytes as f64, out.wire_events as f64));
    m.push(family("serve_backpressure_total"));
    m.push(us("store_group_queue_wait_seconds", &[], 50.0));
    m.push(us("store_group_queue_wait_seconds", &[], 99.0));
    m.push(us("store_fsync_seconds", &[], 50.0));
    m.push(us("store_fsync_seconds", &[], 99.0));
    m.push(hist("store_group_events", &[]).mean());
    m.push(ratio(count("store_wal_fsyncs_total", &[]) * 1e3, events));
    m.push(ratio(count("store_wal_appended_bytes_total", &[]), events));
    m.push(costs.snapshot_ms);
    m.push(count("store_snapshots_total", &[]));
    m.push(out.open_s);
    // Recovery happens before the baseline scrape: read it whole.
    m.push(after.hist("store_recovery_replay_seconds", &[]).sum);
    for kind in VIEW_KINDS {
        let labels = [("kind", kind)];
        m.push(us("store_view_query_seconds", &labels, 50.0));
        m.push(us("store_view_query_seconds", &labels, 99.0));
    }
    m.push(costs.engine_ingest_ns_per_event);
    m.push(costs.state_digest_ms);
    m.push(ratio(
        out.status_answered as f64 * costs.state_digest_ms / 1e3,
        out.elapsed_s,
    ));
    m.push(count("engine_decisions_total", &[("outcome", "granted")]));
    m.push(count("engine_decisions_total", &[("outcome", "denied")]));
    m.push(costs.decide_ns);
    m.push(count("situate_overrides_total", &[]));
    m.push(count("situate_constraint_refusals_total", &[]));
    m.push(costs.encode_text_ms);
    m.push(percentile(&out.late_ms, 99.0).unwrap_or(0.0));
    m.push(out.backlog as f64);
    m.push(ratio(mean_request_ms(out), untraced_mean_ms));

    // Reconciliation: the client's mean request time against what the
    // server's own request spans and the client codec account for.
    let layers = out.spans.self_times();
    let span_mean_us = |name: &str| {
        layers
            .get(name)
            .map_or(0.0, |t| ratio(t.total_ns as f64 / 1e3, t.count as f64))
    };
    let client_us = span_mean_us(REQUEST);
    let server_us = ratio(
        family("serve_request_seconds_sum") * 1e6,
        family("serve_request_seconds_count"),
    );
    let (encode_us, decode_us) = (span_mean_us(ENCODE), span_mean_us(DECODE));
    m.push(ratio(
        client_us - server_us - encode_us - decode_us,
        client_us,
    ));
    m.push(encode_us);
    m.push(decode_us);
    m.push(client_us);
    m.push(server_us);
    m.push(layers.get(REQUEST).map_or(0, |t| t.count) as f64);

    assert_eq!(m.len(), PER_LAYER.len(), "one value per declared metric");
    PER_LAYER.iter().map(|d| d.0).zip(m).collect()
}

/// The box and configuration a result was measured on.
pub fn fingerprint(
    workload: Workload,
    seed: u64,
    seconds: f64,
    sizes: Sizes,
    store_dir: &Path,
) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_default();
    let config = inputs::store_config();
    format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \"nproc\": {nproc}, \
         \"kernel\": {}, \"store_fs\": {}, \"rustc\": {}, \"store\": {{\"fsync\": {}, \
         \"retention\": {}, \"segment_bytes\": {}, \"snapshot_every\": {}, \"shards\": {}}}, \
         \"subjects\": {}, \"preload\": {}, \"swipe_rate\": {}, \"setups\": {}}}",
        json_str(workload.name()),
        json_str(&kernel),
        json_str(&filesystem_of(store_dir)),
        json_str(env!("PERFBENCH_RUSTC")),
        config.fsync,
        config.retention.is_some(),
        config.segment_bytes,
        config.snapshot_every,
        inputs::SHARDS,
        inputs::SUBJECTS,
        sizes.preload,
        sizes.swipe_rate,
        sizes.setups,
    )
}

/// The filesystem type `path` lives on (longest matching mount point).
fn filesystem_of(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `{"correct": …, "attempted": …, "failed": …,
/// "metrics": {name: {"value": …, "unit": …}, …}}`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    decls: &[MetricDecl],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            let unit = decls.iter().find(|d| d.0 == *name).map_or("", |d| d.1);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_number(*value),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A finite JSON number with all its digits (non-finite values, which
/// JSON cannot carry, become 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_shape() {
        let m: Metrics = vec![("setup_s", 0.5), ("cpu_us_per_event", 1.25)];
        let line = result_line(true, 10, 0, &m, &END_TO_END);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"cpu_us_per_event\": {\"value\": 1.25, \"unit\": \"us\"}}}"
        );
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_number(f64::NAN), "0.0");
        assert_eq!(json_number(3.0), "3.0");
    }

    #[test]
    fn declared_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|d| d.0).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric name");
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(d.0.len() <= 64 && d.0.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .0
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.1.len() <= 16);
            assert!(d.2 == "lower" || d.2 == "higher");
        }
    }

    #[test]
    fn benchmark_json_declares_what_the_code_reports() {
        let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(&manifest) else {
            return; // the benchmark directory copied on its own
        };
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            let needle = format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}",
                json_str(d.0),
                json_str(d.1),
                json_str(d.2)
            );
            assert!(text.contains(&needle), "BENCHMARK.json lacks {needle}");
        }
        for w in Workload::ALL {
            assert!(text.contains(&format!("{{\"name\": {}", json_str(w.name()))));
        }
    }
}
