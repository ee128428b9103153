//! Each workload at a tiny size, with the correctness gate on.

use ltam_perfbench::inputs::{Sizes, Workload};
use ltam_perfbench::report;
use ltam_perfbench::workloads::{self, Ctx};
use std::path::PathBuf;
use std::time::Instant;

fn run(workload: Workload, traced: bool, seconds: f64) -> workloads::Outcome {
    let work = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "tiny-{}-{}",
        workload.name(),
        traced
    ));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).expect("work dir");
    let ctx = Ctx {
        exe: PathBuf::from(env!("CARGO_BIN_EXE_perfbench")),
        work: work.clone(),
        seed: 7,
        seconds,
        sizes: Sizes::TINY,
        traced,
    };
    let out = workloads::run(workload, &ctx, Instant::now()).expect("run completes");
    std::fs::remove_dir_all(&work).expect("clean up");
    assert_eq!(out.failed, 0, "{:?}", out.problems);
    assert!(out.attempted > 0 && out.acked_events > 0);
    out
}

fn check_end_to_end(workload: Workload) {
    let out = run(workload, false, 1.0);
    for (name, value) in report::end_to_end(&out) {
        assert!(value.is_finite() && value > 0.0, "{name} = {value}");
    }
}

#[test]
fn sensor_ingest_tiny() {
    check_end_to_end(Workload::SensorIngest);
}

#[test]
fn door_swipes_tiny() {
    check_end_to_end(Workload::DoorSwipes);
}

#[test]
fn contact_tracing_tiny() {
    check_end_to_end(Workload::ContactTracing);
}

#[test]
fn situation_counters_split_the_workloads() {
    let value = |out: &workloads::Outcome, name: &str| {
        let (before, after) = &out.scrapes;
        after.value(name, &[]) - before.value(name, &[])
    };
    // Long enough for overstaying responders to outlive their grants.
    let doors = run(Workload::DoorSwipes, true, 4.0);
    assert!(value(&doors, "situate_overrides_total") > 0.0);
    assert!(value(&doors, "situate_constraint_refusals_total") > 0.0);
    assert!(!doors.spans.spans().is_empty());
    assert!(!doors.replay.frames.is_empty());
    let sensors = run(Workload::SensorIngest, false, 1.0);
    assert_eq!(value(&sensors, "situate_overrides_total"), 0.0);
    assert_eq!(value(&sensors, "situate_constraint_refusals_total"), 0.0);
}
