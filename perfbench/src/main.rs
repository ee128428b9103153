//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload against a served child process and prints its
//! metrics, ending with one JSON result line. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` makes an untraced and a traced run
//! and reports the per-layer metrics. Run from the repository root,
//! e.g. `cargo run --release --manifest-path perfbench/Cargo.toml --
//! --workload door_swipes --seed 1 --seconds 10 --trace 0`.

use ltam_perfbench::inputs::{self, Sizes, Workload};
use ltam_perfbench::report::{self, MetricDecl, Metrics};
use ltam_perfbench::workloads::{self, Ctx, Outcome};
use ltam_perfbench::{server, trace};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str =
    "usage: perfbench --workload <sensor_ingest|door_swipes|contact_tracing> --seed <n> \
     --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    match (workload, seed, seconds, traced) {
        (Some(workload), Some(seed), Some(seconds), Some(traced)) => Ok(Args {
            workload,
            seed,
            seconds,
            traced,
        }),
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("serve") {
        server::child_main(&args[1..])
    } else {
        parse(&args).and_then(|a| bench(&a))
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// A fresh, private directory for one run.
fn fresh_dir(path: PathBuf) -> Result<PathBuf, String> {
    if path.exists() {
        std::fs::remove_dir_all(&path).map_err(|e| format!("clear {}: {e}", path.display()))?;
    }
    std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
    Ok(path)
}

fn bench(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let base = PathBuf::from(".perfbench");
    let work = fresh_dir(base.join(format!("work-{}", std::process::id())))?;
    let ctx = |sub: &str, traced: bool| -> Result<Ctx, String> {
        Ok(Ctx {
            exe: exe.clone(),
            work: fresh_dir(work.join(sub))?,
            seed: args.seed,
            seconds: args.seconds,
            sizes: Sizes::FULL,
            traced,
        })
    };
    let fingerprint =
        report::fingerprint(args.workload, args.seed, args.seconds, Sizes::FULL, &work);
    let outcome = (|| -> Result<(Outcome, Metrics, &[MetricDecl]), String> {
        let epoch = Instant::now();
        if !args.traced {
            let out = workloads::run(args.workload, &ctx("run", false)?, epoch)?;
            let metrics = report::end_to_end(&out);
            return Ok((out, metrics, &report::END_TO_END));
        }
        let untraced = workloads::run(args.workload, &ctx("untraced", false)?, epoch)?;
        let untraced_mean = report::mean_request_ms(&untraced);
        let mut out = workloads::run(args.workload, &ctx("traced", true)?, Instant::now())?;
        out.attempted += untraced.attempted;
        out.failed += untraced.failed;
        out.problems.extend(untraced.problems);
        let replay = std::mem::take(&mut out.replay);
        let replay_dir = fresh_dir(work.join("replay"))?;
        let costs = trace::replay_layers(
            || inputs::policy(args.workload, args.seed),
            &replay,
            &replay_dir,
            &mut out.spans,
        )?;
        let metrics = report::per_layer(&out, &costs, untraced_mean);
        let spans_dir = base.join("out");
        std::fs::create_dir_all(&spans_dir).map_err(|e| e.to_string())?;
        let spans_path =
            spans_dir.join(format!("spans-{}-{}.tsv", args.workload.name(), args.seed));
        out.spans
            .write_tsv(&spans_path)
            .map_err(|e| format!("write {}: {e}", spans_path.display()))?;
        print_layers(&out, &metrics, &spans_path);
        Ok((out, metrics, &report::PER_LAYER))
    })();
    let _ = std::fs::remove_dir_all(&work);
    let (out, metrics, decls) = outcome?;

    println!("# box {fingerprint}");
    for (name, value) in &metrics {
        let unit = decls.iter().find(|d| d.0 == *name).map_or("", |d| d.1);
        println!("# {name} = {value} {unit}");
    }
    if !args.traced {
        for (name, value, unit) in report::info(&out) {
            println!("# not gated: {name} = {value} {unit}");
        }
    }
    for p in &out.problems {
        println!("# problem: {p}");
    }
    let correct = out.failed == 0;
    println!(
        "{}",
        report::result_line(correct, out.attempted.max(1), out.failed, &metrics, decls)
    );
    Ok(())
}

/// The traced run's layer table: self time per span name, and where
/// the poll thread's time went.
fn print_layers(out: &Outcome, metrics: &Metrics, spans_path: &Path) {
    println!("# spans written to {}", spans_path.display());
    println!("# layer self times (span name, count, total ms, self ms):");
    for (name, t) in out.spans.self_times() {
        println!(
            "#   {name:<28} {:>8} {:>12.3} {:>12.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    let get = |n: &str| metrics.iter().find(|m| m.0 == n).map_or(0.0, |m| m.1);
    let digest_share = get("engine.state_digest_poll_share");
    if digest_share > 0.0 {
        println!(
            "# finding: Status answers hold the single poll thread for \
             engine.state_digest_ms = {:.1} ms each, {:.1}% of the run — \
             the serve-path stall behind the writer's throughput gap",
            get("engine.state_digest_ms"),
            digest_share * 100.0
        );
    }
}
