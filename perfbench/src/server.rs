//! The served process. The benchmark hosts `ltam-serve` in a child
//! process of its own (`perfbench serve …`), so the server's CPU time
//! and peak memory can be read from `/proc` apart from the load.
//!
//! The child sets the store up (create, or recover with
//! `DurableEngine::open`), starts the server on a loopback port, prints
//! one `READY` line, and serves until its standard input closes.

use crate::inputs::{self, Workload};
use ltam_serve::{Server, ServerConfig};
use ltam_store::DurableEngine;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::Instant;

/// How the child brings its store up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Setup {
    /// `DurableEngine::create` into an empty directory (plus, on
    /// `door_swipes`, the situation ops through
    /// `DurableEngine::apply_situation`).
    Create,
    /// `DurableEngine::open` of an existing store: crash recovery.
    Open,
}

impl Setup {
    fn arg(self) -> &'static str {
        match self {
            Setup::Create => "create",
            Setup::Open => "open",
        }
    }
}

/// What the child measured while setting up.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// From store create/open until `Server::start` returned listening.
    pub setup_s: f64,
    /// The span around `DurableEngine::open` alone (0 on create).
    pub open_s: f64,
}

/// The child side: `perfbench serve --workload W --seed N --dir D
/// --setup create|open [--setup-only]`. Returns when the parent closes
/// standard input (or at once with `--setup-only`).
pub fn child_main(args: &[String]) -> Result<(), String> {
    let mut workload = None;
    let mut seed = None;
    let mut dir = None;
    let mut setup = None;
    let mut setup_only = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Workload::parse(&value()?),
            "--seed" => seed = value()?.parse::<u64>().ok(),
            "--dir" => dir = Some(PathBuf::from(value()?)),
            "--setup" => {
                setup = match value()?.as_str() {
                    "create" => Some(Setup::Create),
                    "open" => Some(Setup::Open),
                    _ => None,
                }
            }
            "--setup-only" => setup_only = true,
            other => return Err(format!("unknown serve option {other:?}")),
        }
    }
    let (Some(workload), Some(seed), Some(dir), Some(setup)) = (workload, seed, dir, setup) else {
        return Err("serve needs --workload, --seed, --dir and --setup".into());
    };

    let start = Instant::now();
    let mut open_s = 0.0;
    let engine = match setup {
        Setup::Create => {
            let (mut engine, alerts) = DurableEngine::create(
                &dir,
                inputs::trace(seed, 0).build_policy_core(),
                inputs::SHARDS,
                inputs::store_config(),
            )
            .map_err(|e| format!("create store: {e}"))?;
            drop(alerts);
            for op in inputs::situation_ops(workload, seed) {
                engine
                    .apply_situation(&op)
                    .map_err(|e| format!("apply situation: {e}"))?;
            }
            engine
        }
        Setup::Open => {
            let opened = Instant::now();
            let (engine, alerts, _report) = DurableEngine::open(&dir, inputs::store_config())
                .map_err(|e| format!("open store: {e}"))?;
            open_s = opened.elapsed().as_secs_f64();
            drop(alerts);
            engine
        }
    };
    let config = ServerConfig {
        max_connections: 16,
        ..ServerConfig::default()
    };
    let server = Server::start(engine, "127.0.0.1:0", config).map_err(|e| format!("bind: {e}"))?;
    let setup_s = start.elapsed().as_secs_f64();
    println!("READY {} {setup_s} {open_s}", server.local_addr());
    io::stdout().flush().map_err(|e| e.to_string())?;
    if !setup_only {
        // Serve until the parent closes our stdin (or dies).
        let mut sink = Vec::new();
        let _ = io::stdin().read_to_end(&mut sink);
    }
    server.abort().map_err(|e| format!("stop server: {e}"))?;
    Ok(())
}

/// The parent's handle on a served child process. Dropping it kills
/// the child if [`ServerProc::stop`] was not called.
#[derive(Debug)]
pub struct ServerProc {
    child: Child,
    stdin: Option<ChildStdin>,
    /// The loopback address the child listens on.
    pub addr: String,
    /// The child's own set-up timings.
    pub times: SetupTimes,
}

impl ServerProc {
    /// Start `exe serve …` over the store in `dir` and wait for its
    /// `READY` line.
    pub fn spawn(
        exe: &Path,
        workload: Workload,
        seed: u64,
        dir: &Path,
        setup: Setup,
        setup_only: bool,
    ) -> io::Result<ServerProc> {
        let mut cmd = Command::new(exe);
        cmd.arg("serve")
            .args(["--workload", workload.name()])
            .args(["--seed", &seed.to_string()])
            .arg("--dir")
            .arg(dir)
            .args(["--setup", setup.arg()]);
        if setup_only {
            cmd.arg("--setup-only");
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take();
        let mut line = String::new();
        let stdout = child.stdout.take().expect("stdout is piped");
        BufReader::new(stdout).read_line(&mut line)?;
        let mut proc = ServerProc {
            child,
            stdin,
            addr: String::new(),
            times: SetupTimes::default(),
        };
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            ["READY", addr, setup_s, open_s] => {
                proc.addr = addr.to_string();
                proc.times = SetupTimes {
                    setup_s: setup_s.parse().map_err(io::Error::other)?,
                    open_s: open_s.parse().map_err(io::Error::other)?,
                };
                Ok(proc)
            }
            _ => Err(io::Error::other(format!(
                "server child did not come up (said {line:?})"
            ))),
        }
    }

    /// The child's user + system CPU time so far, in seconds (from
    /// `/proc/<pid>/stat`, in the kernel's 100 Hz clock ticks).
    pub fn cpu_seconds(&self) -> io::Result<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id()))?;
        // Fields after the parenthesised command name: state is the
        // first, utime the 12th, stime the 13th.
        let rest = stat
            .rsplit_once(") ")
            .map(|(_, r)| r)
            .ok_or_else(|| io::Error::other("malformed /proc stat"))?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| -> io::Result<f64> {
            fields
                .get(i)
                .and_then(|f| f.parse::<u64>().ok())
                .map(|t| t as f64 / 100.0)
                .ok_or_else(|| io::Error::other("malformed /proc stat"))
        };
        Ok(ticks(11)? + ticks(12)?)
    }

    /// The child's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }

    /// Close the child's stdin and wait for it to stop serving.
    pub fn stop(mut self) -> io::Result<()> {
        drop(self.stdin.take());
        let status = self.child.wait()?;
        if status.success() {
            Ok(())
        } else {
            Err(io::Error::other(format!(
                "server child exited with {status}"
            )))
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if self.stdin.take().is_some() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}
