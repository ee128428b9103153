//! [`DurableEngine`] — a crash-safe wrapper around
//! [`ShardedEngine`]: WAL-append before ingest, periodic snapshots,
//! recovery on open, WAL compaction behind snapshots.
//!
//! ## Protocol
//!
//! * **Ingest** — the batch is appended to the WAL (one `fsync`), *then*
//!   handed to [`ShardedEngine::ingest`]. A crash between the two replays
//!   the batch on recovery, which is exactly what an uninterrupted run
//!   would have computed: enforcement is deterministic per subject, so
//!   WAL-then-apply gives effectively-once semantics.
//! * **Snapshot** — every [`StoreConfig::snapshot_every`] events (or on
//!   demand), the full engine state is imaged at the current WAL
//!   position, written atomically, the WAL rotates, and segments no
//!   **retained** snapshot could ever need are deleted (recovery may
//!   fall back to the previous snapshot if the newest is damaged, so
//!   compaction trails the oldest retained one, not the newest).
//! * **Recover** — [`DurableEngine::open`] loads the newest valid
//!   snapshot, rebuilds the engine from it, and replays WAL records with
//!   sequence `>= snapshot.seq` through the normal ingest path. A torn or
//!   bit-flipped WAL tail is truncated at the last intact record — never
//!   a panic, never a lost record *before* the damage.
//! * **Policy edits** — [`DurableEngine::update_policy`] and
//!   [`DurableEngine::revoke_authorization`] apply the epoch swap (and,
//!   for revocation, per-shard grant/counter invalidation) and snapshot
//!   immediately: admin changes are rare and the WAL intentionally
//!   carries only sensor events, so the snapshot is what makes policy
//!   durable. Each acknowledged edit also advances an on-disk
//!   policy-epoch marker; recovery refuses a snapshot fallback that
//!   would silently revert an acknowledged edit.

use crate::archive::{ArchiveData, ArchiveStore, LazyArchive};
use crate::crc::crc32;
use crate::history::{self, HistoryError};
use crate::snapshot::{SnapshotStore, StoreSnapshot};
use crate::wal::{Wal, WalBatch, WalConfig, WalRecovery};
use ltam_core::capability::{AdminOp, AdminOutcome, WireAuth};
use ltam_core::db::AuthId;
use ltam_core::model::Authorization;
use ltam_core::retention::RetentionPolicy;
use ltam_core::subject::SubjectId;
use ltam_engine::batch::{BatchOutcome, Event, PolicyCore, ShardedEngine};
use ltam_engine::movement::Contact;
use ltam_engine::shard::{redistribute, ShardState};
use ltam_engine::violation::Alert;
use ltam_engine::EngineReadView;
use ltam_engine::Violation;
use ltam_graph::LocationId;
use ltam_situate::{SituationOp, SituationOutcome};
use ltam_time::{Interval, Time};
use std::io;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Tunables for a durable engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// WAL segment rotation threshold, in bytes.
    pub segment_bytes: u64,
    /// Automatic snapshot cadence, in events since the last snapshot
    /// (0 disables automatic snapshots; call
    /// [`DurableEngine::snapshot`] manually).
    pub snapshot_every: u64,
    /// `fsync` WAL batches and snapshots (disable only for benchmarks).
    pub fsync: bool,
    /// History retention: `None` keeps all history live forever (the
    /// pre-retention behavior); `Some(policy)` bounds live state by
    /// pruning history past the policy's horizon on ingest-driven
    /// maintenance runs, archiving it first (see
    /// [`DurableEngine::run_retention`]).
    pub retention: Option<RetentionPolicy>,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            segment_bytes: 1 << 20,
            snapshot_every: 100_000,
            fsync: true,
            retention: None,
        }
    }
}

impl StoreConfig {
    fn wal(&self) -> WalConfig {
        WalConfig {
            segment_bytes: self.segment_bytes,
            fsync: self.fsync,
        }
    }
}

/// What [`DurableEngine::open`] did to bring the store back.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// WAL position of the snapshot the engine was rebuilt from.
    pub snapshot_seq: u64,
    /// WAL-tail events replayed through the ingest path.
    pub replayed: usize,
    /// WAL-tail quarantine events reloaded onto the quarantine ledger
    /// (they never pass through enforcement).
    pub replayed_quarantined: usize,
    /// WAL-tail situation ops re-applied during replay, each at its own
    /// sequence position (a mode declaration changes how every later
    /// replayed event is judged).
    pub replayed_situations: usize,
    /// Violations raised during replay (already counted in the snapshot
    /// run's history if the crash lost no state — replay re-detects them).
    pub replayed_violations: usize,
    /// Bytes truncated off a torn/corrupt WAL tail.
    pub truncated_bytes: u64,
    /// WAL segments dropped because they followed a corrupt region.
    pub dropped_segments: usize,
    /// Movement-history retention watermark carried by the recovered
    /// snapshot (0 = never pruned).
    pub retention_watermark: u64,
    /// Archive coverage end at open time (0 = no archive segments).
    /// Historical queries below `retention_watermark` refuse unless the
    /// archive reaches the watermark.
    pub archive_covered_to: u64,
    /// `Some(message)` if the archive chain could not be scanned at
    /// open time (gappy or corrupt segments). Enforcement and recovery
    /// proceed — the archive is a query tier, not the recovery path —
    /// but below-watermark queries will fail until it is repaired, so
    /// operators should alert on this (see `docs/OPERATIONS.md` §6.6).
    pub archive_error: Option<String>,
}

/// A [`ShardedEngine`] with a durable event log and snapshots underneath.
/// See the [module docs](self) for the protocol.
#[derive(Debug)]
pub struct DurableEngine {
    dir: PathBuf,
    config: StoreConfig,
    /// Shared with every [`ReadView`]: the sharded engine synchronizes
    /// reads per shard itself, so views answer queries concurrently
    /// while this handle serializes all mutation.
    engine: Arc<ShardedEngine>,
    wal: Wal,
    snapshots: SnapshotStore,
    archive: Arc<ArchiveStore>,
    /// Lazily-loaded archive tier, cached across queries (segments load
    /// on first touch; see [`LazyArchive`]); invalidated by retention
    /// runs (which append a segment). Interior mutability so the
    /// tier-aware queries take `&self` — shared with [`ReadView`]s,
    /// which answer reads concurrently while ingest proceeds here.
    archive_cache: Arc<parking_lot::Mutex<LazyArchive>>,
    /// Store-level counters mirrored for [`ReadView`]s after every
    /// mutation (a view must not reach into `Wal` or the sequence
    /// bookkeeping, which only this writer handle may touch).
    cells: Arc<StatusCells>,
    /// An in-flight background snapshot write, if any (see
    /// [`DurableEngine::snapshot_async`]).
    pending_snapshot: Option<PendingSnapshot>,
    applied: u64,
    since_snapshot: u64,
    policy_epoch: u64,
    /// Enforcement-policy edits acknowledged so far — the replication
    /// barrier. A strict subset of `policy_epoch`'s bumps: wire-auth
    /// edits (token mint/revoke, trust changes) are durable policy
    /// edits but do not change what the WAL's events mean, so a
    /// follower keeps tailing across them instead of re-bootstrapping.
    enforcement_epoch: u64,
    /// Highest event time seen — the monitoring clock retention
    /// maintenance runs against. Quarantined events deliberately do
    /// **not** advance it: an untrusted sensor must not be able to
    /// fast-forward time (expiring tokens and grants) from quarantine.
    clock: Time,
    snapshot_error: Option<io::Error>,
    retention_error: Option<io::Error>,
    /// Held for the engine's lifetime; released (file removed) on drop.
    _lock: StoreLock,
}

/// Store counters a [`ReadView`] can read without touching the writer:
/// published by the writer after every mutation, loaded lock-free by
/// any number of views.
#[derive(Debug, Default)]
struct StatusCells {
    applied: AtomicU64,
    snapshot_seq: AtomicU64,
    policy_epoch: AtomicU64,
    enforcement_epoch: AtomicU64,
    wal_fsyncs: AtomicU64,
    /// The monitoring clock (highest trusted event time), as a raw
    /// chronon — the time the serving tier evaluates token validity at.
    clock: AtomicU64,
}

/// A background snapshot write in flight: the engine was imaged and the
/// WAL rotated synchronously; the encode + write + fsync run on this
/// thread. Joined (and the WAL compacted) before the next snapshot,
/// any policy edit, or drop.
#[derive(Debug)]
struct PendingSnapshot {
    join: JoinHandle<io::Result<PathBuf>>,
}

/// Lower the **calling thread's** scheduling priority (nice +10).
///
/// The background snapshot writer burns ~tens of milliseconds of CPU
/// encoding a multi-megabyte image; on a small machine (1 vCPU) that
/// steals whole scheduler quanta from the poll and commit threads and
/// shows up directly as tail latency on the wire. Niceness keeps the
/// writer running whenever the box is otherwise idle but yields to the
/// serving threads when it is not. On Linux `setpriority(PRIO_PROCESS,
/// 0, ..)` is per-thread, which is exactly the scope we want; a
/// failure (or a non-Linux target) is harmless — the write still
/// happens, just without the hint.
fn lower_thread_priority() {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn setpriority(which: i32, who: u32, prio: i32) -> i32;
        }
        const PRIO_PROCESS: i32 = 0;
        // SAFETY: plain syscall wrapper; pid 0 = the calling thread on
        // Linux. The return value is ignored on purpose (best effort).
        unsafe {
            setpriority(PRIO_PROCESS, 0, 10);
        }
    }
}

/// Best-effort single-opener guard: a `store.lock` file holding the
/// owner's pid. Two live engines appending to one WAL would interleave
/// records that neither's bookkeeping describes, so `create`/`open`
/// refuse while another **live** process holds the lock. A lock left by
/// a crashed process (its pid no longer alive) is stale and is taken
/// over — recovery after a crash is the whole point of the store — at
/// the (documented, accepted) cost of pid-reuse false negatives on
/// non-Linux systems where liveness cannot be probed via `/proc`.
#[derive(Debug)]
struct StoreLock {
    path: PathBuf,
}

impl StoreLock {
    fn acquire(dir: &Path) -> io::Result<StoreLock> {
        let path = dir.join("store.lock");
        // The creation itself is atomic (O_EXCL): of N racing openers,
        // exactly one creates the file. A stale lock (dead pid) is
        // removed and the acquire retried — racing removers then race on
        // the next create_new, which again admits exactly one.
        for _ in 0..8 {
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut f) => {
                    f.write_all(format!("{}\n", std::process::id()).as_bytes())?;
                    return Ok(StoreLock { path });
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    let holder = std::fs::read_to_string(&path)
                        .ok()
                        .and_then(|s| s.trim().parse::<u32>().ok());
                    if let Some(pid) = holder {
                        if Path::new(&format!("/proc/{pid}")).exists() {
                            return Err(io::Error::new(
                                io::ErrorKind::WouldBlock,
                                format!(
                                    "{} is locked by live process {pid}; two engines must \
                                     not append to one WAL",
                                    dir.display()
                                ),
                            ));
                        }
                    }
                    // Stale (dead pid) or unreadable: clear and retry.
                    match std::fs::remove_file(&path) {
                        Ok(()) => {}
                        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                        Err(e) => return Err(e),
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Err(io::Error::other(format!(
            "could not acquire {} after repeated stale-lock takeovers",
            path.display()
        )))
    }
}

impl Drop for StoreLock {
    fn drop(&mut self) {
        // Release only if the lock still names us (never delete a lock a
        // takeover replaced).
        let ours = std::fs::read_to_string(&self.path)
            .map(|s| s.trim().parse::<u32>() == Ok(std::process::id()))
            .unwrap_or(false);
        if ours {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

/// Marker file recording the highest **acknowledged** policy epoch
/// (`"LTPE"` magic, version, epoch u64, CRC). Written after the snapshot
/// carrying a policy edit lands, so snapshot fallback can detect — and
/// refuse — a recovery that would silently revert an acked edit.
const EPOCH_MARKER: &str = "policy.epoch";

fn write_epoch_marker(dir: &Path, fsync: bool, epoch: u64) -> io::Result<()> {
    let mut bytes = Vec::with_capacity(20);
    bytes.extend_from_slice(b"LTPE");
    bytes.extend_from_slice(&1u16.to_le_bytes());
    bytes.extend_from_slice(&0u16.to_le_bytes());
    bytes.extend_from_slice(&epoch.to_le_bytes());
    bytes.extend_from_slice(&crc32(&epoch.to_le_bytes()).to_le_bytes());
    let tmp = dir.join("policy.epoch.tmp");
    {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&tmp)?;
        f.write_all(&bytes)?;
        if fsync {
            f.sync_data()?;
        }
    }
    std::fs::rename(&tmp, dir.join(EPOCH_MARKER))?;
    if fsync {
        // The rename's dirent must be durable before the edit is acked —
        // a swallowed failure here would let a power cut silently revert
        // an acknowledged policy edit, the exact hole this marker closes.
        if let Ok(d) = std::fs::File::open(dir) {
            d.sync_all()?;
        }
    }
    Ok(())
}

/// The recorded epoch, or `None` for a missing/corrupt marker (best
/// effort: a corrupt marker degrades to the pre-marker behavior, it
/// never blocks recovery on its own).
fn read_epoch_marker(dir: &Path) -> Option<u64> {
    let bytes = std::fs::read(dir.join(EPOCH_MARKER)).ok()?;
    if bytes.len() != 20 || &bytes[0..4] != b"LTPE" {
        return None;
    }
    let epoch = u64::from_le_bytes(bytes[8..16].try_into().ok()?);
    let crc = u32::from_le_bytes(bytes[16..20].try_into().ok()?);
    (crc32(&epoch.to_le_bytes()) == crc).then_some(epoch)
}

impl DurableEngine {
    /// Create a fresh store in `dir` (refusing to overwrite an existing
    /// one) and write the initial snapshot of `core` at sequence 0.
    pub fn create(
        dir: &Path,
        core: PolicyCore,
        shards: usize,
        config: StoreConfig,
    ) -> io::Result<(DurableEngine, crossbeam::channel::Receiver<Alert>)> {
        std::fs::create_dir_all(dir)?;
        let lock = StoreLock::acquire(dir)?;
        let snapshots = SnapshotStore::with_fsync(dir, config.fsync);
        if snapshots.any_present()? {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("{} already holds an ltam-store; use open()", dir.display()),
            ));
        }
        let (wal, recovered) = Wal::open(dir, config.wal())?;
        if !recovered.events.is_empty()
            || !recovered.quarantined.is_empty()
            || !recovered.situations.is_empty()
        {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("{} already holds WAL segments; use open()", dir.display()),
            ));
        }
        let (engine, alerts) = ShardedEngine::new(core, shards);
        let mut durable = DurableEngine {
            dir: dir.to_path_buf(),
            config,
            engine: Arc::new(engine),
            wal,
            snapshots,
            archive: Arc::new(ArchiveStore::with_fsync(dir, config.fsync)),
            archive_cache: Arc::new(parking_lot::Mutex::new(LazyArchive::new())),
            cells: Arc::new(StatusCells::default()),
            pending_snapshot: None,
            applied: 0,
            since_snapshot: 0,
            policy_epoch: 0,
            enforcement_epoch: 0,
            clock: Time::ZERO,
            snapshot_error: None,
            retention_error: None,
            _lock: lock,
        };
        durable.snapshot()?;
        Ok((durable, alerts))
    }

    /// Recover a store from `dir` with the shard count it was
    /// snapshotted under.
    pub fn open(
        dir: &Path,
        config: StoreConfig,
    ) -> io::Result<(
        DurableEngine,
        crossbeam::channel::Receiver<Alert>,
        RecoveryReport,
    )> {
        Self::open_impl(dir, config, None)
    }

    /// Recover a store from `dir` onto `shards` shards, redistributing
    /// the snapshotted per-subject state if the count changed.
    pub fn open_with_shards(
        dir: &Path,
        config: StoreConfig,
        shards: usize,
    ) -> io::Result<(
        DurableEngine,
        crossbeam::channel::Receiver<Alert>,
        RecoveryReport,
    )> {
        assert!(shards >= 1, "need at least one shard");
        Self::open_impl(dir, config, Some(shards))
    }

    fn open_impl(
        dir: &Path,
        config: StoreConfig,
        shards_override: Option<usize>,
    ) -> io::Result<(
        DurableEngine,
        crossbeam::channel::Receiver<Alert>,
        RecoveryReport,
    )> {
        let lock = StoreLock::acquire(dir)?;
        let snapshots = SnapshotStore::with_fsync(dir, config.fsync);
        let snap = snapshots.load_latest()?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!("{} holds no valid snapshot; use create()", dir.display()),
            )
        })?;
        let (mut wal, recovered): (Wal, WalRecovery) = Wal::open(dir, config.wal())?;
        if wal.next_seq() < snap.seq {
            // The log ends before the snapshot's cover point. If WAL
            // repair truncated or quarantined anything to get here, the
            // discarded region may have held fsync-acked events past the
            // snapshot (e.g. a missing middle segment took the intact
            // tail segments with it) — refuse rather than silently
            // resume at the snapshot. The quarantined files are still in
            // the directory for manual repair.
            if recovered.truncated_bytes > 0 || recovered.dropped_segments > 0 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "WAL loss behind the snapshot: repair left the log at seq {} but the \
                         snapshot covers {}; quarantined/truncated segments may hold acked \
                         events past the snapshot — not recovering over them",
                        wal.next_seq(),
                        snap.seq
                    ),
                ));
            }
            // No corruption was repaired: the WAL is simply absent
            // (externally lost). The snapshot fully covers the state;
            // restart the log at the snapshot position.
            wal.reset_to(snap.seq)?;
        } else {
            // The WAL's intact records are contiguous (the scan stops at
            // any gap), so the log covers [wal_start, next_seq). If that
            // range starts *after* the snapshot we are recovering from,
            // events in between are unrecoverable — refuse rather than
            // silently resurrect a state with a hole in its history.
            let wal_start = [
                recovered.events.first().map(|&(s, _)| s),
                recovered.quarantined.first().map(|&(s, _)| s),
                recovered.situations.first().map(|&(s, _)| s),
            ]
            .into_iter()
            .flatten()
            .min()
            .unwrap_or(wal.next_seq());
            if wal_start > snap.seq {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "WAL gap: log starts at seq {wal_start} but the usable snapshot covers \
                         only {}; events in between are lost (was the log compacted past a \
                         snapshot that is now corrupt?)",
                        snap.seq
                    ),
                ));
            }
        }

        // The WAL preserves events across a snapshot fallback, but policy
        // edits live only in snapshots: recovering from a snapshot with a
        // smaller policy epoch than the store ever acknowledged would
        // silently re-enforce under the reverted policy. Refuse.
        if let Some(acked_epoch) = read_epoch_marker(dir) {
            if snap.policy_epoch < acked_epoch {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "policy revert: the usable snapshot carries policy epoch {} but edits \
                         through epoch {acked_epoch} were acknowledged; recovering would \
                         silently undo them (is the newest snapshot corrupt?)",
                        snap.policy_epoch
                    ),
                ));
            }
        }

        // Older snapshots predate the epoch split: every policy edit was
        // an enforcement edit then, so the durability counter is the
        // right floor.
        let enforcement_epoch = snap.enforcement_epoch.unwrap_or(snap.policy_epoch);
        let snapshot_quarantine = snap.quarantine.unwrap_or_default();
        // History queries binary-search every timeline, so a
        // non-chronological one would make them answer wrongly without a
        // sound. Refuse it here, where both crash recovery and a
        // follower's bootstrap import the snapshot's images.
        for image in &snap.states {
            image
                .movements
                .check_timelines()
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        }
        let policy = PolicyCore::from_image(snap.policy);
        let shards = shards_override.unwrap_or(snap.shards);
        let images = if shards == snap.shards {
            snap.states
        } else {
            redistribute(snap.states, shards, policy.db())
        };
        let states: Vec<ShardState> = images.into_iter().map(ShardState::from_image).collect();
        let (engine, alerts) = ShardedEngine::with_states(policy, states);

        let replay: Vec<(u64, Event)> = recovered
            .events
            .iter()
            .filter(|&&(seq, _)| seq >= snap.seq)
            .copied()
            .collect();
        let replay_situations: Vec<(u64, SituationOp)> = recovered
            .situations
            .iter()
            .filter(|&&(seq, _)| seq >= snap.seq)
            .cloned()
            .collect();
        let archive = ArchiveStore::with_fsync(dir, config.fsync);
        // A broken archive chain must not hide behind a healthy-looking
        // zero: it means below-watermark queries will refuse until the
        // segments are restored.
        let (archive_covered_to, archive_error) = match archive.coverage_end() {
            Ok(covered) => (covered, None),
            Err(e) => (0, Some(e.to_string())),
        };
        // Rebuild the quarantine ledger: the snapshot's image plus the
        // WAL tail's quarantine records past the snapshot point
        // (`load_quarantine` replaces, so build the full list first).
        let mut quarantine = snapshot_quarantine;
        let replayed_quarantined = recovered
            .quarantined
            .iter()
            .filter(|&&(seq, _)| seq >= snap.seq)
            .count();
        quarantine.extend(
            recovered
                .quarantined
                .iter()
                .filter(|&&(seq, _)| seq >= snap.seq)
                .map(|&(_, q)| q),
        );
        engine.load_quarantine(quarantine);
        let mut report = RecoveryReport {
            snapshot_seq: snap.seq,
            replayed: replay.len(),
            replayed_quarantined,
            replayed_situations: replay_situations.len(),
            replayed_violations: 0,
            truncated_bytes: recovered.truncated_bytes,
            dropped_segments: recovered.dropped_segments,
            retention_watermark: 0,
            archive_covered_to,
            archive_error,
        };
        // Replay events and situation ops merged by sequence: a mode
        // declaration (or constraint edit) in the tail changes how every
        // later event is judged, so it must be re-applied at exactly the
        // position it held on the uninterrupted run. Each op bumps the
        // in-memory policy epoch like the live path did; the snapshot
        // that normally follows an op never landed (that is why it is
        // still in the tail), so the cadence will take one later.
        let mut policy_epoch = snap.policy_epoch;
        if !replay.is_empty() || !replay_situations.is_empty() {
            let _span = ltam_obs::timed!(
                "store_recovery_replay_seconds",
                "WAL-tail replay time during open (one sample per recovery)"
            );
            let mut at = 0usize;
            let mut chunk: Vec<Event> = Vec::new();
            let mut ingest_upto = |engine: &ShardedEngine, end: usize, at: &mut usize| {
                if end > *at {
                    chunk.clear();
                    chunk.extend(replay[*at..end].iter().map(|&(_, e)| e));
                    report.replayed_violations += engine.ingest(&chunk).violations.len();
                    *at = end;
                }
            };
            for (op_seq, op) in &replay_situations {
                let end = at + replay[at..].partition_point(|&(s, _)| s < *op_seq);
                ingest_upto(&engine, end, &mut at);
                engine.update_policy(|p| {
                    p.apply_situation(op);
                });
                policy_epoch += 1;
            }
            ingest_upto(&engine, replay.len(), &mut at);
        }
        report.retention_watermark = engine.retention_watermark().get();
        // Re-seed the monitoring clock from the replayed tail so
        // ingest-driven retention resumes at the right point (a stale
        // clock only delays the next run, never prunes early).
        let clock = replay
            .iter()
            .map(|(_, e)| e.time())
            .max()
            .unwrap_or(Time::ZERO)
            .max(engine.retention_watermark());
        let applied = wal.next_seq().max(snap.seq);
        let durable = DurableEngine {
            dir: dir.to_path_buf(),
            config,
            engine: Arc::new(engine),
            wal,
            snapshots,
            archive: Arc::new(archive),
            archive_cache: Arc::new(parking_lot::Mutex::new(LazyArchive::new())),
            cells: Arc::new(StatusCells::default()),
            pending_snapshot: None,
            applied,
            since_snapshot: applied - snap.seq,
            policy_epoch,
            enforcement_epoch,
            clock,
            snapshot_error: None,
            retention_error: None,
            _lock: lock,
        };
        durable.publish_cells();
        Ok((durable, alerts, report))
    }

    /// The wrapped engine, for reads and queries.
    ///
    /// **Mutations through this reference bypass durability**: events fed
    /// to the engine directly are not WAL-logged, and admin calls like
    /// `ShardedEngine::revoke_authorization` are not snapshotted — a
    /// crash silently un-does them. Use [`DurableEngine::ingest`],
    /// [`DurableEngine::update_policy`] and
    /// [`DurableEngine::revoke_authorization`] instead.
    pub fn engine(&self) -> &ShardedEngine {
        &self.engine
    }

    /// Events durably applied so far (the WAL sequence).
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// WAL sequence the most recent snapshot covers (recovery replays
    /// at most `applied() - last_snapshot_seq()` events).
    pub fn last_snapshot_seq(&self) -> u64 {
        self.applied - self.since_snapshot
    }

    /// The current policy epoch (bumped by every durable policy edit).
    pub fn policy_epoch(&self) -> u64 {
        self.policy_epoch
    }

    /// The current enforcement epoch (bumped only by edits that change
    /// what enforcement means — the replication barrier; see the field
    /// docs).
    pub fn enforcement_epoch(&self) -> u64 {
        self.enforcement_epoch
    }

    /// The monitoring clock: the highest trusted event time seen. Token
    /// temporal validity is evaluated against this clock.
    pub fn clock(&self) -> Time {
        self.clock
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// `fsync` calls the WAL has issued since open — divide events by
    /// this to see group commit working.
    pub fn wal_fsyncs(&self) -> u64 {
        self.wal.fsyncs()
    }

    /// A cloneable, read-only view over this store: tier-aware history
    /// queries, engine status, and the store counters — everything a
    /// serving tier's read path needs — answered **concurrently** with
    /// this writer handle (per-shard locks, the archive cache's own
    /// lock, and atomic counter cells; never the writer's `&mut self`).
    pub fn read_view(&self) -> ReadView {
        ReadView {
            engine: Arc::clone(&self.engine),
            archive: Arc::clone(&self.archive),
            archive_cache: Arc::clone(&self.archive_cache),
            cells: Arc::clone(&self.cells),
            dir: self.dir.clone(),
        }
    }

    /// Durably ingest a batch: WAL-append + `fsync`, then enforce, then
    /// snapshot if the cadence says so.
    ///
    /// `Err` means exactly one thing: the batch did **not** reach the
    /// WAL (the engine was not touched either) — retrying is safe. A
    /// failure of the piggybacked automatic snapshot does not fail the
    /// batch (its durability rests on the WAL, not the snapshot); the
    /// error is deferred to [`DurableEngine::take_snapshot_error`] and
    /// the snapshot retries at the next cadence point.
    pub fn ingest(&mut self, events: &[Event]) -> io::Result<BatchOutcome> {
        let mut outcomes = self.commit_group(&[events])?;
        self.maintain();
        Ok(outcomes.pop().expect("one batch in, one outcome out"))
    }

    /// Durably commit several independently-submitted batches under
    /// **one** WAL write and one `fsync` — the group-commit primitive a
    /// commit thread drains its submission queue into (see
    /// [`GroupCommit`](crate::GroupCommit)). Each batch stays its own
    /// WAL record (all-or-nothing across a crash, exactly as if it had
    /// been ingested alone) and is enforced in submission order, so the
    /// returned outcomes line up with `batches`.
    ///
    /// `Err` means no batch in the group reached the WAL (and the
    /// engine was not touched): every submitter may safely retry.
    /// Maintenance (retention, snapshot cadence) is deliberately **not**
    /// run here — callers ack their waiters first, then call
    /// [`DurableEngine::maintain`], keeping snapshot stalls out of the
    /// commit latency path.
    pub fn commit_group(&mut self, batches: &[&[Event]]) -> io::Result<Vec<BatchOutcome>> {
        self.wal.append_batches(batches)?;
        let mut outcomes = Vec::with_capacity(batches.len());
        for batch in batches {
            let outcome = self.engine.ingest(batch);
            self.applied += batch.len() as u64;
            self.since_snapshot += batch.len() as u64;
            if let Some(t) = batch.iter().map(Event::time).max() {
                self.clock = self.clock.max(t);
            }
            outcomes.push(outcome);
        }
        self.publish_cells();
        Ok(outcomes)
    }

    /// Run the ingest-path maintenance that used to ride every batch:
    /// ingest-driven retention once the clock lets the watermark
    /// advance, and the snapshot cadence (taken asynchronously — the
    /// engine is imaged and the WAL rotated inline, but the multi-MB
    /// encode + write + fsync happen on a background thread; see
    /// [`DurableEngine::snapshot_async`]).
    ///
    /// A failure never fails any batch — batch durability rests on the
    /// WAL — and is deferred to [`DurableEngine::take_retention_error`]
    /// / [`DurableEngine::take_snapshot_error`]; live state is only
    /// dropped after its archive segment is durable, so a failed run
    /// leaves history intact and retries at the next cadence point.
    pub fn maintain(&mut self) {
        if let Some(policy) = self.config.retention {
            if policy.should_run(self.retention_anchor(&policy), self.clock) {
                if let Err(e) = self.run_retention_with(&policy, self.clock) {
                    self.retention_error = Some(e);
                }
            }
        }
        if self.config.snapshot_every > 0 && self.since_snapshot >= self.config.snapshot_every {
            // If the previous background write is still running, taking
            // another snapshot now would *block* on joining it — turning
            // the async cadence into a synchronous stall on the ingest
            // path (the writer is deliberately nice'd, so under load the
            // join can wait tens of milliseconds). Skip this round
            // instead: `since_snapshot` keeps growing and the next
            // maintain() retries, and the WAL covers everything until
            // then regardless.
            let writer_busy = self
                .pending_snapshot
                .as_ref()
                .is_some_and(|p| !p.join.is_finished());
            if !writer_busy {
                if let Err(e) = self.snapshot_async() {
                    self.snapshot_error = Some(e);
                }
            }
        }
    }

    /// The error of the most recent failed automatic snapshot, if any
    /// (cleared by this call; see [`DurableEngine::ingest`]).
    pub fn take_snapshot_error(&mut self) -> Option<io::Error> {
        self.snapshot_error.take()
    }

    /// The error of the most recent failed ingest-driven retention run,
    /// if any (cleared by this call; see [`DurableEngine::ingest`]).
    pub fn take_retention_error(&mut self) -> Option<io::Error> {
        self.retention_error.take()
    }

    /// Apply a policy edit as one epoch swap and make it durable: the
    /// WAL carries only sensor events, so the edit is snapshotted
    /// immediately and the acknowledged policy epoch is advanced (which
    /// recovery checks — a snapshot fallback will refuse to revert this
    /// edit rather than silently re-enforce under the old policy).
    ///
    /// On `Err` the edit is live in memory but **not durable**: a crash
    /// before a later successful snapshot reverts it.
    pub fn update_policy<R>(&mut self, f: impl FnOnce(&mut PolicyCore) -> R) -> io::Result<R> {
        let r = self.engine.update_policy(f);
        self.policy_epoch += 1;
        self.enforcement_epoch += 1;
        self.snapshot()?;
        write_epoch_marker(&self.dir, self.config.fsync, self.policy_epoch)?;
        Ok(r)
    }

    /// Apply a wire-auth edit (token mint/revoke, trust change) with the
    /// same durability protocol as [`DurableEngine::update_policy`] —
    /// epoch bump, immediate snapshot, acked-epoch marker — but
    /// **without** advancing the enforcement epoch: the edit changes who
    /// may talk to this store, not what its event history means, so
    /// followers keep tailing across it.
    pub fn update_wire_policy<R>(&mut self, f: impl FnOnce(&mut WireAuth) -> R) -> io::Result<R> {
        let r = self.engine.update_policy(|p| f(p.wire_mut()));
        self.policy_epoch += 1;
        self.snapshot_keep_wal()?;
        write_epoch_marker(&self.dir, self.config.fsync, self.policy_epoch)?;
        Ok(r)
    }

    /// Apply one [`AdminOp`] durably and return its outcome. This is
    /// the single dispatch point the serving tier's admin RPCs funnel
    /// through: each arm routes to the durability path with the right
    /// epoch semantics (wire-auth edits skip the enforcement-epoch
    /// bump; authorization edits take it).
    pub fn apply_admin(&mut self, op: AdminOp) -> io::Result<AdminOutcome> {
        match op {
            AdminOp::MintToken {
                subject,
                scopes,
                validity,
                secret,
            } => self.update_wire_policy(|w| AdminOutcome::TokenMinted {
                id: w.mint(subject, scopes, validity, secret),
            }),
            AdminOp::RevokeToken { id } => {
                self.update_wire_policy(|w| AdminOutcome::TokenRevoked {
                    existed: w.revoke(id),
                })
            }
            AdminOp::SetTrust { subject, level } => self.update_wire_policy(|w| {
                w.trust.set_level(subject, level);
                AdminOutcome::TrustSet
            }),
            AdminOp::SetTrustThreshold { threshold } => self.update_wire_policy(|w| {
                w.trust.threshold = threshold;
                AdminOutcome::TrustSet
            }),
            AdminOp::SetAuthRequired { required } => self.update_wire_policy(|w| {
                w.required = required;
                AdminOutcome::AuthRequiredSet
            }),
            AdminOp::AddAuthorization(auth) => {
                self.update_policy(|p| AdminOutcome::AuthorizationAdded {
                    id: p.add_authorization(auth),
                })
            }
            AdminOp::RevokeAuthorization { id } => {
                self.revoke_authorization(id)
                    .map(|revoked| AdminOutcome::AuthorizationRevoked {
                        existed: revoked.is_some(),
                    })
            }
        }
    }

    /// Durably apply one [`SituationOp`] — a mode declaration, a
    /// responder/pin edit, or a workflow-constraint change.
    ///
    /// Unlike admin edits, situation ops change what the event stream
    /// *means*, so they are **WAL-logged** (own record kind, one
    /// sequence number) before the epoch swap: a follower tailing the
    /// log re-applies the op at the same stream position and judges
    /// every later event identically — no re-bootstrap, because only
    /// the policy epoch bumps, never the enforcement epoch. The
    /// immediate snapshot then covers the op's sequence, and the acked
    /// epoch marker protects it from snapshot fallback, exactly like
    /// [`DurableEngine::update_wire_policy`]. A crash between the WAL
    /// append and the snapshot replays the op at its recorded position
    /// on recovery.
    pub fn apply_situation(&mut self, op: &SituationOp) -> io::Result<SituationOutcome> {
        self.wal.append_mixed(&[WalBatch::Situation(op)])?;
        let outcome = self.engine.update_policy(|p| p.apply_situation(op));
        self.policy_epoch += 1;
        self.applied += 1;
        self.since_snapshot += 1;
        self.snapshot_keep_wal()?;
        write_epoch_marker(&self.dir, self.config.fsync, self.policy_epoch)?;
        ltam_obs::gauge!(
            "situate_mode",
            "Declared situation mode (0 = normal, 1 = emergency, 2 = lockdown)"
        )
        .set(self.engine.policy().situation().mode_gauge());
        self.publish_cells();
        Ok(outcome)
    }

    /// Durably record a batch from a below-trust-threshold sensor on
    /// the quarantine ledger: WAL-append (own record kind) + `fsync`,
    /// then onto the in-memory ledger — never through enforcement, and
    /// never advancing the monitoring clock (see the `clock` field
    /// docs). Quarantined events consume WAL sequence numbers like any
    /// other record, so `applied` and replication stay uniform. Returns
    /// the number of events quarantined.
    pub fn commit_quarantine(
        &mut self,
        source: SubjectId,
        level: u8,
        events: &[Event],
    ) -> io::Result<usize> {
        if events.is_empty() {
            return Ok(0);
        }
        self.wal.append_mixed(&[WalBatch::Quarantine {
            source,
            level,
            events,
        }])?;
        self.engine.ingest_quarantined(source, level, events);
        self.applied += events.len() as u64;
        self.since_snapshot += events.len() as u64;
        self.publish_cells();
        Ok(events.len())
    }

    /// Durably revoke an authorization: removes it from the policy epoch
    /// **and** lapses its pending grants and usage counters on every
    /// shard (via [`ShardedEngine::revoke_authorization`]), then
    /// snapshots like [`DurableEngine::update_policy`]. This is the only
    /// crash-safe revocation path — the same call on
    /// [`DurableEngine::engine`] would not survive a restart.
    pub fn revoke_authorization(&mut self, id: AuthId) -> io::Result<Option<Authorization>> {
        let revoked = self.engine.revoke_authorization(id);
        self.policy_epoch += 1;
        self.enforcement_epoch += 1;
        self.snapshot()?;
        write_epoch_marker(&self.dir, self.config.fsync, self.policy_epoch)?;
        Ok(revoked)
    }

    /// Image the engine at the current WAL position, write the snapshot,
    /// rotate the WAL and compact segments no retained snapshot needs.
    /// Returns the covered sequence.
    ///
    /// Compaction goes up to the **oldest retained** snapshot, not the
    /// one just written: if the newest file is later found corrupt,
    /// recovery falls back to the older snapshot and must still find the
    /// WAL records between the two.
    pub fn snapshot(&mut self) -> io::Result<u64> {
        self.snapshot_finish()?;
        let snapshot = self.image();
        self.snapshots.write(&snapshot)?;
        self.wal.rotate()?;
        self.compact_behind_snapshots()?;
        self.since_snapshot = 0;
        self.publish_cells();
        Ok(self.applied)
    }

    /// Image the engine at the current WAL position **synchronously**
    /// (about a millisecond), then hand the expensive part — encoding
    /// and durably writing the multi-megabyte snapshot file — to a
    /// background thread. Returns the covered sequence.
    ///
    /// Unlike [`DurableEngine::snapshot`], the WAL is **not** rotated
    /// here: rotation costs several journal commits (seal + create +
    /// directory fsync) on the ingest path, and its only benefit at a
    /// snapshot point is compaction granularity. Segments still seal on
    /// size ([`WalConfig::segment_bytes`]), and the join's compaction
    /// drops whichever sealed segments the retained snapshots cover.
    ///
    /// Correctness does not depend on the write finishing: until the
    /// file is durable, recovery falls back to the previous snapshot and
    /// replays the full WAL (compaction is deferred to the join for
    /// exactly this reason). The write is joined — and any error
    /// surfaced — by the next snapshot, policy edit, or drop.
    pub fn snapshot_async(&mut self) -> io::Result<u64> {
        self.snapshot_finish()?;
        let snapshot = self.image();
        let store = self.snapshots.clone();
        self.pending_snapshot = Some(PendingSnapshot {
            join: std::thread::spawn(move || {
                lower_thread_priority();
                // Grace period: imaging just stalled the commit thread
                // for ~a millisecond, so a backlog of batches is about
                // to group-commit. Let their fsyncs hit a quiet journal
                // before this thread starts competing for CPU and disk.
                std::thread::sleep(std::time::Duration::from_millis(10));
                store.write(&snapshot)
            }),
        });
        self.since_snapshot = 0;
        self.publish_cells();
        Ok(self.applied)
    }

    /// Join an in-flight background snapshot write, if any, and run the
    /// compaction it deferred. An `Err` means the snapshot file did
    /// **not** land (no state is lost — the WAL still covers it).
    pub fn snapshot_finish(&mut self) -> io::Result<()> {
        let Some(pending) = self.pending_snapshot.take() else {
            return Ok(());
        };
        match pending.join.join() {
            Ok(Ok(_path)) => self.compact_behind_snapshots(),
            Ok(Err(e)) => Err(e),
            Err(_) => Err(io::Error::other("background snapshot writer panicked")),
        }
    }

    /// Write a snapshot but leave the WAL alone: no rotation, no
    /// compaction. This is the snapshot the **tail-transparent** policy
    /// edits take (wire-auth edits, situation ops — the ones followers
    /// keep tailing across): a storm of such edits through
    /// [`DurableEngine::snapshot`] would rotate and compact the log
    /// under a briefly-lagging follower's cursor, parking it
    /// `NeedsBootstrap` for no semantic reason. The snapshot file alone
    /// carries the edit's durability (the epoch marker is written after
    /// it lands); compaction waits for the event-cadence snapshots.
    fn snapshot_keep_wal(&mut self) -> io::Result<u64> {
        self.snapshot_finish()?;
        let snapshot = self.image();
        self.snapshots.write(&snapshot)?;
        self.since_snapshot = 0;
        self.publish_cells();
        Ok(self.applied)
    }

    fn image(&self) -> StoreSnapshot {
        StoreSnapshot {
            seq: self.applied,
            policy_epoch: self.policy_epoch,
            shards: self.engine.shard_count(),
            policy: self.engine.policy().image(),
            states: self.engine.export_images(),
            enforcement_epoch: Some(self.enforcement_epoch),
            quarantine: Some(self.engine.export_quarantine()),
        }
    }

    /// Compaction goes up to the **oldest retained** snapshot, not the
    /// newest: if the newest file is later found corrupt, recovery falls
    /// back to the older snapshot and must still find the WAL records
    /// between the two.
    fn compact_behind_snapshots(&mut self) -> io::Result<()> {
        let cover = self
            .snapshots
            .oldest_retained_seq()?
            .unwrap_or(self.applied)
            .min(self.applied);
        self.wal.compact(cover)?;
        Ok(())
    }

    /// Mirror the writer-side counters into the cells [`ReadView`]s
    /// read (release-ordered so a view that sees `applied` also sees
    /// the shard state that batch produced — the shard mutexes provide
    /// the actual synchronization; the cells are monitoring counters).
    fn publish_cells(&self) {
        self.cells.applied.store(self.applied, Ordering::Release);
        self.cells
            .snapshot_seq
            .store(self.applied - self.since_snapshot, Ordering::Release);
        self.cells
            .policy_epoch
            .store(self.policy_epoch, Ordering::Release);
        self.cells
            .enforcement_epoch
            .store(self.enforcement_epoch, Ordering::Release);
        self.cells
            .wal_fsyncs
            .store(self.wal.fsyncs(), Ordering::Release);
        self.cells.clock.store(self.clock.get(), Ordering::Release);
        if !ltam_obs::disabled() {
            // Scrape-visible epoch gauges: `store_policy_epoch` moves on
            // every durable policy edit; `store_enforcement_epoch` only
            // on edits that change what enforcement means. An
            // enforcement bump outside a change window is an operator
            // alert (every follower re-bootstraps behind it).
            ltam_obs::gauge!(
                "store_policy_epoch",
                "Durable policy epoch (bumped by every acknowledged policy edit)"
            )
            .set(self.policy_epoch as i64);
            ltam_obs::gauge!(
                "store_enforcement_epoch",
                "Enforcement epoch (bumped only by edits that change enforcement semantics; \
                 followers re-bootstrap when it moves)"
            )
            .set(self.enforcement_epoch as i64);
        }
    }

    // --- retention and the archive tier -------------------------------------

    /// The movement-history retention watermark: live state is complete
    /// from this chronon on; earlier history lives in the archive tier.
    pub fn retention_watermark(&self) -> Time {
        self.engine.retention_watermark()
    }

    /// Per-class retention watermarks (see
    /// [`ShardedEngine::watermarks`]).
    pub fn watermarks(&self) -> ltam_engine::HistoryWatermarks {
        self.engine.watermarks()
    }

    /// Run one retention maintenance pass at monitoring time `now`
    /// using the configured policy ([`StoreConfig::retention`]); an
    /// unconfigured store returns `InvalidInput`. See
    /// [`DurableEngine::run_retention_with`].
    pub fn run_retention(&mut self, now: Time) -> io::Result<RetentionOutcome> {
        let policy = self.config.retention.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "no retention policy configured (StoreConfig::retention is None)",
            )
        })?;
        self.run_retention_with(&policy, now)
    }

    /// The watermark a maintenance run anchors on: the furthest any
    /// *enabled* class has been pruned to (the classes advance in
    /// lockstep while the policy is stable, so this is simply "the last
    /// applied horizon"). Deliberately **not** the movements watermark
    /// alone: with `movements: false` that never advances, and
    /// anchoring on it would make every run rewrite the chain from the
    /// epoch — discarding previously archived audit/violation records.
    fn retention_anchor(&self, policy: &RetentionPolicy) -> Time {
        let w = self.engine.watermarks();
        let mut anchor = Time::ZERO;
        if policy.movements {
            anchor = anchor.max(w.movements);
        }
        if policy.audit {
            anchor = anchor.max(w.audit);
        }
        if policy.violations {
            anchor = anchor.max(w.violations);
        }
        anchor
    }

    /// Run one retention maintenance pass with an explicit policy:
    ///
    /// 1. collect every record of an enabled class older than
    ///    `policy.horizon_at(now)` (live state untouched);
    /// 2. append them to the archive tier, atomically and durably — a
    ///    crash-repeated run re-collects from the same watermark and
    ///    *replaces* its stranded segment (a superset, possibly with
    ///    records ingested since the stranded write), so records are
    ///    never lost or duplicated;
    /// 3. only then drop them from live state and advance the
    ///    watermarks (which the next snapshot carries).
    ///
    /// A crash between 2 and 3 leaves the records both archived and
    /// live; the tier-aware queries clip the archive side at the live
    /// watermark so nothing is counted twice, and the next run
    /// supersedes the stranded segment. If the archive chain already
    /// extends past the policy horizon (the crash came *after* the
    /// prune applied elsewhere), the pass re-covers up to the chain
    /// end so the replacement loses nothing.
    pub fn run_retention_with(
        &mut self,
        policy: &RetentionPolicy,
        now: Time,
    ) -> io::Result<RetentionOutcome> {
        let live_from = self.retention_anchor(policy);
        if !(policy.movements || policy.audit || policy.violations) {
            // No class enabled: nothing can ever be pruned. Bail before
            // the archive directory scan — this runs on the ingest path.
            return Ok(RetentionOutcome {
                watermark: live_from,
                pruned: 0,
                archived: 0,
                archive_to: live_from.get(),
            });
        }
        let chain_end = self.archive.coverage_end()?;
        let horizon = policy.horizon_at(now).max(Time(chain_end));
        if horizon <= live_from {
            return Ok(RetentionOutcome {
                watermark: live_from,
                pruned: 0,
                archived: 0,
                archive_to: chain_end,
            });
        }
        let _span = ltam_obs::timed!(
            "store_retention_run_seconds",
            "One retention maintenance pass: collect + archive + prune"
        );
        let prunable = self.engine.collect_prunable(policy, horizon);
        let archive_span = ltam_obs::timed!(
            "store_archive_run_seconds",
            "The archive-append phase of a retention pass"
        );
        let run = self
            .archive
            .append_run(live_from.get(), horizon.get(), &prunable)?;
        drop(archive_span);
        self.engine.apply_retention(policy, horizon);
        // A new segment exists (and may have replaced a stranded one):
        // the next query rescans the chain and reloads lazily.
        self.archive_cache.lock().invalidate();
        Ok(RetentionOutcome {
            watermark: horizon,
            pruned: prunable.len(),
            archived: run.map(|r| r.records).unwrap_or(0),
            archive_to: run.map(|r| r.to).unwrap_or_else(|| horizon.get()),
        })
    }

    /// Archive segments whose payloads are currently cached (the status
    /// surface and the laziness tests read this; it only grows as
    /// queries reach further back).
    pub fn archive_segments_loaded(&self) -> usize {
        self.archive_cache.lock().segments_loaded()
    }

    /// Archive chain coverage end (exclusive), from the cached chain
    /// scan — no segment payload is read.
    pub fn archive_covered_to(&self) -> io::Result<u64> {
        self.archive_cache.lock().coverage_end(&self.archive)
    }

    /// Tier-aware historical whereabouts: answered from live state at
    /// or after the retention watermark (or by a live stay straddling
    /// it), from the archive before it. Refuses
    /// ([`HistoryError::Unarchived`]) only when the answer would need
    /// discarded-and-unarchived history.
    pub fn whereabouts(
        &self,
        subject: SubjectId,
        t: Time,
    ) -> Result<Option<LocationId>, HistoryError> {
        tiered_whereabouts(&self.engine, &self.archive, &self.archive_cache, subject, t)
    }

    /// Tier-aware presence query: who was in `location` during
    /// `window`, with clipped overlap intervals, merged across tiers.
    pub fn present_during(
        &self,
        location: LocationId,
        window: Interval,
    ) -> Result<Vec<(SubjectId, Interval)>, HistoryError> {
        tiered_present_during(
            &self.engine,
            &self.archive,
            &self.archive_cache,
            location,
            window,
        )
    }

    /// Tier-aware contact tracing — the paper's SARS query — merged
    /// across live state and the archive, so an operator can trace
    /// across the retention boundary exactly as if history were
    /// unbounded.
    ///
    /// ```
    /// use ltam_core::model::{Authorization, EntryLimit};
    /// use ltam_core::retention::RetentionPolicy;
    /// use ltam_core::subject::SubjectId;
    /// use ltam_engine::batch::{Event, PolicyCore};
    /// use ltam_graph::examples::ntu_campus;
    /// use ltam_store::{DurableEngine, ScratchDir, StoreConfig};
    /// use ltam_time::{Interval, Time};
    ///
    /// let ntu = ntu_campus();
    /// let cais = ntu.cais;
    /// let mut core = PolicyCore::new(ntu.model);
    /// let (alice, bob) = (SubjectId(0), SubjectId(1));
    /// for s in [alice, bob] {
    ///     core.add_authorization(
    ///         Authorization::new(Interval::ALL, Interval::ALL, s, cais, EntryLimit::Unbounded)
    ///             .unwrap(),
    ///     );
    /// }
    /// let dir = ScratchDir::new("doc-tiered-contacts");
    /// let config = StoreConfig {
    ///     retention: Some(RetentionPolicy::keep_last(100)),
    ///     fsync: false,
    ///     ..StoreConfig::default()
    /// };
    /// let (mut engine, _alerts) = DurableEngine::create(dir.path(), core, 2, config).unwrap();
    /// // Alice and Bob overlap in CAIS during [12, 20]...
    /// engine.ingest(&[
    ///     Event::Request { time: Time(10), subject: alice, location: cais },
    ///     Event::Enter { time: Time(10), subject: alice, location: cais },
    ///     Event::Request { time: Time(12), subject: bob, location: cais },
    ///     Event::Enter { time: Time(12), subject: bob, location: cais },
    ///     Event::Exit { time: Time(20), subject: alice, location: cais },
    ///     Event::Exit { time: Time(25), subject: bob, location: cais },
    /// ]).unwrap();
    /// // ...then time passes and retention spills those stays to the archive.
    /// engine.run_retention(Time(500)).unwrap();
    /// assert_eq!(engine.retention_watermark(), Time(400));
    /// assert_eq!(engine.engine().read_shard(0, |s| s.movements().len())
    ///     + engine.engine().read_shard(1, |s| s.movements().len()), 0);
    /// // The contact-tracing join still sees the archived co-location.
    /// let contacts = engine.contacts(alice, Interval::lit(0, 500)).unwrap();
    /// assert_eq!(contacts.len(), 1);
    /// assert_eq!(contacts[0].other, bob);
    /// assert_eq!(contacts[0].overlap, Interval::lit(12, 20));
    /// ```
    pub fn contacts(
        &self,
        subject: SubjectId,
        window: Interval,
    ) -> Result<Vec<Contact>, HistoryError> {
        tiered_contacts(
            &self.engine,
            &self.archive,
            &self.archive_cache,
            subject,
            window,
        )
    }

    /// Tier-aware violation report over `window` (multiset semantics:
    /// archived violations first, then live in shard order).
    pub fn violations_in(&self, window: Interval) -> Result<Vec<Violation>, HistoryError> {
        tiered_violations_in(&self.engine, &self.archive, &self.archive_cache, window)
    }
}

impl Drop for DurableEngine {
    fn drop(&mut self) {
        // A background snapshot writer must not outlive the store (its
        // scratch directory may be about to vanish). Dropping mid-write
        // is crash-equivalent anyway: the WAL still covers everything
        // the unfinished snapshot would have.
        let _ = self.snapshot_finish();
    }
}

// --- the shared, tier-aware read path ---------------------------------------
//
// Free functions over the shared pieces (`ShardedEngine`, the archive
// store, the lazy archive cache) so [`DurableEngine`] and [`ReadView`]
// answer queries through literally the same code.

/// Chain-scan the archive and return the per-segment lazy view for
/// a query reaching down to `requested`, refusing if the chain does
/// not reach the querying class's live watermark — the gap would
/// mean discarded-and-unarchived history. Only segments the query
/// can touch have their payloads read (see [`LazyArchive`]); the
/// coverage check itself is a directory listing.
fn archive_view<'a>(
    archive: &ArchiveStore,
    cache: &'a mut LazyArchive,
    requested: Time,
    live_from: Time,
) -> Result<&'a ArchiveData, HistoryError> {
    let covered = cache.coverage_end(archive)?;
    if covered < live_from.get() {
        return Err(HistoryError::Unarchived {
            requested,
            archived_to: covered,
            live_from,
        });
    }
    Ok(cache.view_for(archive, requested, live_from)?)
}

fn tiered_whereabouts(
    engine: &ShardedEngine,
    archive: &ArchiveStore,
    cache: &parking_lot::Mutex<LazyArchive>,
    subject: SubjectId,
    t: Time,
) -> Result<Option<LocationId>, HistoryError> {
    let live_from = engine.retention_watermark();
    let live = history::merged_whereabouts(engine, None, subject, t);
    if live.is_some() || t >= live_from {
        return Ok(live);
    }
    let mut cache = cache.lock();
    let archive = archive_view(archive, &mut cache, t, live_from)?;
    Ok(history::merged_whereabouts(
        engine,
        Some(archive),
        subject,
        t,
    ))
}

fn tiered_present_during(
    engine: &ShardedEngine,
    archive: &ArchiveStore,
    cache: &parking_lot::Mutex<LazyArchive>,
    location: LocationId,
    window: Interval,
) -> Result<Vec<(SubjectId, Interval)>, HistoryError> {
    let live_from = engine.retention_watermark();
    if window.start() >= live_from {
        return Ok(history::merged_present_during(
            engine, None, location, window,
        ));
    }
    let mut cache = cache.lock();
    let archive = archive_view(archive, &mut cache, window.start(), live_from)?;
    Ok(history::merged_present_during(
        engine,
        Some(archive),
        location,
        window,
    ))
}

fn tiered_contacts(
    engine: &ShardedEngine,
    archive: &ArchiveStore,
    cache: &parking_lot::Mutex<LazyArchive>,
    subject: SubjectId,
    window: Interval,
) -> Result<Vec<Contact>, HistoryError> {
    let live_from = engine.retention_watermark();
    if window.start() >= live_from {
        return Ok(history::merged_contacts(engine, None, subject, window));
    }
    let mut cache = cache.lock();
    let archive = archive_view(archive, &mut cache, window.start(), live_from)?;
    Ok(history::merged_contacts(
        engine,
        Some(archive),
        subject,
        window,
    ))
}

fn tiered_violations_in(
    engine: &ShardedEngine,
    archive: &ArchiveStore,
    cache: &parking_lot::Mutex<LazyArchive>,
    window: Interval,
) -> Result<Vec<Violation>, HistoryError> {
    let live_from = engine.watermarks().violations;
    if window.start() >= live_from {
        return Ok(history::merged_violations(engine, None, window));
    }
    let mut cache = cache.lock();
    let archive = archive_view(archive, &mut cache, window.start(), live_from)?;
    Ok(history::merged_violations(engine, Some(archive), window))
}

/// A cloneable, read-only view over a [`DurableEngine`] — the serving
/// tier's read path. Queries answer **concurrently** with the writer:
/// the sharded engine synchronizes reads per shard, the lazy archive
/// cache has its own lock, and the store counters are atomic cells the
/// writer publishes after every mutation. Holding a view never blocks
/// ingest, and a view outliving the writer simply keeps answering from
/// the final state.
#[derive(Debug, Clone)]
pub struct ReadView {
    engine: Arc<ShardedEngine>,
    archive: Arc<ArchiveStore>,
    archive_cache: Arc<parking_lot::Mutex<LazyArchive>>,
    cells: Arc<StatusCells>,
    dir: PathBuf,
}

impl ReadView {
    /// A read-only handle over the wrapped engine (status, shard reads,
    /// violation queries).
    pub fn engine(&self) -> EngineReadView {
        EngineReadView::new(Arc::clone(&self.engine))
    }

    /// The store directory this view reads from — the root the
    /// replication inventory ([`crate::replica`]) lists shippable files
    /// under.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Events durably applied so far (the WAL sequence), as of the
    /// writer's most recent commit.
    pub fn applied(&self) -> u64 {
        self.cells.applied.load(Ordering::Acquire)
    }

    /// WAL sequence the most recent snapshot covers.
    pub fn last_snapshot_seq(&self) -> u64 {
        self.cells.snapshot_seq.load(Ordering::Acquire)
    }

    /// The current policy epoch.
    pub fn policy_epoch(&self) -> u64 {
        self.cells.policy_epoch.load(Ordering::Acquire)
    }

    /// The current enforcement epoch (the replication barrier; see
    /// [`DurableEngine::enforcement_epoch`]).
    pub fn enforcement_epoch(&self) -> u64 {
        self.cells.enforcement_epoch.load(Ordering::Acquire)
    }

    /// The monitoring clock (highest trusted event time) — the time the
    /// serving tier evaluates token validity at.
    pub fn clock(&self) -> Time {
        Time(self.cells.clock.load(Ordering::Acquire))
    }

    /// `fsync` calls the WAL has issued — the group-commit
    /// effectiveness counter (`events_ingested / wal_fsyncs` ≈ events
    /// per fsync).
    pub fn wal_fsyncs(&self) -> u64 {
        self.cells.wal_fsyncs.load(Ordering::Acquire)
    }

    /// The movement-history retention watermark.
    pub fn retention_watermark(&self) -> Time {
        self.engine.retention_watermark()
    }

    /// Archive segments whose payloads are currently cached.
    pub fn archive_segments_loaded(&self) -> usize {
        self.archive_cache.lock().segments_loaded()
    }

    /// Archive chain coverage end (exclusive).
    pub fn archive_covered_to(&self) -> io::Result<u64> {
        self.archive_cache.lock().coverage_end(&self.archive)
    }

    /// Tier-aware historical whereabouts (see
    /// [`DurableEngine::whereabouts`]).
    pub fn whereabouts(
        &self,
        subject: SubjectId,
        t: Time,
    ) -> Result<Option<LocationId>, HistoryError> {
        let _span = ltam_obs::timed!(
            "store_view_query_seconds",
            "ReadView historical query latency, by kind",
            "kind" => "whereabouts"
        );
        tiered_whereabouts(&self.engine, &self.archive, &self.archive_cache, subject, t)
    }

    /// Tier-aware presence query (see
    /// [`DurableEngine::present_during`]).
    pub fn present_during(
        &self,
        location: LocationId,
        window: Interval,
    ) -> Result<Vec<(SubjectId, Interval)>, HistoryError> {
        let _span = ltam_obs::timed!(
            "store_view_query_seconds",
            "ReadView historical query latency, by kind",
            "kind" => "present_during"
        );
        tiered_present_during(
            &self.engine,
            &self.archive,
            &self.archive_cache,
            location,
            window,
        )
    }

    /// Tier-aware contact tracing (see [`DurableEngine::contacts`]).
    pub fn contacts(
        &self,
        subject: SubjectId,
        window: Interval,
    ) -> Result<Vec<Contact>, HistoryError> {
        let _span = ltam_obs::timed!(
            "store_view_query_seconds",
            "ReadView historical query latency, by kind",
            "kind" => "contacts"
        );
        tiered_contacts(
            &self.engine,
            &self.archive,
            &self.archive_cache,
            subject,
            window,
        )
    }

    /// Tier-aware violation report (see
    /// [`DurableEngine::violations_in`]).
    pub fn violations_in(&self, window: Interval) -> Result<Vec<Violation>, HistoryError> {
        let _span = ltam_obs::timed!(
            "store_view_query_seconds",
            "ReadView historical query latency, by kind",
            "kind" => "violations_in"
        );
        tiered_violations_in(&self.engine, &self.archive, &self.archive_cache, window)
    }
}

/// What one [`DurableEngine::run_retention`] pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetentionOutcome {
    /// The movement-history watermark after the pass.
    pub watermark: Time,
    /// Records dropped from live state (all classes).
    pub pruned: usize,
    /// Records written to the archive by this pass (0 when the range
    /// was already covered by a crash-era segment).
    pub archived: usize,
    /// Archive coverage end after the pass.
    pub archive_to: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::ScratchDir;
    use ltam_core::model::{Authorization, EntryLimit};
    use ltam_core::subject::SubjectId;
    use ltam_graph::examples::ntu_campus;
    use ltam_graph::LocationId;
    use ltam_time::{Interval, Time};

    fn campus_core() -> (PolicyCore, SubjectId, LocationId) {
        let ntu = ntu_campus();
        let cais = ntu.cais;
        let mut core = PolicyCore::new(ntu.model);
        let alice = SubjectId(0);
        core.add_authorization(
            Authorization::new(
                Interval::lit(5, 40),
                Interval::lit(20, 100),
                alice,
                cais,
                EntryLimit::Finite(1),
            )
            .unwrap(),
        );
        (core, alice, cais)
    }

    fn test_config() -> StoreConfig {
        StoreConfig {
            segment_bytes: 4096,
            snapshot_every: 0,
            fsync: false,
            retention: None,
        }
    }

    #[test]
    fn create_ingest_reopen_preserves_state() {
        let dir = ScratchDir::new("durable-basic");
        let (core, alice, cais) = campus_core();
        {
            let (mut durable, _alerts) =
                DurableEngine::create(dir.path(), core, 2, test_config()).unwrap();
            let out = durable
                .ingest(&[
                    Event::Request {
                        time: Time(10),
                        subject: alice,
                        location: cais,
                    },
                    Event::Enter {
                        time: Time(11),
                        subject: alice,
                        location: cais,
                    },
                ])
                .unwrap();
            assert_eq!(out.granted, 1);
            assert_eq!(durable.applied(), 2);
        } // crash: no snapshot since creation, state lives in the WAL tail
        let (durable, _alerts, report) = DurableEngine::open(dir.path(), test_config()).unwrap();
        assert_eq!(report.snapshot_seq, 0);
        assert_eq!(report.replayed, 2);
        assert_eq!(durable.applied(), 2);
        assert_eq!(durable.engine().total_entries(), 1);
        // The recovered stay is live: an early exit still violates.
        let v = durable.engine().observe_exit(Time(15), alice, cais);
        assert!(v.is_some(), "recovered active stay enforces exit windows");
    }

    #[test]
    fn snapshot_compacts_the_wal_and_recovery_skips_replay() {
        let dir = ScratchDir::new("durable-compact");
        let (core, alice, cais) = campus_core();
        {
            let (mut durable, _alerts) =
                DurableEngine::create(dir.path(), core, 2, test_config()).unwrap();
            for i in 0..200u64 {
                durable
                    .ingest(&[Event::Request {
                        time: Time(200 + i),
                        subject: alice,
                        location: cais,
                    }])
                    .unwrap();
            }
            let covered = durable.snapshot().unwrap();
            assert_eq!(covered, 200);
            // Compaction trails the *oldest retained* snapshot: after a
            // second snapshot the creation-time one (seq 0) is pruned and
            // the [0, 200) segments become droppable.
            for i in 0..100u64 {
                durable
                    .ingest(&[Event::Request {
                        time: Time(400 + i),
                        subject: alice,
                        location: cais,
                    }])
                    .unwrap();
            }
            durable.snapshot().unwrap();
        }
        let first_live_seq = std::fs::read_dir(dir.path())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter_map(|e| {
                let name = e.file_name().to_string_lossy().into_owned();
                name.strip_prefix("wal-")
                    .and_then(|r| r.strip_suffix(".log"))
                    .and_then(|d| d.parse::<u64>().ok())
            })
            .min()
            .expect("a WAL segment survives");
        assert_eq!(
            first_live_seq, 200,
            "segments before the oldest retained snapshot (seq 200) are compacted"
        );
        let (durable, _alerts, report) = DurableEngine::open(dir.path(), test_config()).unwrap();
        assert_eq!(report.snapshot_seq, 300);
        assert_eq!(report.replayed, 0, "snapshot covers the whole log");
        assert_eq!(durable.applied(), 300);
        // All 300 denied requests survived in the audit trail.
        let audits: usize = (0..durable.engine().shard_count())
            .map(|s| durable.engine().read_shard(s, |st| st.audit().len()))
            .sum();
        assert_eq!(audits, 300);
    }

    /// Flip a byte in each snapshot file matching `pick` (by seq).
    /// Snapshot names are `snap-<seq>-<epoch>.snap`.
    fn corrupt_snapshots(dir: &std::path::Path, pick: impl Fn(u64) -> bool) {
        for entry in std::fs::read_dir(dir).unwrap().filter_map(|e| e.ok()) {
            let name = entry.file_name().to_string_lossy().into_owned();
            let Some(seq) = name
                .strip_prefix("snap-")
                .and_then(|r| r.strip_suffix(".snap"))
                .and_then(|body| body.split_once('-'))
                .and_then(|(seq, _)| seq.parse::<u64>().ok())
            else {
                continue;
            };
            if pick(seq) {
                let mut bytes = std::fs::read(entry.path()).unwrap();
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0x01;
                std::fs::write(entry.path(), &bytes).unwrap();
            }
        }
    }

    /// Ingest `n` granted-entry cycles so recovered state is checkable by
    /// audit count.
    fn build_two_snapshot_store(dir: &std::path::Path) -> (u64, u64) {
        let (core, alice, cais) = campus_core();
        let (mut durable, _alerts) = DurableEngine::create(dir, core, 2, test_config()).unwrap();
        let request = |t: u64| Event::Request {
            time: Time(t),
            subject: alice,
            location: cais,
        };
        for i in 0..100u64 {
            durable.ingest(&[request(200 + i)]).unwrap();
        }
        let s1 = durable.snapshot().unwrap();
        for i in 0..100u64 {
            durable.ingest(&[request(400 + i)]).unwrap();
        }
        let s2 = durable.snapshot().unwrap();
        for i in 0..10u64 {
            durable.ingest(&[request(600 + i)]).unwrap();
        }
        (s1, s2)
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_without_losing_events() {
        let dir = ScratchDir::new("durable-fallback");
        let (s1, s2) = build_two_snapshot_store(dir.path());
        assert_eq!((s1, s2), (100, 200));
        // The newest snapshot rots; recovery must fall back to seq 100
        // AND still replay every event from 100 onward — which is why
        // compaction may not pass the oldest retained snapshot.
        corrupt_snapshots(dir.path(), |seq| seq == 200);
        let (durable, _alerts, report) = DurableEngine::open(dir.path(), test_config()).unwrap();
        assert_eq!(report.snapshot_seq, 100);
        assert_eq!(report.replayed, 110);
        assert_eq!(durable.applied(), 210);
        let audits: usize = (0..durable.engine().shard_count())
            .map(|s| durable.engine().read_shard(s, |st| st.audit().len()))
            .sum();
        assert_eq!(audits, 210, "no event between the snapshots was lost");
    }

    #[test]
    fn a_snapshot_with_a_non_chronological_timeline_is_refused() {
        use ltam_engine::movement::{MovementsDb, TimelineError};
        let dir = ScratchDir::new("durable-bad-timeline");
        let (core, alice, cais) = campus_core();
        {
            let (mut durable, _alerts) =
                DurableEngine::create(dir.path(), core, 2, test_config()).unwrap();
            for (t, enter) in [(10, true), (20, false), (30, true), (40, false)] {
                let event = if enter {
                    Event::Enter {
                        time: Time(t),
                        subject: alice,
                        location: cais,
                    }
                } else {
                    Event::Exit {
                        time: Time(t),
                        subject: alice,
                        location: cais,
                    }
                };
                durable.ingest(&[event]).unwrap();
            }
            durable.snapshot().unwrap();
        }
        // Hand-edit the image: Alice's second stay now enters at 5,
        // before her first one exits.
        let snapshots = SnapshotStore::with_fsync(dir.path(), false);
        let mut snap = snapshots.load_latest().unwrap().unwrap();
        let shard = snap
            .states
            .iter()
            .position(|i| !i.movements.timeline(alice).is_empty())
            .unwrap();
        let json = serde_json::to_string(&snap.states[shard].movements).unwrap();
        let stay = |enter: u64, exit: u64| {
            serde_json::to_string(&ltam_engine::movement::Stay {
                location: cais,
                enter: Time(enter),
                exit: Some(Time(exit)),
            })
            .unwrap()
        };
        assert!(json.contains(&stay(30, 40)), "{json}");
        let bad: MovementsDb =
            serde_json::from_str(&json.replace(&stay(30, 40), &stay(5, 40))).unwrap();
        snap.states[shard].movements = bad;
        snapshots.write(&snap).unwrap();

        for shards in [None, Some(3)] {
            let err = match shards {
                None => DurableEngine::open(dir.path(), test_config()),
                Some(n) => DurableEngine::open_with_shards(dir.path(), test_config(), n),
            }
            .unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            let cause = err
                .get_ref()
                .and_then(|e| e.downcast_ref::<TimelineError>())
                .expect("a typed timeline error");
            assert_eq!((cause.subject, cause.index), (alice, 1));
            assert_eq!(cause.stay.enter, Time(5));
        }
    }

    #[test]
    fn missing_middle_segment_refuses_instead_of_silently_resuming() {
        let dir = ScratchDir::new("durable-midgap");
        let config = StoreConfig {
            segment_bytes: 256, // several segments between snapshots
            snapshot_every: 0,
            fsync: false,
            retention: None,
        };
        let (core, alice, cais) = campus_core();
        {
            let (mut durable, _alerts) =
                DurableEngine::create(dir.path(), core, 2, config).unwrap();
            let request = |t: u64| Event::Request {
                time: Time(t),
                subject: alice,
                location: cais,
            };
            for i in 0..100u64 {
                durable.ingest(&[request(200 + i)]).unwrap();
            }
            durable.snapshot().unwrap(); // @100
            for i in 0..100u64 {
                durable.ingest(&[request(400 + i)]).unwrap();
            }
            durable.snapshot().unwrap(); // @200 (compacts WAL below 100)
            for i in 0..10u64 {
                durable.ingest(&[request(600 + i)]).unwrap();
            }
        }
        // Several segments span [100, 210). Remove a *middle* one: WAL
        // repair stops at the gap and quarantines every later segment —
        // including the intact acked tail past the snapshot @200 — which
        // leaves the log short of the snapshot. Silently resuming at @200
        // would drop those acked events; open must refuse, and the tail's
        // bytes must survive as quarantine files.
        let segments = Wal::segment_files(dir.path()).unwrap();
        assert!(segments.len() >= 3, "need a middle segment: {segments:?}");
        std::fs::remove_file(&segments[1]).unwrap();
        let err = DurableEngine::open(dir.path(), config).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(
            err.to_string().contains("WAL loss behind the snapshot"),
            "{err}"
        );
        let quarantined = std::fs::read_dir(dir.path())
            .unwrap()
            .filter_map(|e| e.ok())
            .any(|e| e.file_name().to_string_lossy().ends_with(".quarantine"));
        assert!(quarantined, "later segments are preserved, not deleted");
    }

    #[test]
    fn reissued_auth_ids_cannot_alias_recovered_stays() {
        let dir = ScratchDir::new("durable-id-reuse");
        let ntu = ntu_campus();
        let cais = ntu.cais;
        let mut core = PolicyCore::new(ntu.model);
        let alice = SubjectId(0);
        let wide = |s| {
            Authorization::new(
                Interval::lit(0, 1_000),
                Interval::lit(500, 2_000),
                s,
                cais,
                EntryLimit::Unbounded,
            )
            .unwrap()
        };
        core.add_authorization(wide(alice));
        let id1 = {
            let (mut durable, _alerts) =
                DurableEngine::create(dir.path(), core, 2, test_config()).unwrap();
            // Alice is inside under a second authorization, which then
            // gets revoked (her stay keeps referencing its id).
            let id1 = durable
                .update_policy(|p| p.add_authorization(wide(SubjectId(0))))
                .unwrap();
            durable
                .ingest(&[
                    Event::Request {
                        time: Time(10),
                        subject: alice,
                        location: cais,
                    },
                    Event::Enter {
                        time: Time(11),
                        subject: alice,
                        location: cais,
                    },
                ])
                .unwrap();
            durable.revoke_authorization(id1).unwrap();
            id1
        };
        let (mut durable, _alerts, _) = DurableEngine::open(dir.path(), test_config()).unwrap();
        // The id watermark survived recovery: a new authorization never
        // reuses the revoked id, so nothing stale can alias it.
        let id2 = durable
            .update_policy(|p| p.add_authorization(wide(SubjectId(9))))
            .unwrap();
        assert!(
            id2 > id1,
            "revoked id {id1} must never be reissued (got {id2})"
        );
    }

    #[test]
    fn wal_gap_behind_the_usable_snapshot_is_refused() {
        let dir = ScratchDir::new("durable-gap");
        build_two_snapshot_store(dir.path());
        // Manufacture the unrecoverable case: the segment holding
        // [100, 200) vanishes *and* the newest snapshot rots. Falling
        // back to seq 100 would silently lose those 100 events — open
        // must refuse instead.
        corrupt_snapshots(dir.path(), |seq| seq == 200);
        for entry in std::fs::read_dir(dir.path())
            .unwrap()
            .filter_map(|e| e.ok())
        {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name == format!("wal-{:020}.log", 100) {
                std::fs::remove_file(entry.path()).unwrap();
            }
        }
        let err = DurableEngine::open(dir.path(), test_config()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("WAL gap"), "{err}");
    }

    #[test]
    fn concurrent_open_is_refused_while_the_lock_is_live() {
        let dir = ScratchDir::new("durable-lock");
        let (core, _, _) = campus_core();
        let (durable, _alerts) = DurableEngine::create(dir.path(), core, 1, test_config()).unwrap();
        // A second engine on the same store would interleave WAL appends.
        let err = DurableEngine::open(dir.path(), test_config()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock, "{err}");
        drop(durable); // releases the lock
        assert!(DurableEngine::open(dir.path(), test_config()).is_ok());
        // A stale lock (dead pid) is taken over, not honored.
        std::fs::write(dir.path().join("store.lock"), "4294967294\n").unwrap();
        assert!(DurableEngine::open(dir.path(), test_config()).is_ok());
    }

    #[test]
    fn create_refuses_an_existing_store() {
        let dir = ScratchDir::new("durable-exists");
        let (core, _, _) = campus_core();
        let _ = DurableEngine::create(dir.path(), core.clone(), 1, test_config()).unwrap();
        let err = DurableEngine::create(dir.path(), core, 1, test_config()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
    }

    #[test]
    fn open_on_an_empty_dir_is_not_found() {
        let dir = ScratchDir::new("durable-empty");
        let err = DurableEngine::open(dir.path(), test_config()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn policy_updates_survive_restart_via_snapshot() {
        let dir = ScratchDir::new("durable-policy");
        let (core, alice, cais) = campus_core();
        {
            let (mut durable, _alerts) =
                DurableEngine::create(dir.path(), core, 2, test_config()).unwrap();
            durable
                .update_policy(|p| {
                    p.add_prohibition(ltam_core::prohibition::Prohibition {
                        subject: alice,
                        location: cais,
                        window: Interval::lit(8, 15),
                    })
                })
                .unwrap();
        }
        let (mut durable, _alerts, _) = DurableEngine::open(dir.path(), test_config()).unwrap();
        let out = durable
            .ingest(&[Event::Request {
                time: Time(10),
                subject: alice,
                location: cais,
            }])
            .unwrap();
        assert_eq!(out.denied, 1, "restored prohibition takes precedence");
    }

    #[test]
    fn snapshot_fallback_never_reverts_an_acked_policy_edit() {
        let dir = ScratchDir::new("durable-policy-revert");
        let (core, alice, cais) = campus_core();
        {
            let (mut durable, _alerts) =
                DurableEngine::create(dir.path(), core, 2, test_config()).unwrap();
            durable.snapshot().unwrap(); // S @ epoch 0
            durable
                .update_policy(|p| {
                    p.add_prohibition(ltam_core::prohibition::Prohibition {
                        subject: alice,
                        location: cais,
                        window: Interval::lit(0, 1_000),
                    })
                })
                .unwrap(); // acked: snapshot @ epoch 1 + marker
        }
        // The epoch-1 snapshot rots; falling back to an epoch-0 snapshot
        // would silently drop the prohibition — open must refuse.
        corrupt_snapshots(dir.path(), |_| true);
        // (All snapshots corrupt -> NotFound; corrupt only the newest to
        // hit the revert check specifically.)
        let err = DurableEngine::open(dir.path(), test_config()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);

        let dir2 = ScratchDir::new("durable-policy-revert2");
        let (core, alice, cais) = campus_core();
        {
            let (mut durable, _alerts) =
                DurableEngine::create(dir2.path(), core, 2, test_config()).unwrap();
            // Events between the snapshots give them distinct sequence
            // numbers, so the epoch-0 snapshot file survives the edit's
            // epoch-1 snapshot (snapshots are keyed by seq on disk).
            for i in 0..10u64 {
                durable
                    .ingest(&[Event::Request {
                        time: Time(200 + i),
                        subject: alice,
                        location: cais,
                    }])
                    .unwrap();
            }
            durable
                .update_policy(|p| {
                    p.add_prohibition(ltam_core::prohibition::Prohibition {
                        subject: alice,
                        location: cais,
                        window: Interval::lit(0, 1_000),
                    })
                })
                .unwrap();
        }
        // Retained snapshots are the epoch-1 one (newest) and the epoch-0
        // one; corrupt only the newest.
        let newest = std::fs::read_dir(dir2.path())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".snap"))
            .map(|e| e.path())
            .max()
            .unwrap();
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&newest, &bytes).unwrap();
        let err = DurableEngine::open(dir2.path(), test_config()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("policy revert"), "{err}");
    }

    #[test]
    fn durable_revocation_survives_restart_and_lapses_grants() {
        let dir = ScratchDir::new("durable-revoke");
        let (core, alice, cais) = campus_core();
        {
            let (mut durable, _alerts) =
                DurableEngine::create(dir.path(), core, 2, test_config()).unwrap();
            let out = durable
                .ingest(&[Event::Request {
                    time: Time(10),
                    subject: alice,
                    location: cais,
                }])
                .unwrap();
            assert_eq!(out.granted, 1);
            let id = durable
                .engine()
                .policy()
                .db()
                .iter()
                .next()
                .map(|(id, _, _)| id)
                .unwrap();
            assert!(durable.revoke_authorization(id).unwrap().is_some());
        }
        let (mut durable, _alerts, _) = DurableEngine::open(dir.path(), test_config()).unwrap();
        // The pending grant lapsed with the revocation and the revocation
        // itself survived the restart: walking in is unauthorized.
        let out = durable
            .ingest(&[Event::Enter {
                time: Time(11),
                subject: alice,
                location: cais,
            }])
            .unwrap();
        assert_eq!(out.violations.len(), 1);
        assert!(matches!(
            out.violations[0],
            ltam_engine::violation::Violation::UnauthorizedEntry { .. }
        ));
    }

    /// A two-subject store: Alice and Bob overlap in CAIS during
    /// [12, 20], Bob tailgates nobody; a later clean cycle for Alice at
    /// [200, 210] keeps recent history live.
    fn two_subject_events(cais: LocationId) -> Vec<Event> {
        let (alice, bob) = (SubjectId(0), SubjectId(1));
        vec![
            Event::Request {
                time: Time(10),
                subject: alice,
                location: cais,
            },
            Event::Enter {
                time: Time(10),
                subject: alice,
                location: cais,
            },
            Event::Request {
                time: Time(12),
                subject: bob,
                location: cais,
            },
            Event::Enter {
                time: Time(12),
                subject: bob,
                location: cais,
            },
            Event::Exit {
                time: Time(20),
                subject: alice,
                location: cais,
            },
            Event::Exit {
                time: Time(25),
                subject: bob,
                location: cais,
            },
            Event::Request {
                time: Time(200),
                subject: alice,
                location: cais,
            },
            Event::Enter {
                time: Time(200),
                subject: alice,
                location: cais,
            },
            Event::Exit {
                time: Time(210),
                subject: alice,
                location: cais,
            },
        ]
    }

    fn wide_open_core(cais: LocationId, model: ltam_graph::LocationModel) -> PolicyCore {
        let mut core = PolicyCore::new(model);
        for s in [SubjectId(0), SubjectId(1)] {
            core.add_authorization(
                Authorization::new(Interval::ALL, Interval::ALL, s, cais, EntryLimit::Unbounded)
                    .unwrap(),
            );
        }
        core
    }

    #[test]
    fn retention_archives_then_prunes_and_queries_merge_tiers() {
        let dir = ScratchDir::new("durable-retention");
        let ntu = ntu_campus();
        let cais = ntu.cais;
        let core = wide_open_core(cais, ntu.model);
        let (mut durable, _alerts) =
            DurableEngine::create(dir.path(), core, 2, test_config()).unwrap();
        let (alice, bob) = (SubjectId(0), SubjectId(1));
        durable.ingest(&two_subject_events(cais)).unwrap();

        let outcome = durable
            .run_retention_with(&RetentionPolicy::keep_last(100), Time(250))
            .unwrap();
        assert_eq!(outcome.watermark, Time(150));
        assert!(outcome.pruned > 0);
        assert_eq!(outcome.archived, outcome.pruned);
        assert_eq!(outcome.archive_to, 150);
        assert_eq!(durable.retention_watermark(), Time(150));

        // Live state holds only the recent cycle (its enter + exit).
        let live_events: usize = (0..2)
            .map(|s| durable.engine().read_shard(s, |st| st.movements().len()))
            .sum();
        assert_eq!(live_events, 2);

        // Tier-aware queries answer across the boundary exactly as an
        // unpruned engine would.
        assert_eq!(durable.whereabouts(alice, Time(15)).unwrap(), Some(cais)); // archive
        assert_eq!(durable.whereabouts(alice, Time(205)).unwrap(), Some(cais)); // live
        assert_eq!(durable.whereabouts(bob, Time(50)).unwrap(), None);
        let contacts = durable.contacts(alice, Interval::lit(0, 300)).unwrap();
        assert_eq!(contacts.len(), 1);
        assert_eq!(contacts[0].other, bob);
        assert_eq!(contacts[0].overlap, Interval::lit(12, 20));
        let present = durable.present_during(cais, Interval::lit(0, 300)).unwrap();
        assert_eq!(present.len(), 3, "{present:?}"); // Alice×2 + Bob×1
        assert!(durable
            .violations_in(Interval::lit(0, 300))
            .unwrap()
            .is_empty());

        // Re-running at the same horizon is a no-op (idempotent).
        let again = durable
            .run_retention_with(&RetentionPolicy::keep_last(100), Time(250))
            .unwrap();
        assert_eq!(again.pruned, 0);
        assert_eq!(again.archived, 0);
    }

    #[test]
    fn retention_watermark_survives_crash_and_recovery() {
        let dir = ScratchDir::new("durable-retention-crash");
        let ntu = ntu_campus();
        let cais = ntu.cais;
        let (alice, bob) = (SubjectId(0), SubjectId(1));
        {
            let core = wide_open_core(cais, ntu.model);
            let (mut durable, _alerts) =
                DurableEngine::create(dir.path(), core, 2, test_config()).unwrap();
            durable.ingest(&two_subject_events(cais)).unwrap();
            durable
                .run_retention_with(&RetentionPolicy::keep_last(100), Time(250))
                .unwrap();
            durable.snapshot().unwrap();
        } // crash after the snapshot carrying the watermark
        let (mut durable, _alerts, report) =
            DurableEngine::open(dir.path(), test_config()).unwrap();
        assert_eq!(report.retention_watermark, 150);
        assert_eq!(report.archive_covered_to, 150);
        assert_eq!(durable.retention_watermark(), Time(150));
        // Archived history is still reachable through the merge...
        assert_eq!(durable.whereabouts(alice, Time(15)).unwrap(), Some(cais));
        let contacts = durable.contacts(alice, Interval::lit(0, 300)).unwrap();
        assert_eq!(contacts.len(), 1);
        assert_eq!(contacts[0].other, bob);
        // ...and pruned history stays pruned: the time-regression guard
        // survived, so stale sensor events are still rejected.
        let out = durable
            .ingest(&[Event::Enter {
                time: Time(5),
                subject: alice,
                location: cais,
            }])
            .unwrap();
        assert_eq!(out.violations.len(), 1, "regressed event still flagged");
    }

    #[test]
    fn crash_before_the_prune_applies_never_duplicates_archive_records() {
        let dir = ScratchDir::new("durable-retention-idem");
        let ntu = ntu_campus();
        let cais = ntu.cais;
        let core = wide_open_core(cais, ntu.model);
        let (mut durable, _alerts) =
            DurableEngine::create(dir.path(), core, 2, test_config()).unwrap();
        durable.ingest(&two_subject_events(cais)).unwrap();
        let policy = RetentionPolicy::keep_last(100);
        // Simulate the crash window: the archive segment lands but the
        // in-memory prune (and any later snapshot) never happens.
        let prunable = durable.engine().collect_prunable(&policy, Time(150));
        durable.archive.append_run(0, 150, &prunable).unwrap();
        assert_eq!(durable.retention_watermark(), Time::ZERO);
        // Queries stay correct: the archive is only consulted below the
        // watermark, which never advanced.
        assert_eq!(
            durable.whereabouts(SubjectId(0), Time(15)).unwrap(),
            Some(cais)
        );
        // The re-run after "recovery" replaces the stranded segment
        // with an identical superset: no record is ever in the archive
        // twice (live state may have gained records since the stranded
        // write, so the rewrite is never skipped).
        let outcome = durable.run_retention_with(&policy, Time(250)).unwrap();
        assert!(outcome.pruned > 0);
        assert_eq!(
            outcome.archived, outcome.pruned,
            "stranded segment replaced"
        );
        let data = durable.archive.load().unwrap();
        assert_eq!(data.stays_of(SubjectId(0)).len(), 1);
        assert_eq!(data.stays_of(SubjectId(1)).len(), 1);
        let contacts = durable
            .contacts(SubjectId(0), Interval::lit(0, 300))
            .unwrap();
        assert_eq!(contacts.len(), 1, "no duplicate contact rows");
    }

    #[test]
    fn late_records_below_a_stranded_chain_are_archived_not_lost() {
        let dir = ScratchDir::new("durable-retention-late");
        let ntu = ntu_campus();
        let cais = ntu.cais;
        let core = wide_open_core(cais, ntu.model);
        let (mut durable, _alerts) =
            DurableEngine::create(dir.path(), core, 2, test_config()).unwrap();
        let bob = SubjectId(1);
        durable.ingest(&two_subject_events(cais)).unwrap();
        let policy = RetentionPolicy::keep_last(100);
        // Strand a segment: archive written, prune never applied (the
        // crash window).
        let prunable = durable.engine().collect_prunable(&policy, Time(150));
        durable.archive.append_run(0, 150, &prunable).unwrap();
        // A record arrives *below* the stranded chain end — legal,
        // sensor clocks are only per-subject monotone (Bob's clock is
        // at 25).
        durable
            .ingest(&[
                Event::Request {
                    time: Time(60),
                    subject: bob,
                    location: cais,
                },
                Event::Enter {
                    time: Time(60),
                    subject: bob,
                    location: cais,
                },
                Event::Exit {
                    time: Time(70),
                    subject: bob,
                    location: cais,
                },
            ])
            .unwrap();
        // The next run's horizon clamps to the chain end (150); the
        // late stay must travel in the replacement segment, not be
        // silently dropped with nothing archived.
        let outcome = durable.run_retention_with(&policy, Time(250)).unwrap();
        assert_eq!(outcome.watermark, Time(150));
        assert_eq!(outcome.archived, outcome.pruned);
        assert_eq!(durable.whereabouts(bob, Time(65)).unwrap(), Some(cais));
        let data = durable.archive.load().unwrap();
        assert_eq!(data.stays_of(bob).len(), 2, "no loss, no duplicates");
    }

    #[test]
    fn stranded_segment_contents_are_never_double_counted() {
        let dir = ScratchDir::new("durable-retention-doublecount");
        let ntu = ntu_campus();
        let cais = ntu.cais;
        let core = wide_open_core(cais, ntu.model);
        let (mut durable, _alerts) =
            DurableEngine::create(dir.path(), core, 2, test_config()).unwrap();
        let bob = SubjectId(1);
        let policy = RetentionPolicy::keep_last(100);
        durable.ingest(&two_subject_events(cais)).unwrap();
        // An applied run advances the watermark to 110.
        durable.run_retention_with(&policy, Time(210)).unwrap();
        assert_eq!(durable.retention_watermark(), Time(110));
        // Bob (own clock at 25) legally ingests a stay whose timestamps
        // sit BELOW the watermark — the late-arrival case.
        durable
            .ingest(&[
                Event::Request {
                    time: Time(60),
                    subject: bob,
                    location: cais,
                },
                Event::Enter {
                    time: Time(60),
                    subject: bob,
                    location: cais,
                },
                Event::Exit {
                    time: Time(70),
                    subject: bob,
                    location: cais,
                },
            ])
            .unwrap();
        // Crash window: the next run's segment lands but its prune
        // never applies. The stranded segment [110, 150) holds the late
        // stay, and so does live state.
        let prunable = durable.engine().collect_prunable(&policy, Time(150));
        durable.archive.append_run(110, 150, &prunable).unwrap();
        // Time-based clipping would admit the archived copy (70 < 110);
        // segment provenance (starts at 110, not below it) must not.
        let present = durable.present_during(cais, Interval::lit(50, 80)).unwrap();
        assert_eq!(present, vec![(bob, Interval::lit(60, 70))], "counted once");
        let contacts = durable.contacts(bob, Interval::lit(50, 80)).unwrap();
        assert!(contacts.is_empty(), "{contacts:?}");
        // After the run completes (replacing the stranded segment and
        // applying the prune), the stay counts exactly once — from the
        // archive this time.
        durable.run_retention_with(&policy, Time(250)).unwrap();
        assert_eq!(durable.retention_watermark(), Time(150));
        let present = durable.present_during(cais, Interval::lit(50, 80)).unwrap();
        assert_eq!(present, vec![(bob, Interval::lit(60, 70))]);
    }

    #[test]
    fn disabling_movement_pruning_does_not_discard_archived_violations() {
        let dir = ScratchDir::new("durable-retention-classes");
        let ntu = ntu_campus();
        let cais = ntu.cais;
        let core = wide_open_core(cais, ntu.model);
        let (mut durable, _alerts) =
            DurableEngine::create(dir.path(), core, 2, test_config()).unwrap();
        let policy = RetentionPolicy {
            movements: false,
            ..RetentionPolicy::keep_last(50)
        };
        let tailgate = |t: u64, s: u32| Event::Enter {
            time: Time(t),
            subject: SubjectId(s + 5), // unauthorized
            location: cais,
        };
        durable.ingest(&[tailgate(10, 0)]).unwrap();
        let r1 = durable.run_retention_with(&policy, Time(200)).unwrap();
        assert_eq!(r1.pruned, 1, "the t=10 violation");
        durable.ingest(&[tailgate(300, 1)]).unwrap();
        // The second run must anchor on the violations watermark (the
        // movements watermark never advances under this policy) and
        // extend the chain — not rewrite it from the epoch and discard
        // the first run's archived violation.
        let r2 = durable.run_retention_with(&policy, Time(400)).unwrap();
        assert_eq!(r2.pruned, 1, "only the t=300 violation");
        let vs = durable.violations_in(Interval::lit(0, 50)).unwrap();
        assert_eq!(vs.len(), 1, "the t=10 violation survived the second run");
        assert_eq!(vs[0].time(), Time(10));
        // Movements were never pruned: live whereabouts still answers.
        assert_eq!(
            durable.whereabouts(SubjectId(5), Time(10)).unwrap(),
            Some(cais)
        );
        assert_eq!(durable.retention_watermark(), Time::ZERO);
    }

    #[test]
    fn missing_archive_refuses_below_watermark_queries() {
        let dir = ScratchDir::new("durable-retention-refuse");
        let ntu = ntu_campus();
        let cais = ntu.cais;
        let core = wide_open_core(cais, ntu.model);
        let (mut durable, _alerts) =
            DurableEngine::create(dir.path(), core, 2, test_config()).unwrap();
        let (alice, bob) = (SubjectId(0), SubjectId(1));
        durable.ingest(&two_subject_events(cais)).unwrap();
        durable
            .run_retention_with(&RetentionPolicy::keep_last(100), Time(250))
            .unwrap();
        // An operator (or disaster) removes the archive tier.
        for entry in std::fs::read_dir(dir.path())
            .unwrap()
            .filter_map(|e| e.ok())
        {
            if entry.file_name().to_string_lossy().ends_with(".arch") {
                std::fs::remove_file(entry.path()).unwrap();
            }
        }
        // Below the watermark with a live miss: refuse loudly.
        let err = durable.whereabouts(bob, Time(15)).unwrap_err();
        assert!(matches!(err, HistoryError::Unarchived { .. }), "{err}");
        assert!(err.to_string().contains("refusing"), "{err}");
        let err = durable.contacts(alice, Interval::lit(0, 300)).unwrap_err();
        assert!(matches!(err, HistoryError::Unarchived { .. }));
        // At or above the watermark: live answers as usual.
        assert_eq!(durable.whereabouts(alice, Time(205)).unwrap(), Some(cais));
        assert!(durable
            .contacts(alice, Interval::lit(150, 300))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn configured_retention_runs_automatically_on_ingest() {
        let dir = ScratchDir::new("durable-retention-auto");
        let ntu = ntu_campus();
        let cais = ntu.cais;
        let core = wide_open_core(cais, ntu.model);
        let config = StoreConfig {
            retention: Some(RetentionPolicy::keep_last(100)),
            ..test_config()
        };
        let (mut durable, _alerts) = DurableEngine::create(dir.path(), core, 2, config).unwrap();
        let alice = SubjectId(0);
        // Long trace of short clean cycles: live history must stay
        // bounded by the horizon, not grow with the trace.
        let mut live_peak = 0usize;
        for i in 0..400u64 {
            let t = i * 10;
            durable
                .ingest(&[
                    Event::Request {
                        time: Time(t),
                        subject: alice,
                        location: cais,
                    },
                    Event::Enter {
                        time: Time(t + 1),
                        subject: alice,
                        location: cais,
                    },
                    Event::Exit {
                        time: Time(t + 5),
                        subject: alice,
                        location: cais,
                    },
                ])
                .unwrap();
            let live: usize = (0..2)
                .map(|s| durable.engine().read_shard(s, |st| st.movements().len()))
                .sum();
            live_peak = live_peak.max(live);
        }
        assert!(durable.take_retention_error().is_none());
        assert!(durable.retention_watermark() >= Time(3_000));
        // 400 cycles × 3 events ingested, but live never held more than
        // ~a horizon's worth (100 chronons ≈ 10 cycles ≈ 30 events,
        // plus slack for the maintenance cadence).
        assert!(live_peak <= 60, "live history unbounded: peak {live_peak}");
        // Nothing was lost: whereabouts across the whole trace still
        // answer through the archive.
        assert_eq!(durable.whereabouts(alice, Time(2)).unwrap(), Some(cais));
        assert_eq!(durable.whereabouts(alice, Time(3_902)).unwrap(), Some(cais));
    }

    #[test]
    fn reshard_after_retention_keeps_watermark_and_guards() {
        let dir = ScratchDir::new("durable-retention-reshard");
        let ntu = ntu_campus();
        let cais = ntu.cais;
        let (alice, bob) = (SubjectId(0), SubjectId(1));
        {
            let core = wide_open_core(cais, ntu.model);
            let (mut durable, _alerts) =
                DurableEngine::create(dir.path(), core, 2, test_config()).unwrap();
            durable.ingest(&two_subject_events(cais)).unwrap();
            durable
                .run_retention_with(&RetentionPolicy::keep_last(100), Time(250))
                .unwrap();
            durable.snapshot().unwrap();
        }
        // Reopen on 5 shards: subject state re-deals, and the retention
        // bookkeeping re-deals with it.
        let (mut durable, _alerts, _) =
            DurableEngine::open_with_shards(dir.path(), test_config(), 5).unwrap();
        assert_eq!(durable.engine().shard_count(), 5);
        assert_eq!(durable.retention_watermark(), Time(150));
        // Bob's history was entirely pruned, yet his time-regression
        // guard crossed the reshard: a stale event is still flagged.
        let out = durable
            .ingest(&[Event::Enter {
                time: Time(3),
                subject: bob,
                location: cais,
            }])
            .unwrap();
        assert_eq!(out.violations.len(), 1, "guard lost in redistribution");
        // Tiered queries still merge the archive.
        assert_eq!(durable.whereabouts(alice, Time(15)).unwrap(), Some(cais));
        let contacts = durable.contacts(alice, Interval::lit(0, 300)).unwrap();
        assert_eq!(contacts.len(), 1);
        assert_eq!(contacts[0].other, bob);
    }

    #[test]
    fn reopen_onto_more_shards_redistributes_state() {
        let dir = ScratchDir::new("durable-reshard");
        let ntu = ntu_campus();
        let cais = ntu.cais;
        let mut core = PolicyCore::new(ntu.model);
        let subjects: Vec<SubjectId> = (0..16).map(SubjectId).collect();
        for &s in &subjects {
            core.add_authorization(
                Authorization::new(
                    Interval::lit(0, 1_000),
                    Interval::lit(0, 2_000),
                    s,
                    cais,
                    EntryLimit::Unbounded,
                )
                .unwrap(),
            );
        }
        let events: Vec<Event> = subjects
            .iter()
            .flat_map(|&s| {
                [
                    Event::Request {
                        time: Time(10),
                        subject: s,
                        location: cais,
                    },
                    Event::Enter {
                        time: Time(11),
                        subject: s,
                        location: cais,
                    },
                ]
            })
            .collect();
        {
            let (mut durable, _alerts) =
                DurableEngine::create(dir.path(), core, 2, test_config()).unwrap();
            durable.ingest(&events).unwrap();
            durable.snapshot().unwrap();
        }
        let (durable, _alerts, _) =
            DurableEngine::open_with_shards(dir.path(), test_config(), 5).unwrap();
        assert_eq!(durable.engine().shard_count(), 5);
        assert_eq!(durable.engine().total_entries(), 16);
        // Every subject's stay is still live and exits clean.
        for &s in &subjects {
            assert!(
                durable.engine().observe_exit(Time(20), s, cais).is_none(),
                "{s} lost its active stay in redistribution"
            );
        }
    }
}
