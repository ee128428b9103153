//! The cold archive tier: where pruned history goes when retention
//! bounds the live engine.
//!
//! ## On-disk format (version 1)
//!
//! Each retention run writes (at most) one segment
//! `arch-<from>-<to>.arch`, where `[from, to)` is the **watermark
//! range** the run advanced over: `from` is the retention watermark
//! when the records were collected, `to` the new horizon. The segment
//! holds *everything that run pruned* — which, because sensor clocks
//! are only per-subject monotone, can include late-arriving records
//! with timestamps *below* `from` (they were ingested after the
//! earlier runs pruned that era). Records at or past `to` are never
//! archived: they are still live. Segments are written atomically
//! (temp + `fsync` + rename + directory `fsync`), and their watermark
//! ranges chain contiguously from the epoch — each run starts at the
//! watermark the previous one established — so the set of segment
//! names is also the coverage index.
//!
//! ```text
//! ┌──────────────── header (44 bytes) ────────────────────────────────┐
//! │ magic "LTAR" │ version u16 LE │ reserved u16 │ from u64 │ to u64  │
//! │ events_len u64 LE │ json_len u64 LE │ crc32 u32 LE               │
//! ├──────────────── events block (events_len bytes) ──────────────────┤
//! │ pruned movement events, each framed by the WAL event codec        │
//! ├──────────────── json block (json_len bytes) ──────────────────────┤
//! │ JSON of ArchiveRecords: stays, audit, violations                  │
//! └───────────────────────────────────────────────────────────────────┘
//! ```
//!
//! The CRC covers both blocks. Unlike snapshots — where a corrupt file
//! falls back to an older one — a corrupt archive segment is the *only*
//! copy of its history, so reads fail loudly (`InvalidData`) instead of
//! skipping: a query that silently ignored a rotten segment would
//! under-report contacts, which for the paper's SARS scenario is the
//! worst possible failure mode.
//!
//! Crash-repeated runs are handled by **replace-on-same-start**: a
//! crash between archive-write and the in-memory prune leaves a
//! segment whose records are still live and a watermark that never
//! advanced. The repeated run re-collects from the same watermark — a
//! superset of the stranded segment, since enforcement state recovers
//! exactly and may have ingested more — writes a fresh segment starting
//! at the same `from`, and only then deletes the superseded file, so
//! no record is ever lost or double-archived. Readers ignore a
//! superseded same-start segment if a crash strands one.

use crate::codec::{decode_event, encode_event};
use crate::crc::crc32;
use ltam_core::subject::SubjectId;
use ltam_engine::batch::Event;
use ltam_engine::movement::{MovementEvent, MovementKind, Stay};
use ltam_engine::retention::PrunedHistory;
use ltam_engine::AuditRecord;
use ltam_engine::Violation;
use ltam_time::{Interval, Time};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fs::{self, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening every archive segment.
pub const ARCHIVE_MAGIC: [u8; 4] = *b"LTAR";
/// On-disk archive format version.
pub const ARCHIVE_VERSION: u16 = 1;
/// Bytes of the archive segment header.
pub const ARCHIVE_HEADER_LEN: usize = 44;

/// The JSON half of a segment (movement events travel in the binary
/// block; see the module docs).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct ArchiveRecords {
    stays: Vec<(SubjectId, Stay)>,
    audit: Vec<AuditRecord>,
    violations: Vec<Violation>,
}

/// What one [`ArchiveStore::append_run`] call wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArchiveRunReport {
    /// The retention watermark the records were collected under (the
    /// segment's chain start).
    pub from: u64,
    /// The new watermark the run advanced to (the chain end).
    pub to: u64,
    /// Records written (all classes).
    pub records: usize,
}

/// Reads and writes archive segments in a store directory.
#[derive(Debug, Clone)]
pub struct ArchiveStore {
    dir: PathBuf,
    fsync: bool,
}

fn segment_path(dir: &Path, from: u64, to: u64) -> PathBuf {
    dir.join(format!("arch-{from:020}-{to:020}.arch"))
}

fn parse_segment_name(name: &str) -> Option<(u64, u64)> {
    let body = name.strip_prefix("arch-")?.strip_suffix(".arch")?;
    let (from, to) = body.split_once('-')?;
    Some((from.parse().ok()?, to.parse().ok()?))
}

/// One `(from, to, path)` row of the segment listing.
type SegmentRow = (u64, u64, PathBuf);

fn corrupt(path: &Path, what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!(
            "archive segment {} is unusable ({what}); it is the only copy of its history — \
             refusing to answer rather than under-report",
            path.display()
        ),
    )
}

impl ArchiveStore {
    /// An archive store over `dir`, `fsync`ing every written segment.
    pub fn new(dir: &Path) -> ArchiveStore {
        ArchiveStore::with_fsync(dir, true)
    }

    /// An archive store with explicit `fsync` behavior (disable only
    /// for tests; writes are still atomic via temp + rename).
    pub fn with_fsync(dir: &Path, fsync: bool) -> ArchiveStore {
        ArchiveStore {
            dir: dir.to_path_buf(),
            fsync,
        }
    }

    /// Segment files split into the **active chain** (sorted, one
    /// segment per start, largest end wins) and **superseded** files (a
    /// same-start segment a crash-repeated run replaced but whose
    /// deletion did not land). The chain must start at the epoch and
    /// each segment must start where the previous ended (anything else
    /// means segments were deleted or hand-copied — refuse rather than
    /// serve a gappy tier).
    fn scan(&self) -> io::Result<(Vec<SegmentRow>, Vec<PathBuf>)> {
        let mut all = Vec::new();
        match fs::read_dir(&self.dir) {
            Ok(entries) => {
                for entry in entries {
                    let entry = entry?;
                    let name = entry.file_name();
                    let name = name.to_string_lossy();
                    if let Some((from, to)) = parse_segment_name(&name) {
                        all.push((from, to, entry.path()));
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        all.sort_by_key(|&(from, to, _)| (from, to));
        let mut chain: Vec<SegmentRow> = Vec::new();
        let mut superseded = Vec::new();
        for (from, to, path) in all {
            match chain.last() {
                Some(&(last_from, _, _)) if last_from == from => {
                    // Same start: the later (larger-end) segment is a
                    // superset written by a crash-repeated run.
                    let old = chain.pop().expect("non-empty");
                    superseded.push(old.2);
                    chain.push((from, to, path));
                }
                _ => chain.push((from, to, path)),
            }
        }
        let mut expect = 0u64;
        for &(from, to, ref path) in &chain {
            if from != expect || to < from {
                return Err(corrupt(
                    path,
                    &format!("coverage gap: segment starts at {from}, expected {expect}"),
                ));
            }
            expect = to;
        }
        Ok((chain, superseded))
    }

    /// The chronon the archive's watermark chain ends at (exclusive):
    /// together with live state (complete from the watermark), the
    /// tiers hold all history when this reaches the watermark. Zero for
    /// an empty archive.
    pub fn coverage_end(&self) -> io::Result<u64> {
        Ok(self.scan()?.0.last().map(|&(_, to, _)| to).unwrap_or(0))
    }

    /// Archive one retention run's records: everything pruned while
    /// advancing the watermark from `from` (the collect-time watermark)
    /// to `horizon`. Returns `None` — and writes nothing — only when
    /// `horizon <= from` (an empty advance).
    ///
    /// If the chain extends past `from` (a crash-repeated run: the
    /// stranded segment's records are still live and were re-collected,
    /// possibly alongside records ingested *after* the stranded write —
    /// which is why the write must happen even when the chain already
    /// reaches `horizon`) the new segment **replaces** the stranded
    /// one(s) — written first, superseded files deleted after — so the
    /// chain stays contiguous and no record is duplicated. An empty
    /// record set still writes an (empty) segment: chain contiguity is
    /// what lets readers prove no history is missing.
    pub fn append_run(
        &self,
        from: u64,
        horizon: u64,
        records: &PrunedHistory,
    ) -> io::Result<Option<ArchiveRunReport>> {
        if horizon <= from {
            return Ok(None);
        }
        let (chain, superseded) = self.scan()?;
        let chain_end = chain.last().map(|&(_, to, _)| to).unwrap_or(0);
        debug_assert!(
            from <= chain_end,
            "watermark {from} cannot exceed archive coverage {chain_end}"
        );
        debug_assert!(
            horizon >= chain_end,
            "a replacement covering [{from}, {horizon}) must subsume the chain end {chain_end}"
        );
        // Chain segments past the watermark are being replaced by this
        // run; already-superseded files are redundant whatever happens.
        let mut replaced: Vec<PathBuf> = chain
            .into_iter()
            .filter(|&(f, _, _)| f >= from)
            .map(|(_, _, p)| p)
            .collect();
        replaced.extend(superseded);
        // Only the upper bound filters: records at or past the horizon
        // are still live and must not be archived. Below it, anything
        // the caller pruned belongs here — including late-arriving
        // records whose (per-subject monotone) timestamps precede
        // `from`.
        let in_range = |t: Time| t.get() < horizon;
        let mut events_block = Vec::new();
        let mut written = 0usize;
        for e in &records.events {
            if in_range(e.time) {
                let kind = match e.kind {
                    MovementKind::Enter => Event::Enter {
                        time: e.time,
                        subject: e.subject,
                        location: e.location,
                    },
                    MovementKind::Exit => Event::Exit {
                        time: e.time,
                        subject: e.subject,
                        location: e.location,
                    },
                };
                encode_event(&kind, &mut events_block);
                written += 1;
            }
        }
        let json = ArchiveRecords {
            stays: records
                .stays
                .iter()
                .filter(|(_, s)| matches!(s.exit, Some(e) if in_range(e)))
                .copied()
                .collect(),
            audit: records
                .audit
                .iter()
                .filter(|r| in_range(r.request.time))
                .copied()
                .collect(),
            violations: records
                .violations
                .iter()
                .filter(|v| in_range(v.time()))
                .copied()
                .collect(),
        };
        written += json.stays.len() + json.audit.len() + json.violations.len();
        let json_block = serde_json::to_string(&json)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let json_block = json_block.as_bytes();

        let mut bytes =
            Vec::with_capacity(ARCHIVE_HEADER_LEN + events_block.len() + json_block.len());
        bytes.extend_from_slice(&ARCHIVE_MAGIC);
        bytes.extend_from_slice(&ARCHIVE_VERSION.to_le_bytes());
        bytes.extend_from_slice(&0u16.to_le_bytes());
        bytes.extend_from_slice(&from.to_le_bytes());
        bytes.extend_from_slice(&horizon.to_le_bytes());
        bytes.extend_from_slice(&(events_block.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&(json_block.len() as u64).to_le_bytes());
        let mut payload = events_block;
        payload.extend_from_slice(json_block);
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);

        fs::create_dir_all(&self.dir)?;
        let tmp = self.dir.join(format!("arch-{from:020}-{horizon:020}.tmp"));
        {
            let mut f = OpenOptions::new()
                .create(true)
                .write(true)
                .truncate(true)
                .open(&tmp)?;
            f.write_all(&bytes)?;
            if self.fsync {
                f.sync_data()?;
            }
        }
        fs::rename(&tmp, segment_path(&self.dir, from, horizon))?;
        if self.fsync {
            // The rename's dirent must be durable before the caller
            // prunes live state: losing it would lose the only copy.
            if let Ok(d) = fs::File::open(&self.dir) {
                d.sync_all()?;
            }
        }
        // Only after the replacement is durable may the superseded
        // same-start segments go; a crash in between leaves both, and
        // readers prefer the larger (superset) one. A same-range
        // replacement was already overwritten in place by the rename —
        // deleting that path now would delete the fresh segment.
        let new_path = segment_path(&self.dir, from, horizon);
        for stale in replaced {
            if stale != new_path {
                fs::remove_file(stale)?;
            }
        }
        Ok(Some(ArchiveRunReport {
            from,
            to: horizon,
            records: written,
        }))
    }

    /// Load every active segment into one queryable [`ArchiveData`].
    /// Any unusable segment (bad header, CRC mismatch, undecodable
    /// record) fails the whole load — see the module docs for why the
    /// archive never skips damage.
    ///
    /// Loads the whole tier eagerly; live query paths go through
    /// [`LazyArchive`] instead, which loads (and caches) only the
    /// segments a query can actually touch.
    pub fn load(&self) -> io::Result<ArchiveData> {
        let chain = self.scan()?.0;
        let mut data = ArchiveData {
            covered_to: chain.last().map(|&(_, to, _)| to).unwrap_or(0),
            ..ArchiveData::default()
        };
        for &(from, to, ref path) in &chain {
            let seg = read_segment(path, from, to)?;
            merge_segment(&mut data, from, seg);
        }
        data.sort_indexes();
        Ok(data)
    }
}

/// Fold one segment's records into `data` (indexes left unsorted; call
/// [`ArchiveData::sort_indexes`] after the last merge).
fn merge_segment(data: &mut ArchiveData, from: u64, seg: SegmentData) {
    for (s, stay) in seg.stays {
        data.stays.entry(s).or_default().push((from, stay));
        data.by_location
            .entry(stay.location)
            .or_default()
            .push((from, s, stay));
    }
    data.audit.extend(seg.audit);
    data.violations
        .extend(seg.violations.into_iter().map(|v| (from, v)));
    data.events.extend(seg.events);
}

/// The archive tier with per-segment lazy loading: the chain is scanned
/// once (file names only — that is the coverage index), and a segment's
/// *payload* is read and cached only when a query's window can touch
/// it. Huge archives therefore cost a directory listing until someone
/// actually asks about the deep past.
///
/// Which segments can a query over `[needs_from, …)` touch? **Not**
/// just those whose watermark range intersects the window naively:
/// sensor clocks are only per-subject monotone, so a segment
/// `[from, to)` may hold *late-arriving* records with timestamps below
/// `from` (they were ingested after earlier runs pruned that era). Its
/// records are bounded above by `to` only. A segment is therefore
/// needed when
///
/// * `to > needs_from` — it can hold records at or past the query's
///   lower edge (no segment can hold records at or past its own `to`,
///   so segments wholly below the window stay cold), and
/// * `from < applied_below` — the querying class's live watermark; a
///   segment starting at or past it is *stranded* (its prune never
///   applied, recovery resurrected its records into live state) and
///   every record it holds would be filtered by the provenance check
///   anyway, so it never needs loading.
///
/// Loaded segments accumulate monotonically: classes with different
/// watermarks share one cache, and loading a superset is always sound
/// because the per-record provenance filter still applies at query
/// time.
#[derive(Debug, Default)]
pub struct LazyArchive {
    /// Scanned chain rows, cached after the first scan.
    chain: Option<Vec<SegmentRow>>,
    /// Chain starts whose payloads are merged into `data`.
    loaded: std::collections::BTreeSet<u64>,
    data: ArchiveData,
}

impl LazyArchive {
    /// A cold cache (nothing scanned, nothing loaded).
    pub fn new() -> LazyArchive {
        LazyArchive::default()
    }

    /// Drop everything; the next query rescans and reloads. Call after
    /// any retention run (it may have appended or replaced segments).
    pub fn invalidate(&mut self) {
        *self = LazyArchive::default();
    }

    /// Chain coverage end (exclusive), scanning the directory on first
    /// use. This never reads segment payloads.
    pub fn coverage_end(&mut self, store: &ArchiveStore) -> io::Result<u64> {
        Ok(self
            .ensure_chain(store)?
            .last()
            .map(|&(_, to, _)| to)
            .unwrap_or(0))
    }

    /// Segments whose payloads are currently cached (tests and the
    /// status surface use this to prove laziness).
    pub fn segments_loaded(&self) -> usize {
        self.loaded.len()
    }

    fn ensure_chain(&mut self, store: &ArchiveStore) -> io::Result<&[SegmentRow]> {
        if self.chain.is_none() {
            let (chain, _) = store.scan()?;
            self.data.covered_to = chain.last().map(|&(_, to, _)| to).unwrap_or(0);
            self.chain = Some(chain);
        }
        Ok(self.chain.as_deref().expect("just scanned"))
    }

    /// The archive view for a query reaching down to `needs_from`,
    /// with `applied_below` the querying class's live watermark (see
    /// the type docs for the segment-selection rule). Segments needed
    /// but not yet cached are read now; a corrupt or gappy chain fails
    /// loudly, exactly like [`ArchiveStore::load`].
    pub fn view_for(
        &mut self,
        store: &ArchiveStore,
        needs_from: Time,
        applied_below: Time,
    ) -> io::Result<&ArchiveData> {
        self.ensure_chain(store)?;
        let needed: Vec<SegmentRow> = self
            .chain
            .as_deref()
            .expect("chain scanned")
            .iter()
            .filter(|&&(from, to, _)| {
                to > needs_from.get() && from < applied_below.get() && !self.loaded.contains(&from)
            })
            .cloned()
            .collect();
        let mut merged_any = false;
        for (from, to, path) in needed {
            let seg = read_segment(&path, from, to)?;
            merge_segment(&mut self.data, from, seg);
            self.loaded.insert(from);
            merged_any = true;
        }
        if merged_any {
            self.data.sort_indexes();
        }
        Ok(&self.data)
    }
}

struct SegmentData {
    stays: Vec<(SubjectId, Stay)>,
    audit: Vec<AuditRecord>,
    violations: Vec<Violation>,
    events: Vec<MovementEvent>,
}

fn read_segment(path: &Path, expected_from: u64, expected_to: u64) -> io::Result<SegmentData> {
    let bytes = fs::read(path)?;
    if bytes.len() < ARCHIVE_HEADER_LEN || bytes[0..4] != ARCHIVE_MAGIC {
        return Err(corrupt(path, "bad magic or truncated header"));
    }
    if u16::from_le_bytes([bytes[4], bytes[5]]) != ARCHIVE_VERSION {
        return Err(corrupt(path, "unknown format version"));
    }
    let from = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let to = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
    if from != expected_from || to != expected_to {
        return Err(corrupt(path, "header range disagrees with the file name"));
    }
    let events_len = u64::from_le_bytes(bytes[24..32].try_into().expect("8 bytes"));
    let json_len = u64::from_le_bytes(bytes[32..40].try_into().expect("8 bytes"));
    let crc = u32::from_le_bytes(bytes[40..44].try_into().expect("4 bytes"));
    // Corrupted length fields can hold anything; all arithmetic checked.
    let total = usize::try_from(events_len)
        .ok()
        .zip(usize::try_from(json_len).ok())
        .and_then(|(e, j)| e.checked_add(j))
        .and_then(|p| p.checked_add(ARCHIVE_HEADER_LEN));
    let Some(total) = total else {
        return Err(corrupt(path, "length fields overflow"));
    };
    if bytes.len() != total {
        return Err(corrupt(path, "payload length disagrees with the file size"));
    }
    let payload = &bytes[ARCHIVE_HEADER_LEN..];
    if crc32(payload) != crc {
        return Err(corrupt(path, "CRC mismatch"));
    }
    let (events_block, json_block) = payload.split_at(events_len as usize);
    let mut events = Vec::new();
    let mut at = 0usize;
    while at < events_block.len() {
        let (event, used) = decode_event(&events_block[at..])
            .map_err(|e| corrupt(path, &format!("undecodable event record: {e}")))?;
        at += used;
        let movement = match event {
            Event::Enter {
                time,
                subject,
                location,
            } => MovementEvent {
                time,
                subject,
                location,
                kind: MovementKind::Enter,
            },
            Event::Exit {
                time,
                subject,
                location,
            } => MovementEvent {
                time,
                subject,
                location,
                kind: MovementKind::Exit,
            },
            other => {
                return Err(corrupt(
                    path,
                    &format!("non-movement event {other:?} in the events block"),
                ))
            }
        };
        events.push(movement);
    }
    let text = std::str::from_utf8(json_block).map_err(|_| corrupt(path, "non-UTF-8 JSON"))?;
    let records: ArchiveRecords =
        serde_json::from_str(text).map_err(|e| corrupt(path, &format!("bad JSON: {e}")))?;
    Ok(SegmentData {
        stays: records.stays,
        audit: records.audit,
        violations: records.violations,
        events,
    })
}

/// The archive tier, loaded and indexed for queries. Produced by
/// [`ArchiveStore::load`]; every stay in here is *closed* (only closed
/// stays are ever pruned), and every record carries the chain start of
/// the segment it came from.
///
/// Every query takes an `applied_below` bound — the querying class's
/// **live watermark** — and ignores records from segments starting at
/// or past it. The segment start is the exact "was this prune ever
/// applied?" discriminator: an applied segment's start is always below
/// the watermark its apply advanced, while a *stranded* segment (its
/// run crashed between archive-write and the snapshot persisting the
/// prune) starts exactly at the watermark, and recovery has resurrected
/// its entire contents — including late-arriving records whose
/// timestamps predate the watermark — into live state. Filtering by
/// record *time* would miss those; filtering by segment start never
/// does. In steady state every segment is applied and the bound is
/// vacuous. Pass [`Time::MAX`] to read the archive standalone.
#[derive(Debug, Clone, Default)]
pub struct ArchiveData {
    /// Watermark-chain end (exclusive): when this reaches the live
    /// watermark, the two tiers together hold all history ever
    /// recorded.
    pub covered_to: u64,
    /// Archived `(segment start, stay)` rows per subject,
    /// chronological by enter time.
    pub stays: BTreeMap<SubjectId, Vec<(u64, Stay)>>,
    /// The same stays indexed by location (presence/contact joins scan
    /// one location, not the whole archive), sorted by subject.
    #[allow(clippy::type_complexity)]
    pub by_location: BTreeMap<ltam_graph::LocationId, Vec<(u64, SubjectId, Stay)>>,
    /// Archived audit records.
    pub audit: Vec<AuditRecord>,
    /// Archived `(segment start, violation)` rows.
    pub violations: Vec<(u64, Violation)>,
    /// Archived raw movement events (the pruned slice of the log).
    pub events: Vec<MovementEvent>,
}

/// The segment-provenance filter (see [`ArchiveData`]): a record
/// counts only if its segment's prune was applied before the querying
/// class's watermark.
fn applied(seg_from: u64, applied_below: Time) -> bool {
    seg_from < applied_below.get()
}

impl ArchiveData {
    /// True if the archive covers chronon `t`.
    pub fn covers(&self, t: Time) -> bool {
        t.get() < self.covered_to
    }

    /// Restore the query-order invariants after merging segments:
    /// late-arriving records mean a later segment can hold a stay that
    /// predates an earlier segment's, so each subject's vector sorts by
    /// enter time (queries binary-search it) and the per-location index
    /// (what presence/contact joins scan) sorts by subject to match the
    /// live query's output order.
    pub fn sort_indexes(&mut self) {
        for stays in self.stays.values_mut() {
            stays.sort_by_key(|&(_, s)| (s.enter, s.exit));
        }
        for stays in self.by_location.values_mut() {
            stays.sort_by_key(|&(_, s, stay)| (s, stay.enter));
        }
    }

    /// Archived `(segment start, stay)` rows of one subject. Callers
    /// merging with live state must skip rows whose segment start is at
    /// or past the movements watermark (stranded: those stays are live).
    pub fn stays_of(&self, subject: SubjectId) -> &[(u64, Stay)] {
        self.stays.get(&subject).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Where `subject` was at `t`, per applied archived stays (mirrors
    /// [`ltam_engine::movement::MovementsDb::whereabouts`]). Archived
    /// stays are closed stays of one chronological timeline, so only the
    /// last applied stay entered at or before `t` can contain it: if its
    /// exit is before `t`, every earlier one's is too and the search
    /// stops there.
    pub fn whereabouts(
        &self,
        subject: SubjectId,
        t: Time,
        applied_below: Time,
    ) -> Option<ltam_graph::LocationId> {
        let stays = self.stays.get(&subject)?;
        let idx = stays.partition_point(|&(_, s)| s.enter <= t);
        stays[..idx]
            .iter()
            .rev()
            .find(|&&(f, _)| applied(f, applied_below))
            .filter(|(_, s)| s.interval().contains(t))
            .map(|(_, s)| s.location)
    }

    /// Applied archived presences in `location` overlapping `window`,
    /// clipped, sorted by `(subject, start)` (mirrors the live query).
    pub fn present_during(
        &self,
        location: ltam_graph::LocationId,
        window: Interval,
        applied_below: Time,
    ) -> Vec<(SubjectId, Interval)> {
        let mut out = Vec::new();
        for &(f, subject, s) in self.by_location.get(&location).into_iter().flatten() {
            if !applied(f, applied_below) {
                continue;
            }
            if let Some(overlap) = s.interval().intersect(window) {
                out.push((subject, overlap));
            }
        }
        out.sort_by_key(|&(s, i)| (s, i.start()));
        out
    }

    /// Applied archived violations inside `window`.
    pub fn violations_in(&self, window: Interval, applied_below: Time) -> Vec<Violation> {
        self.violations
            .iter()
            .filter(|&&(f, v)| applied(f, applied_below) && window.contains(v.time()))
            .map(|&(_, v)| v)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::ScratchDir;
    use ltam_graph::LocationId;

    fn history(times: &[(u64, u64)]) -> PrunedHistory {
        // One closed stay (and its two events) per (enter, exit) pair,
        // all for subject 1 in location 2, plus one violation at each
        // exit time.
        let s = SubjectId(1);
        let l = LocationId(2);
        let mut out = PrunedHistory::default();
        for &(a, b) in times {
            out.stays.push((
                s,
                Stay {
                    location: l,
                    enter: Time(a),
                    exit: Some(Time(b)),
                },
            ));
            out.events.push(MovementEvent {
                time: Time(a),
                subject: s,
                location: l,
                kind: MovementKind::Enter,
            });
            out.events.push(MovementEvent {
                time: Time(b),
                subject: s,
                location: l,
                kind: MovementKind::Exit,
            });
            out.violations.push(Violation::UnauthorizedEntry {
                time: Time(a),
                subject: s,
                location: l,
            });
        }
        out
    }

    #[test]
    fn append_and_load_round_trip() {
        let dir = ScratchDir::new("arch-roundtrip");
        let store = ArchiveStore::with_fsync(dir.path(), false);
        assert_eq!(store.coverage_end().unwrap(), 0);
        let report = store
            .append_run(0, 50, &history(&[(5, 10), (20, 30)]))
            .unwrap();
        assert_eq!(
            report,
            Some(ArchiveRunReport {
                from: 0,
                to: 50,
                records: 8 // 4 events + 2 stays + 2 violations
            })
        );
        let data = store.load().unwrap();
        assert_eq!(data.covered_to, 50);
        assert!(data.covers(Time(49)) && !data.covers(Time(50)));
        assert_eq!(data.stays_of(SubjectId(1)).len(), 2);
        assert_eq!(
            data.whereabouts(SubjectId(1), Time(7), Time::MAX),
            Some(LocationId(2))
        );
        assert_eq!(data.whereabouts(SubjectId(1), Time(15), Time::MAX), None);
        // A watermark at the segment's start marks it stranded (its
        // prune never applied): the provenance filter excludes it.
        assert_eq!(data.whereabouts(SubjectId(1), Time(7), Time(0)), None);
        assert_eq!(data.events.len(), 4);
        assert_eq!(data.violations_in(Interval::lit(0, 10), Time::MAX).len(), 1);
        assert_eq!(data.violations_in(Interval::lit(0, 10), Time(0)).len(), 0);
        let rows = data.present_during(LocationId(2), Interval::lit(8, 25), Time::MAX);
        assert_eq!(
            rows,
            vec![
                (SubjectId(1), Interval::lit(8, 10)),
                (SubjectId(1), Interval::lit(20, 25)),
            ]
        );
    }

    #[test]
    fn whereabouts_misses_stop_at_the_latest_applied_stay() {
        let subject = SubjectId(1);
        let stay = |enter, exit| Stay {
            location: LocationId(2),
            enter: Time(enter),
            exit: Some(Time(exit)),
        };
        // Two applied stays from segment 0, then a stranded segment
        // starting at the watermark 50 whose stay predates the query.
        let data = ArchiveData {
            stays: BTreeMap::from([(
                subject,
                vec![(0, stay(5, 10)), (0, stay(20, 30)), (50, stay(35, 40))],
            )]),
            ..ArchiveData::default()
        };
        let at = |t| data.whereabouts(subject, Time(t), Time(50));
        assert_eq!(at(7), Some(LocationId(2)));
        assert_eq!(at(15), None, "a miss between two applied stays");
        assert_eq!(at(30), Some(LocationId(2)));
        assert_eq!(at(37), None, "the stranded stay is answered live");
        assert_eq!(at(45), None, "past the stranded stay");
        // Read standalone, the same segment counts.
        assert_eq!(
            data.whereabouts(subject, Time(37), Time::MAX),
            Some(LocationId(2))
        );
        assert_eq!(data.whereabouts(SubjectId(9), Time(7), Time::MAX), None);
    }

    #[test]
    fn crash_repeated_runs_replace_without_duplicating() {
        let dir = ScratchDir::new("arch-idempotent");
        let store = ArchiveStore::with_fsync(dir.path(), false);
        let upto50 = history(&[(5, 10), (20, 30)]);
        assert!(store.append_run(0, 50, &upto50).unwrap().is_some());
        // Crash-repeat at the same horizon: the stranded segment is
        // replaced by an identical one (live state may have gained
        // records since the stranded write, so the rewrite is never
        // skipped) — still exactly one copy of everything.
        assert!(store.append_run(0, 50, &upto50).unwrap().is_some());
        assert_eq!(store.load().unwrap().stays_of(SubjectId(1)).len(), 2);
        // An empty advance writes nothing.
        assert_eq!(store.append_run(50, 50, &upto50).unwrap(), None);
        // Crash-repeat flavor 2: the prune never applied (watermark
        // still 0), the repeated run collected a superset — including a
        // LATE-ARRIVING stay whose timestamps precede the stranded
        // segment's end — and advances further. The same-start segment
        // is replaced; nothing is lost or duplicated.
        let superset = history(&[(5, 10), (20, 30), (12, 15), (60, 70)]);
        let r = store.append_run(0, 100, &superset).unwrap().unwrap();
        assert_eq!((r.from, r.to), (0, 100));
        assert_eq!(r.records, 16, "all four stays travel in the replacement");
        let data = store.load().unwrap();
        assert_eq!(data.covered_to, 100);
        assert_eq!(data.stays_of(SubjectId(1)).len(), 4, "no duplicates");
        assert_eq!(data.violations.len(), 4);
        // Exactly one segment file remains.
        let files = std::fs::read_dir(dir.path())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".arch"))
            .count();
        assert_eq!(files, 1);
    }

    #[test]
    fn a_stranded_superseded_segment_is_ignored_by_readers() {
        let dir = ScratchDir::new("arch-stranded");
        let store = ArchiveStore::with_fsync(dir.path(), false);
        store.append_run(0, 50, &history(&[(5, 10)])).unwrap();
        // Keep a copy of the soon-to-be-superseded segment, as a crash
        // between replacement-write and stale-delete would.
        let old = segment_path(dir.path(), 0, 50);
        let bytes = std::fs::read(&old).unwrap();
        store
            .append_run(0, 80, &history(&[(5, 10), (20, 30)]))
            .unwrap();
        std::fs::write(&old, &bytes).unwrap(); // the crash strands it
        assert_eq!(store.coverage_end().unwrap(), 80);
        let data = store.load().unwrap();
        assert_eq!(data.covered_to, 80);
        assert_eq!(data.stays_of(SubjectId(1)).len(), 2, "superset wins, once");
        // The next run cleans the stranded file up.
        store
            .append_run(0, 90, &history(&[(5, 10), (20, 30)]))
            .unwrap();
        let files = std::fs::read_dir(dir.path())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".arch"))
            .count();
        assert_eq!(files, 1);
    }

    #[test]
    fn records_at_or_past_the_horizon_are_never_archived() {
        let dir = ScratchDir::new("arch-upper");
        let store = ArchiveStore::with_fsync(dir.path(), false);
        // The (60, 70) stay is still live at horizon 50; only the two
        // earlier stays (and their records) are archived.
        let r = store
            .append_run(0, 50, &history(&[(5, 10), (20, 30), (60, 70)]))
            .unwrap()
            .unwrap();
        assert_eq!(r.records, 8);
        assert_eq!(store.load().unwrap().stays_of(SubjectId(1)).len(), 2);
    }

    #[test]
    fn empty_runs_keep_coverage_contiguous() {
        let dir = ScratchDir::new("arch-empty");
        let store = ArchiveStore::with_fsync(dir.path(), false);
        store
            .append_run(0, 10, &PrunedHistory::default())
            .unwrap()
            .unwrap();
        store
            .append_run(10, 20, &PrunedHistory::default())
            .unwrap()
            .unwrap();
        assert_eq!(store.coverage_end().unwrap(), 20);
        assert_eq!(store.load().unwrap().covered_to, 20);
    }

    #[test]
    fn corrupt_segment_fails_loudly_not_silently() {
        let dir = ScratchDir::new("arch-corrupt");
        let store = ArchiveStore::with_fsync(dir.path(), false);
        store.append_run(0, 50, &history(&[(5, 10)])).unwrap();
        let seg = std::fs::read_dir(dir.path())
            .unwrap()
            .filter_map(|e| e.ok())
            .find(|e| e.file_name().to_string_lossy().ends_with(".arch"))
            .unwrap()
            .path();
        let mut bytes = std::fs::read(&seg).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&seg, &bytes).unwrap();
        let err = store.load().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("refusing"), "{err}");
        // Truncation is caught too.
        std::fs::write(&seg, &bytes[..bytes.len() / 2]).unwrap();
        assert!(store.load().is_err());
    }

    #[test]
    fn lazy_archive_loads_only_touched_segments() {
        let dir = ScratchDir::new("arch-lazy");
        let store = ArchiveStore::with_fsync(dir.path(), false);
        store.append_run(0, 50, &history(&[(5, 10)])).unwrap();
        store.append_run(50, 100, &history(&[(60, 70)])).unwrap();
        store.append_run(100, 150, &history(&[(110, 120)])).unwrap();

        let mut lazy = LazyArchive::new();
        assert_eq!(lazy.coverage_end(&store).unwrap(), 150);
        assert_eq!(lazy.segments_loaded(), 0, "coverage is a directory listing");

        // A query reaching down to t=110 touches only the last segment.
        let loc = lazy
            .view_for(&store, Time(110), Time::MAX)
            .unwrap()
            .whereabouts(SubjectId(1), Time(115), Time::MAX);
        assert_eq!(loc, Some(LocationId(2)));
        assert_eq!(lazy.segments_loaded(), 1);

        // Reaching down to t=55 adds the middle one — never the first.
        lazy.view_for(&store, Time(55), Time::MAX).unwrap();
        assert_eq!(lazy.segments_loaded(), 2);

        // A whole-history query loads everything; the merged view then
        // answers across segments.
        let stays = lazy
            .view_for(&store, Time::ZERO, Time::MAX)
            .unwrap()
            .stays_of(SubjectId(1))
            .len();
        assert_eq!(stays, 3);
        assert_eq!(lazy.segments_loaded(), 3);

        // Stranded segments (start at or past the class watermark)
        // never load: their records live in the live tier.
        let mut cold = LazyArchive::new();
        cold.view_for(&store, Time::ZERO, Time(100)).unwrap();
        assert_eq!(cold.segments_loaded(), 2);

        lazy.invalidate();
        assert_eq!(lazy.segments_loaded(), 0);
    }

    #[test]
    fn lazy_archive_never_misses_late_arriving_records() {
        let dir = ScratchDir::new("arch-lazy-late");
        let store = ArchiveStore::with_fsync(dir.path(), false);
        store.append_run(0, 50, &history(&[(5, 10)])).unwrap();
        // The (20, 30) stay arrived late: it was pruned by the run that
        // advanced [50, 100), so it lives in that segment despite its
        // timestamps sitting below 50.
        store
            .append_run(50, 100, &history(&[(20, 30), (60, 70)]))
            .unwrap();
        let mut lazy = LazyArchive::new();
        // A query at t=25 must load the [50, 100) segment too — the
        // selection rule keys on each segment's *end* (records are
        // bounded above by it, not below by its start).
        let loc = lazy
            .view_for(&store, Time(25), Time::MAX)
            .unwrap()
            .whereabouts(SubjectId(1), Time(25), Time::MAX);
        assert_eq!(loc, Some(LocationId(2)), "late-arriving stay found");
        assert_eq!(lazy.segments_loaded(), 2);
    }

    #[test]
    fn lazy_archive_fails_loudly_only_when_a_touched_segment_is_corrupt() {
        let dir = ScratchDir::new("arch-lazy-corrupt");
        let store = ArchiveStore::with_fsync(dir.path(), false);
        store.append_run(0, 50, &history(&[(5, 10)])).unwrap();
        store.append_run(50, 100, &history(&[(60, 70)])).unwrap();
        // Rot the FIRST segment.
        let seg = segment_path(dir.path(), 0, 50);
        let mut bytes = std::fs::read(&seg).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&seg, &bytes).unwrap();
        let mut lazy = LazyArchive::new();
        // Recent queries never touch the rotten segment and still work…
        assert!(lazy.view_for(&store, Time(60), Time::MAX).is_ok());
        // …but a query that needs it refuses rather than under-report.
        let err = lazy.view_for(&store, Time(5), Time::MAX).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn a_deleted_segment_is_a_detected_gap() {
        let dir = ScratchDir::new("arch-gap");
        let store = ArchiveStore::with_fsync(dir.path(), false);
        store.append_run(0, 10, &history(&[(1, 2)])).unwrap();
        store.append_run(10, 20, &history(&[(12, 15)])).unwrap();
        std::fs::remove_file(segment_path(dir.path(), 0, 10)).unwrap();
        let err = store.coverage_end().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("coverage gap"), "{err}");
    }
}
