//! The three workloads. Each one generates its inputs from the seed,
//! brings a served child process up (several times, for `setup_s`),
//! drives it from at most two threads over at most two connections for
//! the measured seconds, then checks every answer against the
//! in-process reference.

use crate::check::Reference;
use crate::inputs::{self, AnalystOp, Sizes, Workload, BATCH, DEPTH, PROBE_EVERY_WINDOWS};
use crate::scrape::Scrape;
use crate::server::{ServerProc, Setup};
use crate::trace::{ReplayInput, Spans};
use ltam_bench::violation_multiset;
use ltam_engine::batch::Event;
use ltam_engine::Violation;
use ltam_serve::{wire, HistoryQuery, Request, Response};
use ltam_store::DurableEngine;
use ltam_time::{Interval, Time};
use std::io::{self, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// What a run needs besides the workload.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The `perfbench` executable (spawned as the server child).
    pub exe: PathBuf,
    /// A private, empty working directory for the run's stores.
    pub work: PathBuf,
    /// The workload seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Input sizes.
    pub sizes: Sizes,
    /// Record spans and keep the replay inputs.
    pub traced: bool,
}

/// Everything one run measured and checked.
#[derive(Debug)]
pub struct Outcome {
    /// Each set-up's time, in order.
    pub setup_s: Vec<f64>,
    /// The serving child's span around `DurableEngine::open` (0 when
    /// the store was created).
    pub open_s: f64,
    /// Wall time of the measured phase.
    pub elapsed_s: f64,
    /// Events durably acknowledged in the measured phase.
    pub acked_events: u64,
    /// Ingest latencies (pipelined windows, or open-loop frames from
    /// their due time), ms, in send order.
    pub ingest_ms: Vec<f64>,
    /// Answer latencies (swipes, probes or analyst requests), ms, in
    /// send order.
    pub answer_ms: Vec<f64>,
    /// Ingest requests attempted (pipelined windows, or 1-event frames).
    pub ingests_attempted: u64,
    /// Of those, acknowledged correctly within the limit.
    pub ingests_in_limit: u64,
    /// Answer-bearing requests attempted.
    pub answers_attempted: u64,
    /// Of those, answered correctly within the limit.
    pub answers_in_limit: u64,
    /// Operations attempted (frames due or sent, final checks).
    pub attempted: u64,
    /// Operations failed: transport error, error frame, missing reply
    /// or wrong answer.
    pub failed: u64,
    /// The first few failures, described.
    pub problems: Vec<String>,
    /// Server CPU (user + system) spent in the measured phase, s.
    pub cpu_s: f64,
    /// Server peak RSS, MiB.
    pub rss_mb: f64,
    /// Events the served store holds at the end (preload included).
    pub events_held: u64,
    /// Frame bytes (header included) of every event-carrying frame sent.
    pub wire_bytes: u64,
    /// Events carried by those frames.
    pub wire_events: u64,
    /// Open-loop send lateness, ms, per frame sent.
    pub late_ms: Vec<f64>,
    /// Open-loop frames due by the end but unanswered at the end.
    pub backlog: u64,
    /// Analyst `Status` requests answered.
    pub status_answered: u64,
    /// Client-side spans (empty unless traced).
    pub spans: Spans,
    /// The server's registry just before and just after the load.
    pub scrapes: (Scrape, Scrape),
    /// The write frames to replay per layer (traced runs only).
    pub replay: ReplayInput,
}

impl Outcome {
    fn new(spans: Spans) -> Outcome {
        Outcome {
            setup_s: Vec::new(),
            open_s: 0.0,
            elapsed_s: 0.0,
            acked_events: 0,
            ingest_ms: Vec::new(),
            answer_ms: Vec::new(),
            ingests_attempted: 0,
            ingests_in_limit: 0,
            answers_attempted: 0,
            answers_in_limit: 0,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            cpu_s: 0.0,
            rss_mb: 0.0,
            events_held: 0,
            wire_bytes: 0,
            wire_events: 0,
            late_ms: Vec::new(),
            backlog: 0,
            status_answered: 0,
            spans,
            scrapes: Default::default(),
            replay: ReplayInput::default(),
        }
    }

    /// Count one failed operation.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(what.into());
        }
    }

    fn absorb(&mut self, mut other: Outcome) {
        self.acked_events += other.acked_events;
        self.ingest_ms.append(&mut other.ingest_ms);
        self.answer_ms.append(&mut other.answer_ms);
        self.ingests_attempted += other.ingests_attempted;
        self.ingests_in_limit += other.ingests_in_limit;
        self.answers_attempted += other.answers_attempted;
        self.answers_in_limit += other.answers_in_limit;
        self.attempted += other.attempted;
        self.wire_bytes += other.wire_bytes;
        self.wire_events += other.wire_events;
        self.status_answered += other.status_answered;
        self.failed += other.failed;
        let room = 8usize.saturating_sub(self.problems.len());
        self.problems.extend(other.problems.into_iter().take(room));
        self.spans.absorb(other.spans);
        self.replay.frames.append(&mut other.replay.frames);
    }
}

/// The largest reply frame read: the final whole-history violation
/// report of a long run is well past the protocol's default cap.
const MAX_REPLY_BYTES: u32 = 256 << 20;

/// One loopback connection speaking the wire protocol directly.
struct Conn {
    stream: TcpStream,
}

impl Conn {
    fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn { stream })
    }

    fn send(&mut self, frames: &[u8]) -> Result<(), String> {
        self.stream
            .write_all(frames)
            .map_err(|e| format!("send: {e}"))
    }

    fn recv(&mut self) -> Result<Vec<u8>, String> {
        wire::read_frame(&mut self.stream, MAX_REPLY_BYTES).map_err(|e| format!("receive: {e}"))
    }

    fn call(&mut self, request: &Request) -> Result<Response, String> {
        self.send(&frame(request))?;
        decode(&self.recv()?)
    }

    fn scrape(&mut self) -> Result<Scrape, String> {
        match self.call(&Request::Metrics)? {
            Response::Metrics { text } => Scrape::parse(&text),
            other => Err(format!("metrics answered with {}", kind(&other))),
        }
    }
}

/// A request as a complete frame (header + payload).
fn frame(request: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    wire::write_frame(&mut out, &wire::encode_request(request)).expect("writing to a Vec");
    out
}

fn decode(payload: &[u8]) -> Result<Response, String> {
    wire::decode_response(payload).map_err(|e| format!("undecodable reply: {e}"))
}

/// A short description of an unexpected reply, for failure reports.
fn kind(response: &Response) -> String {
    format!("{response:?}").chars().take(120).collect()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Brings the served child up `setups` times (all but the last are
/// set-up-only children) and returns the serving one.
fn bring_up(
    ctx: &Ctx,
    workload: Workload,
    setup: Setup,
    out: &mut Outcome,
) -> Result<ServerProc, String> {
    let store = ctx.work.join("store");
    for k in 1..ctx.sizes.setups.max(1) {
        let dir = match setup {
            Setup::Create => ctx.work.join(format!("setup-{k}")),
            Setup::Open => store.clone(),
        };
        let proc = ServerProc::spawn(&ctx.exe, workload, ctx.seed, &dir, setup, true)
            .map_err(|e| format!("set-up {k}: {e}"))?;
        out.setup_s.push(proc.times.setup_s);
        proc.stop().map_err(|e| format!("set-up {k}: {e}"))?;
        if setup == Setup::Create {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
        }
    }
    let proc = ServerProc::spawn(&ctx.exe, workload, ctx.seed, &store, setup, false)
        .map_err(|e| format!("serving set-up: {e}"))?;
    out.setup_s.push(proc.times.setup_s);
    out.open_s = proc.times.open_s;
    Ok(proc)
}

/// The per-run state of one pipelined writer connection.
struct Writer<'a> {
    conn: Conn,
    stream: &'a [Event],
    /// Events of `stream` sent (and, the loop being closed, answered).
    pos: usize,
    /// Op ids of this connection are `tag << 40 | n`.
    tag: u64,
    ops: u64,
    /// Send a `Check` probe every [`PROBE_EVERY_WINDOWS`] windows.
    probes: bool,
    /// `(stream position, granted, latency ms)` of each probe answered.
    probe_answers: Vec<(usize, bool, f64)>,
    /// The stream ran out before the deadline.
    exhausted: bool,
    /// When the last answered op completed.
    end: Instant,
}

impl<'a> Writer<'a> {
    fn new(conn: Conn, stream: &'a [Event], tag: u64, probes: bool) -> Writer<'a> {
        Writer {
            conn,
            stream,
            pos: 0,
            tag,
            ops: 0,
            probes,
            probe_answers: Vec::new(),
            exhausted: false,
            end: Instant::now(),
        }
    }

    fn next_op(&mut self) -> u64 {
        self.ops += 1;
        (self.tag << 40) | self.ops
    }

    /// Closed loop until `deadline`: pipelined windows of [`DEPTH`]
    /// `Ingest` frames of [`BATCH`] events, plus `Check` probes.
    fn run(&mut self, deadline: Instant, out: &mut Outcome) {
        let mut windows = 0usize;
        let mut probe_due = false;
        while Instant::now() < deadline {
            if self.pos >= self.stream.len() {
                self.exhausted = true;
                break;
            }
            if probe_due && matches!(self.stream[self.pos], Event::Request { .. }) {
                probe_due = false;
                if let Err(e) = self.probe(out) {
                    out.fail(e);
                    break;
                }
                continue;
            }
            if let Err(e) = self.window(out) {
                out.fail(e);
                break;
            }
            windows += 1;
            probe_due |= self.probes && windows.is_multiple_of(PROBE_EVERY_WINDOWS);
        }
    }

    fn window(&mut self, out: &mut Outcome) -> Result<(), String> {
        let start = Instant::now();
        let rest = &self.stream[self.pos..];
        let batches: Vec<&[Event]> = rest.chunks(BATCH).take(DEPTH).collect();
        let mut bytes = Vec::new();
        let mut encodes = Vec::with_capacity(batches.len());
        let mut requests = Vec::with_capacity(batches.len());
        for batch in &batches {
            let t = Instant::now();
            let request = Request::Ingest(batch.to_vec());
            bytes.extend_from_slice(&frame(&request));
            encodes.push((t, Instant::now()));
            requests.push(request);
        }
        out.attempted += batches.len() as u64;
        out.ingests_attempted += 1;
        out.wire_bytes += bytes.len() as u64;
        self.conn.send(&bytes)?;
        let mut all_acked = true;
        for (i, batch) in batches.iter().enumerate() {
            let payload = self.conn.recv()?;
            let t = Instant::now();
            let reply = decode(&payload)?;
            let done = Instant::now();
            match reply {
                Response::Ingested { processed, .. } if processed == batch.len() => {
                    out.acked_events += processed as u64;
                    out.wire_events += processed as u64;
                }
                other => {
                    all_acked = false;
                    out.fail(format!("ingest answered with {}", kind(&other)));
                }
            }
            let op = self.next_op();
            out.spans.request(op, (start, done), encodes[i], (t, done));
            self.end = done;
        }
        let latency = ms(self.end - start);
        out.ingest_ms.push(latency);
        out.ingests_in_limit += u64::from(all_acked && latency <= limit_ms());
        self.pos += batches.iter().map(|b| b.len()).sum::<usize>();
        if out.spans.on() {
            out.replay.frames.extend(requests);
        }
        Ok(())
    }

    fn probe(&mut self, out: &mut Outcome) -> Result<(), String> {
        let event = self.stream[self.pos];
        let start = Instant::now();
        let request = Request::Check(event);
        let bytes = frame(&request);
        let encoded = Instant::now();
        out.attempted += 1;
        out.answers_attempted += 1;
        out.wire_bytes += bytes.len() as u64;
        self.conn.send(&bytes)?;
        let payload = self.conn.recv()?;
        let t = Instant::now();
        let reply = decode(&payload)?;
        let done = Instant::now();
        let latency = ms(done - start);
        match reply {
            Response::Access { granted } => {
                out.acked_events += 1;
                out.wire_events += 1;
                self.probe_answers.push((self.pos, granted, latency));
            }
            other => out.fail(format!("check answered with {}", kind(&other))),
        }
        out.answer_ms.push(latency);
        let op = self.next_op();
        out.spans
            .request(op, (start, done), (start, encoded), (t, done));
        if out.spans.on() {
            out.replay.frames.push(request);
        }
        self.end = done;
        self.pos += 1;
        Ok(())
    }
}

/// Send the final deterministic tick and read back every violation.
fn final_violations(conn: &mut Conn, tick: Event) -> Result<Vec<Violation>, String> {
    match conn.call(&Request::Ingest(vec![tick]))? {
        Response::Ingested { processed: 1, .. } => {}
        other => return Err(format!("final tick answered with {}", kind(&other))),
    }
    match conn.call(&Request::Query(HistoryQuery::ViolationsIn {
        window: Interval::ALL,
    }))? {
        Response::Violations { violations } => Ok(violation_multiset(violations)),
        other => Err(format!("violation report answered with {}", kind(&other))),
    }
}

/// Compare the served final violation multiset with the reference's
/// (one operation of the correctness gate).
fn gate_violations(
    out: &mut Outcome,
    conn: &mut Conn,
    tick: Event,
    reference: &mut Reference,
) -> Result<(), String> {
    reference.apply(&tick);
    let served = final_violations(conn, tick)?;
    out.attempted += 1;
    let expected = reference.violations();
    if served != expected {
        out.fail(format!(
            "final violation multiset differs: served {}, reference {}",
            served.len(),
            expected.len()
        ));
    }
    Ok(())
}

/// The final tick: one past the last time in the generated trace.
fn final_tick(events: &[Event]) -> Event {
    let last = events.iter().map(Event::time).max().unwrap_or(Time::ZERO);
    Event::Tick {
        now: Time(last.get() + 1),
    }
}

/// The server's registry and CPU clock at the start of the load.
struct Baseline {
    scrape: Scrape,
    cpu_s: f64,
}

fn begin(server: &ServerProc, conn: &mut Conn) -> Result<Baseline, String> {
    Ok(Baseline {
        scrape: conn.scrape()?,
        cpu_s: server.cpu_seconds().map_err(|e| e.to_string())?,
    })
}

fn end(
    server: &ServerProc,
    conn: &mut Conn,
    base: Baseline,
    out: &mut Outcome,
) -> Result<(), String> {
    out.cpu_s = server.cpu_seconds().map_err(|e| e.to_string())? - base.cpu_s;
    out.rss_mb = server.peak_rss_mb().map_err(|e| e.to_string())?;
    out.events_held = out.acked_events;
    out.scrapes = (base.scrape, conn.scrape()?);
    Ok(())
}

fn connect(server: &ServerProc) -> Result<Conn, String> {
    Conn::connect(&server.addr).map_err(|e| format!("connect: {e}"))
}

/// Run `workload` once; span times count from `epoch`.
pub fn run(workload: Workload, ctx: &Ctx, epoch: Instant) -> Result<Outcome, String> {
    let mut out = Outcome::new(Spans::new(ctx.traced, epoch));
    match workload {
        Workload::SensorIngest => sensor_ingest(ctx, &mut out)?,
        Workload::DoorSwipes => door_swipes(ctx, &mut out)?,
        Workload::ContactTracing => contact_tracing(ctx, &mut out)?,
    }
    Ok(out)
}

/// Two closed-loop connections stream pipelined windows from an empty
/// store; each probes with a `Check` every few windows.
fn sensor_ingest(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let n = (ctx.seconds * ctx.sizes.writer_events_per_s as f64) as usize;
    let mut world = inputs::trace(ctx.seed, n);
    let tick = final_tick(&world.events);
    let streams = inputs::streams(&world.events, 2);
    world.events = Vec::new(); // the streams hold them now

    let server = bring_up(ctx, Workload::SensorIngest, Setup::Create, out)?;
    let mut first = connect(&server)?;
    let second = connect(&server)?;
    let base = begin(&server, &mut first)?;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(ctx.seconds);
    let mut side = Outcome::new(out.spans.sibling());
    let (mut w0, w1) = std::thread::scope(|scope| {
        let side = &mut side;
        let streams = &streams;
        let handle = scope.spawn(move || {
            let mut w = Writer::new(second, &streams[1], 1, true);
            w.run(deadline, side);
            w
        });
        let mut w = Writer::new(first, &streams[0], 0, true);
        w.run(deadline, out);
        (w, handle.join().expect("writer thread panicked"))
    });
    out.elapsed_s = (w0.end.max(w1.end) - start).as_secs_f64();
    out.absorb(side);
    end(&server, &mut w0.conn, base, out)?;
    if w0.exhausted || w1.exhausted {
        out.fail("the generated trace ran out before the deadline");
    }

    // The reference: each stream's sent prefix (per-subject order is
    // all enforcement depends on), checking every probe's decision.
    let mut reference = Reference::new(&world, &[]);
    for (w, stream) in [&w0, &w1].into_iter().zip(&streams) {
        let mut probes = w.probe_answers.iter().peekable();
        for (pos, e) in stream[..w.pos].iter().enumerate() {
            let decision = reference.apply(e);
            if let Some(&&(probe_pos, granted, latency)) = probes.peek() {
                if probe_pos == pos {
                    probes.next();
                    if decision == Some(granted) {
                        out.answers_in_limit += u64::from(latency <= limit_ms());
                    } else {
                        out.fail(format!("probe at {pos} answered granted={granted}"));
                    }
                }
            }
        }
    }
    gate_violations(out, &mut w0.conn, tick, &mut reference)?;
    server.stop().map_err(|e| e.to_string())?;
    Ok(())
}

fn limit_ms() -> f64 {
    ms(inputs::LIMIT)
}

/// One open-loop connection: a writer thread sends one frame per trace
/// event on a fixed schedule, a reader thread collects the replies.
fn door_swipes(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let rate = ctx.sizes.swipe_rate;
    let length = Duration::from_secs_f64(ctx.seconds);
    let due = inputs::frames_before(length, rate);
    let world = inputs::trace(ctx.seed, due);
    let events = &world.events[..due];
    let tick = final_tick(&world.events);
    let situation = inputs::situation_ops(Workload::DoorSwipes, ctx.seed);
    // The reference decision of every swipe, before the run.
    let expected: Vec<Option<bool>> = {
        let mut reference = Reference::new(&world, &situation);
        events.iter().map(|e| reference.apply(e)).collect()
    };
    let frames: Vec<Request> = events
        .iter()
        .map(|e| match e {
            Event::Request { .. } => Request::Check(*e),
            _ => Request::Ingest(vec![*e]),
        })
        .collect();

    let server = bring_up(ctx, Workload::DoorSwipes, Setup::Create, out)?;
    let mut conn = connect(&server)?;
    let base = begin(&server, &mut conn)?;
    let mut reader = conn
        .stream
        .try_clone()
        .map_err(|e| format!("clone connection: {e}"))?;
    let start = Instant::now();
    let deadline = start + length;
    let mut sends: Vec<(Instant, Instant)> = Vec::with_capacity(due);
    let mut send_error = None;
    let replies = std::thread::scope(|scope| {
        // The writer sends exactly `due` frames, so the reader blocks
        // for exactly that many replies.
        let handle = scope.spawn(move || {
            let mut replies: Vec<(Instant, Result<Response, String>, Instant)> =
                Vec::with_capacity(due);
            for _ in 0..due {
                match wire::read_frame(&mut reader, MAX_REPLY_BYTES) {
                    Ok(payload) => {
                        let t = Instant::now();
                        let reply = decode(&payload);
                        replies.push((t, reply, Instant::now()));
                    }
                    Err(e) => {
                        let t = Instant::now();
                        replies.push((t, Err(format!("receive: {e}")), t));
                        break;
                    }
                }
            }
            replies
        });
        // Every frame due before the deadline is sent, late if the
        // writer fell behind: lateness is the generator's, not a failure.
        for (i, request) in frames.iter().enumerate() {
            let due_at = start + inputs::due_offset(i, rate);
            let now = Instant::now();
            if due_at > now {
                std::thread::sleep(due_at - now);
            }
            let t = Instant::now();
            let bytes = frame(request);
            let encoded = Instant::now();
            if let Err(e) = conn.send(&bytes) {
                send_error = Some(e);
                break;
            }
            out.wire_bytes += bytes.len() as u64;
            sends.push((t, encoded));
        }
        handle.join().expect("reader thread panicked")
    });
    if let Some(e) = send_error {
        out.fail(e);
    }

    let last_reply = replies.iter().map(|r| r.2).max().unwrap_or(start);
    out.elapsed_s = (last_reply - start).as_secs_f64();
    out.attempted += due as u64;
    out.wire_events += sends.len() as u64;
    let mut answered_by_deadline = 0u64;
    for (i, want) in expected.iter().enumerate() {
        let due_at = start + inputs::due_offset(i, rate);
        if let Some(&(t, _)) = sends.get(i) {
            out.late_ms.push(ms(t - due_at));
        }
        if want.is_some() {
            out.answers_attempted += 1;
        } else {
            out.ingests_attempted += 1;
        }
        let Some((t, reply, done)) = replies.get(i) else {
            out.fail(format!("frame {i} got no reply"));
            continue;
        };
        let latency = ms(done.saturating_duration_since(due_at));
        answered_by_deadline += u64::from(*done <= deadline);
        out.spans
            .request(i as u64, (due_at, *done), sends[i], (*t, *done));
        match (want, reply) {
            (Some(granted), Ok(Response::Access { granted: got })) => {
                out.acked_events += 1;
                out.answer_ms.push(latency);
                if got == granted {
                    out.answers_in_limit += u64::from(latency <= limit_ms());
                } else {
                    out.fail(format!("swipe {i} answered granted={got}"));
                }
            }
            (None, Ok(Response::Ingested { processed: 1, .. })) => {
                out.acked_events += 1;
                out.ingest_ms.push(latency);
                out.ingests_in_limit += u64::from(latency <= limit_ms());
            }
            (_, Ok(other)) => out.fail(format!("frame {i} answered with {}", kind(other))),
            (_, Err(e)) => out.fail(format!("frame {i}: {e}")),
        }
    }
    out.backlog = due as u64 - answered_by_deadline;
    end(&server, &mut conn, base, out)?;
    if out.spans.on() {
        out.replay.frames = frames[..sends.len()].to_vec();
    }

    let mut reference = Reference::new(&world, &situation);
    for e in &events[..sends.len()] {
        reference.apply(e);
    }
    gate_violations(out, &mut conn, tick, &mut reference)?;
    server.stop().map_err(|e| e.to_string())?;
    Ok(())
}

/// Preload a large history (untimed), recover it, then run a pipelined
/// writer beside a closed-loop analyst.
fn contact_tracing(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let preload_n = ctx.sizes.preload;
    let n = preload_n + (ctx.seconds * ctx.sizes.writer_events_per_s as f64) as usize;
    let world = inputs::trace(ctx.seed, n);
    let tick = final_tick(&world.events);
    let (preload, post) = world.events.split_at(preload_n);
    let cut = post.iter().map(Event::time).min().unwrap_or(Time::ZERO);
    let analyst = inputs::analyst_ops(
        ctx.seed,
        (ctx.seconds * 5_000.0) as usize,
        cut,
        &inputs::locations(ctx.seed),
    );
    prepare(&ctx.work.join("store"), &world, preload)?;

    let server = bring_up(ctx, Workload::ContactTracing, Setup::Open, out)?;
    let writer_conn = connect(&server)?;
    let mut conn = connect(&server)?;
    let base = begin(&server, &mut conn)?;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(ctx.seconds);
    let mut side = Outcome::new(out.spans.sibling());
    let mut answers: Vec<(usize, Result<Response, String>, f64)> = Vec::new();
    let mut analyst_end = start;
    let writer = std::thread::scope(|scope| {
        let side = &mut side;
        let handle = scope.spawn(move || {
            let mut w = Writer::new(writer_conn, post, 0, false);
            w.run(deadline, side);
            w
        });
        for (i, op) in analyst.iter().enumerate() {
            if Instant::now() >= deadline {
                break;
            }
            let request = match op {
                AnalystOp::Query(q) => Request::Query(*q),
                AnalystOp::Metrics => Request::Metrics,
            };
            let t0 = Instant::now();
            let bytes = frame(&request);
            let t1 = Instant::now();
            out.attempted += 1;
            out.answers_attempted += 1;
            let reply = conn.send(&bytes).and_then(|()| conn.recv());
            let t2 = Instant::now();
            let reply = reply.and_then(|p| decode(&p));
            let t3 = Instant::now();
            out.spans
                .request((2 << 40) | i as u64, (t0, t3), (t0, t1), (t2, t3));
            let failed = reply.is_err();
            answers.push((i, reply, ms(t3 - t0)));
            analyst_end = t3;
            if failed {
                break;
            }
        }
        handle.join().expect("writer thread panicked")
    });
    out.elapsed_s = (writer.end.max(analyst_end) - start).as_secs_f64();
    out.absorb(side);
    end(&server, &mut conn, base, out)?;
    out.events_held += preload_n as u64;
    if writer.exhausted {
        out.fail("the generated trace ran out before the deadline");
    }
    if answers.len() == analyst.len() {
        out.fail("the generated analyst requests ran out before the deadline");
    }
    if out.spans.on() {
        out.replay.preload = preload.to_vec();
    }

    // Every analyst answer is fixed by the preloaded history alone.
    let mut reference = Reference::new(&world, &[]);
    for e in preload {
        reference.apply(e);
    }
    for (i, reply, latency) in answers {
        out.answer_ms.push(latency);
        let correct = match (&analyst[i], reply) {
            (AnalystOp::Query(HistoryQuery::Status), Ok(Response::Status { status })) => {
                out.status_answered += 1;
                status.events_ingested >= preload_n as u64
            }
            (AnalystOp::Query(q), Ok(served)) => reference.answers(q, &served),
            (AnalystOp::Metrics, Ok(Response::Metrics { text })) => Scrape::parse(&text).is_ok(),
            (_, Ok(_)) => false,
            (_, Err(e)) => {
                out.fail(format!("analyst request {i}: {e}"));
                continue;
            }
        };
        if correct {
            out.answers_in_limit += u64::from(latency <= limit_ms());
        } else {
            out.fail(format!(
                "analyst request {i} ({:?}) answered wrongly",
                analyst[i]
            ));
        }
    }
    for e in &post[..writer.pos] {
        reference.apply(e);
    }
    gate_violations(out, &mut conn, tick, &mut reference)?;
    server.stop().map_err(|e| e.to_string())?;
    Ok(())
}

/// The untimed prep phase: a store holding `preload`, left as a
/// snapshot at three quarters of it plus a WAL tail.
fn prepare(dir: &Path, world: &ltam_sim::TraceWorld, preload: &[Event]) -> Result<(), String> {
    let (mut engine, alerts) = DurableEngine::create(
        dir,
        world.build_policy_core(),
        inputs::SHARDS,
        inputs::store_config(),
    )
    .map_err(|e| format!("prep: create store: {e}"))?;
    drop(alerts);
    let (head, tail) = preload.split_at(preload.len() * 3 / 4);
    for chunk in head.chunks(4096) {
        engine
            .ingest(chunk)
            .map_err(|e| format!("prep: ingest: {e}"))?;
    }
    engine
        .snapshot()
        .map_err(|e| format!("prep: snapshot: {e}"))?;
    for chunk in tail.chunks(4096) {
        engine
            .ingest(chunk)
            .map_err(|e| format!("prep: ingest: {e}"))?;
    }
    Ok(())
}
