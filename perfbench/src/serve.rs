//! `serve_tcp`: the real-time decode service over loopback TCP.
//!
//! The recommended architecture at 10X gates, d=5 (about 0.37 expected
//! faults per shot, so decoding is light), four streams sending shot-major
//! `frames_packed` words through `NetClient` to a `NetServer` whose
//! `ServiceConfig` is the default apart from `workers = nproc`. Batcher,
//! delivery and the wire dominate here, and `decode_batch` runs
//! latency-first on partial 64-shot words rather than on 16k-shot chunks.
//!
//! The untraced run is twelve rounds, each on a server set up from a cold
//! compile cache, so the set-up is timed at twelve moments of the run. A
//! round is three segments:
//!
//! * warm-up: a quarter second of the open-loop schedule, untimed;
//! * phase A, open loop: half a second of 50k shots/s in all, each stream
//!   sending a 16-shot block every 1.28 ms (staggered by 320 µs across
//!   streams, so most words leave partial on the 500 µs flush deadline); a
//!   block's latency runs from its **due** time to its last correction, and
//!   the generator's own lateness is reported as its lag. Quantiles are taken
//!   per 0.25 s window and the median over windows is reported. On a 2-vCPU
//!   host 200k shots/s sits at 40–60% of the closed-loop capacity and its
//!   median latency flips between two modes from run to run; at 50k shots/s
//!   it repeats within a few percent;
//! * phase B, closed loop: a fixed batch of about a second's shots, each
//!   stream keeping at most 16 words (1024 shots) in flight and sending up
//!   to 8 words per call; throughput is shots over the summed time from each
//!   segment's start to its last correction.
//!
//! The host's speed moves by 10–30% from one second to the next, so the
//! closed loop is measured over twelve short segments spread across the
//! run, about 1.3 × `--seconds` in all: with four segments and half as
//! much time, two sets of ten runs spread by 10% and 26%. A run lasts
//! about 2.5 × `--seconds`.
//!
//! Each segment's shots are sampled, and decoded offline by
//! `DecodeProgram::decode_batch` for reference, just before it runs and
//! dropped after it; the collectors compare every correction with that
//! reference as it arrives and keep one arrival time per phase-A block. So
//! the harness holds one segment's inputs at a time, and the peak RSS is
//! mostly the service's.
//!
//! One generator thread per connection and at most `nproc` connections,
//! both checked at run time. The load generator here replaces
//! `qccd_service::loadgen` as the latency source: loadgen times each shot
//! from when it was actually sent.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use qccd_core::{compile_cache, ArchitectureConfig};
use qccd_decoder::{DecodeScratch, DecoderKind};
use qccd_service::{
    Correction, DecodeProgram, DecodeService, NetClient, NetServer, ServiceConfig, StreamSender,
    WordBlock,
};
use qccd_sim::{block_seed, sample_detector_chunks, CANONICAL_BLOCK_SHOTS};

use crate::openloop::{self, LagAccount, OpenLoop};
use crate::report::Values;
use crate::stats::{self, Summary};
use crate::trace::Tracer;
use crate::util::{self, Checks};
use crate::{Ctx, Outcome};

/// Code distance of the served program.
pub const DISTANCE: usize = 5;
/// Streams opened on the service.
pub const STREAMS: usize = 4;
/// Phase A's offered load over all streams, shots per second.
pub const OPEN_RATE: f64 = 50_000.0;
/// Shots per phase-A submission.
pub const OPEN_BLOCK: usize = 16;
/// Phase B's per-stream window of words in flight.
pub const WINDOW_WORDS: usize = 16;
/// Most words one phase-B call submits.
const MAX_WORDS_PER_CALL: usize = 8;
/// Warm-up length.
const WARM_S: f64 = 0.25;
/// Phase B sends a fixed number of shots, sized from `--seconds` at this
/// nominal rate so that it lasts about 1.3 × `--seconds`.
const CLOSED_NOMINAL_RATE: f64 = 400_000.0;
/// Rounds of the untraced run.
const ROUNDS: usize = 12;
/// Cold set-ups timed before each round of the untraced run; `setup_s` is
/// the median over all rounds.
const SETUPS_PER_ROUND: usize = 2;
/// A segment that makes no progress for this long is abandoned.
const STALL_TIMEOUT: Duration = Duration::from_secs(30);
/// Phase A's latency quantiles are taken per window of this many ns of
/// due time and reported as the median over windows.
const OPEN_WINDOW_NS: u64 = 250_000_000;

/// The served architecture.
pub fn arch() -> ArchitectureConfig {
    ArchitectureConfig::recommended(10.0)
}

/// A shot-major block: one plane word per detector and the shot count.
pub type Block = (Vec<u64>, usize);

/// What a segment of the run does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Open-loop schedule, untimed.
    Warm,
    /// Open-loop schedule, timed from due time (phase A).
    Open,
    /// Closed loop with a window of words in flight (phase B).
    Closed,
}

/// Per-stream sizes of `rounds` rounds of one phase-A and one phase-B
/// segment: interleaving samples each phase at several moments, so a host
/// that slows down for a few seconds moves both phases a little instead of
/// one phase a lot.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Warm-up blocks of [`OPEN_BLOCK`] shots.
    pub warm_blocks: usize,
    /// Phase-A blocks of [`OPEN_BLOCK`] shots per round.
    pub open_blocks: usize,
    /// Phase-B words of 64 shots per round.
    pub closed_words: usize,
    /// Rounds of phase A and phase B.
    pub rounds: usize,
}

/// Time between one stream's phase-A blocks.
fn period_ns() -> u64 {
    (OPEN_BLOCK as f64 / (OPEN_RATE / STREAMS as f64) * 1e9).round() as u64
}

/// Phase-A offset of stream `s`: the streams' schedules are staggered
/// evenly over one period.
fn offset_ns(s: usize) -> u64 {
    period_ns() * s as u64 / STREAMS as u64
}

/// Blocks of [`OPEN_BLOCK`] shots that cover `secs` of one stream's
/// schedule, rounded up to whole 64-shot words (so half a second holds two
/// whole latency windows).
fn open_blocks_for(secs: f64) -> usize {
    let per_word = 64 / OPEN_BLOCK;
    let blocks = (secs * 1e9 / period_ns() as f64).ceil() as usize;
    blocks.div_ceil(per_word).max(1) * per_word
}

impl Plan {
    /// The workload's plan: 0.6 × `seconds` of phase A and a phase-B batch
    /// sized to last about 1.3 × `seconds`, each split over [`ROUNDS`]
    /// rounds.
    pub fn full(seconds: u64) -> Plan {
        let rounds = ROUNDS;
        let closed_shots = seconds as f64 * 1.2 * CLOSED_NOMINAL_RATE / STREAMS as f64;
        Plan {
            warm_blocks: open_blocks_for(WARM_S),
            open_blocks: open_blocks_for(seconds as f64 * 0.6 / rounds as f64),
            closed_words: (closed_shots / 64.0 / rounds as f64).round().max(1.0) as usize,
            rounds,
        }
    }

    /// A short plan for traced runs of the other workloads.
    pub fn light() -> Plan {
        Plan {
            warm_blocks: open_blocks_for(0.1),
            open_blocks: open_blocks_for(0.5),
            closed_words: 256,
            rounds: 1,
        }
    }

    /// The segments of the whole plan on one server: a warm-up, then the
    /// rounds.
    pub fn segments(&self) -> Vec<Kind> {
        let mut out = vec![Kind::Warm];
        for _ in 0..self.rounds {
            out.extend([Kind::Open, Kind::Closed]);
        }
        out
    }

    /// Shots one stream sends in a segment of `kind`.
    fn shots(&self, kind: Kind) -> usize {
        match kind {
            Kind::Warm => self.warm_blocks * OPEN_BLOCK,
            Kind::Open => self.open_blocks * OPEN_BLOCK,
            Kind::Closed => self.closed_words * 64,
        }
    }
}

/// One stream's share of a segment: its blocks and the corrections the
/// offline `DecodeProgram::decode_batch` gives for the same shots, in
/// sequence order.
struct SegmentInput {
    blocks: Vec<Block>,
    expected: Vec<u64>,
}

/// Samples `shots` shots from `seed` in blocks of `block` shots and decodes
/// them offline for reference.
fn segment_input(
    program: &DecodeProgram,
    seed: u64,
    shots: usize,
    block: usize,
) -> Result<SegmentInput, String> {
    let sampler = sample_detector_chunks(program.circuit(), shots, seed, 4 * CANONICAL_BLOCK_SHOTS)
        .map_err(|e| format!("dangling {e:?}"))?;
    let mut scratch = DecodeScratch::new();
    let mut blocks = Vec::with_capacity(shots / block);
    let mut expected = Vec::with_capacity(shots);
    let mut planes = Vec::new();
    let mask = if block == 64 {
        u64::MAX
    } else {
        (1u64 << block) - 1
    };
    for i in 0..sampler.num_chunks() {
        let chunk = sampler.sample_chunk(i);
        for w in 0..chunk.words() {
            chunk.word_block_into(w, &mut planes);
            for part in 0..64 / block {
                let shift = part * block;
                blocks.push((planes.iter().map(|p| (p >> shift) & mask).collect(), block));
            }
        }
        let prediction = program.decode_batch(&chunk, &mut scratch);
        expected.extend((0..chunk.num_shots()).map(|shot| {
            (0..prediction.num_observables())
                .filter(|&o| prediction.predicted(shot, o))
                .fold(0u64, |acc, o| acc | 1 << o)
        }));
    }
    Ok(SegmentInput { blocks, expected })
}

/// Where a generator thread submits blocks.
trait Transport: Send {
    /// Span name of one submit call.
    fn span_name(&self) -> &'static str;
    /// Submits `blocks` on stream `stream`.
    ///
    /// # Errors
    ///
    /// Transport or admission errors, as text.
    fn submit(&mut self, stream: usize, blocks: &[Block]) -> Result<(), String>;
}

/// One TCP connection and the server ids of its streams.
struct TcpConn {
    client: NetClient,
    ids: HashMap<usize, u64>,
}

impl Transport for TcpConn {
    fn span_name(&self) -> &'static str {
        "net.submit"
    }

    fn submit(&mut self, stream: usize, blocks: &[Block]) -> Result<(), String> {
        self.client.submit_packed_words(self.ids[&stream], blocks)
    }
}

/// In-process stream senders of one generator.
struct LocalConn {
    senders: HashMap<usize, StreamSender>,
}

impl Transport for LocalConn {
    fn span_name(&self) -> &'static str {
        "service.submit"
    }

    fn submit(&mut self, stream: usize, blocks: &[Block]) -> Result<(), String> {
        let words: Vec<WordBlock<'_>> = blocks
            .iter()
            .map(|(planes, count)| WordBlock {
                planes,
                count: *count,
            })
            .collect();
        self.senders[&stream]
            .submit_word_batch(&words)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }
}

/// Blocking receive with a timeout, per stream.
type Receiver = Box<dyn FnMut(Duration) -> Option<Correction> + Send>;

/// What a collector saw of one stream's segment.
#[derive(Debug, Default)]
struct Collected {
    /// Corrections received.
    received: usize,
    /// Corrections missing, out of order or different from the reference.
    wrong: usize,
    /// Phase A only: arrival of each block's last correction, ns.
    block_done: Vec<u64>,
    /// Arrival of the last correction, ns.
    last_ns: u64,
}

/// One segment in flight, shared by its generator and collector threads.
struct Segment<'a> {
    epoch: Instant,
    kind: Kind,
    /// Due time of the segment's start, ns after the epoch.
    start: u64,
    /// Sequence number of the segment's first shot on every stream.
    base: u64,
    inputs: &'a [SegmentInput],
    generators: usize,
    /// Corrections received so far, per stream.
    received: Vec<AtomicU64>,
    abort: AtomicBool,
    active: AtomicUsize,
    max_active: AtomicUsize,
    tracer: &'a Tracer,
    parent: Option<u64>,
}

impl Segment<'_> {
    /// Sends the segment's blocks of `streams` on the open-loop schedule,
    /// recording lag into `lag`.
    fn open_loop<T: Transport>(
        &self,
        conn: &mut T,
        streams: &[usize],
        lag: &mut LagAccount,
    ) -> Result<(), String> {
        let schedules: Vec<OpenLoop> = streams
            .iter()
            .map(|&s| OpenLoop {
                period_ns: period_ns(),
                offset_ns: self.start + offset_ns(s),
            })
            .collect();
        let counts: Vec<u64> = streams
            .iter()
            .map(|&s| self.inputs[s].blocks.len() as u64)
            .collect();
        for (due, j, k) in openloop::merged(&schedules, &counts) {
            openloop::wait_until(self.epoch, due);
            if self.abort.load(Ordering::Relaxed) {
                return Err("aborted".into());
            }
            lag.record(due, openloop::since_ns(self.epoch));
            let s = streams[j];
            let k = k as usize;
            let _span = self.tracer.span(conn.span_name());
            conn.submit(s, &self.inputs[s].blocks[k..k + 1])?;
        }
        Ok(())
    }

    /// Phase B: sends the segment's words of `streams`, keeping at most
    /// [`WINDOW_WORDS`] words of each stream in flight.
    fn closed_loop<T: Transport>(&self, conn: &mut T, streams: &[usize]) -> Result<(), String> {
        openloop::wait_until(self.epoch, self.start);
        let mut next = vec![0usize; streams.len()];
        loop {
            let mut pending = false;
            let mut sent = false;
            for (j, &s) in streams.iter().enumerate() {
                let words = &self.inputs[s].blocks;
                if next[j] == words.len() {
                    continue;
                }
                pending = true;
                let submitted = 64 * next[j] as u64;
                let in_flight = submitted.saturating_sub(self.received[s].load(Ordering::Relaxed));
                let room = WINDOW_WORDS.saturating_sub(in_flight.div_ceil(64) as usize);
                if room == 0 {
                    continue;
                }
                let take = room.min(MAX_WORDS_PER_CALL).min(words.len() - next[j]);
                let _span = self.tracer.span(conn.span_name());
                conn.submit(s, &words[next[j]..next[j] + take])?;
                next[j] += take;
                sent = true;
            }
            if !pending {
                return Ok(());
            }
            if self.abort.load(Ordering::Relaxed) {
                return Err("aborted".into());
            }
            if !sent {
                std::thread::sleep(Duration::from_micros(50));
            }
        }
    }

    /// Generator `g`: sends the segment on its streams. A failure aborts the
    /// segment, so the collectors stop waiting.
    fn generate<T: Transport>(&self, g: usize, conn: &mut T) -> (LagAccount, Option<String>) {
        let active = self.active.fetch_add(1, Ordering::SeqCst) + 1;
        self.max_active.fetch_max(active, Ordering::SeqCst);
        let streams: Vec<usize> = (0..STREAMS).filter(|s| s % self.generators == g).collect();
        let mut lag = LagAccount::default();
        let sent = match self.kind {
            Kind::Warm => {
                let _span = self.tracer.span_under("bench.warmup", self.parent);
                self.open_loop(conn, &streams, &mut LagAccount::default())
            }
            Kind::Open => {
                let _span = self.tracer.span_under("bench.open_loop", self.parent);
                self.open_loop(conn, &streams, &mut lag)
            }
            Kind::Closed => {
                let _span = self.tracer.span_under("bench.closed_loop", self.parent);
                self.closed_loop(conn, &streams)
            }
        };
        self.active.fetch_sub(1, Ordering::SeqCst);
        match sent {
            Ok(()) => (lag, None),
            Err(e) => {
                self.abort.store(true, Ordering::SeqCst);
                (lag, Some(format!("generator {g} ({:?}): {e}", self.kind)))
            }
        }
    }

    /// Collects stream `s`'s corrections of the segment, comparing each with
    /// the reference as it arrives.
    fn collect(&self, s: usize, receive: &mut Receiver) -> Collected {
        let expected = &self.inputs[s].expected;
        let mut out = Collected {
            block_done: if self.kind == Kind::Open {
                vec![0; expected.len() / OPEN_BLOCK]
            } else {
                Vec::new()
            },
            ..Collected::default()
        };
        let mut idle_since = Instant::now();
        while out.received < expected.len() {
            match receive(Duration::from_millis(50)) {
                Some(c) => {
                    let at = openloop::since_ns(self.epoch);
                    let k = out.received;
                    if c.seq != self.base + k as u64 || c.flips != expected[k] {
                        out.wrong += 1;
                    }
                    if let Some(done) = out.block_done.get_mut(k / OPEN_BLOCK) {
                        *done = at;
                    }
                    out.last_ns = at;
                    out.received += 1;
                    self.received[s].store(out.received as u64, Ordering::Relaxed);
                    idle_since = Instant::now();
                }
                None if self.abort.load(Ordering::SeqCst) => break,
                None if idle_since.elapsed() > STALL_TIMEOUT => {
                    self.abort.store(true, Ordering::SeqCst);
                    break;
                }
                None => {}
            }
        }
        out.wrong += expected.len() - out.received;
        out
    }
}

/// What the phases of one or more legs observed, folded segment by segment.
#[derive(Debug, Default)]
struct Phases {
    /// Latency of every phase-A block from its due time, µs.
    latencies_us: Vec<f64>,
    window_p50: Vec<f64>,
    window_p90: Vec<f64>,
    window_p99: Vec<f64>,
    /// Summed time from each phase-B segment's start to its last correction.
    closed_s: f64,
    closed_shots: usize,
    /// Generator lag in phase A.
    lag: LagAccount,
    /// Phase-A blocks sent.
    open_sent: usize,
    /// Sampling-block seeds used so far (none may repeat).
    block_seeds: HashSet<u64>,
}

/// Runs `kinds` in order on live streams (fresh, so sequence numbers start
/// at 0): one generator thread per transport and one collector thread per
/// stream. Each segment's inputs are made just before it and dropped after
/// it. Returns the most generator threads that ran at once.
#[allow(clippy::too_many_arguments)]
fn run_segments<T: Transport>(
    conns: &mut [T],
    receivers: &mut [Receiver],
    program: &DecodeProgram,
    plan: &Plan,
    kinds: &[Kind],
    seed: u64,
    tracer: &Tracer,
    parent: Option<u64>,
    phases: &mut Phases,
    checks: &mut Checks,
) -> Result<usize, String> {
    let epoch = Instant::now();
    let mut base = 0u64;
    let mut max_generators = 0;
    for (i, &kind) in kinds.iter().enumerate() {
        let shots = plan.shots(kind);
        let block = if kind == Kind::Closed { 64 } else { OPEN_BLOCK };
        let seeds: Vec<u64> = (0..STREAMS)
            .map(|s| util::mix(util::mix(seed, s as u64), i as u64))
            .collect();
        let repeats = seeds
            .iter()
            .flat_map(|&seed| {
                (0..shots.div_ceil(CANONICAL_BLOCK_SHOTS) as u64).map(move |b| block_seed(seed, b))
            })
            .filter(|&b| !phases.block_seeds.insert(b))
            .count();
        checks.check(repeats == 0, || {
            format!("{repeats} sampling-block seeds repeat")
        });
        // Made on this thread, not in parallel: a thread's allocations land
        // in its own allocator arena, and which arenas the inputs happen to
        // occupy would move the peak RSS from run to run.
        let inputs: Vec<SegmentInput> = {
            let _s = tracer.span_under("bench.inputs", parent);
            seeds
                .iter()
                .map(|&seed| segment_input(program, seed, shots, block))
                .collect::<Result<_, _>>()?
        };
        let segment = Segment {
            epoch,
            kind,
            start: openloop::since_ns(epoch) + 2_000_000,
            base,
            inputs: &inputs,
            generators: conns.len(),
            received: (0..STREAMS).map(|_| AtomicU64::new(0)).collect(),
            abort: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            max_active: AtomicUsize::new(0),
            tracer,
            parent,
        };
        let (collected, generated) = std::thread::scope(|scope| {
            let segment = &segment;
            let collectors: Vec<_> = receivers
                .iter_mut()
                .enumerate()
                .map(|(s, receive)| scope.spawn(move || segment.collect(s, receive)))
                .collect();
            let generators: Vec<_> = conns
                .iter_mut()
                .enumerate()
                .map(|(g, conn)| scope.spawn(move || segment.generate(g, conn)))
                .collect();
            // A collector blocked on a stream whose generator failed wakes on
            // its timeout and sees the abort flag.
            let generated: Vec<_> = generators
                .into_iter()
                .map(|g| g.join().expect("generator thread panicked"))
                .collect();
            let collected: Vec<_> = collectors
                .into_iter()
                .map(|c| c.join().expect("collector thread panicked"))
                .collect();
            (collected, generated)
        });
        max_generators = max_generators.max(segment.max_active.load(Ordering::SeqCst));
        for (lag, error) in generated {
            if kind == Kind::Open {
                phases.lag.merge(lag);
            }
            if let Some(e) = error {
                checks.check(false, || format!("segment {i}: {e}"));
            }
        }
        for (s, c) in collected.iter().enumerate() {
            checks.attempt(shots as u64);
            if c.wrong > 0 {
                checks.fail(
                    c.wrong as u64,
                    format!("stream {s}, segment {i} ({kind:?}): {} of {shots} corrections missing or different from offline decode_batch", c.wrong),
                );
            }
        }
        let start = segment.start;
        match kind {
            Kind::Warm => {}
            Kind::Open => {
                // (due time, latency) of every block whose corrections all
                // arrived.
                let mut latencies = Vec::with_capacity(STREAMS * plan.open_blocks);
                for (s, c) in collected.iter().enumerate() {
                    let complete = c.received / OPEN_BLOCK;
                    for (k, &done) in c.block_done[..complete].iter().enumerate() {
                        let due = start + offset_ns(s) + k as u64 * period_ns();
                        let latency = openloop::latency_from_due_ns(due, done) as f64 / 1e3;
                        latencies.push((due, latency));
                    }
                }
                let end = start + plan.open_blocks as u64 * period_ns();
                for (q, windows) in [
                    (50.0, &mut phases.window_p50),
                    (90.0, &mut phases.window_p90),
                    (99.0, &mut phases.window_p99),
                ] {
                    windows.extend(stats::window_stats(
                        &latencies,
                        start,
                        end,
                        OPEN_WINDOW_NS,
                        |v| (!v.is_empty()).then(|| stats::percentile(&stats::sorted(v), q)),
                    ));
                }
                phases
                    .latencies_us
                    .extend(latencies.into_iter().map(|(_, l)| l));
                phases.open_sent += STREAMS * plan.open_blocks;
            }
            Kind::Closed => {
                let end = collected.iter().map(|c| c.last_ns).max().unwrap_or(start);
                phases.closed_s += end.saturating_sub(start) as f64 * 1e-9;
                phases.closed_shots += STREAMS * shots;
            }
        }
        if segment.abort.load(Ordering::SeqCst) {
            // The service stopped answering or a submit failed; the failures
            // are counted, and later segments would only wait in vain.
            break;
        }
        base += shots as u64;
    }
    Ok(max_generators)
}

/// What one or more legs measured.
#[derive(Debug, Clone, Copy)]
pub struct PhaseSummary {
    /// Phase-A block latency from due time over all blocks, µs.
    pub open: Summary,
    /// Median over 0.25 s windows of the window's median latency, µs.
    pub open_p50_us: f64,
    /// Median over 0.25 s windows of the window's 90th percentile, µs.
    pub open_p90_us: f64,
    /// Median over 0.25 s windows of the window's 99th percentile, µs.
    pub open_p99_us: f64,
    /// Phase A's windows.
    pub open_windows: usize,
    /// Phase-B shots over the summed time from each segment's start to its
    /// last correction.
    pub closed_rate: f64,
    /// Phase-B shots.
    pub closed_shots: usize,
    /// Generator lag in phase A, 99th percentile, µs.
    pub lag_p99_us: f64,
    /// Phase-A blocks sent more than 1 ms late.
    pub late_blocks: usize,
    /// Phase-A blocks sent.
    pub open_sent: usize,
}

impl Phases {
    /// Summarises the folded segments.
    ///
    /// # Errors
    ///
    /// When no phase-A block completed.
    fn summary(&self) -> Result<PhaseSummary, String> {
        if self.latencies_us.is_empty() {
            return Err("no phase-A block completed".into());
        }
        let open = Summary::of(&self.latencies_us);
        let windowed = |w: &[f64], all: f64| {
            if w.is_empty() {
                all
            } else {
                stats::median(w)
            }
        };
        let lags = stats::sorted(&self.lag.lags_us());
        Ok(PhaseSummary {
            open,
            open_p50_us: windowed(&self.window_p50, open.p50),
            open_p90_us: windowed(&self.window_p90, open.p90),
            open_p99_us: windowed(&self.window_p99, open.p99),
            open_windows: self.window_p50.len(),
            // The mean over all phase-B segments, not a median over windows:
            // the host's speed drifts between modes over seconds, and a mean
            // repeats better than a median that picks one mode.
            closed_rate: self.closed_shots as f64 / self.closed_s.max(1e-9),
            closed_shots: self.closed_shots,
            lag_p99_us: lags.last().map_or(0.0, |_| stats::percentile(&lags, 99.0)),
            late_blocks: self.lag.late(1_000_000),
            open_sent: self.open_sent,
        })
    }
}

/// Generator threads and connections may not exceed `nproc`.
fn check_caps(generators: usize, connections: usize, nproc: usize, checks: &mut Checks) {
    checks.check(generators <= nproc, || {
        format!("{generators} generator threads ran at once, more than nproc = {nproc}")
    });
    checks.check(connections <= nproc, || {
        format!("{connections} connections, more than nproc = {nproc}")
    });
}

/// Established server-side TCP connections on `port`, from
/// `/proc/self/net/tcp` (`None` where that table is unavailable).
fn established_connections(port: u16) -> Option<usize> {
    let table = std::fs::read_to_string("/proc/self/net/tcp").ok()?;
    let wanted = format!(":{port:04X}");
    Some(
        table
            .lines()
            .skip(1)
            .filter(|line| {
                let fields: Vec<&str> = line.split_whitespace().collect();
                fields.len() > 3 && fields[1].ends_with(&wanted) && fields[3] == "01"
            })
            .count(),
    )
}

/// A running TCP server with its clients and their open streams.
struct TcpSetup {
    server: JoinHandle<std::io::Result<()>>,
    service: Arc<DecodeService>,
    port: u16,
    conns: Vec<TcpConn>,
    receivers: Vec<Receiver>,
}

/// Binds a server, connects `min(nproc, STREAMS)` clients and opens the
/// streams round-robin over them. The first open compiles and warms the
/// program inside the server.
fn tcp_setup(nproc: usize) -> Result<TcpSetup, String> {
    let config = ServiceConfig::default().with_workers(nproc);
    let server = NetServer::bind("127.0.0.1:0", config).map_err(|e| e.to_string())?;
    let port = server.local_addr().map_err(|e| e.to_string())?.port();
    let service = Arc::clone(server.service());
    let server = std::thread::spawn(move || server.run());
    let addr = format!("127.0.0.1:{port}");
    let mut conns: Vec<TcpConn> = (0..nproc.min(STREAMS))
        .map(|_| {
            NetClient::connect(&addr)
                .map(|client| TcpConn {
                    client,
                    ids: HashMap::new(),
                })
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    let generators = conns.len();
    let mut receivers: Vec<Receiver> = Vec::with_capacity(STREAMS);
    for s in 0..STREAMS {
        let conn = &mut conns[s % generators];
        let stream = conn.client.open_stream(
            "grid",
            2,
            "standard",
            arch().gate_improvement,
            DISTANCE,
            DecoderKind::UnionFind,
        )?;
        conn.ids.insert(s, stream.id);
        let corrections = stream.corrections;
        receivers.push(Box::new(move |timeout| {
            corrections.recv_timeout(timeout).ok()
        }));
    }
    Ok(TcpSetup {
        server,
        service,
        port,
        conns,
        receivers,
    })
}

/// Closes the streams, stops the server and waits for it; returns the
/// protocol errors the clients saw.
fn tcp_teardown(
    server: JoinHandle<std::io::Result<()>>,
    mut conns: Vec<TcpConn>,
) -> Result<usize, String> {
    let mut protocol_errors = 0;
    for conn in &mut conns {
        protocol_errors += conn.client.take_protocol_errors().len();
        let ids: Vec<u64> = conn.ids.values().copied().collect();
        for id in ids {
            conn.client.close_stream(id)?;
        }
    }
    if let Some(first) = conns.first_mut() {
        first.client.shutdown_server()?;
    }
    drop(conns);
    server
        .join()
        .map_err(|_| "server thread panicked".to_string())?
        .map_err(|e| e.to_string())?;
    Ok(protocol_errors)
}

/// What one server, or the in-process service, reported after its
/// segments.
#[derive(Debug, Clone, Copy, Default)]
struct Served {
    protocol_errors: usize,
    connections: usize,
    generators: usize,
    /// Full-word and deadline flushes.
    flushes: (u64, u64),
    /// Mean stage times from the service's telemetry, µs: batcher wait,
    /// decode, delivery.
    stages_us: [f64; 3],
}

fn read_service(service: &DecodeService) -> ((u64, u64), [f64; 3]) {
    let metrics = service.metrics();
    let snapshot = service.telemetry_snapshot();
    let mean = |name: &str| snapshot.histogram(name).map_or(0.0, |h| h.mean());
    (
        (metrics.full_word_flushes, metrics.deadline_flushes),
        [
            mean("service.stage.batcher_wait_us"),
            mean("service.stage.decode_us"),
            mean("service.stage.delivery_us"),
        ],
    )
}

/// The result of one TCP or in-process leg (of the untraced run's twelve
/// servers together).
#[derive(Debug)]
pub struct LegResult {
    /// Phase measurements.
    pub summary: PhaseSummary,
    /// Protocol errors (TCP only).
    pub protocol_errors: usize,
    /// Most connections seen established on one server.
    pub connections: usize,
    /// Most generator threads that ran at once.
    pub generators: usize,
    /// The services' flush counts, summed: full-word and deadline.
    pub flushes: (u64, u64),
    /// Mean stage times the services' telemetry reports, µs, averaged over
    /// the servers: batcher wait, decode, delivery.
    pub stages_us: [f64; 3],
}

impl LegResult {
    fn of(phases: &Phases, served: &[Served]) -> Result<LegResult, String> {
        let n = served.len().max(1) as f64;
        Ok(LegResult {
            summary: phases.summary()?,
            protocol_errors: served.iter().map(|s| s.protocol_errors).sum(),
            connections: served.iter().map(|s| s.connections).max().unwrap_or(0),
            generators: served.iter().map(|s| s.generators).max().unwrap_or(0),
            flushes: served
                .iter()
                .fold((0, 0), |(f, d), s| (f + s.flushes.0, d + s.flushes.1)),
            stages_us: std::array::from_fn(|k| {
                served.iter().map(|s| s.stages_us[k]).sum::<f64>() / n
            }),
        })
    }
}

/// Runs `kinds` over TCP on an already set-up server, then tears it down
/// and checks the caps and protocol errors.
#[allow(clippy::too_many_arguments)]
fn tcp_leg(
    mut setup: TcpSetup,
    program: &DecodeProgram,
    plan: &Plan,
    kinds: &[Kind],
    seed: u64,
    nproc: usize,
    tracer: &Tracer,
    phases: &mut Phases,
    checks: &mut Checks,
) -> Result<Served, String> {
    let leg = tracer.span("bench.tcp_leg");
    let generators = run_segments(
        &mut setup.conns,
        &mut setup.receivers,
        program,
        plan,
        kinds,
        seed,
        tracer,
        leg.id(),
        phases,
        checks,
    );
    drop(leg);
    let connections = established_connections(setup.port).unwrap_or(setup.conns.len());
    let (flushes, stages_us) = read_service(&setup.service);
    let protocol_errors = tcp_teardown(setup.server, setup.conns)?;
    let generators = generators?;
    check_caps(generators, connections, nproc, checks);
    checks.check(protocol_errors == 0, || {
        format!("{protocol_errors} protocol errors")
    });
    Ok(Served {
        protocol_errors,
        connections,
        generators,
        flushes,
        stages_us,
    })
}

/// Runs `kinds` in process through `open_stream_program`,
/// `submit_word_batch` and `recv`.
#[allow(clippy::too_many_arguments)]
fn local_leg(
    program: &Arc<DecodeProgram>,
    plan: &Plan,
    kinds: &[Kind],
    seed: u64,
    nproc: usize,
    tracer: &Tracer,
    phases: &mut Phases,
    checks: &mut Checks,
) -> Result<Served, String> {
    let service = DecodeService::new(ServiceConfig::default().with_workers(nproc));
    let generators = nproc.min(STREAMS);
    let mut conns: Vec<LocalConn> = (0..generators)
        .map(|_| LocalConn {
            senders: HashMap::new(),
        })
        .collect();
    let mut receivers: Vec<Receiver> = Vec::with_capacity(STREAMS);
    for s in 0..STREAMS {
        let (sender, mut receiver) = service
            .open_stream_program(program)
            .map_err(|e| e.to_string())?
            .split();
        conns[s % generators].senders.insert(s, sender);
        receivers.push(Box::new(move |timeout| receiver.recv_timeout(timeout)));
    }
    let leg = tracer.span("bench.service_leg");
    let generators = run_segments(
        &mut conns,
        &mut receivers,
        program,
        plan,
        kinds,
        seed,
        tracer,
        leg.id(),
        phases,
        checks,
    );
    drop(leg);
    let (flushes, stages_us) = read_service(&service);
    for conn in &conns {
        for sender in conn.senders.values() {
            sender.close();
        }
    }
    service.shutdown();
    let generators = generators?;
    check_caps(generators, 0, nproc, checks);
    Ok(Served {
        protocol_errors: 0,
        connections: 0,
        generators,
        flushes,
        stages_us,
    })
}

/// The offline reference program (compiled through the process-wide
/// compile cache, as the server compiles it).
fn reference_program() -> Result<Arc<DecodeProgram>, String> {
    DecodeProgram::compile(&arch(), DISTANCE, DecoderKind::UnionFind)
        .map(Arc::new)
        .map_err(|e| e.to_string())
}

/// Lines describing a leg.
fn describe(name: &str, leg: &LegResult, plan: &Plan) -> Vec<String> {
    let s = &leg.summary;
    vec![
        format!("  {name} phase A     {} shots/s offered in {}-shot blocks; block latency from due time {}", OPEN_RATE, OPEN_BLOCK, s.open.describe("us")),
        format!("  {name} phase A     median over {} windows of 0.25 s in {} rounds: p50 {:.1} us, p90 {:.1} us, p99 {:.1} us", s.open_windows, plan.rounds, s.open_p50_us, s.open_p90_us, s.open_p99_us),
        format!("  {name} phase B     {:.1} shots/s ({} shots, window {WINDOW_WORDS} words per stream, up to {MAX_WORDS_PER_CALL} words per call)", s.closed_rate, s.closed_shots),
        format!("  {name} generator   lag p99 {:.1} us, {} of {} blocks over 1 ms late", s.lag_p99_us, s.late_blocks, s.open_sent),
        format!("  {name} service     flushes full-word {} deadline {}; program-reported stage means batcher_wait {:.1} us decode {:.1} us delivery {:.1} us", leg.flushes.0, leg.flushes.1, leg.stages_us[0], leg.stages_us[1], leg.stages_us[2]),
    ]
}

/// The `serve_tcp` workload, untraced.
///
/// # Errors
///
/// Set-up, transport or reference errors, as text.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut checks = Checks::default();
    let program = reference_program()?;
    let plan = Plan::full(ctx.seconds);
    let mut phases = Phases::default();
    let mut times = Vec::with_capacity(plan.rounds * SETUPS_PER_ROUND);
    let mut served = Vec::with_capacity(plan.rounds);
    for round in 0..plan.rounds {
        // Set-up, repeated from a cold compile cache: bind, connect, open
        // the streams (the first open compiles, lowers, builds the DEM and
        // graph and warms the memo inside the server). The last one serves
        // the round; only one server runs at a time. After each teardown
        // the allocator's free pages go back to the system, so the peak RSS
        // is that of one server and not of the fragments twenty left.
        let mut setup = None;
        for rep in 0..SETUPS_PER_ROUND {
            compile_cache::shared().clear();
            let t = Instant::now();
            let s = tcp_setup(ctx.nproc)?;
            times.push(t.elapsed().as_secs_f64());
            if rep + 1 < SETUPS_PER_ROUND {
                tcp_teardown(s.server, s.conns)?;
                util::release_free_memory();
            } else {
                setup = Some(s);
            }
        }
        served.push(tcp_leg(
            setup.expect("set-up ran"),
            &program,
            &plan,
            &[Kind::Warm, Kind::Open, Kind::Closed],
            util::mix(ctx.seed, round as u64),
            ctx.nproc,
            &Tracer::disabled(),
            &mut phases,
            &mut checks,
        )?);
        util::release_free_memory();
    }
    let leg = LegResult::of(&phases, &served)?;
    let mut lines = vec![format!(
        "  set-up               median of {} cold set-ups, {SETUPS_PER_ROUND} before each of {} rounds; {} connections, {} generator threads, nproc {}",
        times.len(), plan.rounds, leg.connections, leg.generators, ctx.nproc
    )];
    lines.extend(describe("tcp", &leg, &plan));
    let mut values = Values::default();
    values.set("setup_s", stats::median(&times));
    values.set("throughput_per_s", leg.summary.closed_rate);
    values.set("latency_p50_us", leg.summary.open_p50_us);
    Ok(Outcome {
        checks,
        values,
        lines,
    })
}

/// Per-layer results of the traced service legs.
#[derive(Debug)]
pub struct ServiceLegs {
    /// The TCP leg.
    pub tcp: LegResult,
    /// The in-process leg.
    pub local: LegResult,
    /// Printed lines.
    pub lines: Vec<String>,
}

/// The traced service legs: in process, then over TCP, each on fresh
/// shots and one service. Submit calls are spanned as `service.submit` and
/// `net.submit`.
///
/// # Errors
///
/// Set-up, transport or reference errors, as text.
pub fn traced_legs(
    ctx: &Ctx,
    plan: Plan,
    tracer: &Tracer,
    checks: &mut Checks,
) -> Result<ServiceLegs, String> {
    let program = {
        let _s = tracer.span("bench.service_setup");
        reference_program()?
    };
    let mut local_phases = Phases::default();
    let local = local_leg(
        &program,
        &plan,
        &plan.segments(),
        util::mix(ctx.seed, 0x10ca1),
        ctx.nproc,
        tracer,
        &mut local_phases,
        checks,
    )?;
    let local = LegResult::of(&local_phases, &[local])?;
    let setup = {
        let _s = tracer.span("bench.tcp_setup");
        tcp_setup(ctx.nproc)?
    };
    let mut tcp_phases = Phases::default();
    let tcp = tcp_leg(
        setup,
        &program,
        &plan,
        &plan.segments(),
        util::mix(ctx.seed, 0x7c9),
        ctx.nproc,
        tracer,
        &mut tcp_phases,
        checks,
    )?;
    let tcp = LegResult::of(&tcp_phases, &[tcp])?;
    let mut lines = describe("in-process", &local, &plan);
    lines.extend(describe("tcp", &tcp, &plan));
    Ok(ServiceLegs { tcp, local, lines })
}

/// The untraced TCP leg the traced `serve_tcp` run compares its traced leg
/// with; returns phase B's shots per second.
///
/// # Errors
///
/// Set-up, transport or reference errors, as text.
pub fn untraced_rate(ctx: &Ctx, plan: Plan, checks: &mut Checks) -> Result<f64, String> {
    let program = reference_program()?;
    let setup = tcp_setup(ctx.nproc)?;
    let mut phases = Phases::default();
    tcp_leg(
        setup,
        &program,
        &plan,
        &plan.segments(),
        util::mix(ctx.seed, 0x7c8),
        ctx.nproc,
        &Tracer::disabled(),
        &mut phases,
        checks,
    )?;
    Ok(phases.summary()?.closed_rate)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_sizes_follow_the_rates() {
        assert_eq!(period_ns(), 1_280_000);
        assert_eq!(offset_ns(3), 960_000);
        let plan = Plan::full(10);
        // 0.5 s per round at 12.5k shots/s per stream in 16-shot blocks,
        // rounded up to whole words: two whole 0.25 s windows.
        assert_eq!(plan.open_blocks, 392);
        assert!(plan.open_blocks as u64 * period_ns() >= 2 * OPEN_WINDOW_NS);
        assert_eq!(plan.shots(Kind::Open) % 64, 0);
        assert_eq!(plan.shots(Kind::Warm) % 64, 0);
        assert_eq!(plan.closed_words, 1_563);
        let mut want = vec![Kind::Warm];
        for _ in 0..ROUNDS {
            want.extend([Kind::Open, Kind::Closed]);
        }
        assert_eq!(plan.segments(), want);
    }

    #[test]
    fn collector_counts_missing_reordered_and_wrong_corrections() {
        let inputs: Vec<SegmentInput> = (0..STREAMS)
            .map(|_| SegmentInput {
                blocks: Vec::new(),
                expected: vec![1, 0, 1, 1, 0],
            })
            .collect();
        let tracer = Tracer::disabled();
        let segment = Segment {
            epoch: Instant::now(),
            kind: Kind::Closed,
            start: 0,
            base: 10,
            inputs: &inputs,
            generators: 1,
            received: (0..STREAMS).map(|_| AtomicU64::new(0)).collect(),
            // Set, so the collector stops at the first empty receive.
            abort: AtomicBool::new(true),
            active: AtomicUsize::new(0),
            max_active: AtomicUsize::new(0),
            tracer: &tracer,
            parent: None,
        };
        let answers = [(10, 1), (11, 1), (13, 1), (12, 1)];
        let mut answers = answers
            .into_iter()
            .map(|(seq, flips)| Correction { seq, flips });
        let mut receive: Receiver = Box::new(move |_| answers.next());
        let got = segment.collect(2, &mut receive);
        // Seq 11 carries the wrong flips, 13 and 12 arrive out of order and
        // the fifth correction never comes.
        assert_eq!((got.received, got.wrong), (4, 4));
        assert_eq!(segment.received[2].load(Ordering::Relaxed), 4);

        let mut right = [(10, 1), (11, 0), (12, 1), (13, 1), (14, 0)]
            .into_iter()
            .map(|(seq, flips)| Correction { seq, flips });
        let mut receive: Receiver = Box::new(move |_| right.next());
        let got = segment.collect(0, &mut receive);
        assert_eq!((got.received, got.wrong), (5, 0));
    }
}
