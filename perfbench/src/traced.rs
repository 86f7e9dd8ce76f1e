//! The traced run (`--trace 1`): per-layer metrics from spans around the
//! benchmark's calls into each crate, plus the tracing overhead.
//!
//! Every traced run exercises every layer, weighted by workload: the
//! workload's own timed work runs at full size, once untraced and once
//! traced (their ratio is `bench.trace_overhead`), and the other legs run
//! small.
//!
//! | leg | `ler_d7` | `design_sweep` | `serve_tcp` |
//! |---|---|---|---|
//! | compile passes (`core`) | d=3 slice | all 27 points | d=3 slice |
//! | pipeline: compile, lower, DEM, graph, warm, fresh decode, estimate | d7, full | d7, small | d5 service program |
//! | service in process and over TCP | light plan | light plan | full plan |
//!
//! Span names use the `<crate>.<stage>` vocabulary of the program's
//! telemetry stages (`core.compile`, `sim.dem_build`, `decoder.graph_build`,
//! `sim.sample`, `decoder.point`, …), so stages traced inside the program
//! later line up with these numbers.

use std::path::PathBuf;
use std::time::Duration;

use qccd_decoder::{CacheStats, DecodeScratch, Decoder, MemoConfig};
use qccd_sim::{sample_detector_chunks, CANONICAL_BLOCK_SHOTS};

use crate::ler::{self, LerPoint};
use crate::pipeline::{self, MemoryPoint, Pipeline};
use crate::report::Values;
use crate::serve::{self, Plan};
use crate::sweep;
use crate::trace::{self, Tracer};
use crate::util::{self, Checks};
use crate::{Ctx, Outcome, Workload};

/// Fresh shots the single-thread decode leg decodes, by weight.
const FRESH_SHOTS_FULL: usize = 50 * CANONICAL_BLOCK_SHOTS;
const FRESH_SHOTS_LIGHT: usize = 4 * CANONICAL_BLOCK_SHOTS;

const WARM_TAG: u64 = 0x7761_726d;
const FRESH_TAG: u64 = 0x6672_6573;

/// What the single-thread fresh decode leg measured.
#[derive(Debug, Default)]
struct DecodeLeg {
    shots: usize,
    cache: CacheStats,
}

/// Decodes `shots` fresh shots single-threaded under `sim.sample` and
/// `decoder.decode` spans, after one warm-up chunk from its own seed
/// stream. Every prediction is compared bit for bit with the per-shot
/// reference (memo disabled) outside the spans.
fn decode_leg(
    p: &Pipeline,
    seed: u64,
    shots: usize,
    tracer: &Tracer,
    checks: &mut Checks,
) -> Result<DecodeLeg, String> {
    let dangling = |e| format!("dangling {e:?}");
    let chunk_shots = 4 * CANONICAL_BLOCK_SHOTS;
    let mut scratch = DecodeScratch::new();
    {
        let _s = tracer.span("bench.warmup");
        let warm = sample_detector_chunks(
            &p.noisy,
            chunk_shots,
            util::mix(seed, WARM_TAG),
            chunk_shots,
        )
        .map_err(dangling)?;
        p.decoder.decode_batch_with_snapshot(
            &warm.sample_chunk(0),
            &mut scratch,
            p.snapshot.as_ref(),
        );
    }
    let before = scratch.cache_stats();
    let sampler = sample_detector_chunks(&p.noisy, shots, util::mix(seed, FRESH_TAG), chunk_shots)
        .map_err(dangling)?;
    for i in 0..sampler.num_chunks() {
        let chunk = {
            let _s = tracer.span("sim.sample");
            sampler.sample_chunk(i)
        };
        let prediction = {
            let _s = tracer.span("decoder.decode");
            p.decoder
                .decode_batch_with_snapshot(&chunk, &mut scratch, p.snapshot.as_ref())
        };
        let mut reference_scratch = DecodeScratch::with_memo_config(MemoConfig::disabled());
        let reference = p
            .decoder
            .decode_batch_per_shot(&chunk, &mut reference_scratch);
        let differ: u32 = (0..prediction.num_observables())
            .flat_map(|o| {
                prediction
                    .plane(o)
                    .iter()
                    .zip(reference.plane(o))
                    .map(|(a, b)| (a ^ b).count_ones())
            })
            .sum();
        checks.attempt(chunk.num_shots() as u64);
        if differ > 0 {
            checks.fail(
                u64::from(differ),
                format!("fresh chunk {i}: word path differs from the per-shot reference"),
            );
        }
    }
    Ok(DecodeLeg {
        shots,
        cache: scratch.cache_stats().since(&before),
    })
}

/// Builds the pipeline under spans and checks that the composed passes
/// lower to exactly the circuit the public compiler path produces.
fn pipeline_leg(
    point: &MemoryPoint,
    tracer: &Tracer,
    checks: &mut Checks,
) -> Result<Pipeline, String> {
    let traced = {
        let _s = tracer.span("bench.pipeline_setup");
        pipeline::build(point, tracer)?
    };
    let direct = pipeline::build(point, &Tracer::disabled())?;
    checks.check(traced.noisy == direct.noisy, || {
        "composed compile passes lower to a different circuit than compile_memory_experiment".into()
    });
    Ok(traced)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The traced run of `ctx.workload`.
///
/// # Errors
///
/// Errors of any leg, as text.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let tracer = Tracer::new(util::mix(ctx.seed, ctx.workload as u64));
    let mut checks = Checks::default();
    let mut lines = Vec::new();
    let half = Duration::from_secs(ctx.seconds).div_f64(2.0);
    let own = ctx.workload;

    // Compile passes: the whole sweep for design_sweep, the d=3 slice
    // otherwise. The sweep's overhead is measured on its routable points,
    // with a tracer of its own so that those passes stay out of the
    // per-layer figures.
    let (core_leg, sweep_overhead) = if own == Workload::DesignSweep {
        let all = sweep::points(&sweep::DISTANCES);
        let leg = sweep::traced_sweep(&tracer, &all, &mut checks);
        let overhead =
            sweep::routable_overhead(&Tracer::new(util::mix(ctx.seed, 0x6f76)), ctx.seed, half);
        (leg, Some(overhead))
    } else {
        (
            sweep::traced_sweep(&tracer, &sweep::points(&[3]), &mut checks),
            None,
        )
    };

    // Pipeline on the workload's decode configuration (ler_d7's for the
    // sweep, which decodes nothing itself).
    let pipeline_point = if own == Workload::ServeTcp {
        MemoryPoint {
            arch: serve::arch(),
            distance: serve::DISTANCE,
        }
    } else {
        ler::memory_point()
    };
    let pipeline = pipeline_leg(&pipeline_point, &tracer, &mut checks)?;
    let (points, ler_overhead) = if own == Workload::LerD7 {
        let (plain_seed, traced_seed) = (util::mix(ctx.seed, 1), util::mix(ctx.seed, 2));
        ler::warm_up(&pipeline.noisy, ctx.seed, ctx.nproc)?;
        let (plain, plain_s) = ler::timed_points(
            &pipeline.noisy,
            plain_seed,
            ctx.nproc,
            half,
            &Tracer::disabled(),
        )?;
        let (traced, traced_s) =
            ler::timed_points(&pipeline.noisy, traced_seed, ctx.nproc, half, &tracer)?;
        ler::check_points(&pipeline, &plain, ctx.nproc, &mut checks);
        ler::check_points(&pipeline, &traced, ctx.nproc, &mut checks);
        let both: Vec<LerPoint> = plain.iter().chain(&traced).copied().collect();
        ler::check_fresh(&both, &[ctx.seed], &mut checks);
        let per_shot =
            |pts: &[LerPoint], wall: f64| wall / pts.iter().map(|p| p.shots).sum::<usize>() as f64;
        let overhead = per_shot(&traced, traced_s) / per_shot(&plain, plain_s) - 1.0;
        (traced, Some(overhead))
    } else {
        ler::warm_up(&pipeline.noisy, ctx.seed, ctx.nproc)?;
        let (one, _) = ler::timed_points(
            &pipeline.noisy,
            ctx.seed,
            ctx.nproc,
            Duration::ZERO,
            &tracer,
        )?;
        ler::check_points(&pipeline, &one, ctx.nproc, &mut checks);
        ler::check_fresh(&one, &[ctx.seed], &mut checks);
        (one, None)
    };
    let fresh_shots = if own == Workload::DesignSweep {
        FRESH_SHOTS_LIGHT
    } else {
        FRESH_SHOTS_FULL
    };

    // Service legs, in process and over TCP.
    let (services, serve_overhead) = if own == Workload::ServeTcp {
        let plan = Plan::full(ctx.seconds);
        let plain_rate = serve::untraced_rate(ctx, plan, &mut checks)?;
        let legs = serve::traced_legs(ctx, plan, &tracer, &mut checks)?;
        let overhead = plain_rate / legs.tcp.summary.closed_rate - 1.0;
        (legs, Some(overhead))
    } else {
        (
            serve::traced_legs(ctx, Plan::light(), &tracer, &mut checks)?,
            None,
        )
    };
    let overhead = sweep_overhead
        .or(ler_overhead)
        .or(serve_overhead)
        .expect("every workload measures its overhead");
    let decode = decode_leg(&pipeline, ctx.seed, fresh_shots, &tracer, &mut checks)?;

    let spans = tracer.spans();
    let out = trace_path(ctx);
    trace::write_jsonl(&spans, &out).map_err(|e| format!("writing {}: {e}", out.display()))?;
    let layers = trace::self_time_by_layer(&spans);
    let secs = |name: &str| trace::total(&spans, name).1;
    let count = |name: &str| trace::total(&spans, name).0 as f64;
    let per_100k = |name: &str, shots: usize| secs(name) / shots as f64 * 1e5;
    let point_shots: usize = points.iter().map(|p| p.shots).sum();

    let mut v = Values::default();
    v.set("core.map_s", secs("core.map"));
    v.set("core.route_s", secs("core.route"));
    v.set("core.schedule_s", secs("core.schedule"));
    v.set("core.route_err_s", secs("core.route_err"));
    v.set("core.route_errs", count("core.route_err"));
    v.set("core.compile_calls", count("core.compile"));
    v.set(
        "core.routable_ratio",
        count("core.schedule") / count("core.compile"),
    );
    v.set("core.lower_s", secs("core.lower"));
    v.set("core.movement_ops", core_leg.movement_ops as f64);
    v.set("sim.dem_build_s", secs("sim.dem_build"));
    v.set("sim.dem_mechanisms", pipeline.mechanisms as f64);
    v.set("sim.sample_s", per_100k("sim.sample", decode.shots));
    v.set("decoder.graph_build_s", secs("decoder.graph_build"));
    v.set("decoder.memo_warm_s", secs("decoder.memo_warm"));
    v.set("decoder.decode_s", per_100k("decoder.decode", decode.shots));
    v.set("decoder.estimate_s", per_100k("decoder.point", point_shots));
    let single_per_shot = (secs("sim.sample") + secs("decoder.decode")) / decode.shots as f64;
    let estimate_per_shot = secs("decoder.point") / point_shots as f64;
    v.set(
        "decoder.parallel_eff",
        single_per_shot / (ctx.nproc as f64 * estimate_per_shot),
    );
    let c = &decode.cache;
    v.set("decoder.memo_hit_ratio", c.hit_rate());
    v.set(
        "decoder.dense_hit_ratio",
        ratio(c.dense_hits, c.dense_hits + c.dense_misses),
    );
    v.set(
        "decoder.cluster_conflict_ratio",
        ratio(c.cluster_conflicts, c.cluster_lanes),
    );
    v.set(
        "decoder.uncacheable_frac",
        ratio(c.uncacheable, c.decoded()),
    );
    v.set("decoder.quiet_words", c.quiet_words as f64);
    v.set("decoder.sparse_words", c.sparse_words as f64);
    v.set("decoder.dense_words", c.dense_words as f64);
    let local = &services.local;
    let tcp = &services.tcp;
    v.set("service.submit_s", secs("service.submit"));
    v.set("service.p50_us", local.summary.open.p50);
    v.set("service.p99_us", local.summary.open.p99);
    v.set("service.stage.batcher_wait_us", local.stages_us[0]);
    v.set("service.stage.decode_us", local.stages_us[1]);
    v.set("service.stage.delivery_us", local.stages_us[2]);
    v.set("service.full_word_flushes", local.flushes.0 as f64);
    v.set("service.deadline_flushes", local.flushes.1 as f64);
    v.set("net.submit_s", secs("net.submit"));
    v.set(
        "net.p50_overhead_us",
        tcp.summary.open.p50 - local.summary.open.p50,
    );
    v.set("net.protocol_errors", tcp.protocol_errors as f64);
    v.set("bench.gen_lag_p99_us", tcp.summary.lag_p99_us);
    v.set("bench.trace_overhead", overhead);
    v.set("bench.spans", spans.len() as f64);
    for (layer, name) in [
        ("core", "core.self_s"),
        ("sim", "sim.self_s"),
        ("decoder", "decoder.self_s"),
        ("service", "service.self_s"),
        ("net", "net.self_s"),
        ("bench", "bench.self_s"),
    ] {
        v.set(name, layers.get(layer).copied().unwrap_or(0.0));
    }

    lines.push(format!(
        "  traced legs          core: {} compiles; pipeline: {} d={} ({} fresh shots, {} estimate points); service: {} + {} phase-B shots",
        core_leg.calls,
        pipeline_point.arch.label(),
        pipeline_point.distance,
        decode.shots,
        points.len(),
        local.summary.closed_shots,
        tcp.summary.closed_shots
    ));
    lines.extend(services.lines);
    lines.push(format!(
        "  tracing overhead     {:+.2}% against the untraced run of the same work; {} spans written to {}",
        overhead * 100.0,
        spans.len(),
        out.display()
    ));
    lines.push(
        "  service.stage.* and service.*_flushes are program-reported (DecodeService telemetry)"
            .into(),
    );
    Ok(Outcome {
        checks,
        values: v,
        lines,
    })
}

/// Where the spans of a traced run are written: `out/` in the benchmark's
/// own directory.
fn trace_path(ctx: &Ctx) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-{}.jsonl", ctx.workload.name(), ctx.seed))
}
