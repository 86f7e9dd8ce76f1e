//! `ler_d7`: one paper logical-error-rate point, decode-bound.
//!
//! The recommended architecture at 5X gates (`recommended(5.0)`), rotated
//! surface code d=7, Z memory for 7 rounds, union-find, plain Monte Carlo
//! over fresh shots through `estimate_logical_error_rate_report` on `nproc`
//! threads. With about 2.15 expected faults per shot every 64-shot word is
//! dense, so decoding dominates; sampling is a small share and compiling is
//! paid once in set-up. Router or service work should not show here.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use qccd_core::ArchitectureConfig;
use qccd_decoder::{estimate_logical_error_rate_report, DecoderKind, EstimatorConfig};
use qccd_sim::{block_seed, sample_detector_chunks, NoisyCircuit, CANONICAL_BLOCK_SHOTS};
use rayon::prelude::*;

use crate::pipeline::{self, MemoryPoint, Pipeline};
use crate::report::Values;
use crate::stats::{self, Summary};
use crate::trace::Tracer;
use crate::util::{self, Checks};
use crate::{Ctx, Outcome};

/// Shots per LER point: sixteen canonical sampling blocks.
pub const POINT_SHOTS: usize = 16 * CANONICAL_BLOCK_SHOTS;

/// Slices of the untraced timed loop.
const SLICES: usize = 10;
/// Set-ups timed before each slice.
const BUILDS_PER_SLICE: usize = 2;

/// Seed-stream tags: warm-up and timed points never share a stream.
const WARM_TAG: u64 = 0x5741_524d;
const TIMED_TAG: u64 = 0x5449_4d45;

/// The workload's memory point.
pub fn memory_point() -> MemoryPoint {
    MemoryPoint {
        arch: ArchitectureConfig::recommended(5.0),
        distance: 7,
    }
}

/// One timed LER point.
#[derive(Debug, Clone, Copy)]
pub struct LerPoint {
    /// Sampling seed of the point.
    pub seed: u64,
    /// Shots estimated.
    pub shots: usize,
    /// Logical failures the estimator counted.
    pub failures: usize,
    /// Wall time of the `estimate_logical_error_rate_report` call.
    pub latency_s: f64,
}

/// The estimator configuration of the workload: defaults on `nproc`
/// threads.
pub fn estimator(nproc: usize) -> EstimatorConfig {
    EstimatorConfig::default().with_num_threads(nproc)
}

fn estimate(
    noisy: &NoisyCircuit,
    seed: u64,
    config: &EstimatorConfig,
    tracer: &Tracer,
) -> Result<LerPoint, String> {
    let _s = tracer.span("decoder.point");
    let t = Instant::now();
    let report = estimate_logical_error_rate_report(
        noisy,
        POINT_SHOTS,
        seed,
        DecoderKind::UnionFind,
        config,
    )
    .map_err(|e| format!("dangling {e:?}"))?;
    Ok(LerPoint {
        seed,
        shots: report.estimate.shots,
        failures: report.estimate.failures,
        latency_s: t.elapsed().as_secs_f64(),
    })
}

/// Runs one untimed warm-up point (memo fill, first touch) on the warm-up
/// seed stream of `seed`, which no timed point shares.
///
/// # Errors
///
/// Estimator errors, as text.
pub fn warm_up(noisy: &NoisyCircuit, seed: u64, nproc: usize) -> Result<(), String> {
    estimate(
        noisy,
        util::mix(seed, WARM_TAG),
        &estimator(nproc),
        &Tracer::disabled(),
    )
    .map(|_| ())
}

/// Estimates fresh points back to back until `budget` has passed. Returns
/// the points and the wall time of the timed loop.
///
/// # Errors
///
/// Estimator errors, as text.
pub fn timed_points(
    noisy: &NoisyCircuit,
    seed: u64,
    nproc: usize,
    budget: Duration,
    tracer: &Tracer,
) -> Result<(Vec<LerPoint>, f64), String> {
    let config = estimator(nproc);
    let started = Instant::now();
    let mut points = Vec::new();
    while points.is_empty() || started.elapsed() < budget {
        let point_seed = util::mix(util::mix(seed, TIMED_TAG), points.len() as u64);
        points.push(estimate(noisy, point_seed, &config, tracer)?);
    }
    Ok((points, started.elapsed().as_secs_f64()))
}

/// Asserts that no sampling-block seed of the timed `points` repeats or
/// collides with a warm-up's, so no decode was timed on syndromes seen
/// before in the process. `warm_seeds` are the seeds [`warm_up`] was given.
pub fn check_fresh(points: &[LerPoint], warm_seeds: &[u64], checks: &mut Checks) {
    let blocks = POINT_SHOTS.div_ceil(CANONICAL_BLOCK_SHOTS) as u64;
    let warm = warm_seeds.iter().map(|&s| util::mix(s, WARM_TAG));
    let all = warm.chain(points.iter().map(|p| p.seed));
    let mut seen = HashSet::new();
    let repeats = all
        .flat_map(|seed| (0..blocks).map(move |b| block_seed(seed, b)))
        .filter(|&block| !seen.insert(block))
        .count();
    checks.check(repeats == 0, || {
        format!("{repeats} sampling-block seeds repeat")
    });
}

/// Checks outside the timed region that every point's failure count equals
/// the per-shot union-find reference (memo disabled) on the same shots.
pub fn check_points(pipeline: &Pipeline, points: &[LerPoint], nproc: usize, checks: &mut Checks) {
    let reference: Vec<_> = util::with_threads(nproc, || {
        (0..points.len())
            .into_par_iter()
            .map(|i| reference_point(pipeline, &points[i]))
            .collect()
    });
    for (point, reference) in points.iter().zip(reference) {
        checks.check(reference.as_ref() == Ok(&point.failures), || {
            format!(
                "LER point seed {}: estimator counted {} failures, per-shot reference {reference:?}",
                point.seed, point.failures
            )
        });
    }
}

fn reference_point(pipeline: &Pipeline, point: &LerPoint) -> Result<usize, String> {
    let sampler = sample_detector_chunks(
        &pipeline.noisy,
        point.shots,
        point.seed,
        4 * CANONICAL_BLOCK_SHOTS,
    )
    .map_err(|e| format!("dangling {e:?}"))?;
    Ok((0..sampler.num_chunks())
        .map(|i| pipeline::reference_failures(&pipeline.decoder, &sampler.sample_chunk(i)))
        .sum())
}

/// Shots per second over the timed loop's `wall_s`, the latency summary and
/// printed lines of timed points. The rate is a mean, not a median of
/// points: the host's speed drifts between modes over seconds, and the mean
/// over the loop repeats better than a median that picks one mode.
pub fn describe(points: &[LerPoint], wall_s: f64) -> (f64, Summary, Vec<String>) {
    let shots: usize = points.iter().map(|p| p.shots).sum();
    let failures: usize = points.iter().map(|p| p.failures).sum();
    let latencies: Vec<f64> = points.iter().map(|p| p.latency_s * 1e6).collect();
    let summary = Summary::of(&latencies);
    let rate = shots as f64 / wall_s;
    let lines = vec![
        format!("  ler_shots_per_s      {rate:.1} shots/s ({} points of {POINT_SHOTS} fresh shots in {wall_s:.3} s)", points.len()),
        format!("  logical error rate   {:.6} per shot ({failures} failures)", failures as f64 / shots as f64),
        format!("  point latency        {}", summary.describe("us")),
    ];
    (rate, summary, lines)
}

/// The `ler_d7` workload, untraced.
///
/// # Errors
///
/// Compile or estimator errors, as text.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let point = memory_point();
    // Set-up (compile, lower, DEM, decoding graph, memo warm) is repeated
    // before each of ten slices of the timed loop, so its median samples the
    // host at ten moments rather than in one burst: the host's speed drifts
    // between modes over seconds, and the compile alone then takes 0.35 to
    // 0.6 s. Each slice's points are checked right after it, outside the
    // timed region.
    let mut setups = Vec::with_capacity(SLICES * BUILDS_PER_SLICE);
    let mut pipeline = None;
    let mut points = Vec::new();
    let mut timed_s = 0.0;
    let mut checks = Checks::default();
    for slice in 0..SLICES {
        for _ in 0..BUILDS_PER_SLICE {
            let t = Instant::now();
            let built = pipeline::build(&point, &Tracer::disabled())?;
            setups.push(t.elapsed().as_secs_f64());
            pipeline.get_or_insert(built);
        }
        let pipeline = pipeline.as_ref().expect("built above");
        if slice == 0 {
            warm_up(&pipeline.noisy, ctx.seed, ctx.nproc)?;
        }
        let budget = Duration::from_secs(ctx.seconds).div_f64(SLICES as f64);
        let (slice_points, secs) = timed_points(
            &pipeline.noisy,
            util::mix(ctx.seed, slice as u64),
            ctx.nproc,
            budget,
            &Tracer::disabled(),
        )?;
        check_points(pipeline, &slice_points, ctx.nproc, &mut checks);
        points.extend(slice_points);
        timed_s += secs;
    }
    let pipeline = pipeline.expect("at least one slice ran");
    check_fresh(&points, &[ctx.seed], &mut checks);
    let (rate, latency, mut lines) = describe(&points, timed_s);
    lines.insert(
        0,
        format!(
            "  set-up               median of {} builds, {BUILDS_PER_SLICE} before each of {SLICES} slices; {} detectors, {} mechanisms, {:.3} expected faults/shot",
            setups.len(), pipeline.num_detectors, pipeline.mechanisms, pipeline.expected_errors
        ),
    );
    let mut values = Values::default();
    values.set("setup_s", stats::median(&setups));
    values.set("throughput_per_s", rate);
    values.set("latency_p50_us", latency.p50);
    Ok(Outcome {
        checks,
        values,
        lines,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(seed: u64) -> LerPoint {
        LerPoint {
            seed,
            shots: POINT_SHOTS,
            failures: 0,
            latency_s: 0.1,
        }
    }

    #[test]
    fn a_repeated_or_warm_up_seed_fails_the_freshness_check() {
        let fresh = [point(11), point(12)];
        let mut checks = Checks::default();
        check_fresh(&fresh, &[7], &mut checks);
        assert_eq!((checks.attempted, checks.failed), (1, 0));

        let repeated = [point(11), point(11)];
        let mut checks = Checks::default();
        check_fresh(&repeated, &[7], &mut checks);
        assert_eq!(checks.failed, 1);

        let warm = [point(util::mix(7, WARM_TAG))];
        let mut checks = Checks::default();
        check_fresh(&warm, &[7], &mut checks);
        assert_eq!(checks.failed, 1);
    }
}
