//! `design_sweep`: the compile-only design-space sweep of Figure 8(a).
//!
//! Nine configurations (linear, grid and switch topologies at trap capacity
//! 2, 5 and 12, standard wiring, 1X gates) at code distance 3, 5 and 7; each
//! point compiles one parity-check round through `Compiler::compile_rounds`
//! (the process-wide compile cache is not involved). No decoder or service
//! runs, so router and mapping work shows here and decoder or service work
//! must not. Most of the time goes to the router proving the linear c2/c5
//! points unroutable.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use qccd_circuit::Circuit;
use qccd_core::{check_resource_exclusivity, ArchitectureConfig, CompileError, Compiler, Schedule};
use qccd_hardware::{TopologyKind, WiringMethod};
use qccd_qec::{parity_check_round, rotated_surface_code, CodeLayout};

use crate::pipeline::compile_traced;
use crate::report::Values;
use crate::stats::{self, Summary};
use crate::trace::Tracer;
use crate::util::{self, Checks};
use crate::{Ctx, Outcome};

/// The committed expected outcome of every sweep point.
const REFERENCE: &str = include_str!("../reference/design_sweep.txt");

/// Fewest round-robin passes over the routable points before the sweep, and
/// again after it.
const MIN_PASSES: u64 = 3;

/// One design point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepPoint {
    /// Communication topology.
    pub topology: TopologyKind,
    /// Trap capacity.
    pub capacity: usize,
    /// Code distance.
    pub distance: usize,
}

impl SweepPoint {
    /// `"linear c2 d7"`.
    pub fn label(&self) -> String {
        format!("{} c{} d{}", self.topology, self.capacity, self.distance)
    }

    /// The point's architecture: standard wiring, 1X gates.
    pub fn arch(&self) -> ArchitectureConfig {
        ArchitectureConfig::new(self.topology, self.capacity, WiringMethod::Standard, 1.0)
    }
}

/// All 27 points, or only the distance-3 slice.
pub fn points(distances: &[usize]) -> Vec<SweepPoint> {
    let mut out = Vec::new();
    for topology in [
        TopologyKind::Linear,
        TopologyKind::Grid,
        TopologyKind::Switch,
    ] {
        for capacity in [2, 5, 12] {
            for &distance in distances {
                out.push(SweepPoint {
                    topology,
                    capacity,
                    distance,
                });
            }
        }
    }
    out
}

/// The full sweep's distances.
pub const DISTANCES: [usize; 3] = [3, 5, 7];

/// `items` in a seed-determined order (Fisher–Yates).
pub fn shuffled<T>(mut items: Vec<T>, seed: u64) -> Vec<T> {
    for i in (1..items.len()).rev() {
        let j = (util::mix(seed, i as u64) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
    items
}

/// What the committed reference expects of one point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Expected {
    /// Routed, with exactly this simulated round time and movement count.
    Routed {
        /// Simulated round time, µs.
        makespan_us: f64,
        /// Simulated ion-reconfiguration operations.
        movement_ops: usize,
    },
    /// Refused with `RoutingStuck`.
    Unroutable,
}

/// The committed reference, by point label. Each line is a label (three
/// words) followed by `unroutable` or by the makespan and movement count.
fn reference() -> BTreeMap<String, Expected> {
    REFERENCE
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|line| {
            let words: Vec<&str> = line.split_whitespace().collect();
            let expected = match words[3..] {
                ["unroutable"] => Expected::Unroutable,
                [makespan, ops] => Expected::Routed {
                    makespan_us: makespan.parse().expect("reference makespan"),
                    movement_ops: ops.parse().expect("reference movement ops"),
                },
                _ => panic!("malformed reference line `{line}`"),
            };
            (words[..3].join(" "), expected)
        })
        .collect()
}

/// The compiled or failed result of one point.
#[derive(Debug)]
pub enum PointResult {
    /// Routed and scheduled.
    Routed {
        /// Simulated round time.
        makespan_us: f64,
        /// Simulated ion-reconfiguration operations.
        movement_ops: usize,
        /// Whether the schedule passed `check_resource_exclusivity`.
        exclusive: Result<(), String>,
    },
    /// The compiler refused the point.
    Failed(CompileError),
}

/// Checks each result against the committed reference: a routed schedule
/// must be resource-exclusive and repeat the reference's makespan and
/// movement count exactly, and a point must fail (with `RoutingStuck`)
/// exactly when the reference says it is unroutable.
pub fn check_results(results: &[(SweepPoint, PointResult)], checks: &mut Checks) {
    let reference = reference();
    for (point, result) in results {
        let label = point.label();
        let expected = reference.get(&label);
        let ok = match (result, expected) {
            (
                PointResult::Routed {
                    makespan_us,
                    movement_ops,
                    exclusive,
                },
                Some(Expected::Routed {
                    makespan_us: want_us,
                    movement_ops: want_ops,
                }),
            ) => makespan_us == want_us && movement_ops == want_ops && exclusive.is_ok(),
            (PointResult::Failed(e), Some(Expected::Unroutable)) => {
                matches!(e, CompileError::RoutingStuck { .. })
            }
            _ => false,
        };
        checks.check(ok, || {
            format!("design point {label}: {result:?}, reference {expected:?}")
        });
    }
}

fn routed(program: Result<Schedule, CompileError>) -> PointResult {
    match program {
        Ok(schedule) => PointResult::Routed {
            makespan_us: schedule.makespan_us,
            movement_ops: schedule.movement_ops,
            exclusive: check_resource_exclusivity(&schedule, WiringMethod::Standard),
        },
        Err(e) => PointResult::Failed(e),
    }
}

/// Routable points and the geometric mean of their simulated round times.
pub fn round_time_summary(results: &[(SweepPoint, PointResult)]) -> (usize, f64) {
    let times: Vec<f64> = results
        .iter()
        .filter_map(|(_, r)| match r {
            PointResult::Routed { makespan_us, .. } => Some(*makespan_us),
            PointResult::Failed(_) => None,
        })
        .collect();
    let geomean = (times.iter().map(|t| t.ln()).sum::<f64>() / times.len().max(1) as f64).exp();
    (times.len(), geomean)
}

/// `nproc` concurrent untraced sweeps over `prepared`, each compiling every
/// point once through `compile_rounds`, timed as a whole, plus the compile
/// latency of every routable point.
pub struct SweepRun {
    /// Mean wall time of the concurrent sweeps.
    pub sweep_s: f64,
    /// Compile latency of each routable point.
    pub latencies_us: Vec<f64>,
    /// Times of the set-up (building the point list) repeated once per
    /// round-robin pass.
    pub setups_s: Vec<f64>,
    /// Per-point results of each sweep, in sweep order.
    pub results: Vec<Vec<(SweepPoint, PointResult)>>,
}

/// What one sweep thread measured.
struct ThreadRun {
    sweep_s: f64,
    /// Summed compile time per point.
    total: Vec<f64>,
    /// Round-robin passes made.
    passes: u64,
    setups_s: Vec<f64>,
    results: Vec<(SweepPoint, PointResult)>,
}

/// One sweep thread: round-robin passes over `routable` for half of
/// `budget`, the sweep, and passes for the other half.
fn sweep_thread(
    prepared: &[(SweepPoint, Compiler, CodeLayout)],
    routable: &[usize],
    seed: u64,
    budget: Duration,
) -> ThreadRun {
    let mut total = vec![0.0; prepared.len()];
    let mut passes = 0u64;
    let mut setups_s = Vec::new();
    let mut refine = |total: &mut [f64], budget: Duration| {
        let refining = Instant::now();
        let mut n = 0;
        while !routable.is_empty() && (n < MIN_PASSES || refining.elapsed() < budget) {
            let t = Instant::now();
            std::hint::black_box(prepare(&points(&DISTANCES)));
            setups_s.push(t.elapsed().as_secs_f64());
            for i in shuffled(routable.to_vec(), util::mix(seed, passes)) {
                let (_, compiler, layout) = &prepared[i];
                let t = Instant::now();
                std::hint::black_box(compiler.compile_rounds(layout, 1).ok());
                total[i] += t.elapsed().as_secs_f64();
            }
            passes += 1;
            n += 1;
        }
    };
    refine(&mut total, budget / 2);
    let started = Instant::now();
    let mut results = Vec::with_capacity(prepared.len());
    for (i, (point, compiler, layout)) in prepared.iter().enumerate() {
        let t = Instant::now();
        let program = compiler.compile_rounds(layout, 1);
        total[i] += t.elapsed().as_secs_f64();
        results.push((*point, routed(program.map(|p| p.schedule))));
    }
    let sweep_s = started.elapsed().as_secs_f64();
    refine(&mut total, budget / 2);
    ThreadRun {
        sweep_s,
        total,
        passes,
        setups_s,
        results,
    }
}

fn sweep_untraced(
    prepared: &[(SweepPoint, Compiler, CodeLayout)],
    seed: u64,
    budget: Duration,
    threads: usize,
) -> SweepRun {
    // The host's speed drifts by tens of percent over seconds to minutes, in
    // slow spells that need not hit both vCPUs at once, and how long the
    // router takes to give up on a point changes with the hash-map order
    // each thread seeds afresh. One sweep on one thread reads all of that;
    // `threads` concurrent sweeps, each with its own passes, average it out.
    //
    // Latency counts routable points only: how long the router takes to give
    // up on an unroutable point changes from process to process (by 1.6× for
    // linear c5 d7 on the reference host), so those points weigh in `sweep_s`
    // and the traced run's `core.route_err_s` instead. The points the
    // committed reference calls routable are compiled in round-robin passes,
    // each pass in its own seed order, for half of `budget` before the sweep
    // and half after it, and report their mean compile time: passes at both
    // ends of the sweep sample the host at two moments about half a minute
    // apart, and a mean repeats better than a median or minimum that picks
    // one mode. A point the reference calls routable that fails is counted
    // by `check_results`.
    let reference = reference();
    let routable: Vec<usize> = (0..prepared.len())
        .filter(|&i| {
            matches!(
                reference.get(&prepared[i].0.label()),
                Some(Expected::Routed { .. })
            )
        })
        .collect();
    let runs: Vec<ThreadRun> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.max(1) as u64)
            .map(|k| {
                let routable = &routable;
                scope.spawn(move || sweep_thread(prepared, routable, util::mix(seed, k), budget))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("sweep thread panicked"))
            .collect()
    });
    let compiles: u64 = runs.iter().map(|r| r.passes + 1).sum();
    let latencies_us = routable
        .iter()
        .map(|&i| runs.iter().map(|r| r.total[i]).sum::<f64>() / compiles as f64 * 1e6)
        .collect();
    SweepRun {
        sweep_s: runs.iter().map(|r| r.sweep_s).sum::<f64>() / runs.len() as f64,
        latencies_us,
        setups_s: runs
            .iter()
            .flat_map(|r| r.setups_s.iter().copied())
            .collect(),
        results: runs.into_iter().map(|r| r.results).collect(),
    }
}

fn prepare(points: &[SweepPoint]) -> Vec<(SweepPoint, Compiler, CodeLayout)> {
    points
        .iter()
        .map(|p| {
            (
                *p,
                Compiler::new(p.arch()),
                rotated_surface_code(p.distance),
            )
        })
        .collect()
}

/// The untraced sweep over every point in Figure 8(a)'s order (a fixed
/// order keeps the allocator's history, and so the peak RSS, the same from
/// run to run), checked; returns the run and its printed lines.
pub fn timed_sweep(ctx: &Ctx, checks: &mut Checks) -> (SweepRun, Vec<String>) {
    let order = points(&DISTANCES);
    let prepared = prepare(&order);
    let run = sweep_untraced(
        &prepared,
        ctx.seed,
        Duration::from_secs(ctx.seconds),
        ctx.nproc,
    );
    for results in &run.results {
        check_results(results, checks);
    }
    let (routable, round_time) = round_time_summary(&run.results[0]);
    let lines = vec![
        format!(
            "  sweep_s              {:.6} s ({} points, mean of {} concurrent sweeps of one thread each)",
            run.sweep_s,
            order.len(),
            run.results.len()
        ),
        format!("  round_time_us        {round_time:.3} us (simulated; geometric mean over routable points)"),
        format!("  routable_points      {routable} of {}", order.len()),
        format!(
            "  routable latency     {}",
            Summary::of(&run.latencies_us).describe("us")
        ),
    ];
    (run, lines)
}

/// The `design_sweep` workload, untraced.
///
/// # Errors
///
/// None in practice; the signature matches the other workloads.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut checks = Checks::default();
    // Set-up: the sweep's compilers and code layouts.
    let (run, mut lines) = timed_sweep(ctx, &mut checks);
    // Set-up (building the point list) takes a fraction of a millisecond, so
    // it is timed once per round-robin pass and the median taken: a burst of
    // repeats would land in one of the host's speed modes.
    let setup_s = stats::median(&run.setups_s);
    let latency = Summary::of(&run.latencies_us);
    let mut values = Values::default();
    values.set("setup_s", setup_s);
    values.set(
        "throughput_per_s",
        run.results[0].len() as f64 / run.sweep_s,
    );
    values.set("latency_p50_us", latency.p50);
    lines.insert(
        0,
        format!(
            "  set-up               median of {} builds of the point list, one per pass",
            run.setups_s.len()
        ),
    );
    Ok(Outcome {
        checks,
        values,
        lines,
    })
}

/// Result of the traced compile leg.
#[derive(Debug, Default)]
pub struct CoreLeg {
    /// Points compiled.
    pub calls: usize,
    /// Simulated movement operations summed over routed points.
    pub movement_ops: usize,
}

/// Compiles `points` pass by pass under spans. After the leg, each routed
/// point's schedule must match `compile_rounds` (same makespan and movement
/// operations), and every result must match the committed reference.
pub fn traced_sweep(tracer: &Tracer, points: &[SweepPoint], checks: &mut Checks) -> CoreLeg {
    let results: Vec<(SweepPoint, PointResult)> = {
        let _leg = tracer.span("bench.core_leg");
        points
            .iter()
            .map(|point| {
                let layout = rotated_surface_code(point.distance);
                let circuit = parity_check_round(&layout);
                (
                    *point,
                    routed(compile_traced(tracer, &point.arch(), &layout, &circuit)),
                )
            })
            .collect()
    };
    let mut leg = CoreLeg {
        calls: results.len(),
        movement_ops: 0,
    };
    for (point, result) in &results {
        if let PointResult::Routed {
            makespan_us,
            movement_ops,
            ..
        } = result
        {
            leg.movement_ops += movement_ops;
            let direct = Compiler::new(point.arch())
                .compile_rounds(&rotated_surface_code(point.distance), 1);
            let same = direct.as_ref().is_ok_and(|p| {
                p.elapsed_time_us() == *makespan_us && p.movement_ops() == *movement_ops
            });
            checks.check(same, || {
                format!(
                    "{}: passes composed differ from compile_rounds",
                    point.label()
                )
            });
        }
    }
    check_results(&results, checks);
    leg
}

/// Tracing overhead of the compile passes, measured on the routable points
/// only (how long the router takes to give up on the others varies from
/// process to process far more than tracing costs): round-robin passes in
/// seed order alternate between [`compile_traced`] with `tracer` and with a
/// disabled tracer in the order untraced, traced, traced, untraced, … (so
/// neither side always goes first), after one untimed pass of each, for at
/// least `budget`. Returns traced / untraced time − 1.
pub fn routable_overhead(tracer: &Tracer, seed: u64, budget: Duration) -> f64 {
    let reference = reference();
    let routable: Vec<(ArchitectureConfig, CodeLayout, Circuit)> = points(&DISTANCES)
        .into_iter()
        .filter(|p| matches!(reference.get(&p.label()), Some(Expected::Routed { .. })))
        .map(|p| {
            let layout = rotated_surface_code(p.distance);
            let circuit = parity_check_round(&layout);
            (p.arch(), layout, circuit)
        })
        .collect();
    let tracers = [&Tracer::disabled(), tracer];
    let pass = |with: &Tracer, order: u64| -> f64 {
        let t = Instant::now();
        for i in shuffled((0..routable.len()).collect(), util::mix(seed, order)) {
            let (arch, layout, circuit) = &routable[i];
            std::hint::black_box(compile_traced(with, arch, layout, circuit).ok());
        }
        t.elapsed().as_secs_f64()
    };
    pass(tracers[0], u64::MAX);
    pass(tracers[1], u64::MAX);
    let mut spent = [0.0f64; 2];
    let started = Instant::now();
    let mut n = 0u64;
    while n < 4 * MIN_PASSES || started.elapsed() < budget {
        let which = [0, 1, 1, 0][(n % 4) as usize];
        spent[which] += pass(tracers[which], n / 2);
        n += 1;
    }
    spent[1] / spent[0] - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_has_27_distinct_points_and_the_shuffle_is_a_permutation() {
        let all = points(&DISTANCES);
        assert_eq!(all.len(), 27);
        let labels: std::collections::BTreeSet<String> =
            all.iter().map(SweepPoint::label).collect();
        assert_eq!(labels.len(), 27);
        let shuffled = shuffled(all.clone(), 11);
        assert_ne!(shuffled, all);
        let again: std::collections::BTreeSet<String> =
            shuffled.iter().map(SweepPoint::label).collect();
        assert_eq!(again, labels);
        assert_eq!(shuffled, super::shuffled(all, 11));
    }

    #[test]
    fn reference_covers_every_sweep_point_once() {
        let labels: Vec<String> = points(&DISTANCES).iter().map(SweepPoint::label).collect();
        let reference = reference();
        let named: Vec<&String> = reference.keys().collect();
        let mut sorted = labels.clone();
        sorted.sort();
        assert_eq!(named, sorted.iter().collect::<Vec<_>>());
        let unroutable = reference
            .values()
            .filter(|e| **e == Expected::Unroutable)
            .count();
        assert_eq!(unroutable, 6);
        let lines = REFERENCE
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
            .count();
        assert_eq!(lines, 27, "a point is listed twice");
    }
}
