//! The compile → lower → DEM → decoding graph → memo warm chain that turns
//! one architecture and code distance into a decoder, plus the decomposed
//! compile the traced run times pass by pass.

use qccd_circuit::Circuit;
use qccd_core::{
    lower_to_noisy_circuit, map_qubits_with_strategy, route, schedule, ArchitectureConfig,
    ClusteringStrategy, CompileError, Compiler, Schedule,
};
use qccd_decoder::{
    DecodeScratch, Decoder, DecodingGraph, MemoConfig, MemoSnapshot, PredictionChunk,
    UnionFindDecoder,
};
use qccd_qec::{memory_experiment, rotated_surface_code, CodeLayout, MemoryBasis};
use qccd_sim::{DetectorErrorModel, NoisyCircuit, SyndromeChunk};

use crate::trace::Tracer;

/// A rotated-surface-code Z-memory experiment of `distance` rounds on one
/// architecture.
#[derive(Debug, Clone)]
pub struct MemoryPoint {
    /// The architecture.
    pub arch: ArchitectureConfig,
    /// Code distance (also the number of rounds).
    pub distance: usize,
}

/// Everything set-up produces for a memory point.
#[derive(Debug)]
pub struct Pipeline {
    /// The compiled, noise-lowered circuit.
    pub noisy: NoisyCircuit,
    /// Detectors of the circuit's error model.
    pub num_detectors: usize,
    /// Fault mechanisms of the circuit's error model.
    pub mechanisms: usize,
    /// Expected faults per shot.
    pub expected_errors: f64,
    /// Union-find over the circuit's decoding graph.
    pub decoder: UnionFindDecoder,
    /// The warm memo snapshot every decode adopts.
    pub snapshot: Option<MemoSnapshot>,
}

/// Compiles `circuit` through the three compiler passes separately, with a
/// span around each call: `core.map`, `core.route` (renamed
/// `core.route_err` when routing fails) and `core.schedule`, all under one
/// `core.compile`. This is what `Compiler::compile_circuit` runs.
///
/// # Errors
///
/// The first pass error.
pub fn compile_traced(
    tracer: &Tracer,
    arch: &ArchitectureConfig,
    layout: &CodeLayout,
    circuit: &Circuit,
) -> Result<Schedule, CompileError> {
    let _compile = tracer.span("core.compile");
    let device = arch.device_for(layout.num_qubits());
    let mapping = {
        let _s = tracer.span("core.map");
        map_qubits_with_strategy(layout, &device, ClusteringStrategy::Geometric)?
    };
    let routed = {
        let mut s = tracer.span("core.route");
        let routed = route(circuit, layout, &device, &mapping);
        if routed.is_err() {
            s.rename("core.route_err");
        }
        routed?
    };
    let _s = tracer.span("core.schedule");
    Ok(schedule(&routed, &arch.operation_times, arch.wiring))
}

/// Builds the decode set-up of `point`. Untraced, the compile goes through
/// the public `Compiler::compile_memory_experiment`; traced, through
/// [`compile_traced`], whose schedule is checked against the compiler's in
/// the traced run.
///
/// # Errors
///
/// Compile errors and dangling detector annotations, as text.
pub fn build(point: &MemoryPoint, tracer: &Tracer) -> Result<Pipeline, String> {
    let layout = rotated_surface_code(point.distance);
    let rounds = point.distance;
    let noisy = if tracer.enabled() {
        let circuit = memory_experiment(&layout, rounds, MemoryBasis::Z).circuit;
        let schedule =
            compile_traced(tracer, &point.arch, &layout, &circuit).map_err(|e| e.to_string())?;
        let _s = tracer.span("core.lower");
        lower_to_noisy_circuit(&schedule, &circuit, &point.arch.noise)
    } else {
        Compiler::new(point.arch.clone())
            .compile_memory_experiment(&layout, rounds, MemoryBasis::Z)
            .map_err(|e| e.to_string())?
            .to_noisy_circuit()
    };
    let dem = {
        let _s = tracer.span("sim.dem_build");
        DetectorErrorModel::from_circuit(&noisy).map_err(|e| format!("dangling {e:?}"))?
    };
    let decoder = {
        let _s = tracer.span("decoder.graph_build");
        UnionFindDecoder::new(DecodingGraph::from_dem(&dem))
    };
    let snapshot = {
        let _s = tracer.span("decoder.memo_warm");
        let mut warm = DecodeScratch::with_memo_config(MemoConfig::default());
        decoder.warm_memo_snapshot(dem.num_detectors, &mut warm)
    };
    Ok(Pipeline {
        num_detectors: dem.num_detectors,
        mechanisms: dem.errors.len(),
        expected_errors: dem.expected_errors_per_shot(),
        noisy,
        decoder,
        snapshot,
    })
}

/// Shots of `chunk` whose predicted observable flips differ from the
/// sampled ones, as a bit mask per 64-shot word (tail lanes cleared).
pub fn mismatch_words(chunk: &SyndromeChunk, prediction: &PredictionChunk) -> Vec<u64> {
    let mut mismatch = vec![0u64; chunk.words()];
    for observable in 0..chunk.num_observables() {
        let actual = chunk.observable_plane(observable);
        let predicted = prediction.plane(observable);
        for (m, (&a, &p)) in mismatch.iter_mut().zip(actual.iter().zip(predicted)) {
            *m |= a ^ p;
        }
    }
    if let Some(last) = mismatch.last_mut() {
        *last &= chunk.tail_mask();
    }
    mismatch
}

/// Logical failures of the per-shot union-find reference (memo disabled)
/// on `chunk`.
pub fn reference_failures(decoder: &UnionFindDecoder, chunk: &SyndromeChunk) -> usize {
    let mut scratch = DecodeScratch::with_memo_config(MemoConfig::disabled());
    let prediction = decoder.decode_batch_per_shot(chunk, &mut scratch);
    mismatch_words(chunk, &prediction)
        .iter()
        .map(|w| w.count_ones() as usize)
        .sum()
}
