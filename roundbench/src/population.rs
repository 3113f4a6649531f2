//! `population_sharded`: the `scale_sweep` tier at 10^5 devices.
//!
//! `ShardedWorld` in `RoundMode::Synthetic`: 10^5 virtual devices,
//! 1,000 sampled per round, 8 edge shards, `FoldPlan::PerCell`,
//! `WeightedMean`, toy modular model. No training, no wire, no sockets:
//! materialize, derive/knapsack, dispatch, the streaming fold and absorb
//! do all the work, so a GEMM, wire or serve change must show no change
//! here.

use crate::calib;
use crate::micro;
use crate::stats::{fnv_digest, CpuWindow};
use crate::trace::{attributed_ms, self_ms, table, Tracer};
use crate::{end_to_end, layer_outcome, metric, Outcome, Segment};
use nebula_core::{EdgePartial, EdgeServer, EdgeUpdate, ResourceProfile};
use nebula_modular::ModularConfig;
use nebula_nn::Layer;
use nebula_sim::{FoldPlan, RoundMode, ShardConfig, ShardedWorld};
use nebula_telemetry::Telemetry;
use nebula_tensor::NebulaRng;
use std::time::{Duration, Instant};

const POPULATION: usize = 100_000;
const COHORT: usize = 1_000;
const SHARDS: usize = 8;
/// Rounds per segment: ≈50 × 110 ms, so a 40 s run holds six to seven
/// segments and well over 100 timed rounds.
const ROUNDS: usize = 50;

fn modular() -> ModularConfig {
    let mut modular = ModularConfig::toy(16, 4);
    modular.gate_noise_std = 0.0;
    modular
}

fn world(seed: u64) -> Result<ShardedWorld, String> {
    let mut cfg = ShardConfig::new(POPULATION, COHORT, SHARDS);
    // The scale_sweep cell layout for this tier.
    cfg.spec.cell_size = (POPULATION / 128).clamp(32, 8192);
    cfg.fold = FoldPlan::PerCell;
    cfg.mode = RoundMode::Synthetic;
    ShardedWorld::new(modular(), cfg, seed).map_err(|e| format!("sharded world: {e:?}"))
}

fn segment(seed: u64, t0: Instant) -> Result<Segment, String> {
    let mut w = world(seed)?;
    let setup_s = t0.elapsed().as_secs_f64();
    let mut seg = Segment {
        setup_s,
        round_ms: Vec::with_capacity(ROUNDS),
        slowdown: Vec::with_capacity(ROUNDS + 1),
        sampled: 0,
        participated: 0,
        wire_bytes: 0,
        digest: 0,
        accuracy: None,
    };
    for _ in 0..ROUNDS {
        seg.slowdown.push(calib::slowdown());
        let start = Instant::now();
        let r = w.run_round();
        seg.round_ms.push(start.elapsed().as_secs_f64() * 1e3);
        if r.sampled != COHORT || r.touched == 0 {
            return Err(format!(
                "round {} sampled {} devices and touched {} modules",
                r.round, r.sampled, r.touched
            ));
        }
        seg.sampled += r.sampled as u64;
        seg.participated += r.accepted as u64;
        seg.wire_bytes += r.device_upload_bytes + r.partial_upload_bytes;
    }
    seg.slowdown.push(calib::slowdown());
    let params = w.cloud().model().param_vector();
    if params.iter().any(|p| !p.is_finite()) {
        return Err("cloud model has non-finite parameters".into());
    }
    seg.digest = fnv_digest(&params);
    Ok(seg)
}

pub fn run(seed: u64, seconds: Duration, process_start: Instant) -> Outcome {
    end_to_end(seconds, process_start, |t0, _| segment(seed, t0))
}

/// The same budget-scaled profile `ShardedWorld` gives a device.
fn profile(budget_ratio: f32, edge: &EdgeServer) -> ResourceProfile {
    let full = edge.cost_model().full_model();
    let r = budget_ratio as f64;
    ResourceProfile {
        mem_bytes: (full.training_mem_bytes as f64 * r) as u64,
        flops: (full.flops as f64 * r) as u64,
        comm_bytes: (full.comm_bytes as f64 * r) as u64,
    }
}

/// One round pushed through the public calls `ShardedWorld::run_round`
/// makes: per shard an edge replica, per cell a sorted sample of device
/// ids, per device materialize → synthetic importance → derive →
/// dispatch → perturbed update → fold, cells sealed, partials absorbed.
/// The world's cell sampler is private, so the ids are this replay's own
/// draw of the same size per cell; it times the same work, not the same
/// trajectory. Returns the number of devices pushed.
fn replay_round(w: &mut ShardedWorld, round: u64, seed: u64, t: &Telemetry) -> usize {
    let _round = t.span("bench.round");
    let cfg = w.config().clone();
    let modular = modular();
    let cells = w.cells();
    let cells_per_shard = cells.div_ceil(SHARDS);
    let mut pushed = 0;
    let mut partials: Vec<EdgePartial> = Vec::with_capacity(SHARDS);
    for s in 0..SHARDS {
        let mut edge = {
            let _s = t.span("core.edge.build");
            EdgeServer::new(w.cloud(), cfg.aggregator, cfg.sanitize)
        };
        for cell in s * cells_per_shard..((s + 1) * cells_per_shard).min(cells) {
            let start = cell * cfg.spec.cell_size;
            let end = (start + cfg.spec.cell_size).min(POPULATION);
            let quota = COHORT / cells + usize::from(cell < COHORT % cells);
            let ids = {
                let _s = t.span("sim.sample");
                let mut rng =
                    NebulaRng::seed(seed ^ round.rotate_left(23) ^ (cell as u64).wrapping_mul(0x9E37_79B9));
                let mut offsets = rng.sample_indices(end - start, quota);
                offsets.sort_unstable();
                offsets
            };
            for off in ids {
                let id = start + off;
                let dev = {
                    let _s = t.span("sim.materialize");
                    w.materialize(id)
                };
                let (imp, mut drng) = {
                    let _s = t.span("sim.synthetic_update");
                    let mut drng = NebulaRng::seed(seed ^ round ^ (id as u64).rotate_left(29));
                    let imp: Vec<Vec<f32>> = (0..modular.num_layers)
                        .map(|_| {
                            (0..modular.modules_per_layer).map(|_| drng.uniform_f32(0.05, 1.0)).collect()
                        })
                        .collect();
                    (imp, drng)
                };
                let outcome = {
                    let _s = t.span("derive");
                    edge.derive_for_importance(&imp, &profile(dev.resources.budget_ratio, &edge), None)
                };
                let payload = {
                    let _s = t.span("dispatch");
                    edge.dispatch(&outcome.spec)
                };
                let update = {
                    let _s = t.span("sim.synthetic_update");
                    let mut module_params = payload.module_params;
                    for v in module_params.values_mut().flatten() {
                        *v += drng.normal_f32(0.0, 1e-3);
                    }
                    let mut shared_params = payload.shared_params;
                    for v in shared_params.iter_mut() {
                        *v += drng.normal_f32(0.0, 1e-3);
                    }
                    EdgeUpdate {
                        spec: outcome.spec,
                        module_params,
                        shared_params,
                        importance: imp,
                        data_volume: dev.volume,
                    }
                };
                let _s = t.span("aggregate.fold");
                edge.ingest(update);
                pushed += 1;
            }
            let _s = t.span("aggregate.fold");
            edge.seal(cell as u64);
        }
        let _s = t.span("aggregate.fold");
        partials.push(edge.finish(s as u64));
    }
    let _s = t.span("aggregate.absorb");
    w.cloud_mut().absorb_partials(&partials, &cfg.sanitize, cfg.aggregator);
    pushed
}

/// The traced run: `ROUNDS` untraced rounds, then `ROUNDS` replayed
/// rounds on a second world built from the same seed.
pub fn traced(seed: u64) -> Outcome {
    let mut out = Outcome::default();
    let (mut w, mut replay) = match (world(seed), world(seed)) {
        (Ok(w), Ok(replay)) => (w, replay),
        (Err(why), _) | (_, Err(why)) => {
            out.problems.push(why);
            return out;
        }
    };
    let cpu = CpuWindow::start();
    let start = Instant::now();
    let mut sampled = 0;
    for _ in 0..ROUNDS {
        sampled += w.run_round().sampled;
    }
    let untraced_s = start.elapsed().as_secs_f64();
    let cpu_util = cpu.utilization();

    let tracer = Tracer::new();
    let t = tracer.telemetry();
    let start = Instant::now();
    let mut pushed = 0;
    for round in 0..ROUNDS as u64 {
        pushed += replay_round(&mut replay, round, seed, &t);
    }
    let traced_s = start.elapsed().as_secs_f64();
    if pushed != sampled {
        out.problems.push(format!("replay pushed {pushed} devices, the untraced rounds sampled {sampled}"));
    }
    out.notes.push(format!(
        "coverage: replay pushed {pushed} devices through {} cells x {ROUNDS} rounds (untraced rounds sampled {sampled}); \
         the replay draws its own ids, so no digest identity is claimed",
        replay.cells()
    ));
    let spans = tracer.spans();
    out.notes.extend(table(&spans, ROUNDS));
    let r = ROUNDS as f64;
    let per_round = |names: &[&str]| self_ms(&spans, names) / r;
    out.attempted = sampled as u64;
    out.failed = 0;
    let table = vec![
        metric("core.edge.build_ms", per_round(&["core.edge.build"]), "ms"),
        metric("tensor.preset_gemm_gflops", micro::preset_gemm_gflops(&modular(), 16), "GFLOP/s"),
        metric("par.cpu_util", cpu_util, "ratio"),
        metric("core.derive_dispatch_ms", per_round(&["derive", "dispatch"]), "ms"),
        metric("derive.calls", crate::trace::count(&spans, "derive") as f64 / r, "count"),
        metric("derive.ms", per_round(&["derive"]), "ms"),
        metric("dispatch.ms", per_round(&["dispatch"]), "ms"),
        metric("core.aggregate_ms", per_round(&["aggregate.fold", "aggregate.absorb"]), "ms"),
        metric("aggregate.fold_ms", per_round(&["aggregate.fold"]), "ms"),
        metric("aggregate.absorb_ms", per_round(&["aggregate.absorb"]), "ms"),
        metric("sim.sample_ms", per_round(&["sim.sample"]), "ms"),
        metric("sim.materialize_ms", per_round(&["sim.materialize"]), "ms"),
        metric("sim.synthetic_update_ms", per_round(&["sim.synthetic_update"]), "ms"),
        metric(
            "trace.unattributed_share",
            1.0 - attributed_ms(&spans, &["bench.round"]) / (traced_s * 1e3),
            "ratio",
        ),
        metric("trace.overhead_pct", (traced_s / untraced_s - 1.0) * 100.0, "%"),
    ];
    layer_outcome(&mut out, table);
    out
}
