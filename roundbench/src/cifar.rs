//! `cifar10_inproc`: the CIFAR-10/ResNet18 preset trained in-process.
//!
//! 100 devices under label skew m=2, 25 sampled per round (paper §6.1),
//! 3 local epochs, Raw codec without auth, no transport, fault-free,
//! rounds driven by `NebulaStrategy::single_round`. Local training is
//! most of the round, so a kernel or client-parallelism change shows
//! here and a socket or journal change must not.

use crate::calib;
use crate::micro;
use crate::stats::{fnv_digest, CpuWindow};
use crate::timing::{TimedLayer, TimedOptimizer};
use crate::trace::{attributed_ms, count, self_ms, table, Tracer};
use crate::{end_to_end, layer_outcome, metric, Outcome, Segment};
use nebula_core::{
    modular_config_for, EdgeClient, EdgeUpdate, RobustAggregator, SanitizePolicy, WireContext,
};
use nebula_data::{
    evaluate_accuracy, train_epochs, PartitionSpec, Partitioner, Synthesizer, TaskPreset, TrainConfig,
};
use nebula_nn::{Layer, Sgd};
use nebula_sim::strategy::StrategyConfig;
use nebula_sim::{AdaptStrategy, NebulaStrategy, ResourceSampler, SimWorld};
use nebula_telemetry::Telemetry;
use nebula_tensor::NebulaRng;
use std::time::{Duration, Instant};

/// Timed rounds per segment: two segments (each with its ≈3.5 s set-up)
/// fill a 40 s run at ≈1 s per round.
const ROUNDS: usize = 16;
const DEVICES: usize = 100;
const HELD_OUT: usize = 1000;

struct Setup {
    world: SimWorld,
    strategy: NebulaStrategy,
    rng: NebulaRng,
    cfg: StrategyConfig,
}

fn setup(seed: u64) -> Setup {
    let task = TaskPreset::Cifar10;
    let synth = Synthesizer::new(task.synth_spec(), seed);
    let spec = PartitionSpec::new(DEVICES, Partitioner::LabelSkew { m: 2 });
    let mut world =
        SimWorld::new(synth, spec, seed ^ 0x6E0, None, &ResourceSampler::default(), seed ^ 0x5EED);
    let cfg = StrategyConfig::new(modular_config_for(task));
    let mut strategy = NebulaStrategy::new(cfg.clone(), seed);
    let mut rng = NebulaRng::seed(seed ^ 0x7A6);
    strategy.offline(&mut world, &mut rng);
    Setup { world, strategy, rng, cfg }
}

/// Cloud-model accuracy on a fixed held-out sample, outside the timed
/// rounds.
fn held_out_accuracy(s: &mut Setup, seed: u64) -> f64 {
    let test = s.world.synth.sample(HELD_OUT, 0, &mut NebulaRng::seed(seed ^ 0x7E57));
    evaluate_accuracy(s.strategy.cloud_mut().model_mut(), &test, 64) as f64
}

fn segment(seed: u64, t0: Instant) -> Result<Segment, String> {
    let mut s = setup(seed);
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
        let out = s.strategy.single_round(&mut s.world, &mut s.rng);
        seg.round_ms.push(start.elapsed().as_secs_f64() * 1e3);
        seg.sampled += out.stats.faults.sampled;
        seg.participated += out.stats.faults.participated;
        seg.wire_bytes += out.stats.comm.up_bytes + out.stats.comm.down_bytes;
    }
    seg.slowdown.push(calib::slowdown());
    seg.digest = fnv_digest(&s.strategy.cloud().model().param_vector());
    let acc = held_out_accuracy(&mut s, seed);
    let chance = 1.0 / s.cfg.modular.classes as f64;
    if acc <= chance {
        return Err(format!("held-out accuracy {acc:.4} is not above chance {chance:.3}"));
    }
    seg.accuracy = Some(acc);
    Ok(seg)
}

pub fn run(seed: u64, seconds: Duration, process_start: Instant) -> Outcome {
    end_to_end(seconds, process_start, |t0, _| segment(seed, t0))
}

/// What the traced replay counted beyond its spans.
#[derive(Default)]
struct Counts {
    frames: u64,
    bytes: u64,
    /// Parameter bytes (4 per f32) carried by those frames; each frame is
    /// encoded once and decoded once.
    param_bytes: u64,
    samples: u64,
    sampled: u64,
    participated: u64,
    /// Frames of the first replayed round, for the CRC/MAC probes.
    captured: Vec<Vec<u8>>,
}

/// One round replayed as the sequence of public calls
/// `NebulaStrategy::single_round` makes on a fault-free in-process
/// round under the Raw codec — same sampling, same `rng.fork(id ^ 0xEB)`
/// streams, same `EdgeClient::adapt` training config, same aggregation —
/// with a span around each call.
fn replay_round(s: &mut Setup, wire: &mut WireContext, t: &Telemetry, c: &mut Counts, capture: bool) {
    let _round = t.span("bench.round");
    let cfg = s.cfg.clone();
    let ids = {
        let _s = t.span("sim.sample");
        let ids = s.world.sample_participants(cfg.devices_per_round);
        s.world.next_round_index();
        ids
    };
    c.sampled += ids.len() as u64;
    let mut frame = Vec::new();
    let mut jobs = Vec::with_capacity(ids.len());
    for &id in &ids {
        let (profile, local) = {
            let _s = t.span("sim.sample");
            let dev = &s.world.devices[id];
            (dev.profile(s.strategy.cloud().cost_model()), dev.partition.data.clone())
        };
        let outcome = {
            let _s = t.span("derive");
            s.strategy.cloud_mut().derive_for_data(&local, &profile, None)
        };
        let payload = {
            let _s = t.span("dispatch");
            s.strategy.cloud().dispatch(&outcome.spec)
        };
        let n = {
            let _s = t.span("wire.encode");
            wire.encode_payload(id as u64, &payload, &mut frame)
        };
        let payload = {
            let _s = t.span("wire.decode");
            wire.decode_payload(id as u64, &frame).expect("a pristine in-process frame decodes")
        };
        c.frames += 1;
        c.bytes += n as u64;
        c.param_bytes += payload.bytes();
        if capture {
            c.captured.push(frame.clone());
        }
        jobs.push((id, payload, local, s.rng.fork(id as u64 ^ 0xEB)));
    }
    let mut updates: Vec<(usize, EdgeUpdate)> = Vec::with_capacity(jobs.len());
    for (id, payload, local, mut drng) in jobs {
        nebula_tensor::par::sequential(|| {
            let mut client = {
                let _s = t.span("core.edge.build");
                EdgeClient::from_payload(cfg.modular.clone(), &payload)
            };
            {
                let _s = t.span("data.train_epochs");
                let mut opt = TimedOptimizer::new(Sgd::with_momentum(cfg.local_lr, 0.9), t.clone());
                let mut model = TimedLayer::new(client.model_mut(), t.clone());
                let train = TrainConfig {
                    epochs: cfg.local_epochs,
                    batch_size: cfg.batch_size,
                    clip_norm: Some(5.0),
                };
                train_epochs(&mut model, &mut opt, &local, train, &mut drng);
            }
            c.samples += (local.len() * cfg.local_epochs) as u64;
            let _s = t.span("core.edge.update");
            updates.push((id, client.make_update(&local)));
        });
    }
    let mut accepted = Vec::with_capacity(updates.len());
    for (id, update) in updates {
        let n = {
            let _s = t.span("wire.encode");
            wire.encode_update(id as u64, &update, &mut frame)
        };
        let decoded = {
            let _s = t.span("wire.decode");
            wire.decode_update_from(id as u64, &frame).expect("a pristine in-process frame decodes")
        };
        c.frames += 1;
        c.bytes += n as u64;
        c.param_bytes += nebula_core::edge::update_bytes(&decoded);
        if capture {
            c.captured.push(frame.clone());
        }
        accepted.push(decoded);
    }
    c.participated += accepted.len() as u64;
    let _s = t.span("aggregate");
    s.strategy.cloud_mut().aggregate_robust_with(
        &accepted,
        &SanitizePolicy::default(),
        RobustAggregator::WeightedMean,
    );
}

/// The traced run: one set-up, `ROUNDS` untraced rounds, then the same
/// rounds replayed from the same state through the public calls with
/// spans. The replay must end on the untraced digest.
pub fn traced(seed: u64) -> Outcome {
    let mut out = Outcome::default();
    let mut s = setup(seed);
    let state = s.strategy.export_state().expect("the Raw codec exports state");
    let (world_rng, rounds_started, rng) = (s.world.rng_state(), s.world.rounds_started(), s.rng.state());

    let cpu = CpuWindow::start();
    let start = Instant::now();
    for _ in 0..ROUNDS {
        s.strategy.single_round(&mut s.world, &mut s.rng);
    }
    let untraced_s = start.elapsed().as_secs_f64();
    let cpu_util = cpu.utilization();
    let untraced_digest = fnv_digest(&s.strategy.cloud().model().param_vector());

    s.strategy.import_state(&state).expect("re-import the exported state");
    s.world.restore_rng_state(world_rng).expect("valid world rng state");
    s.world.set_rounds_started(rounds_started);
    s.rng = NebulaRng::from_state(rng).expect("valid rng state");
    let tracer = Tracer::new();
    let t = tracer.telemetry();
    let mut wire = WireContext::new(s.cfg.wire);
    let mut c = Counts::default();
    let start = Instant::now();
    for r in 0..ROUNDS {
        replay_round(&mut s, &mut wire, &t, &mut c, r == 0);
    }
    let traced_s = start.elapsed().as_secs_f64();
    let traced_digest = fnv_digest(&s.strategy.cloud().model().param_vector());
    if traced_digest != untraced_digest {
        out.problems
            .push(format!("traced replay digest {traced_digest:016x} != untraced {untraced_digest:016x}"));
    }
    out.notes.push(format!("digest: untraced {untraced_digest:016x} traced replay {traced_digest:016x}"));

    let spans = tracer.spans();
    out.notes.extend(table(&spans, ROUNDS));
    let per_round = |names: &[&str]| self_ms(&spans, names) / ROUNDS as f64;
    let r = ROUNDS as f64;
    let (enc_ms, dec_ms) = (self_ms(&spans, &["wire.encode"]), self_ms(&spans, &["wire.decode"]));
    let mib = |b: u64| b as f64 / (1024.0 * 1024.0);
    let train_s = spans.get("data.train_epochs").map_or(0.0, |s| s.total_ns as f64 / 1e9);
    let attributed = attributed_ms(&spans, &["bench.round"]);
    out.attempted = c.sampled;
    out.failed = c.sampled - c.participated;
    let table = vec![
        metric("nn.forward_ms", per_round(&["nn.forward"]), "ms"),
        metric("nn.backward_ms", per_round(&["nn.backward"]), "ms"),
        metric("nn.clip_ms", per_round(&["nn.clip"]), "ms"),
        metric("nn.optim_ms", per_round(&["nn.optim", "nn.zero_grad"]), "ms"),
        metric("nn.batches", count(&spans, "nn.forward") as f64 / r, "count"),
        metric("nn.samples_per_s", c.samples as f64 / train_s.max(1e-9), "1/s"),
        metric("data.train_loop_ms", per_round(&["data.train_epochs"]), "ms"),
        metric("core.edge.build_ms", per_round(&["core.edge.build"]), "ms"),
        metric("core.edge.update_ms", per_round(&["core.edge.update"]), "ms"),
        metric(
            "tensor.preset_gemm_gflops",
            micro::preset_gemm_gflops(&s.cfg.modular, s.cfg.batch_size),
            "GFLOP/s",
        ),
        metric("par.cpu_util", cpu_util, "ratio"),
        metric("core.derive_dispatch_ms", per_round(&["derive", "dispatch"]), "ms"),
        metric("derive.calls", count(&spans, "derive") as f64 / r, "count"),
        metric("derive.ms", per_round(&["derive"]), "ms"),
        metric("dispatch.ms", per_round(&["dispatch"]), "ms"),
        metric("wire.frames", c.frames as f64 / r, "count"),
        metric("wire.bytes", c.bytes as f64 / r, "bytes"),
        metric("wire.tx_ms", (enc_ms + dec_ms) / r, "ms"),
        metric("wire.encode_ms", enc_ms / r, "ms"),
        metric("wire.decode_ms", dec_ms / r, "ms"),
        metric("wire.encode_mib_s", mib(c.param_bytes) / (enc_ms / 1e3).max(1e-9), "MiB/s"),
        metric("wire.decode_mib_s", mib(c.param_bytes) / (dec_ms / 1e3).max(1e-9), "MiB/s"),
        metric("wire.crc_mib_s", micro::crc_mib_s(&c.captured), "MiB/s"),
        metric("wire.mac_mib_s", micro::mac_mib_s(&c.captured), "MiB/s"),
        metric("core.aggregate_ms", per_round(&["aggregate"]), "ms"),
        metric("sim.sample_ms", per_round(&["sim.sample"]), "ms"),
        metric("trace.unattributed_share", 1.0 - attributed / (traced_s * 1e3), "ratio"),
        metric("trace.overhead_pct", (traced_s / untraced_s - 1.0) * 100.0, "%"),
    ];
    layer_outcome(&mut out, table);
    out
}
