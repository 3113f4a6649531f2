//! Golden pins for the dense baselines (FedAvg and HeteroFL): three
//! rounds under each wire codec and under a mixed fault plan must land
//! on exactly these parameter digests and round counters. Any change to
//! how the baselines sample, train, move bytes or combine updates shows
//! up here.
//!
//! Every fingerprint runs under the scalar blocked kernel engine, so the
//! digests are the same on every host whatever SIMD tier it has. The
//! backend is process-global, so the tests hold one lock while they run.

use nebula_core::WireConfig;
use nebula_data::{PartitionSpec, Partitioner, SynthSpec, Synthesizer};
use nebula_modular::ModularConfig;
use nebula_nn::Layer;
use nebula_sim::strategy::StrategyConfig;
use nebula_sim::{
    param_digest, AdaptStrategy, AdversaryPlan, AttackPersona, CorruptionKind, DenseFlStrategy, FaultPlan,
    ResourceSampler, RoundPolicy, RoundStats, SimWorld,
};
use nebula_tensor::{KernelBackend, NebulaRng};
use std::sync::Mutex;

static BACKEND: Mutex<()> = Mutex::new(());

/// Runs `f` under the blocked kernel engine, one test at a time.
fn blocked<T>(f: impl FnOnce() -> T) -> T {
    let _lock = BACKEND.lock().unwrap_or_else(|e| e.into_inner());
    let _backend = KernelBackend::Blocked.scoped();
    f()
}

fn toy_world(faults: Option<FaultPlan>) -> SimWorld {
    let synth = Synthesizer::new(SynthSpec::toy(), 1);
    let spec = PartitionSpec::new(8, Partitioner::LabelSkew { m: 2 });
    let mut world = SimWorld::new(synth, spec, 9, None, &ResourceSampler::default(), 5);
    if let Some(plan) = faults {
        world.set_fault_plan(plan);
        world.set_round_policy(RoundPolicy { deadline_factor: Some(3.0), ..RoundPolicy::default() });
    }
    world
}

fn toy_cfg(wire: WireConfig) -> StrategyConfig {
    let mut cfg = StrategyConfig::new(ModularConfig::toy(16, 4));
    cfg.devices_per_round = 6;
    cfg.local_epochs = 1;
    cfg.wire = wire;
    cfg
}

/// Every fault the dense rounds handle, at once: dropout, crashes,
/// stragglers past a deadline, flaky links, transit corruption,
/// corrupted updates and a Byzantine cohort.
fn mixed_plan() -> FaultPlan {
    FaultPlan {
        seed: 20,
        dropout_prob: 0.15,
        crash_prob: 0.15,
        straggler_prob: 0.3,
        straggler_slowdown: 40.0,
        link_flake_prob: 0.3,
        bandwidth_collapse: 4.0,
        corrupt_prob: 0.3,
        corruption: CorruptionKind::Exploding,
        explode_scale: 1.5,
        frame_corrupt_prob: 0.3,
        adversary: AdversaryPlan {
            seed: 23,
            frac: 0.25,
            persona: AttackPersona::GaussianNoise,
            noise_std: 0.01,
            ..AdversaryPlan::none()
        },
    }
}

#[derive(Clone, Copy)]
enum Algo {
    FedAvg,
    HeteroFl,
}

/// Runs three rounds and renders the final server digest plus the
/// summed round counters and byte totals.
fn fingerprint(algo: Algo, wire: WireConfig, faults: Option<FaultPlan>) -> String {
    blocked(|| {
        let mut world = toy_world(faults);
        let mut rng = NebulaRng::seed(3);
        let mut stats = RoundStats::default();
        let mut s = match algo {
            Algo::FedAvg => DenseFlStrategy::fedavg(toy_cfg(wire), 1),
            Algo::HeteroFl => DenseFlStrategy::heterofl(toy_cfg(wire), 1),
        };
        for _ in 0..3 {
            stats.merge(&s.single_round(&mut world, &mut rng).stats);
        }
        let params = s.server().param_vector();
        let (c, f) = (stats.comm, stats.faults);
        format!(
            "{:016x} down={}/{} up={}/{} retry={}/{} | sampled={} participated={} dropped={} crashed={} \
             deadline={} link={} retried={} corrupt_frames={}",
            param_digest(&params),
            c.downloads,
            c.down_bytes,
            c.uploads,
            c.up_bytes,
            c.retries,
            c.retry_bytes,
            f.sampled,
            f.participated,
            f.dropped,
            f.crashed,
            f.deadline_dropped,
            f.link_dropped,
            f.retried,
            f.corrupt_frames,
        )
    })
}

#[test]
fn fedavg_raw_fault_free_is_pinned() {
    assert_eq!(fingerprint(Algo::FedAvg, WireConfig::raw(), None), "c5a23aa7c3636433 down=18/503352 up=18/503352 retry=0/0 | sampled=18 participated=18 dropped=0 crashed=0 deadline=0 link=0 retried=0 corrupt_frames=0");
}

#[test]
fn heterofl_raw_fault_free_is_pinned() {
    assert_eq!(fingerprint(Algo::HeteroFl, WireConfig::raw(), None), "1364e259a0da7a8a down=18/153912 up=18/153912 retry=0/0 | sampled=18 participated=18 dropped=0 crashed=0 deadline=0 link=0 retried=0 corrupt_frames=0");
}

#[test]
fn fedavg_raw_under_mixed_faults_is_pinned() {
    assert_eq!(fingerprint(Algo::FedAvg, WireConfig::raw(), Some(mixed_plan())), "691f7d42a9f8b10f down=11/307604 up=9/251676 retry=8/223360 | sampled=18 participated=9 dropped=3 crashed=2 deadline=2 link=2 retried=8 corrupt_frames=2");
}

#[test]
fn heterofl_raw_under_mixed_faults_is_pinned() {
    assert_eq!(fingerprint(Algo::HeteroFl, WireConfig::raw(), Some(mixed_plan())), "ade15eb8d4fedc8e down=10/83080 up=8/67712 retry=8/70480 | sampled=18 participated=8 dropped=3 crashed=2 deadline=3 link=2 retried=8 corrupt_frames=2");
}

#[test]
fn fedavg_delta_is_pinned() {
    assert_eq!(fingerprint(Algo::FedAvg, WireConfig::delta(0.01), None), "2df9c1457a9ef53d down=18/298088 up=18/308712 retry=0/0 | sampled=18 participated=18 dropped=0 crashed=0 deadline=0 link=0 retried=0 corrupt_frames=0");
}

#[test]
fn heterofl_delta_is_pinned() {
    assert_eq!(fingerprint(Algo::HeteroFl, WireConfig::delta(0.01), None), "505bbc09c08d506d down=18/118328 up=18/123928 retry=0/0 | sampled=18 participated=18 dropped=0 crashed=0 deadline=0 link=0 retried=0 corrupt_frames=0");
}

#[test]
fn fedavg_int8_is_pinned() {
    assert_eq!(fingerprint(Algo::FedAvg, WireConfig::int8(), None), "320107d6abec788c down=18/126504 up=18/126504 retry=0/0 | sampled=18 participated=18 dropped=0 crashed=0 deadline=0 link=0 retried=0 corrupt_frames=0");
}

#[test]
fn heterofl_int8_is_pinned() {
    assert_eq!(fingerprint(Algo::HeteroFl, WireConfig::int8(), None), "9d1629f4854cabda down=18/39144 up=18/39144 retry=0/0 | sampled=18 participated=18 dropped=0 crashed=0 deadline=0 link=0 retried=0 corrupt_frames=0");
}

/// The per-step latency estimate: each baseline averages local training
/// plus the down+up transfer over the same evenly-spaced device sample.
#[test]
fn adaptation_step_latency_is_pinned() {
    let mut cfg = toy_cfg(WireConfig::raw());
    cfg.rounds_per_step = 1;
    let mut world = toy_world(None);
    let mut rng = NebulaRng::seed(3);
    let fa = DenseFlStrategy::fedavg(cfg.clone(), 1).adaptation_step(&mut world, &mut rng).adapt_time_ms;
    let hfl = DenseFlStrategy::heterofl(cfg, 1).adaptation_step(&mut world, &mut rng).adapt_time_ms;
    assert_eq!((fa.to_bits(), hfl.to_bits()), (4628189088496959517, 4620839769528193092), "{fa} {hfl}");
}
