//! Golden pins for Nebula's collaborative round: three rounds under each
//! wire codec, under a mixed fault plan (with and without frame auth),
//! through the edge hierarchy, under a robust combine rule and over a
//! loopback transport must land on exactly these cloud digests, byte
//! totals and round counters. Any change to how a Nebula round samples,
//! derives, trains, moves bytes, resolves fates or aggregates shows up
//! here.
//!
//! Every fingerprint runs under the scalar blocked kernel engine, so the
//! digests are the same on every host whatever SIMD tier it has. The
//! backend is process-global, so the tests hold one lock while they run.
//!
//! The file also arms the checkpoint-rollback guard on a poisoning plan,
//! flat and hierarchical.

use nebula_core::{
    DispatchJob, JobResult, Loopback, ModularRunner, RobustAggregator, SanitizePolicy, Transport,
    TransportError, WireConfig,
};
use nebula_data::{PartitionSpec, Partitioner, SynthSpec, Synthesizer};
use nebula_modular::ModularConfig;
use nebula_nn::Layer;
use nebula_sim::strategy::StrategyConfig;
use nebula_sim::{
    param_digest, AdaptStrategy, AdversaryPlan, AttackPersona, CorruptionKind, FaultPlan, NebulaStrategy,
    ResourceSampler, RoundPolicy, RoundStats, SimWorld,
};
use nebula_tensor::{KernelBackend, NebulaRng};
use std::sync::{Arc, Mutex};

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
    let mut modular = ModularConfig::toy(16, 4);
    modular.gate_noise_std = 0.3;
    let mut cfg = StrategyConfig::new(modular);
    cfg.devices_per_round = 6;
    cfg.local_epochs = 1;
    cfg.wire = wire;
    cfg
}

/// Every fault a Nebula round handles, at once: dropout, crashes,
/// stragglers (some past the deadline, some accepted stale), flaky
/// links, transit corruption, exploding updates for the sanitize gate
/// and a Byzantine cohort.
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
        explode_scale: 1e3,
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

/// A quarter of the population uploads its update scaled 8×.
fn scaled_update_plan() -> FaultPlan {
    FaultPlan {
        adversary: AdversaryPlan {
            seed: 31,
            frac: 0.25,
            persona: AttackPersona::ScaledUpdate,
            ..AdversaryPlan::none()
        },
        ..FaultPlan::none()
    }
}

/// Runs three rounds (optionally over a loopback transport) and renders
/// the cloud digest, the summed comm counters and byte totals, every
/// `RoundReport` field and the summed predicted round time.
fn fingerprint(
    cfg: StrategyConfig,
    faults: Option<FaultPlan>,
    transport: Option<Box<dyn Transport>>,
) -> String {
    blocked(|| {
        let mut world = toy_world(faults);
        let mut rng = NebulaRng::seed(3);
        let mut s = NebulaStrategy::new(cfg, 1);
        if let Some(t) = transport {
            s.set_transport(t);
        }
        let mut stats = RoundStats::default();
        let mut round_ms = 0.0f64;
        for _ in 0..3 {
            let out = s.single_round(&mut world, &mut rng);
            stats.merge(&out.stats);
            round_ms += out.round_time_ms;
        }
        let (c, f) = (stats.comm, stats.faults);
        format!(
            "{:016x} down={}/{} up={}/{} retry={}/{} rounds={} | sampled={} participated={} dropped={} \
             crashed={} deadline={} link={} rejected={} retried={} stale={} rolled_back={} corrupt_frames={} \
             | round_ms={:016x}",
            param_digest(&s.cloud().model().param_vector()),
            c.downloads,
            c.down_bytes,
            c.uploads,
            c.up_bytes,
            c.retries,
            c.retry_bytes,
            c.rounds,
            f.sampled,
            f.participated,
            f.dropped,
            f.crashed,
            f.deadline_dropped,
            f.link_dropped,
            f.rejected,
            f.retried,
            f.stale,
            f.rolled_back,
            f.corrupt_frames,
            round_ms.to_bits(),
        )
    })
}

fn loopback(cfg: &StrategyConfig) -> Box<dyn Transport> {
    Box::new(Loopback::new(Arc::new(ModularRunner::new(cfg.modular.clone(), cfg.wire))))
}

const RAW_FAULT_FREE: &str =
    "97317acc9da95565 down=18/213400 up=18/214840 retry=0/0 rounds=3 | sampled=18 participated=18 dropped=0 crashed=0 deadline=0 link=0 rejected=0 retried=0 stale=0 rolled_back=0 corrupt_frames=0 | round_ms=404d9f65b873b2d2";
const RAW_MIXED: &str =
    "332de803206135ae down=13/156628 up=9/113780 retry=7/82260 rounds=3 | sampled=18 participated=9 dropped=3 crashed=3 deadline=1 link=2 rejected=2 retried=7 stale=1 rolled_back=0 corrupt_frames=1 | round_ms=4056e2a95be3d4e8";
const AUTH_MIXED: &str =
    "332de803206135ae down=13/156732 up=9/113852 retry=7/82284 rounds=3 | sampled=18 participated=9 dropped=3 crashed=3 deadline=1 link=2 rejected=2 retried=7 stale=1 rolled_back=0 corrupt_frames=1 | round_ms=4056e2a95be3d4e8";
const DELTA: &str =
    "3aa82f10fda3dbfc down=18/211888 up=18/85952 retry=0/0 rounds=3 | sampled=18 participated=18 dropped=0 crashed=0 deadline=0 link=0 rejected=0 retried=0 stale=0 rolled_back=0 corrupt_frames=0 | round_ms=404d9f65b873b2d2";
const INT8: &str =
    "9f1655b42027b2a1 down=18/55364 up=18/56804 retry=0/0 rounds=3 | sampled=18 participated=18 dropped=0 crashed=0 deadline=0 link=0 rejected=0 retried=0 stale=0 rolled_back=0 corrupt_frames=0 | round_ms=404d9f65b873b2d2";
const EDGE_GROUPS_MIXED: &str =
    "8794b3edab11a447 down=13/156628 up=9/113780 retry=7/82260 rounds=3 | sampled=18 participated=9 dropped=3 crashed=3 deadline=1 link=2 rejected=0 retried=7 stale=1 rolled_back=0 corrupt_frames=1 | round_ms=4056e2a95be3d4e8";
const MEDIAN_SCALED: &str =
    "3a3647c361f526a5 down=18/209112 up=18/210552 retry=0/0 rounds=3 | sampled=18 participated=18 dropped=0 crashed=0 deadline=0 link=0 rejected=0 retried=0 stale=0 rolled_back=0 corrupt_frames=0 | round_ms=404d9f65b873b2d2";

#[test]
fn raw_fault_free_is_pinned() {
    assert_eq!(fingerprint(toy_cfg(WireConfig::raw()), None, None), RAW_FAULT_FREE);
}

#[test]
fn raw_under_mixed_faults_is_pinned() {
    assert_eq!(fingerprint(toy_cfg(WireConfig::raw()), Some(mixed_plan()), None), RAW_MIXED);
}

#[test]
fn authenticated_raw_under_mixed_faults_is_pinned() {
    let cfg = toy_cfg(WireConfig::raw().with_auth(*b"nebula-round-key"));
    assert_eq!(fingerprint(cfg, Some(mixed_plan()), None), AUTH_MIXED);
}

#[test]
fn delta_is_pinned() {
    assert_eq!(fingerprint(toy_cfg(WireConfig::delta(0.01)), None, None), DELTA);
}

#[test]
fn int8_is_pinned() {
    assert_eq!(fingerprint(toy_cfg(WireConfig::int8()), None, None), INT8);
}

#[test]
fn edge_groups_under_mixed_faults_are_pinned() {
    let mut cfg = toy_cfg(WireConfig::raw());
    cfg.edge_groups = Some(2);
    assert_eq!(fingerprint(cfg, Some(mixed_plan()), None), EDGE_GROUPS_MIXED);
}

#[test]
fn coordinate_median_under_scaled_updates_is_pinned() {
    let mut cfg = toy_cfg(WireConfig::raw());
    cfg.aggregator = RobustAggregator::CoordinateMedian;
    assert_eq!(fingerprint(cfg, Some(scaled_update_plan()), None), MEDIAN_SCALED);
}

#[test]
fn loopback_transport_under_mixed_faults_matches_in_process() {
    let cfg = toy_cfg(WireConfig::raw());
    let t = loopback(&cfg);
    assert_eq!(fingerprint(cfg, Some(mixed_plan()), Some(t)), RAW_MIXED);
}

/// A transport that counts the jobs it is handed before passing them on.
struct Counting {
    inner: Box<dyn Transport>,
    jobs: Arc<Mutex<u64>>,
}

impl Transport for Counting {
    fn kind(&self) -> &'static str {
        "counting"
    }

    fn round_trip(&mut self, jobs: Vec<DispatchJob>) -> Vec<Result<JobResult, TransportError>> {
        *self.jobs.lock().unwrap() += jobs.len() as u64;
        self.inner.round_trip(jobs)
    }
}

/// Fates resolve before dispatch: crashed and deadline-dropped devices
/// are never shipped to the transport, so every job handed over comes
/// back as a participant.
#[test]
fn only_surviving_devices_are_dispatched() {
    blocked(|| {
        let cfg = toy_cfg(WireConfig::raw());
        let jobs = Arc::new(Mutex::new(0));
        let mut s = NebulaStrategy::new(cfg.clone(), 1);
        s.set_transport(Box::new(Counting { inner: loopback(&cfg), jobs: jobs.clone() }));
        let mut world = toy_world(Some(mixed_plan()));
        let mut rng = NebulaRng::seed(3);
        let mut stats = RoundStats::default();
        for _ in 0..3 {
            stats.merge(&s.single_round(&mut world, &mut rng).stats);
        }
        let f = stats.faults;
        assert!(f.crashed + f.deadline_dropped > 0, "the plan must doom some admitted devices");
        let survivors = f.sampled - f.dropped - f.crashed - f.deadline_dropped - f.link_dropped;
        assert_eq!(*jobs.lock().unwrap(), survivors);
        assert_eq!(f.participated, survivors);
    })
}

/// A poisoning plan behind a permissive gate: every update explodes and
/// nothing rejects it, so only the rollback guard can save the cloud.
/// Each round must be undone, leaving the cloud bits exactly as they
/// were before it.
fn rollback_restores_the_cloud(edge_groups: Option<usize>) {
    blocked(|| {
        let mut world = toy_world(None);
        let mut cfg = toy_cfg(WireConfig::raw());
        cfg.pretrain_epochs = 6;
        cfg.proxy_samples = 300;
        cfg.edge_groups = edge_groups;
        let mut rng = NebulaRng::seed(3);
        let mut s = NebulaStrategy::new(cfg, 1);
        s.offline(&mut world, &mut rng);
        world.set_fault_plan(FaultPlan {
            seed: 5,
            corrupt_prob: 1.0,
            corruption: CorruptionKind::Exploding,
            explode_scale: -1e3,
            ..FaultPlan::none()
        });
        s.set_sanitize_policy(SanitizePolicy { reject_non_finite: false, norm_outlier_ratio: f32::INFINITY });
        let probe = world.synth.sample(200, 0, &mut NebulaRng::seed(77));
        s.enable_rollback(probe, 0.05);
        for round in 0..2 {
            let before = s.cloud().model().param_vector();
            let out = s.single_round(&mut world, &mut rng);
            assert!(out.stats.faults.participated > 0, "round {round}: nothing reached the cloud");
            assert_eq!(out.stats.faults.rolled_back, 1, "round {round}: the poisoned aggregation stuck");
            let after = s.cloud().model().param_vector();
            let bits = |v: &[f32]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&after),
                bits(&before),
                "round {round}: rollback must restore the pre-round bits"
            );
        }
    })
}

#[test]
fn rollback_guard_undoes_a_poisoned_flat_round() {
    rollback_restores_the_cloud(None);
}

#[test]
fn rollback_guard_undoes_a_poisoned_hierarchical_round() {
    rollback_restores_the_cloud(Some(2));
}
