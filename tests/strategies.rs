//! Cross-crate integration: the six adaptation strategies on one shared
//! simulated world, checking the relations the paper's evaluation rests
//! on (who communicates, who personalises, relative footprints).

use nebula::data::{PartitionSpec, Partitioner, SynthSpec, Synthesizer};
use nebula::modular::ModularConfig;
use nebula::sim::experiment::{run_adaptation_step, ExperimentConfig};
use nebula::sim::strategy::{AdaptStrategy, StrategyConfig};
use nebula::sim::{
    AdaptiveNetStrategy, DenseFlStrategy, LocalAdaptStrategy, NebulaStrategy, NoAdaptStrategy,
    ResourceSampler, SimWorld,
};

fn toy_world(seed: u64) -> SimWorld {
    let synth = Synthesizer::new(SynthSpec::toy(), 1);
    let spec = PartitionSpec::new(10, Partitioner::LabelSkew { m: 2 });
    SimWorld::new(synth, spec, 9, None, &ResourceSampler::default(), seed)
}

fn toy_cfg() -> StrategyConfig {
    let mut modular = ModularConfig::toy(16, 4);
    modular.gate_noise_std = 0.3;
    let mut cfg = StrategyConfig::new(modular);
    cfg.devices_per_round = 5;
    cfg.rounds_per_step = 3;
    cfg.pretrain_epochs = 6;
    cfg.proxy_samples = 400;
    cfg.finetune_epochs = 5;
    cfg
}

fn run(strategy: &mut dyn AdaptStrategy) -> nebula::sim::experiment::AdaptationOutcome {
    let mut world = toy_world(5);
    run_adaptation_step(strategy, &mut world, &ExperimentConfig { eval_devices: 4, seed: 7 })
}

#[test]
fn adaptive_strategies_beat_no_adaptation() {
    let na = run(&mut NoAdaptStrategy::new(toy_cfg(), 1));
    let la = run(&mut LocalAdaptStrategy::new(toy_cfg(), 1));
    let nb = run(&mut NebulaStrategy::new(toy_cfg(), 1));
    assert!(
        la.accuracy_after > na.accuracy_after - 0.02,
        "LA {} vs NA {}",
        la.accuracy_after,
        na.accuracy_after
    );
    assert!(
        nb.accuracy_after > na.accuracy_after,
        "Nebula {} vs NA {}",
        nb.accuracy_after,
        na.accuracy_after
    );
}

#[test]
fn communication_profile_matches_paradigm() {
    // On-device paradigms move no bytes; collaborative ones do; Nebula
    // moves fewer than FedAvg at equal round counts.
    let la = run(&mut LocalAdaptStrategy::new(toy_cfg(), 1));
    let an = run(&mut AdaptiveNetStrategy::new(toy_cfg(), 1));
    let fa = run(&mut DenseFlStrategy::fedavg(toy_cfg(), 1));
    let hfl = run(&mut DenseFlStrategy::heterofl(toy_cfg(), 1));
    let nb = run(&mut NebulaStrategy::new(toy_cfg(), 1));

    assert_eq!(la.comm_total_bytes, 0);
    assert_eq!(an.comm_total_bytes, 0);
    assert!(fa.comm_total_bytes > 0 && hfl.comm_total_bytes > 0 && nb.comm_total_bytes > 0);
    assert!(
        nb.comm_total_bytes < fa.comm_total_bytes,
        "Nebula {} ≥ FedAvg {}",
        nb.comm_total_bytes,
        fa.comm_total_bytes
    );
    assert!(hfl.comm_total_bytes < fa.comm_total_bytes, "HeteroFL slices should beat full FedAvg");
}

#[test]
fn footprints_respect_resource_awareness() {
    // Resource-aware systems give devices smaller models than full-model
    // systems.
    let fa = run(&mut DenseFlStrategy::fedavg(toy_cfg(), 1));
    let hfl = run(&mut DenseFlStrategy::heterofl(toy_cfg(), 1));
    let nb = run(&mut NebulaStrategy::new(toy_cfg(), 1));
    assert!(hfl.mean_params <= fa.mean_params, "HFL {} vs FA {}", hfl.mean_params, fa.mean_params);
    assert!(nb.mean_params < fa.mean_params, "Nebula {} vs FA {}", nb.mean_params, fa.mean_params);
    assert!(nb.mean_train_mem_bytes < fa.mean_train_mem_bytes);
}

#[test]
fn adaptation_step_is_deterministic_per_seed() {
    let a = run(&mut NebulaStrategy::new(toy_cfg(), 1));
    let b = run(&mut NebulaStrategy::new(toy_cfg(), 1));
    assert_eq!(a.accuracy_after, b.accuracy_after);
    assert_eq!(a.comm_total_bytes, b.comm_total_bytes);
}

#[test]
fn different_seeds_change_trajectories() {
    let a = run(&mut NebulaStrategy::new(toy_cfg(), 1));
    let b = run(&mut NebulaStrategy::new(toy_cfg(), 2));
    // Different model init ⇒ different outcome (with overwhelming
    // probability on continuous metrics).
    assert_ne!(a.accuracy_after.to_bits(), b.accuracy_after.to_bits());
}
