//! **Figure 1** — the motivation study: impact of dynamic edge
//! environments.
//!
//! * (a) on-device accuracy per time slot under data drift (30% of local
//!   data replaced per slot) for four approaches: static cloud model,
//!   static edge model, locally-updated edge model, and edge model
//!   updated collaboratively across devices;
//! * (b) inference latency vs number of co-running processes for two
//!   mobile-CNN cost profiles (the paper uses MobileNetV2/ShuffleNetV2).
//!
//! Run: `cargo run --release -p nebula-bench --bin fig1_motivation [--quick]`

use nebula_bench::{emit_record, Scale, TaskRow};
use nebula_data::TaskPreset;
use nebula_sim::contention::contention_multiplier;
use nebula_sim::experiment::ExperimentConfig;
use nebula_sim::strategy::AdaptStrategy;
use nebula_sim::{
    AdaptiveNetStrategy, DenseFlStrategy, LocalAdaptStrategy, NoAdaptStrategy, RoundStats, Runner, SimWorld,
};
use nebula_tensor::NebulaRng;
use serde::Serialize;

#[derive(Serialize)]
struct SlotRecord {
    experiment: &'static str,
    panel: &'static str,
    series: String,
    x: f64,
    y: f64,
}

/// A frozen AdaptiveNet branch: picks a branch per device but never
/// adapts — the paper's "static edge model".
struct StaticEdge(AdaptiveNetStrategy);

impl AdaptStrategy for StaticEdge {
    fn name(&self) -> &'static str {
        "Static edge model"
    }
    fn offline(&mut self, world: &mut SimWorld, rng: &mut NebulaRng) {
        self.0.offline(world, rng);
    }
    fn track(&mut self, ids: &[usize]) {
        self.0.track(ids);
    }
    fn adaptation_step(&mut self, _world: &mut SimWorld, _rng: &mut NebulaRng) -> RoundStats {
        RoundStats::default() // frozen: never adapts
    }
    fn device_accuracy(&mut self, world: &mut SimWorld, id: usize) -> f32 {
        self.0.device_accuracy(world, id)
    }
    fn footprint(&self, world: &SimWorld, id: usize) -> nebula_sim::strategy::Footprint {
        self.0.footprint(world, id)
    }
}

fn main() {
    let scale = Scale::from_args();
    let slots = if std::env::args().any(|a| a == "--quick") { 4 } else { 8 };
    let row = TaskRow { task: TaskPreset::Cifar100, skew_m: Some(10) };

    println!("Fig 1(a): accuracy per time slot under drift (CIFAR100-like, 30% replaced/slot)\n");
    let mut cfg = row.strategy_config(scale);
    cfg.rounds_per_step = 2; // light collaboration per slot

    let strategies: Vec<Box<dyn AdaptStrategy>> = vec![
        Box::new(NoAdaptStrategy::new(cfg.clone(), 42)),
        Box::new(StaticEdge(AdaptiveNetStrategy::new(cfg.clone(), 42))),
        Box::new(LocalAdaptStrategy::new(cfg.clone(), 42)),
        Box::new(DenseFlStrategy::fedavg(cfg.clone(), 42)),
    ];
    let names = [
        "Static cloud model",
        "Static edge model",
        "Updated edge model (individual)",
        "Updated edge model (collaborative)",
    ];

    for (mut s, name) in strategies.into_iter().zip(names) {
        let mut world = row.world(scale, Some(0.3), 42);
        let out = Runner::new(&mut world, s.as_mut())
            .config(ExperimentConfig { eval_devices: scale.eval_devices.min(6), seed: 42 })
            .continuous(slots)
            .run()
            .expect("continuous run config is valid");
        let series: Vec<String> = out.accuracy_per_slot.iter().map(|a| format!("{:.3}", a)).collect();
        println!("  {name:<38}: {}", series.join("  "));
        for (slot, acc) in out.accuracy_per_slot.iter().enumerate() {
            emit_record(
                "fig1",
                &SlotRecord {
                    experiment: "fig1",
                    panel: "a_drift",
                    series: name.to_string(),
                    x: (slot + 1) as f64,
                    y: *acc as f64,
                },
            );
        }
    }

    // ---- (b) contention ---------------------------------------------------
    println!("\nFig 1(b): inference latency vs co-running processes (Jetson-class, ms)\n");
    // MobileNetV2 (~300 M MACs) and ShuffleNetV2 (~146 M MACs) profiles.
    let device_flops_per_sec = 5.4e9;
    for (model, flops) in [("MobileNetV2", 300_000_000u64), ("ShuffleNetV2", 146_000_000u64)] {
        let mut cols = Vec::new();
        for procs in 0..4usize {
            let ms = flops as f64 / device_flops_per_sec * 1e3 * contention_multiplier(procs);
            cols.push(format!("{}p:{ms:.1}", procs + 1));
            emit_record(
                "fig1",
                &SlotRecord {
                    experiment: "fig1",
                    panel: "b_contention",
                    series: model.to_string(),
                    x: (procs + 1) as f64,
                    y: ms,
                },
            );
        }
        println!("  {model:<14}: {}", cols.join("  "));
    }
    println!(
        "\n(slowdown at 4 co-running processes = {:.2}x, paper reports 5.06x)",
        contention_multiplier(3)
    );
}
