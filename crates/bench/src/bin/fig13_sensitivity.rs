//! **Figure 13** — sensitivity analysis.
//!
//! * (a) accuracy vs maximum sub-model size ratio (0.2–0.5) on the
//!   CIFAR-10 (m=2, m=5) and CIFAR-100 (m=10, m=20) rows;
//! * (b) accuracy vs module granularity (8/16/32/64 modules per layer at
//!   constant total capacity) on CIFAR-100, for the ResNet18-shaped and
//!   VGG16-shaped configurations;
//! * (c) adaptation time to a target accuracy vs number of participating
//!   devices per round (20–80), FedAvg vs Nebula.
//!
//! Run: `cargo run --release -p nebula-bench --bin fig13_sensitivity [--quick]`

use nebula_bench::{emit_record, Scale, TaskRow};
use nebula_core::{modular_config_for, EdgeClient, NebulaCloud, NebulaParams, ResourceProfile};
use nebula_data::TaskPreset;
use nebula_modular::cost::CostModel;
use nebula_nn::Layer;
use nebula_sim::experiment::pick_eval_ids;
use nebula_sim::latency::adaptation_latency_ms;
use nebula_sim::network::transfer_time_ms;
use nebula_sim::strategy::StrategyConfig;
use nebula_sim::{DenseFlStrategy, NebulaStrategy, SimWorld};
use nebula_tensor::NebulaRng;
use serde::Serialize;

#[derive(Serialize)]
struct SensRecord {
    experiment: &'static str,
    panel: &'static str,
    series: String,
    x: f64,
    y: f64,
}

/// Mean tracked-device accuracy when every device derives at budget
/// `ratio` of the full model and fine-tunes locally.
fn accuracy_at_ratio(
    cloud: &NebulaCloud,
    world: &mut SimWorld,
    eval_ids: &[usize],
    ratio: f64,
    cfg: &StrategyConfig,
    rng: &mut NebulaRng,
) -> f32 {
    let cost = CostModel::new(cfg.modular.clone());
    let full = cost.full_model();
    let profile = ResourceProfile {
        mem_bytes: (full.training_mem_bytes as f64 * ratio) as u64,
        flops: (full.flops as f64 * ratio) as u64,
        comm_bytes: (full.comm_bytes as f64 * ratio) as u64,
    };
    let mut sum = 0.0;
    for &id in eval_ids {
        let (local, test);
        {
            let d = &world.devices[id];
            local = d.partition.data.clone();
            test = d.test.clone();
        }
        // Deriving needs &mut for the selector forward; clone the model.
        let mut model = cloud.model().deep_clone();
        let importance = model.importance(local.features());
        let outcome = cloud.derive_for_importance(&importance, &profile, None);
        let payload = cloud.dispatch(&outcome.spec);
        let mut client = EdgeClient::from_payload(cfg.modular.clone(), &payload);
        client.adapt(&local, cfg.local_epochs, cfg.batch_size, cfg.local_lr, rng);
        sum += client.accuracy(&test);
    }
    sum / eval_ids.len().max(1) as f32
}

fn panel_a(scale: Scale) {
    println!("Fig 13(a): accuracy vs maximum sub-model size ratio\n");
    let rows = [
        TaskRow { task: TaskPreset::Cifar10, skew_m: Some(2) },
        TaskRow { task: TaskPreset::Cifar10, skew_m: Some(5) },
        TaskRow { task: TaskPreset::Cifar100, skew_m: Some(10) },
        TaskRow { task: TaskPreset::Cifar100, skew_m: Some(20) },
    ];
    for row in rows {
        let cfg = row.strategy_config(scale);
        let mut world = row.world(scale, None, 42);
        let mut rng = NebulaRng::seed(42);

        // Offline once, then evaluate at each ratio from the same cloud.
        let mut params = NebulaParams::default();
        params.pretrain.epochs = scale.pretrain_epochs;
        let mut cloud = NebulaCloud::new(cfg.modular.clone(), params, 42);
        let proxy = world.proxy(scale.proxy_samples);
        cloud.pretrain(&proxy, &mut rng);
        let subtasks = world.subtask_datasets(200);
        cloud.enhance(&subtasks, &mut rng);

        let eval_ids = pick_eval_ids(&world, scale.eval_devices.min(8));
        let series = format!("{}, {}", row.task.name(), row.partition_label());
        let mut line = Vec::new();
        for ratio in [0.2f64, 0.3, 0.4, 0.5] {
            let acc = accuracy_at_ratio(&cloud, &mut world, &eval_ids, ratio, &cfg, &mut rng);
            line.push(format!("{ratio:.1}:{acc:.3}"));
            emit_record(
                "fig13",
                &SensRecord {
                    experiment: "fig13",
                    panel: "a_size_ratio",
                    series: series.clone(),
                    x: ratio,
                    y: acc as f64,
                },
            );
        }
        println!("  {series:<18}: {}", line.join("  "));
    }
}

fn panel_b(scale: Scale) {
    println!("\nFig 13(b): accuracy vs modules per module layer (constant capacity)\n");
    for (shape, layers) in [("ResNet18-shaped", 4usize), ("VGG16-shaped", 3usize)] {
        let base = modular_config_for(TaskPreset::Cifar100);
        let capacity = 32 * base.module_hidden; // total hidden units per layer
        let mut line = Vec::new();
        for n_modules in [8usize, 16, 32, 64] {
            let mut mcfg = base.clone();
            mcfg.num_layers = layers;
            mcfg.modules_per_layer = n_modules;
            mcfg.module_hidden = (capacity / n_modules).max(4);
            mcfg.top_k = (n_modules / 5).max(2);

            let row = TaskRow { task: TaskPreset::Cifar100, skew_m: Some(10) };
            let mut world = row.world(scale, None, 42);
            let mut rng = NebulaRng::seed(42);
            let mut params = NebulaParams::default();
            params.pretrain.epochs = scale.pretrain_epochs;
            let mut cloud = NebulaCloud::new(mcfg.clone(), params, 42);
            let proxy = world.proxy(scale.proxy_samples);
            cloud.pretrain(&proxy, &mut rng);
            let subtasks = world.subtask_datasets(200);
            cloud.enhance(&subtasks, &mut rng);

            let mut cfg = row.strategy_config(scale);
            cfg.modular = mcfg;
            let eval_ids = pick_eval_ids(&world, scale.eval_devices.min(6));
            let acc = accuracy_at_ratio(&cloud, &mut world, &eval_ids, 0.4, &cfg, &mut rng);
            line.push(format!("{n_modules}:{acc:.3}"));
            emit_record(
                "fig13",
                &SensRecord {
                    experiment: "fig13",
                    panel: "b_granularity",
                    series: shape.to_string(),
                    x: n_modules as f64,
                    y: acc as f64,
                },
            );
        }
        println!("  {shape:<16}: {}", line.join("  "));
    }
}

fn panel_c(scale: Scale) {
    println!("\nFig 13(c): adaptation time vs participating devices per round\n");
    // Each system adapts to a 70% environment shift round by round; we
    // report the simulated wall-clock until it reaches 98% of its *own*
    // converged accuracy (self-relative, as in Fig. 7 — FA's global-eval
    // and Nebula's personalized-eval plateaus are not comparable).
    use nebula_sim::experiment::mean_accuracy;
    use nebula_sim::strategy::AdaptStrategy;

    let row = TaskRow { task: TaskPreset::Cifar10, skew_m: Some(5) };
    let max_rounds = scale.rounds_per_step + scale.rounds_per_step / 2;

    for participants in [20usize, 40, 60, 80] {
        for is_nebula in [false, true] {
            let mut cfg = row.strategy_config(scale);
            cfg.rounds_per_step = 1;
            cfg.devices_per_round = participants;
            let mut world = row.world(scale, Some(0.7), 42);
            let mut rng = NebulaRng::seed(42 ^ 0xC13);
            let mut s: Box<dyn AdaptStrategy> = if is_nebula {
                Box::new(NebulaStrategy::new(cfg.clone(), 42))
            } else {
                Box::new(DenseFlStrategy::fedavg(cfg.clone(), 42))
            };
            let eval_ids = pick_eval_ids(&world, scale.eval_devices);
            s.track(&eval_ids);
            s.offline(&mut world, &mut rng);
            world.advance_slot();

            let mut trajectory = Vec::with_capacity(max_rounds);
            for _ in 0..max_rounds {
                s.adaptation_step(&mut world, &mut rng);
                trajectory.push(mean_accuracy(s.as_mut(), &mut world, &eval_ids));
            }
            let converged = trajectory.iter().copied().fold(0.0f32, f32::max);
            let target = converged * 0.98;
            let rounds = trajectory.iter().position(|&a| a >= target).map_or(max_rounds, |i| i + 1);

            // Simulated wall-clock per round: participants run in
            // parallel, so a round costs one device's local training plus
            // its transfers.
            let dev = &world.devices[0];
            let flops = if is_nebula {
                CostModel::new(cfg.modular.clone()).full_model().flops / 3 // typical sub-model
            } else {
                cfg.dense_model(1).param_count() as u64
            };
            let bytes = 2 * flops * 4; // down + up ≈ 2 × params ≈ 2 × flops
            let round_ms =
                adaptation_latency_ms(&dev.resources, flops, dev.volume(), cfg.local_epochs, cfg.batch_size)
                    + transfer_time_ms(bytes, dev.resources.bandwidth_bps);
            let total_s = rounds as f64 * round_ms / 1e3;
            let name = if is_nebula { "Nebula" } else { "FedAvg" };
            println!(
                "  {name:<7} devices/round {participants:>2}: rounds-to-adapt {rounds:>2}, simulated time {total_s:>8.1} s"
            );
            emit_record(
                "fig13",
                &SensRecord {
                    experiment: "fig13",
                    panel: "c_participants",
                    series: name.to_string(),
                    x: participants as f64,
                    y: total_s,
                },
            );
        }
    }
}

fn main() {
    let scale = Scale::from_args();
    panel_a(scale);
    panel_b(scale);
    panel_c(scale);
}
