//! Internal calibration utility: times each strategy and prints accuracy
//! on selected rows. Not part of the paper reproduction set.
use nebula_bench::{Scale, TaskRow};
use nebula_data::TaskPreset;
use nebula_sim::experiment::{run_adaptation_step, ExperimentConfig};
use nebula_sim::*;
use std::time::Instant;

fn main() {
    let scale = Scale::from_args();
    let only: Option<String> = std::env::args().skip(1).find(|a| !a.starts_with("--"));
    let mut rows = vec![
        TaskRow { task: TaskPreset::Har, skew_m: None },
        TaskRow { task: TaskPreset::Cifar10, skew_m: Some(2) },
        TaskRow { task: TaskPreset::Cifar100, skew_m: Some(10) },
        TaskRow { task: TaskPreset::SpeechCommands, skew_m: Some(5) },
    ];
    if let Some(f) = only {
        rows.retain(|r| {
            format!("{}-{}", r.task.name(), r.skew_m.unwrap_or(0)).to_lowercase().contains(&f.to_lowercase())
        });
    }
    for row in rows {
        println!("=== {} {} ===", row.task.name(), row.partition_label());
        let cfg = row.strategy_config(scale);
        let mk: Vec<(&str, Box<dyn AdaptStrategy>)> = vec![
            ("NA", Box::new(NoAdaptStrategy::new(cfg.clone(), 42))),
            ("LA", Box::new(LocalAdaptStrategy::new(cfg.clone(), 42))),
            ("AN", Box::new(AdaptiveNetStrategy::new(cfg.clone(), 42))),
            ("FA", Box::new(DenseFlStrategy::fedavg(cfg.clone(), 42))),
            ("HFL", Box::new(DenseFlStrategy::heterofl(cfg.clone(), 42))),
            ("NEB", Box::new(NebulaStrategy::new(cfg.clone(), 42))),
        ];
        for (name, mut s) in mk {
            let t = Instant::now();
            let mut world = row.world(scale, None, 42);
            let out = run_adaptation_step(
                s.as_mut(),
                &mut world,
                &ExperimentConfig { eval_devices: scale.eval_devices, seed: 42 },
            );
            println!(
                "{name}: acc {:.2}%  comm {} KB  elapsed {:.1}s",
                out.accuracy_after * 100.0,
                out.comm_total_bytes / 1024,
                t.elapsed().as_secs_f64()
            );
        }
    }
}
