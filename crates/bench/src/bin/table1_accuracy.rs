//! **Table 1** — model accuracy of Nebula and the baselines after one
//! adaptation step, over the paper's seven task rows.
//!
//! Protocol (paper §6.2): 30% of the data acts as the cloud proxy for
//! pre-training (our synthesiser generates the proxy directly), the rest
//! is distributed to devices as newly-collected data; collaborative
//! methods run `rounds_per_step` rounds of 25 devices × 3 local epochs;
//! on-device methods fine-tune 10 epochs; accuracy is the mean per-device
//! top-1 on local test sets.
//!
//! Run: `cargo run --release -p nebula-bench --bin table1_accuracy [--quick]`

use nebula_bench::{emit_record, print_row, Scale, TaskRow};
use nebula_sim::experiment::{run_adaptation_step, ExperimentConfig};
use nebula_sim::{
    AdaptStrategy, AdaptiveNetStrategy, DenseFlStrategy, LocalAdaptStrategy, NebulaStrategy, NoAdaptStrategy,
};
use serde::Serialize;

#[derive(Serialize)]
struct Record {
    experiment: &'static str,
    task: String,
    model: String,
    partition: String,
    strategy: String,
    accuracy: f32,
    comm_bytes: u64,
}

fn main() {
    let scale = Scale::from_args();
    let seed = 42u64;
    println!("Table 1: model accuracy (%) after an adaptation step");
    println!("scale: {scale:?}\n");
    let widths = [14usize, 10, 10, 7, 7, 7, 7, 7, 7];
    print_row(
        ["Task", "Model", "Partition", "NA", "LA", "AN", "FA", "HFL", "Nebula"].map(String::from).as_ref(),
        &widths,
    );

    for row in TaskRow::table1_rows() {
        let cfg = row.strategy_config(scale);
        let strategies: Vec<Box<dyn AdaptStrategy>> = vec![
            Box::new(NoAdaptStrategy::new(cfg.clone(), seed)),
            Box::new(LocalAdaptStrategy::new(cfg.clone(), seed)),
            Box::new(AdaptiveNetStrategy::new(cfg.clone(), seed)),
            Box::new(DenseFlStrategy::fedavg(cfg.clone(), seed)),
            Box::new(DenseFlStrategy::heterofl(cfg.clone(), seed)),
            Box::new(NebulaStrategy::new(cfg.clone(), seed)),
        ];
        let mut accs = Vec::new();
        for mut s in strategies {
            // Fresh world per strategy: every system sees the same device
            // population (same seeds) and adapts from its own pre-training.
            let mut world = row.world(scale, None, seed);
            let out = run_adaptation_step(
                s.as_mut(),
                &mut world,
                &ExperimentConfig { eval_devices: scale.eval_devices, seed },
            );
            emit_record(
                "table1",
                &Record {
                    experiment: "table1",
                    task: row.task.name().to_string(),
                    model: row.task.model_name().to_string(),
                    partition: row.partition_label(),
                    strategy: out.strategy.clone(),
                    accuracy: out.accuracy_after * 100.0,
                    comm_bytes: out.comm_total_bytes,
                },
            );
            accs.push(out.accuracy_after * 100.0);
        }
        let mut cols =
            vec![row.task.name().to_string(), row.task.model_name().to_string(), row.partition_label()];
        cols.extend(accs.iter().map(|a| format!("{a:.2}")));
        print_row(&cols, &widths);
    }
}
