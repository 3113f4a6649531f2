//! **Fault sweep** — graceful degradation of the collaborative systems
//! under injected edge faults (DESIGN.md "Fault model & robust rounds").
//!
//! Protocol: each grid point installs a seeded [`FaultPlan`] (dropout ×
//! straggler rate, plus a fixed corruption rate) on an otherwise identical
//! world, then runs the standard one-step adaptation experiment per
//! strategy. Nebula's robust round loop (deadline, retry accounting,
//! sanitize gate, staleness discount) faces the same faults as FedAvg and
//! HeteroFL, which have no per-update gate — a corrupted client poisons
//! their averaged weights directly.
//!
//! Run: `cargo run --release -p nebula-bench --bin fault_sweep [--quick]`

use nebula_bench::{emit_record, print_row, Scale, TaskRow};
use nebula_sim::experiment::{run_adaptation_step, ExperimentConfig};
use nebula_sim::{
    AdaptStrategy, AdversaryPlan, CorruptionKind, DenseFlStrategy, FaultPlan, NebulaStrategy, RoundPolicy,
};
use serde::Serialize;

#[derive(Serialize)]
struct FaultRecord {
    experiment: &'static str,
    task: String,
    strategy: String,
    dropout_prob: f64,
    straggler_prob: f64,
    corrupt_prob: f64,
    /// P(an upload frame is corrupted in transit → CRC-rejected).
    frame_corrupt_prob: f64,
    /// Accuracy before the adaptation step (pre-trained model).
    accuracy_before: f32,
    /// Accuracy after adapting under faults; -1 when the model was
    /// poisoned to NaN (JSON has no NaN literal).
    accuracy_after: f32,
    poisoned: bool,
    comm_mib: f64,
    retry_mib: f64,
    sampled: u64,
    participated: u64,
    dropped: u64,
    deadline_dropped: u64,
    link_dropped: u64,
    rejected: u64,
    retried: u64,
    stale: u64,
    /// Upload frames rejected by the wire CRC check.
    corrupt_frames: u64,
}

fn plan(dropout: f64, straggler: f64, corrupt: f64, frame_corrupt: f64) -> FaultPlan {
    FaultPlan {
        seed: 0xFA17,
        dropout_prob: dropout,
        crash_prob: 0.02,
        straggler_prob: straggler,
        straggler_slowdown: 20.0,
        link_flake_prob: 0.1,
        bandwidth_collapse: 8.0,
        corrupt_prob: corrupt,
        corruption: CorruptionKind::NanPoison,
        explode_scale: 1e4,
        frame_corrupt_prob: frame_corrupt,
        adversary: AdversaryPlan::none(),
    }
}

fn main() {
    let scale = Scale::from_args();
    let seed = 42u64;
    let corrupt = 0.08; // ~2 corrupted updates per 25-device round
    let row = TaskRow::table1_rows()[1]; // CIFAR-10, m=2

    // (dropout, straggler, frame_corrupt): the original dropout/straggler
    // grid plus a transit-corruption sweep exercising the CRC-reject path.
    let grid: [(f64, f64, f64); 9] = [
        (0.0, 0.0, 0.0),
        (0.15, 0.0, 0.0),
        (0.3, 0.0, 0.0),
        (0.5, 0.0, 0.0),
        (0.0, 0.3, 0.0),
        (0.3, 0.3, 0.0),
        (0.0, 0.0, 0.1),
        (0.0, 0.0, 0.3),
        (0.3, 0.3, 0.1),
    ];

    println!("Fault sweep: adaptation under dropout/straggler/corruption\n");
    let widths = [9usize, 8, 8, 8, 9, 9, 9, 7, 7, 7, 7, 7];
    print_row(
        [
            "Strategy",
            "Drop",
            "Straggle",
            "FrmCor",
            "AccBefore",
            "AccAfter",
            "Comm(MiB)",
            "Part",
            "Lost",
            "Rej",
            "Retry",
            "BadFrm",
        ]
        .map(String::from)
        .as_ref(),
        &widths,
    );

    for &(dropout, straggler, frame_corrupt) in &grid {
        let strategies: Vec<Box<dyn AdaptStrategy>> = vec![
            Box::new(DenseFlStrategy::fedavg(row.strategy_config(scale), seed)),
            Box::new(DenseFlStrategy::heterofl(row.strategy_config(scale), seed)),
            Box::new(NebulaStrategy::new(row.strategy_config(scale), seed)),
        ];
        for mut s in strategies {
            let mut world = row.world(scale, None, seed);
            world.set_fault_plan(plan(dropout, straggler, corrupt, frame_corrupt));
            world.set_round_policy(RoundPolicy { deadline_factor: Some(4.0), ..RoundPolicy::default() });
            let exp = ExperimentConfig { eval_devices: scale.eval_devices, seed };
            let out = run_adaptation_step(s.as_mut(), &mut world, &exp);

            let poisoned = !out.accuracy_after.is_finite();
            let acc_after = if poisoned { -1.0 } else { out.accuracy_after };
            let f = out.faults;
            print_row(
                &[
                    out.strategy.clone(),
                    format!("{dropout:.2}"),
                    format!("{straggler:.2}"),
                    format!("{frame_corrupt:.2}"),
                    format!("{:.3}", out.accuracy_before),
                    if poisoned { "NaN".to_string() } else { format!("{acc_after:.3}") },
                    format!("{:.1}", out.comm.total_mib()),
                    format!("{}", f.participated),
                    format!("{}", f.lost()),
                    format!("{}", f.rejected),
                    format!("{}", f.retried),
                    format!("{}", f.corrupt_frames),
                ],
                &widths,
            );
            emit_record(
                "fault_sweep",
                &FaultRecord {
                    experiment: "fault_sweep",
                    task: row.task.name().to_string(),
                    strategy: out.strategy.clone(),
                    dropout_prob: dropout,
                    straggler_prob: straggler,
                    corrupt_prob: corrupt,
                    frame_corrupt_prob: frame_corrupt,
                    accuracy_before: out.accuracy_before,
                    accuracy_after: acc_after,
                    poisoned,
                    comm_mib: out.comm.total_mib(),
                    retry_mib: out.comm.retry_bytes as f64 / (1024.0 * 1024.0),
                    sampled: f.sampled,
                    participated: f.participated,
                    dropped: f.dropped,
                    deadline_dropped: f.deadline_dropped,
                    link_dropped: f.link_dropped,
                    rejected: f.rejected,
                    retried: f.retried,
                    stale: f.stale,
                    corrupt_frames: f.corrupt_frames,
                },
            );
        }
    }
}
