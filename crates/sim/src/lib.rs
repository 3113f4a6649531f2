//! # nebula-sim
//!
//! The simulation platform the experiments run on — the stand-in for the
//! paper's Linux server + 20-device testbed (10 Jetson Nanos, 10
//! Raspberry Pi 4Bs) and its 500-device simulated population.
//!
//! * [`resources`] — per-device hardware sampled from AI-Benchmark-shaped
//!   distributions (RAM histogram, lognormal inference speed for mobile
//!   SoCs vs IoT boards, bandwidth), reproducing Fig. 2(a)/(b).
//! * [`contention`] — the co-running-process latency multiplier behind
//!   Fig. 1(b) (5.06× with 3 background processes).
//! * [`latency`] — training/inference latency estimates from flops,
//!   device speed and contention.
//! * [`network`] — byte/transfer-time accounting (Fig. 7).
//! * [`device`] — a simulated edge device: local data, held-out local
//!   test set, resources, and the resource profile handed to Nebula's
//!   derivation.
//! * [`faults`] — seeded fault injection (dropout, crashes, stragglers,
//!   flaky links, corrupted updates) and the robust-round policy/report
//!   types every strategy shares.
//! * [`world`] — the device population plus the drift process advancing
//!   it through time slots.
//! * [`shard`] — the sharded round engine for 10^5–10^6-device *virtual*
//!   populations: devices materialized on demand from per-id seeds,
//!   per-shard edge replicas folding streaming partials, simulated
//!   hierarchical round clock.
//! * [`strategy`] — the six adaptation systems behind Table 1 / Figs 7–11
//!   (NA, LA, AN, FA, HFL, Nebula) behind one trait.
//! * [`experiment`] — shared drivers: one adaptation step, rounds-to-
//!   target-accuracy, continuous multi-slot adaptation.
//! * [`durability`] — crash-safe run state: atomic run snapshots, a
//!   write-ahead round journal, deterministic resume, and chaos kill
//!   hooks.
//! * [`runner`] — the unified [`Runner`] builder every experiment shape
//!   (plain/durable × target/continuous) goes through, with optional
//!   [`nebula_telemetry`] tracing.

pub mod contention;
pub mod device;
pub mod durability;
pub mod experiment;
pub mod faults;
pub mod latency;
pub mod network;
pub mod resources;
mod round;
pub mod runner;
pub mod shard;
pub mod strategy;
pub mod world;

pub use contention::contention_multiplier;
pub use device::SimDevice;
pub use durability::{
    ChaosControl, DurabilityConfig, DurableOptions, KillSpot, RoundRecord, RunError, RunState,
};
pub use experiment::{AdaptationOutcome, ExperimentConfig};
pub use faults::{
    AdversaryPlan, AttackPersona, CorruptionKind, DeviceFate, FaultPlan, RoundPolicy, RoundReport,
};
pub use nebula_core::stats::RoundStats;
pub use network::CommTracker;
pub use resources::{DeviceClass, DeviceResources, ResourceSampler};
pub use runner::{RunOutcome, Runner};
pub use shard::{
    FoldPlan, LinkModel, RoundMode, ShardConfig, ShardRound, ShardSpec, ShardedWorld, VirtualDevice,
};
pub use strategy::{
    AdaptStrategy, AdaptiveNetStrategy, DenseFlStrategy, LocalAdaptStrategy, NebulaStrategy, NebulaVariant,
    NoAdaptStrategy,
};
pub use world::SimWorld;

/// FNV-1a fold of parameter bit patterns: the trajectory digest that
/// `nebula-node`, `serve_sweep`, `serve_chaos` and the baseline pins
/// print and compare, so runs match bit-for-bit (`0.0` and `-0.0`, or
/// two NaN payloads, digest differently).
pub fn param_digest(params: &[f32]) -> u64 {
    params
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, p| (h ^ p.to_bits() as u64).wrapping_mul(0x1000_0000_01b3))
}
