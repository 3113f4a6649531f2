//! The six adaptation systems evaluated in the paper, behind one trait.
//!
//! | Paper name | Type | Impl |
//! |---|---|---|
//! | No Adaptation (NA) | static cloud model | [`NoAdaptStrategy`] |
//! | Local Adaptation (LA) | on-device | [`LocalAdaptStrategy`] |
//! | AdaptiveNet (AN) | on-device, multi-branch | [`AdaptiveNetStrategy`] |
//! | FedAvg (FA) | edge-cloud collaborative | [`DenseFlStrategy::fedavg`] |
//! | HeteroFL (HFL) | edge-cloud collaborative | [`DenseFlStrategy::heterofl`] |
//! | Nebula | edge-cloud collaborative | [`NebulaStrategy`] |
//!
//! A strategy is *tracked-device* oriented: the experiment harness names
//! the devices that will be evaluated (the paper evaluates per-device
//! accuracy on local test sets), and strategies keep persistent per-device
//! state for exactly those — LA's private models, AN's adapted branches,
//! Nebula's edge clients — across time slots.

use crate::device::SimDevice;
use crate::faults::{
    apply_attack, attack_dense_mean, corrupt_frame, corrupt_module_update, forge_frame, poison_dense_mean,
    DeviceFate, RoundReport,
};
use crate::latency::adaptation_latency_ms;
use crate::network::{transfer_time_ms, CommTracker};
use crate::round::{RoundPlan, Seat};
use crate::world::SimWorld;
use nebula_baselines::{
    dense_round, federated, local_adapt, ratio_for_budget, AdaptiveNet, Combine, DenseJobRunner, DenseModel,
    Participant,
};
use nebula_core::{
    discount_staleness, plan_corrupt_resend, EdgeAccumulator, EdgeClient, EdgeClientState, EdgePartial,
    EdgeUpdate, Loopback, NebulaCloud, NebulaParams, RobustAggregator, RoundStats, SanitizePolicy,
    SubModelPayload, WireConfig, WireContext,
};
use nebula_data::Dataset;
use nebula_modular::ModularConfig;
use nebula_nn::Layer;
use nebula_telemetry::Telemetry;
use nebula_tensor::NebulaRng;
use nebula_wire::{CodecKind, DensePool, WireError};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// What one collaborative round produced under the fault plan.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundOutcome {
    /// The round's communication and robustness accounting.
    /// `stats.adapt_time_ms` stays 0 here: per-participant latency is a
    /// step-level estimate, not a per-round quantity.
    pub stats: RoundStats,
    /// Predicted synchronous round wall-clock, ms (capped at the deadline
    /// when one is set).
    pub round_time_ms: f64,
}

/// Static resource footprint of the model a device runs (Figs 8–9).
#[derive(Clone, Copy, Debug, Default)]
pub struct Footprint {
    pub params: u64,
    pub train_mem_bytes: u64,
    pub forward_flops: u64,
}

/// Hyper-parameters shared by all strategies (paper §6.1).
#[derive(Clone, Debug)]
pub struct StrategyConfig {
    pub modular: ModularConfig,
    /// Devices sampled per collaborative round (paper: 25).
    pub devices_per_round: usize,
    /// Collaborative rounds per adaptation step.
    pub rounds_per_step: usize,
    /// Local epochs per collaborative round (paper: 3).
    pub local_epochs: usize,
    /// Local epochs for pure on-device fine-tuning (paper: 10).
    pub finetune_epochs: usize,
    pub batch_size: usize,
    pub local_lr: f32,
    /// Pre-training epochs on the cloud proxy data.
    pub pretrain_epochs: usize,
    /// Proxy dataset size.
    pub proxy_samples: usize,
    /// Wire transport configuration for all module/model traffic. The
    /// default (`Raw`) is bit-identical to the analytic exchange; delta
    /// and int8 codecs shrink the *measured* bytes.
    pub wire: WireConfig,
    /// Module-wise combine rule applied behind the sanitize gate (Nebula
    /// only). The default `WeightedMean` is the paper's importance-weighted
    /// aggregation, bit-identical to the unparameterized path; the robust
    /// rules trade clean-run fidelity for Byzantine tolerance.
    pub aggregator: RobustAggregator,
    /// Hierarchical cloud→edge→device fan-out (DESIGN.md §14): the
    /// accepted cohort is folded at this many simulated edge servers
    /// (contiguous chunks in cohort order) and the cloud merges one
    /// partial per edge, in edge order. `None` keeps the flat
    /// direct-to-cloud path. Under `WeightedMean` each edge streams its
    /// chunk into a constant-memory accumulator, so the cloud-side cost
    /// is O(edges), not O(devices); robust rules buffer per edge and run
    /// the full sanitize gate + combine rule at the cloud, matching the
    /// flat trajectory exactly.
    ///
    /// Caveat: under `WeightedMean` the fold-time gate runs only the
    /// non-finite check — the cross-cohort norm-outlier rejection of
    /// [`SanitizePolicy::norm_outlier_ratio`] cannot run on a stream, so
    /// enabling the hierarchy weakens that defense relative to the flat
    /// path. Each bypassed accept is counted in
    /// `SanitizeReport::outlier_check_skipped` (telemetry counter
    /// `sanitize.outlier_check_skipped`).
    pub edge_groups: Option<usize>,
}

impl StrategyConfig {
    /// Defaults mirroring §6.1 with a laptop-scale round count.
    pub fn new(modular: ModularConfig) -> Self {
        Self {
            modular,
            devices_per_round: 25,
            rounds_per_step: 15,
            local_epochs: 3,
            finetune_epochs: 10,
            batch_size: 16,
            local_lr: 0.02,
            pretrain_epochs: 15,
            proxy_samples: 3000,
            wire: WireConfig::raw(),
            aggregator: RobustAggregator::WeightedMean,
            edge_groups: None,
        }
    }

    /// Per-device dense channel pool matching the configured wire codec
    /// (used by the flat-model baselines).
    fn dense_pool(&self) -> DensePool {
        DensePool::new(self.wire.codec, self.wire.delta_threshold)
    }

    /// Dense model matching the full modular capacity: each block's hidden
    /// width equals the modular layer's total module capacity.
    pub fn dense_model(&self, seed: u64) -> DenseModel {
        let m = &self.modular;
        let shrunk = if m.residual_module { m.modules_per_layer - 1 } else { m.modules_per_layer };
        DenseModel::new(
            m.input_dim,
            m.width,
            m.num_layers,
            (shrunk * m.module_hidden).max(1),
            m.classes,
            seed,
        )
    }
}

fn dense_footprint(model: &DenseModel, ratio: f32) -> Footprint {
    let params = model.active_params(ratio) as u64;
    Footprint {
        params,
        // params + grads + momentum (matching the modular cost model).
        train_mem_bytes: 3 * params * 4,
        forward_flops: params,
    }
}

/// Serializable mutable state of a dense-model strategy (NA/FA/HFL):
/// the server/base parameters, stored as `f32::to_bits` words so the
/// JSON round trip is bit-exact even for non-finite values.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DenseState {
    /// `name()` of the exporting strategy, checked on import.
    pub name: String,
    pub param_bits: Vec<u32>,
}

/// Serializable state of one Nebula edge client.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ClientState {
    pub id: usize,
    pub param_bits: Vec<u32>,
    pub active: Vec<Vec<usize>>,
    pub installed: Vec<Vec<usize>>,
}

/// Serializable mutable state of [`NebulaStrategy`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct NebulaState {
    /// Full cloud model parameters (stem + module layers + head +
    /// unified selector), as bit patterns.
    pub cloud_param_bits: Vec<u32>,
    pub enhanced: bool,
    pub tracked: Vec<usize>,
    /// Edge clients sorted by device id (deterministic encoding).
    pub clients: Vec<ClientState>,
}

/// A strategy's exported run state (see [`AdaptStrategy::export_state`]).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum StrategyState {
    Dense(DenseState),
    Nebula(NebulaState),
}

fn bits_of(params: &[f32]) -> Vec<u32> {
    params.iter().map(|p| p.to_bits()).collect()
}

fn floats_of(bits: &[u32]) -> Vec<f32> {
    bits.iter().map(|&b| f32::from_bits(b)).collect()
}

/// One adaptation system under test.
pub trait AdaptStrategy {
    /// Display name (matches the paper's table headers).
    fn name(&self) -> &'static str;

    /// Offline stage: pre-train on cloud proxy data.
    fn offline(&mut self, world: &mut SimWorld, rng: &mut NebulaRng);

    /// Registers the devices that will be evaluated; strategies keep
    /// persistent state for exactly these.
    fn track(&mut self, ids: &[usize]);

    /// Attaches a telemetry handle for the run (spans, metrics, event
    /// traces). Instrumentation must never feed back into the simulation:
    /// a disarmed handle and an armed one see identical RNG streams and
    /// identical results. Strategies without seams ignore it.
    fn set_telemetry(&mut self, _telemetry: Telemetry) {}

    /// Replaces the sanitize gate the cloud applies before aggregation.
    /// Strategies without a server-side gate ignore it.
    fn set_sanitize_policy(&mut self, _policy: SanitizePolicy) {}

    /// Selects the module-wise combine rule used at aggregation.
    /// Strategies without module-wise aggregation ignore it.
    fn set_aggregator(&mut self, _aggregator: RobustAggregator) {}

    /// Routes the per-round local training through a
    /// [`nebula_core::Transport`] (loopback executors or socket workers)
    /// instead of the inline in-process loop. Strategies without a
    /// dispatch seam ignore it. Collaborative strategies panic on a
    /// configuration the transport cannot reproduce bit-exactly (Nebula
    /// requires the stateless `Raw` codec).
    fn set_transport(&mut self, _transport: Box<dyn nebula_core::Transport>) {}

    /// One adaptation step (collaborative rounds and/or tracked-device
    /// local updates against the devices' *current* data).
    fn adaptation_step(&mut self, world: &mut SimWorld, rng: &mut NebulaRng) -> RoundStats;

    /// Personalized accuracy of tracked device `id` on its local test set.
    fn device_accuracy(&mut self, world: &mut SimWorld, id: usize) -> f32;

    /// Resource footprint of the model device `id` runs.
    fn footprint(&self, world: &SimWorld, id: usize) -> Footprint;

    /// Exports the strategy's full mutable state for a run snapshot, or
    /// `None` when the strategy cannot support deterministic resume
    /// (per-device state that is not captured, or a stateful wire codec
    /// whose residual/ack history is not reconstructible). The default
    /// opts out; strategies that support durability override it.
    fn export_state(&self) -> Option<StrategyState> {
        None
    }

    /// Restores state produced by [`Self::export_state`] into a freshly
    /// constructed strategy (same config and seed). Errors on any
    /// mismatch; the strategy may be partially modified on failure, so
    /// callers must discard it on error.
    fn import_state(&mut self, _state: &StrategyState) -> Result<(), String> {
        Err(format!("{} does not support state import", self.name()))
    }
}

/// Offline stage shared by NA/LA/FA/HFL: pre-train the dense model on
/// the cloud proxy data.
fn pretrain_dense(cfg: &StrategyConfig, model: &mut DenseModel, world: &mut SimWorld, rng: &mut NebulaRng) {
    let proxy = world.proxy(cfg.proxy_samples);
    let mut opt = nebula_nn::Sgd::with_momentum(0.05, 0.9);
    let train =
        nebula_data::TrainConfig { epochs: cfg.pretrain_epochs, batch_size: 32, clip_norm: Some(5.0) };
    nebula_data::train_epochs(model, &mut opt, &proxy, train, rng);
}

/// Dense-strategy export shared by NA/FA/HFL.
fn dense_export(name: &str, model: &DenseModel) -> StrategyState {
    StrategyState::Dense(DenseState { name: name.to_string(), param_bits: bits_of(&model.param_vector()) })
}

/// Dense-strategy import shared by NA/FA/HFL.
fn dense_import(name: &str, model: &mut DenseModel, state: &StrategyState) -> Result<(), String> {
    let StrategyState::Dense(d) = state else {
        return Err(format!("{name}: expected dense strategy state"));
    };
    if d.name != name {
        return Err(format!("state belongs to strategy {}, not {name}", d.name));
    }
    if d.param_bits.len() != model.param_count() {
        return Err(format!(
            "{name}: state has {} params, model wants {}",
            d.param_bits.len(),
            model.param_count()
        ));
    }
    model.load_param_vector(&floats_of(&d.param_bits));
    Ok(())
}

// ---------------------------------------------------------------------------
// No Adaptation
// ---------------------------------------------------------------------------

/// The pre-trained cloud model used as-is on every device.
pub struct NoAdaptStrategy {
    cfg: StrategyConfig,
    model: DenseModel,
}

impl NoAdaptStrategy {
    pub fn new(cfg: StrategyConfig, seed: u64) -> Self {
        let model = cfg.dense_model(seed);
        Self { cfg, model }
    }
}

impl AdaptStrategy for NoAdaptStrategy {
    fn name(&self) -> &'static str {
        "NA"
    }

    fn offline(&mut self, world: &mut SimWorld, rng: &mut NebulaRng) {
        pretrain_dense(&self.cfg, &mut self.model, world, rng);
    }

    fn track(&mut self, _ids: &[usize]) {}

    fn adaptation_step(&mut self, _world: &mut SimWorld, _rng: &mut NebulaRng) -> RoundStats {
        RoundStats::default()
    }

    fn device_accuracy(&mut self, world: &mut SimWorld, id: usize) -> f32 {
        nebula_data::evaluate_accuracy(&mut self.model, &world.devices[id].test, 64)
    }

    fn footprint(&self, _world: &SimWorld, _id: usize) -> Footprint {
        dense_footprint(&self.model, 1.0)
    }

    fn export_state(&self) -> Option<StrategyState> {
        Some(dense_export("NA", &self.model))
    }

    fn import_state(&mut self, state: &StrategyState) -> Result<(), String> {
        dense_import("NA", &mut self.model, state)
    }
}

// ---------------------------------------------------------------------------
// Local Adaptation
// ---------------------------------------------------------------------------

/// Each tracked device fine-tunes a private full-model copy on its fresh
/// local data every step.
pub struct LocalAdaptStrategy {
    cfg: StrategyConfig,
    base: DenseModel,
    device_models: HashMap<usize, DenseModel>,
    tracked: Vec<usize>,
}

impl LocalAdaptStrategy {
    pub fn new(cfg: StrategyConfig, seed: u64) -> Self {
        let base = cfg.dense_model(seed);
        Self { cfg, base, device_models: HashMap::new(), tracked: Vec::new() }
    }
}

impl AdaptStrategy for LocalAdaptStrategy {
    fn name(&self) -> &'static str {
        "LA"
    }

    fn offline(&mut self, world: &mut SimWorld, rng: &mut NebulaRng) {
        pretrain_dense(&self.cfg, &mut self.base, world, rng);
    }

    fn track(&mut self, ids: &[usize]) {
        self.tracked = ids.to_vec();
    }

    fn adaptation_step(&mut self, world: &mut SimWorld, rng: &mut NebulaRng) -> RoundStats {
        let mut time_ms = 0.0;
        for &id in &self.tracked.clone() {
            let model = self.device_models.entry(id).or_insert_with(|| self.base.deep_clone());
            let dev = &world.devices[id];
            let mut drng = rng.fork(id as u64);
            local_adapt(
                model,
                &dev.partition.data,
                self.cfg.finetune_epochs,
                self.cfg.batch_size,
                self.cfg.local_lr,
                &mut drng,
            );
            time_ms += adaptation_latency_ms(
                &dev.resources,
                model.param_count() as u64, // forward MACs: one per weight
                dev.volume(),
                self.cfg.finetune_epochs,
                self.cfg.batch_size,
            );
        }
        RoundStats {
            comm: CommTracker::new(),
            adapt_time_ms: time_ms / self.tracked.len().max(1) as f64,
            faults: RoundReport::default(),
        }
    }

    fn device_accuracy(&mut self, world: &mut SimWorld, id: usize) -> f32 {
        let model = self.device_models.entry(id).or_insert_with(|| self.base.deep_clone());
        nebula_data::evaluate_accuracy(model, &world.devices[id].test, 64)
    }

    fn footprint(&self, _world: &SimWorld, _id: usize) -> Footprint {
        dense_footprint(&self.base, 1.0)
    }
}

// ---------------------------------------------------------------------------
// AdaptiveNet-style
// ---------------------------------------------------------------------------

/// Multi-branch supernet; each tracked device adapts its selected branch
/// locally.
pub struct AdaptiveNetStrategy {
    cfg: StrategyConfig,
    an: AdaptiveNet,
    device_models: HashMap<usize, DenseModel>,
    tracked: Vec<usize>,
    /// Per-device wire channels: the one-time branch download is a real
    /// measured frame (AdaptiveNet never uploads).
    pool: DensePool,
}

impl AdaptiveNetStrategy {
    pub fn new(cfg: StrategyConfig, seed: u64) -> Self {
        let an = AdaptiveNet::new(cfg.dense_model(seed));
        let pool = cfg.dense_pool();
        Self { cfg, an, device_models: HashMap::new(), tracked: Vec::new(), pool }
    }

    fn branch_for(&self, dev: &SimDevice) -> f32 {
        let budget = (self.an.supernet().param_count() as f64 * dev.resources.budget_ratio as f64) as usize;
        self.an.select_branch(budget)
    }

    /// Ensures device `id` holds its branch model, downloading it over the
    /// wire on first contact. Returns the measured frame bytes (0 when the
    /// device already has its branch).
    fn ensure_branch(&mut self, id: usize, ratio: f32) -> u64 {
        if self.device_models.contains_key(&id) {
            return 0;
        }
        let (model, bytes) = self.an.branch_model_wire(ratio, id as u64, &mut self.pool);
        self.device_models.insert(id, model);
        bytes
    }
}

impl AdaptStrategy for AdaptiveNetStrategy {
    fn name(&self) -> &'static str {
        "AN"
    }

    fn offline(&mut self, world: &mut SimWorld, rng: &mut NebulaRng) {
        let proxy = world.proxy(self.cfg.proxy_samples);
        // Sandwich training is 3× the work per epoch; keep wall-clock
        // comparable to the single-branch baselines.
        let epochs = (self.cfg.pretrain_epochs / 2).max(1);
        self.an.pretrain(&proxy, epochs, 32, 0.05, rng);
    }

    fn track(&mut self, ids: &[usize]) {
        self.tracked = ids.to_vec();
    }

    fn adaptation_step(&mut self, world: &mut SimWorld, rng: &mut NebulaRng) -> RoundStats {
        let mut time_ms = 0.0;
        let mut comm = CommTracker::new();
        for &id in &self.tracked.clone() {
            let ratio = self.branch_for(&world.devices[id]);
            let bytes = self.ensure_branch(id, ratio);
            if bytes > 0 {
                comm.record_download(bytes);
                time_ms += transfer_time_ms(bytes, world.devices[id].resources.bandwidth_bps);
            }
            let model = self.device_models.get_mut(&id).expect("branch just ensured");
            let dev = &world.devices[id];
            let mut drng = rng.fork(id as u64 ^ 0xA0A0);
            local_adapt(
                model,
                &dev.partition.data,
                self.cfg.finetune_epochs,
                self.cfg.batch_size,
                self.cfg.local_lr,
                &mut drng,
            );
            time_ms += adaptation_latency_ms(
                &dev.resources,
                model.active_params(model.width_ratio()) as u64,
                dev.volume(),
                self.cfg.finetune_epochs,
                self.cfg.batch_size,
            );
        }
        RoundStats {
            comm,
            adapt_time_ms: time_ms / self.tracked.len().max(1) as f64,
            faults: RoundReport::default(),
        }
    }

    fn device_accuracy(&mut self, world: &mut SimWorld, id: usize) -> f32 {
        let ratio = self.branch_for(&world.devices[id]);
        self.ensure_branch(id, ratio);
        let model = self.device_models.get_mut(&id).expect("branch just ensured");
        nebula_data::evaluate_accuracy(model, &world.devices[id].test, 64)
    }

    fn footprint(&self, world: &SimWorld, id: usize) -> Footprint {
        let ratio = self.branch_for(&world.devices[id]);
        dense_footprint(self.an.supernet(), ratio)
    }
}

// ---------------------------------------------------------------------------
// FedAvg and HeteroFL
// ---------------------------------------------------------------------------

/// The dense federated baselines. FedAvg trains the full model on every
/// device and takes the volume-weighted mean; HeteroFL trains the nested
/// width each device's budget allows and averages every coordinate over
/// the devices covering it. Both share one round, one fate planner and
/// one latency estimate; only the width ratio and the combine rule
/// differ.
pub struct DenseFlStrategy {
    cfg: StrategyConfig,
    /// [`Combine::VolumeMean`] is FedAvg, [`Combine::CoverageMean`]
    /// HeteroFL.
    combine: Combine,
    server: DenseModel,
    /// Per-device wire channels carrying each device's active slice.
    pool: DensePool,
    /// Where local training runs: loopback over [`DenseJobRunner`]
    /// unless [`AdaptStrategy::set_transport`] replaces it. Channel
    /// state stays here on the coordinator, so every codec is
    /// transport-invariant.
    transport: Box<dyn nebula_core::Transport>,
    telemetry: Telemetry,
}

impl DenseFlStrategy {
    /// FedAvg (FA): classic federated averaging of the full dense model.
    pub fn fedavg(cfg: StrategyConfig, seed: u64) -> Self {
        Self::with_combine(cfg, seed, Combine::VolumeMean)
    }

    /// HeteroFL (HFL): resource-aware FL over nested width-scaled
    /// sub-models.
    pub fn heterofl(cfg: StrategyConfig, seed: u64) -> Self {
        Self::with_combine(cfg, seed, Combine::CoverageMean)
    }

    fn with_combine(cfg: StrategyConfig, seed: u64, combine: Combine) -> Self {
        let server = cfg.dense_model(seed);
        let pool = cfg.dense_pool();
        let transport = Box::new(Loopback::new(Arc::new(DenseJobRunner)));
        Self { cfg, combine, server, pool, transport, telemetry: Telemetry::off() }
    }

    /// The server model every device evaluates.
    pub fn server(&self) -> &DenseModel {
        &self.server
    }

    /// The width ratio a device trains and serves: always 1.0 under
    /// FedAvg, the widest level its budget fits under HeteroFL.
    fn ratio_for(&self, dev: &SimDevice) -> f32 {
        match self.combine {
            Combine::VolumeMean => 1.0,
            Combine::CoverageMean => {
                let budget = (self.server.param_count() as f64 * dev.resources.budget_ratio as f64) as usize;
                ratio_for_budget(&self.server, budget)
            }
        }
    }

    /// One communication round (used by the rounds-to-target driver),
    /// under the world's fault plan and round policy.
    ///
    /// The dense baselines have no per-update gate: corrupted clients
    /// poison the averaged weights themselves ([`poison_dense_mean`]) —
    /// the contrast the fault sweep measures against Nebula's sanitize
    /// gate.
    pub fn single_round(&mut self, world: &mut SimWorld, rng: &mut NebulaRng) -> RoundOutcome {
        let (mut round, ids) = RoundPlan::start(world, &self.cfg, &self.telemetry);
        let mut admitted = Vec::with_capacity(ids.len());
        for &id in &ids {
            let Some(fate) = round.fate(id) else { continue };
            // Each device exchanges its own width-scaled sub-model.
            let dev = &world.devices[id];
            let ratio = self.ratio_for(dev);
            let active = self.server.active_params(ratio) as u64;
            let payload_bytes = active * 4;
            let Some(mut up) = round.upload(id, &fate, payload_bytes) else { continue };
            round.resend(payload_bytes, up.resends);
            // Transit corruption on the upload frame: CRC-rejected, one
            // clean resend. Without a retry budget the device is lost.
            if fate.frame_corrupt {
                round.report.corrupt_frames += 1;
                round.comm.record_retry(payload_bytes);
                let Some(wait) = plan_corrupt_resend(up.resends, round.policy.retry_policy()) else {
                    round.drop_link(id, None);
                    continue;
                };
                round.report.retried += 1;
                up.resends += 1;
                up.backoff_ms += wait;
            }
            let time_ms = round.predict_ms(dev, &fate, active, payload_bytes, &up);
            admitted.push((Seat { id, fate, time_ms }, ratio));
        }

        let trainers = round.resolve(admitted, |seat, &ratio, comm| {
            // Received its active slice as a real measured frame, died
            // before uploading.
            let slice = federated::slice(&self.server.param_vector(), &self.server.mask_for_ratio(ratio));
            let mut scratch = Vec::new();
            let bytes = self
                .pool
                .send_down(seat.id as u64, &slice, &mut scratch)
                .expect("pristine in-process frame must decode");
            comm.record_download(bytes);
        });

        if !trainers.is_empty() {
            let cohort: Vec<Participant> = trainers
                .iter()
                .map(|&(seat, ratio)| Participant {
                    id: seat.id as u64,
                    data: &world.devices[seat.id].partition.data,
                    ratio,
                })
                .collect();
            let train = nebula_core::TrainParams {
                epochs: self.cfg.local_epochs,
                batch_size: self.cfg.batch_size,
                lr: self.cfg.local_lr,
            };
            let out = dense_round(
                &mut self.server,
                &cohort,
                self.combine,
                train,
                round.round as usize,
                rng,
                &mut self.pool,
                self.transport.as_mut(),
            );
            let delivered = out.delivered.len() as u64;
            // Jobs the transport lost (worker crash/deadline) degrade the
            // round like dropped links; loopback never loses any.
            round.report.link_dropped += trainers.len() as u64 - delivered;
            round.report.participated = delivered;
            let comm = &mut round.comm;
            comm.down_bytes = comm.down_bytes.saturating_add(out.down);
            comm.up_bytes = comm.up_bytes.saturating_add(out.up);
            comm.downloads = comm.downloads.saturating_add(trainers.len() as u64);
            comm.uploads = comm.uploads.saturating_add(delivered);
            // Corrupt and Byzantine fractions count only the updates that
            // reached the server: lost ones poison nothing, and a round
            // where none arrived leaves the server untouched.
            let arrived = || out.delivered.iter().map(|&k| &trainers[k].0.fate);
            let n_corrupt = arrived().filter(|f| f.corruption.is_some()).count();
            let n_malicious = arrived().filter(|f| f.malicious.is_some()).count();
            let plan = round.faults;
            if n_corrupt > 0 {
                let mut params = self.server.param_vector();
                poison_dense_mean(
                    &mut params,
                    plan.corruption,
                    plan.explode_scale,
                    n_corrupt as f32 / delivered as f32,
                    plan.seed ^ (round.round << 20),
                );
                self.server.load_param_vector(&params);
            }
            if n_malicious > 0 {
                // No per-update gate and no robust combine: the Byzantine
                // cohort's attacked mean lands on the server weights.
                let mut params = self.server.param_vector();
                attack_dense_mean(
                    &mut params,
                    &plan.adversary,
                    n_malicious as f32 / delivered as f32,
                    plan.adversary.attack_seed(round.round, usize::MAX),
                );
                self.server.load_param_vector(&params);
            }
        }
        round.finish()
    }
}

impl AdaptStrategy for DenseFlStrategy {
    fn name(&self) -> &'static str {
        match self.combine {
            Combine::VolumeMean => "FA",
            Combine::CoverageMean => "HFL",
        }
    }

    fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    fn set_transport(&mut self, transport: Box<dyn nebula_core::Transport>) {
        self.transport = transport;
    }

    fn offline(&mut self, world: &mut SimWorld, rng: &mut NebulaRng) {
        pretrain_dense(&self.cfg, &mut self.server, world, rng);
    }

    fn track(&mut self, _ids: &[usize]) {}

    fn adaptation_step(&mut self, world: &mut SimWorld, rng: &mut NebulaRng) -> RoundStats {
        let mut stats = RoundStats::default();
        for _ in 0..self.cfg.rounds_per_step {
            stats.merge(&self.single_round(world, rng).stats);
        }
        // Per-participant local-training + transfer latency, each device
        // at its own width, averaged over an evenly-spaced device sample
        // (a single device's hardware would bias the estimate).
        let n = world.num_devices();
        let samples = 8.min(n);
        let mut time_ms = 0.0;
        for i in 0..samples {
            let dev = &world.devices[i * n / samples];
            let active = self.server.active_params(self.ratio_for(dev)) as u64;
            time_ms += adaptation_latency_ms(
                &dev.resources,
                active,
                dev.volume(),
                self.cfg.local_epochs,
                self.cfg.batch_size,
            ) + transfer_time_ms(2 * active * 4, dev.resources.bandwidth_bps);
        }
        RoundStats { adapt_time_ms: time_ms / samples.max(1) as f64, ..stats }
    }

    fn device_accuracy(&mut self, world: &mut SimWorld, id: usize) -> f32 {
        // The device serves the sub-model its resources allow.
        let mut local = self.server.deep_clone();
        local.set_width_ratio(self.ratio_for(&world.devices[id]));
        nebula_data::evaluate_accuracy(&mut local, &world.devices[id].test, 64)
    }

    fn footprint(&self, world: &SimWorld, id: usize) -> Footprint {
        dense_footprint(&self.server, self.ratio_for(&world.devices[id]))
    }

    fn export_state(&self) -> Option<StrategyState> {
        // Delta/int8 dense channels carry baseline and error-feedback
        // history that a snapshot does not capture; only Raw resumes
        // bit-identically.
        (self.cfg.wire.codec == CodecKind::Raw).then(|| dense_export(self.name(), &self.server))
    }

    fn import_state(&mut self, state: &StrategyState) -> Result<(), String> {
        let name = self.name();
        if self.cfg.wire.codec != CodecKind::Raw {
            return Err(format!("{name}: state import requires the Raw wire codec"));
        }
        dense_import(name, &mut self.server, state)
    }
}

/// The cloud's receive side of one upload frame: transit corruption
/// when the device's fate says so (with frame auth on, `forge` also
/// recomputes the CRC, so only the MAC catches it), decode, one clean
/// resend under the retry budget, and the byte accounting. Returns the
/// decoded update, or `None` when the device is lost. A rejected frame
/// never reaches aggregation.
fn receive_upload(
    wire: &mut WireContext,
    id: usize,
    frame: &[u8],
    fate: &DeviceFate,
    forge: bool,
    round: &mut RoundPlan,
) -> Option<EdgeUpdate> {
    let enc = frame.len() as u64;
    let id = id as u64;
    if fate.frame_corrupt {
        round.report.corrupt_frames += 1;
        let seed = round.faults.seed ^ (round.round << 20) ^ id;
        let mut bad = frame.to_vec();
        if forge {
            forge_frame(&mut bad, seed);
        } else {
            corrupt_frame(&mut bad, seed);
        }
        if let Ok(update) = wire.decode_update_from(id, &bad) {
            round.comm.record_upload(enc);
            return Some(update);
        }
        round.comm.record_retry(enc);
        if round.policy.max_retries == 0 {
            return None;
        }
        round.report.retried += 1;
    }
    match wire.decode_update_from(id, frame) {
        Ok(update) => {
            round.comm.record_upload(enc);
            Some(update)
        }
        Err(_) => {
            // A failed clean resend bills nothing more.
            if !fate.frame_corrupt {
                round.comm.record_retry(enc);
            }
            None
        }
    }
}

// ---------------------------------------------------------------------------
// Nebula
// ---------------------------------------------------------------------------

/// Which parts of the Nebula pipeline run (the Fig. 10 variants).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NebulaVariant {
    /// Full framework: collaborative rounds + per-device derivation +
    /// local fine-tuning.
    Full,
    /// "Nebula w/o local training": devices query the cloud for fresh
    /// sub-models each step but never fine-tune locally.
    NoLocalTraining,
    /// "Nebula w/o cloud": devices query the cloud once, then adapt only
    /// locally.
    NoCloud,
}

/// One admitted device's download and training inputs.
struct NebulaJob {
    /// The decoded payload an in-process device trains from.
    payload: SubModelPayload,
    /// The encoded payload frame a remote worker decodes (transport
    /// rounds only).
    frame: Option<Vec<u8>>,
    local: Dataset,
    rng: NebulaRng,
}

/// How one device's training came back: an in-process update, a remote
/// worker's encoded update frame, or not at all.
enum Arrived {
    Update(EdgeUpdate),
    Frame(Vec<u8>),
    Lost,
}

/// The full Nebula framework.
pub struct NebulaStrategy {
    cfg: StrategyConfig,
    cloud: NebulaCloud,
    variant: NebulaVariant,
    clients: HashMap<usize, EdgeClient>,
    tracked: Vec<usize>,
    enhanced: bool,
    /// Sanitize gate the cloud applies to every round's updates.
    sanitize: SanitizePolicy,
    /// Module-wise combine rule applied behind the gate.
    aggregator: RobustAggregator,
    /// Checkpoint-rollback guard: probe dataset + max tolerated accuracy
    /// drop per aggregation. Off by default.
    rollback: Option<(Dataset, f32)>,
    /// Module transport: registry, codecs and per-device residual state.
    wire: WireContext,
    /// Reusable frame buffer for all encode/decode round trips.
    frame_buf: Vec<u8>,
    /// Optional dispatch transport for the round's local training;
    /// `None` trains in-process (the historical path, bit-identical).
    transport: Option<Box<dyn nebula_core::Transport>>,
    telemetry: Telemetry,
}

impl NebulaStrategy {
    pub fn new(cfg: StrategyConfig, seed: u64) -> Self {
        Self::with_variant(cfg, seed, NebulaVariant::Full)
    }

    pub fn with_variant(cfg: StrategyConfig, seed: u64, variant: NebulaVariant) -> Self {
        let mut params = NebulaParams::default();
        params.pretrain.epochs = cfg.pretrain_epochs;
        params.local_epochs = cfg.local_epochs;
        params.batch_size = cfg.batch_size;
        params.local_lr = cfg.local_lr;
        let cloud = NebulaCloud::new(cfg.modular.clone(), params, seed);
        let wire = WireContext::new(cfg.wire);
        let aggregator = cfg.aggregator;
        Self {
            cfg,
            cloud,
            variant,
            clients: HashMap::new(),
            tracked: Vec::new(),
            enhanced: false,
            sanitize: SanitizePolicy::default(),
            aggregator,
            rollback: None,
            wire,
            frame_buf: Vec::new(),
            transport: None,
            telemetry: Telemetry::off(),
        }
    }

    /// Read access to the cloud (diagnostics, sub-model studies).
    pub fn cloud(&self) -> &NebulaCloud {
        &self.cloud
    }

    /// Mutable cloud access.
    pub fn cloud_mut(&mut self) -> &mut NebulaCloud {
        &mut self.cloud
    }

    /// Arms the checkpoint-rollback guard: every aggregation is probed on
    /// `probe` and undone if accuracy regresses by more than `max_drop`.
    pub fn enable_rollback(&mut self, probe: Dataset, max_drop: f32) {
        self.rollback = Some((probe, max_drop));
    }

    /// One collaborative round under the world's fault plan and round
    /// policy: plan → dispatch → accept → aggregate.
    ///
    /// Fates resolve before anything trains: crashed and deadline-dropped
    /// devices still receive their download but are never trained or
    /// shipped. Local training of the survivors runs in parallel with
    /// RNG streams forked per admitted device in admission order, so
    /// results are identical for any rayon thread count. Fault fates come
    /// from the plan's dedicated RNG, so with
    /// [`crate::faults::FaultPlan::none`] this round is bit-for-bit
    /// identical to a fault-free build.
    pub fn single_round(&mut self, world: &mut SimWorld, rng: &mut NebulaRng) -> RoundOutcome {
        let (mut round, ids) = RoundPlan::start(world, &self.cfg, &self.telemetry);
        let admitted = self.plan_and_download(world, &ids, rng, &mut round);
        let (seats, jobs): (Vec<Seat>, Vec<NebulaJob>) =
            round.resolve(admitted, |_, _, _| {}).into_iter().unzip();
        let arrivals = self.train(round.round, &seats, jobs);
        let accepted = self.accept(&mut round, seats, arrivals);
        self.aggregate(&mut round, accepted);
        round.finish()
    }

    /// Plan and dispatch: fates, derivation, link planning and the
    /// download each admitted device trains from. Each download is
    /// encoded into a real frame and the *decoded* payload is what the
    /// device trains from; the tracker records the measured frame length,
    /// while the latency model keeps the analytic planning size (so `Raw`
    /// rounds stay bit-identical). Every admitted device forks its
    /// training RNG here, whatever its fate, so skipping the doomed ones
    /// later moves no other device's stream.
    fn plan_and_download(
        &mut self,
        world: &SimWorld,
        ids: &[usize],
        rng: &mut NebulaRng,
        round: &mut RoundPlan,
    ) -> Vec<(Seat, NebulaJob)> {
        // Baselines for this round's wire traffic (no-op for non-delta
        // codecs).
        self.wire.commit_model(self.cloud.model());
        let mut admitted = Vec::with_capacity(ids.len());
        for &id in ids {
            let mut client_span = self.telemetry.span("client");
            client_span.int("device", id as u64);
            let Some(fate) = round.fate(id) else { continue };
            let dev = &world.devices[id];
            let payload = self.derive_payload(dev);
            let plan_bytes = payload.bytes();
            // Retries exhausted: the device never joins the round (and
            // never receives a frame, so its wire state stays cold).
            let Some(up) = round.upload(id, &fate, plan_bytes) else { continue };
            let (wire_bytes, decoded) = {
                let _span = self.telemetry.span("wire_tx");
                self.send_down(id, &payload)
            };
            round.comm.record_download(wire_bytes);
            let Ok(payload) = decoded else {
                // Defensive: a pristine in-process frame always decodes.
                round.drop_link(id, None);
                continue;
            };
            round.resend(wire_bytes, up.resends);
            let flops = self.cloud.cost_model().submodel(&payload.spec).flops;
            let time_ms = round.predict_ms(dev, &fate, flops, plan_bytes, &up);
            // Remote dispatch ships the encoded payload frame.
            let frame = self.transport.is_some().then(|| self.frame_buf.clone());
            let local = dev.partition.data.clone();
            let job = NebulaJob { payload, frame, local, rng: rng.fork(id as u64 ^ 0xEB) };
            admitted.push((Seat { id, fate, time_ms }, job));
        }
        admitted
    }

    /// Trains the surviving devices: in-process, or over the transport.
    fn train(&mut self, round: u64, seats: &[Seat], jobs: Vec<NebulaJob>) -> Vec<Arrived> {
        use rayon::prelude::*;

        let train = nebula_core::TrainParams {
            epochs: self.cfg.local_epochs,
            batch_size: self.cfg.batch_size,
            lr: self.cfg.local_lr,
        };
        if let Some(transport) = self.transport.as_deref_mut() {
            let dispatch: Vec<nebula_core::DispatchJob> = jobs
                .into_iter()
                .zip(seats)
                .map(|(job, seat)| nebula_core::DispatchJob {
                    round: round as usize,
                    device: seat.id as u64,
                    spec: nebula_core::JobSpec::Modular {
                        frame: job.frame.expect("remote jobs carry their payload frame"),
                    },
                    rng_state: job.rng.state(),
                    train,
                    data: job.local,
                })
                .collect();
            let mut train_span = self.telemetry.span("remote_train");
            train_span.int("clients", dispatch.len() as u64);
            return transport
                .round_trip(dispatch)
                .into_iter()
                .map(|r| match r {
                    Ok(nebula_core::JobResult::Frame(f)) => Arrived::Frame(f),
                    // A dense result to a modular job is a protocol
                    // violation; the device degrades like a lost link.
                    Ok(nebula_core::JobResult::Params(_)) | Err(_) => Arrived::Lost,
                })
                .collect();
        }
        let modular = &self.cfg.modular;
        let mut train_span = self.telemetry.span("local_train");
        train_span.int("clients", jobs.len() as u64);
        jobs.into_par_iter()
            .map(|mut job| {
                // Client-level parallelism owns the pool here; keep the
                // inner tensor kernels sequential so per-device training
                // does not nest-fork (see nebula_tensor::par).
                nebula_tensor::par::sequential(|| {
                    let mut client = EdgeClient::from_payload(modular.clone(), &job.payload);
                    client.adapt(&job.local, train.epochs, train.batch_size, train.lr, &mut job.rng);
                    Arrived::Update(client.make_update(&job.local))
                })
            })
            .collect()
    }

    /// Accepts what came back: fault mutations, the upload frame through
    /// the cloud's receive side, and staleness discounts. Returns the
    /// updates that reach aggregation.
    fn accept(&mut self, round: &mut RoundPlan, seats: Vec<Seat>, arrivals: Vec<Arrived>) -> Vec<EdgeUpdate> {
        let (plan, r) = (round.faults, round.round);
        let forge = self.cfg.wire.auth_key.is_some();
        let mutate = |update: &mut EdgeUpdate, fate: &DeviceFate, id: usize| {
            if let Some(kind) = fate.corruption {
                corrupt_module_update(update, kind, plan.explode_scale, plan.seed ^ (r << 20) ^ id as u64);
            }
            if fate.malicious.is_some() {
                // Colluders share one per-round attack seed.
                apply_attack(update, &plan.adversary, plan.adversary.attack_seed(r, id));
            }
        };
        let mut accepted = Vec::with_capacity(arrivals.len());
        for (arrived, Seat { id, fate, time_ms }) in arrivals.into_iter().zip(seats) {
            let upload_span = self.telemetry.span("wire_tx");
            let decoded = match arrived {
                Arrived::Lost => {
                    // The transport failed to bring the job back (worker
                    // crash, socket deadline): the device degrades through
                    // the same path as a dropped link below.
                    self.telemetry.counter_add("serve.transport_lost", 1);
                    None
                }
                Arrived::Update(mut update) => {
                    // App-level corruption and Byzantine attacks mutate the
                    // update *before* the frame is cut: the frame is valid,
                    // and the sanitize gate and robust combine rule are the
                    // defences. The upload is a real frame; the cloud
                    // aggregates what it decodes, never the sender's structs.
                    mutate(&mut update, &fate, id);
                    self.wire.encode_update(id as u64, &update, &mut self.frame_buf);
                    receive_upload(&mut self.wire, id, &self.frame_buf, &fate, forge, round)
                }
                Arrived::Frame(frame) => {
                    // A remote worker already encoded the update, so the
                    // mutations apply to what the cloud decoded. Under the
                    // Raw codec that order is bit-identical to mutating
                    // before encoding (the serve tests pin it); stateful
                    // codecs never reach this path.
                    receive_upload(&mut self.wire, id, &frame, &fate, forge, round).map(|mut update| {
                        mutate(&mut update, &fate, id);
                        update
                    })
                }
            };
            drop(upload_span);
            let Some(mut update) = decoded else {
                round.drop_link(id, Some(time_ms));
                continue;
            };
            if fate.straggler {
                // Late but within the deadline: accepted at a discount
                // (server-side, after decode).
                discount_staleness(&mut update, round.policy.staleness_discount);
                round.report.stale += 1;
                round.note(id, "stale", Some(time_ms));
            } else {
                round.note(id, "accepted", Some(time_ms));
            }
            accepted.push(update);
        }
        accepted
    }

    /// Aggregates the accepted cohort with one call behind the sanitize
    /// gate, under the checkpoint-rollback guard when it is armed.
    fn aggregate(&mut self, round: &mut RoundPlan, accepted: Vec<EdgeUpdate>) {
        round.report.participated = accepted.len() as u64;
        self.note_gate_loads(round.round, &accepted);
        let mut agg_span = self.telemetry.span("aggregate");
        agg_span.int("accepted", accepted.len() as u64);
        let partials = self.edge_partials(accepted);
        if self.cfg.edge_groups.is_some_and(|g| g > 0) {
            // Hierarchical fan-out: the cloud only ever sees one partial
            // per edge group. (Edge→cloud backhaul byte/latency accounting
            // lives in the sharded engine; `comm` here stays the
            // device-side traffic, identical to the flat path.)
            agg_span.int("edge_partials", partials.len() as u64);
        }
        let (policy, aggregator) = (self.sanitize, self.aggregator);
        let absorb = |cloud: &mut NebulaCloud| cloud.absorb_partials(&partials, &policy, aggregator);
        let s = match &self.rollback {
            Some((probe, max_drop)) => {
                let out =
                    self.cloud.guarded(|m| nebula_data::evaluate_accuracy(m, probe, 64), *max_drop, absorb);
                round.report.rolled_back += u64::from(out.rolled_back);
                out.sanitize
            }
            None => absorb(&mut self.cloud).sanitize,
        };
        round.report.rejected += s.rejected() as u64;
        if self.telemetry.enabled() {
            let t = &self.telemetry;
            t.counter_add("sanitize.rejected_non_finite", s.rejected_non_finite as u64);
            t.counter_add("sanitize.rejected_outlier", s.rejected_outlier as u64);
            t.counter_add("sanitize.outlier_check_skipped", s.outlier_check_skipped as u64);
            t.emit("sanitize", |e| {
                e.ints.insert("round".into(), round.round);
                e.ints.insert("accepted".into(), s.accepted as u64);
                e.ints.insert("non_finite".into(), s.rejected_non_finite as u64);
                e.ints.insert("outlier".into(), s.rejected_outlier as u64);
                e.ints.insert("outlier_skipped".into(), s.outlier_check_skipped as u64);
            });
        }
    }

    /// Gate-probability and module-load telemetry of what the cloud
    /// actually decoded: which modules each accepted client activated,
    /// how spread its per-layer gate distribution is, and one
    /// `gate_load` event per layer with the round's activation counts.
    fn note_gate_loads(&self, round: u64, accepted: &[EdgeUpdate]) {
        let t = &self.telemetry;
        if !t.enabled() {
            return;
        }
        let mut loads = vec![vec![0u64; self.cfg.modular.modules_per_layer]; self.cfg.modular.num_layers];
        for update in accepted {
            for (layer, modules) in update.spec.layers().iter().enumerate() {
                for &m in modules {
                    t.load_add(&format!("gate_load.layer{layer}"), m, 1);
                    if let Some(c) = loads.get_mut(layer).and_then(|counts| counts.get_mut(m)) {
                        *c += 1;
                    }
                }
                if let Some(row) = update.importance.get(layer) {
                    t.observe(&format!("gate_entropy.layer{layer}"), nebula_modular::normalized_entropy(row));
                }
            }
        }
        for (layer, counts) in loads.iter().enumerate() {
            t.emit("gate_load", |e| {
                e.ints.insert("round".into(), round);
                e.ints.insert("layer".into(), layer as u64);
                for (m, &c) in counts.iter().enumerate() {
                    e.ints.insert(format!("b{m:03}"), c);
                }
            });
        }
    }

    /// The accepted cohort as edge partials. Flat rounds (`edge_groups`
    /// unset or zero) are one buffered partial, which `absorb_partials`
    /// runs through the full sanitize gate and combine rule exactly as
    /// [`NebulaCloud::aggregate_robust_with`] would. Hierarchical rounds
    /// fold the cohort at `edge_groups` simulated edge servers —
    /// contiguous chunks in cohort order — with partials in edge order.
    fn edge_partials(&self, accepted: Vec<EdgeUpdate>) -> Vec<EdgePartial> {
        let groups = self.cfg.edge_groups.unwrap_or(0);
        // A dead round — every sampled device crashed, missed the
        // deadline, or dropped its link — has nothing to fold; its one
        // empty partial aggregates to a no-op.
        if groups == 0 || accepted.is_empty() {
            return vec![EdgePartial { buffered: accepted, ..EdgePartial::default() }];
        }
        let chunk = accepted.len().div_ceil(groups.min(accepted.len()));
        let mut updates = accepted.into_iter().peekable();
        let mut partials = Vec::with_capacity(groups);
        while updates.peek().is_some() {
            let mut edge = EdgeAccumulator::new(self.aggregator, self.sanitize, true);
            for u in updates.by_ref().take(chunk) {
                edge.ingest(u);
            }
            partials.push(edge.finish(partials.len() as u64));
        }
        partials
    }

    /// Derives the device's sub-model from its local data and resource
    /// profile, and cuts its payload from the cloud model.
    fn derive_payload(&mut self, dev: &SimDevice) -> SubModelPayload {
        let profile = dev.profile(self.cloud.cost_model());
        let outcome = self.cloud.derive_for_data(&dev.partition.data, &profile, None);
        self.cloud.dispatch(&outcome.spec)
    }

    /// Encodes `payload` on device `id`'s download channel and decodes it
    /// as the device would: the measured frame bytes, and what arrived.
    /// The frame stays in `frame_buf`.
    fn send_down(
        &mut self,
        id: usize,
        payload: &SubModelPayload,
    ) -> (u64, Result<SubModelPayload, WireError>) {
        let bytes = self.wire.encode_payload(id as u64, payload, &mut self.frame_buf) as u64;
        (bytes, self.wire.decode_payload(id as u64, &self.frame_buf))
    }

    /// Refreshes (or creates) the tracked device's client from the cloud:
    /// derive + dispatch, over the wire. Returns the measured download
    /// frame bytes; the client installs what it decoded.
    fn refresh_client(&mut self, world: &mut SimWorld, id: usize) -> u64 {
        let payload = self.derive_payload(&world.devices[id]);
        let (bytes, payload) = self.send_down(id, &payload);
        let payload = payload.expect("pristine in-process frame must decode");
        match self.clients.get_mut(&id) {
            Some(client) => client.install(&payload),
            None => {
                self.clients.insert(id, EdgeClient::from_payload(self.cfg.modular.clone(), &payload));
            }
        }
        bytes
    }
}

impl AdaptStrategy for NebulaStrategy {
    fn name(&self) -> &'static str {
        match self.variant {
            NebulaVariant::Full => "Nebula",
            NebulaVariant::NoLocalTraining => "Nebula w/o local",
            NebulaVariant::NoCloud => "Nebula w/o cloud",
        }
    }

    fn offline(&mut self, world: &mut SimWorld, rng: &mut NebulaRng) {
        let proxy = world.proxy(self.cfg.proxy_samples);
        self.cloud.pretrain(&proxy, rng);
        let subtasks = world.subtask_datasets(200);
        self.cloud.enhance(&subtasks, rng);
        self.enhanced = true;
    }

    fn track(&mut self, ids: &[usize]) {
        self.tracked = ids.to_vec();
    }

    fn set_telemetry(&mut self, telemetry: Telemetry) {
        // The wire context shares the handle so frame/CRC telemetry lands
        // in the same trace as the round spans.
        self.wire.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
    }

    fn set_sanitize_policy(&mut self, policy: SanitizePolicy) {
        self.sanitize = policy;
    }

    fn set_aggregator(&mut self, aggregator: RobustAggregator) {
        self.aggregator = aggregator;
    }

    fn set_transport(&mut self, transport: Box<dyn nebula_core::Transport>) {
        // Remote dispatch rebuilds a fresh WireContext per job on the
        // worker side, which is only byte-identical to the coordinator's
        // shared context under the stateless Raw codec.
        assert_eq!(
            self.cfg.wire.codec,
            CodecKind::Raw,
            "Nebula transport routing requires the stateless Raw codec"
        );
        self.transport = Some(transport);
    }

    fn adaptation_step(&mut self, world: &mut SimWorld, rng: &mut NebulaRng) -> RoundStats {
        let mut stats = RoundStats::default();

        // Edge-cloud collaborative rounds (skipped by the w/o-cloud variant).
        if self.variant != NebulaVariant::NoCloud {
            for _ in 0..self.cfg.rounds_per_step {
                stats.merge(&self.single_round(world, rng).stats);
            }
        }

        // Tracked devices: refresh sub-model from the cloud and/or adapt
        // locally, per variant. Refresh downloads are wire frames cut from
        // the post-aggregation model, so commit fresh baselines first.
        self.wire.commit_model(self.cloud.model());
        let mut comm = stats.comm;
        let mut time_ms = 0.0;
        for &id in &self.tracked.clone() {
            let refresh = match self.variant {
                NebulaVariant::Full | NebulaVariant::NoLocalTraining => true,
                NebulaVariant::NoCloud => !self.clients.contains_key(&id),
            };
            if refresh {
                let bytes = self.refresh_client(world, id);
                comm.record_download(bytes);
                time_ms += transfer_time_ms(bytes, world.devices[id].resources.bandwidth_bps);
            }
            let local_training = self.variant != NebulaVariant::NoLocalTraining;
            if local_training {
                let local = world.devices[id].partition.data.clone();
                let client = self.clients.get_mut(&id).expect("tracked client exists");
                let mut drng = rng.fork(id as u64 ^ 0xF00D);
                client.adapt(
                    &local,
                    self.cfg.local_epochs,
                    self.cfg.batch_size,
                    self.cfg.local_lr,
                    &mut drng,
                );
                let spec_cost = self.cloud.cost_model().submodel(client.spec());
                let dev = &world.devices[id];
                time_ms += adaptation_latency_ms(
                    &dev.resources,
                    spec_cost.flops,
                    dev.volume(),
                    self.cfg.local_epochs,
                    self.cfg.batch_size,
                );
            }
        }

        RoundStats { comm, adapt_time_ms: time_ms / self.tracked.len().max(1) as f64, faults: stats.faults }
    }

    fn device_accuracy(&mut self, world: &mut SimWorld, id: usize) -> f32 {
        if !self.clients.contains_key(&id) {
            self.refresh_client(world, id);
        }
        let client = self.clients.get_mut(&id).expect("client exists");
        client.accuracy(&world.devices[id].test)
    }

    fn footprint(&self, world: &SimWorld, id: usize) -> Footprint {
        // Footprint of the sub-model the device would be assigned.
        let dev = &world.devices[id];
        let profile = dev.profile(self.cloud.cost_model());
        let spec = match self.clients.get(&id) {
            Some(c) => c.spec().clone(),
            None => {
                // No data-dependent importance available immutably; use a
                // uniform-importance derivation under the device budget.
                let cfg = &self.cfg.modular;
                let uniform =
                    vec![vec![1.0 / cfg.modules_per_layer as f32; cfg.modules_per_layer]; cfg.num_layers];
                self.cloud.derive_for_importance(&uniform, &profile, None).spec
            }
        };
        let c = self.cloud.cost_model().submodel(&spec);
        Footprint { params: c.params, train_mem_bytes: c.training_mem_bytes, forward_flops: c.flops }
    }

    fn export_state(&self) -> Option<StrategyState> {
        // Delta/int8 wire traffic depends on registry/residual history
        // that a snapshot does not capture; only Raw resumes
        // bit-identically (DESIGN.md §11).
        if self.cfg.wire.codec != CodecKind::Raw {
            return None;
        }
        let mut clients: Vec<ClientState> = self
            .clients
            .iter()
            .map(|(&id, client)| {
                let s = client.export_state();
                ClientState { id, param_bits: bits_of(&s.params), active: s.active, installed: s.installed }
            })
            .collect();
        clients.sort_by_key(|c| c.id);
        Some(StrategyState::Nebula(NebulaState {
            cloud_param_bits: bits_of(&self.cloud.model().param_vector()),
            enhanced: self.enhanced,
            tracked: self.tracked.clone(),
            clients,
        }))
    }

    fn import_state(&mut self, state: &StrategyState) -> Result<(), String> {
        if self.cfg.wire.codec != CodecKind::Raw {
            return Err("Nebula: state import requires the Raw wire codec".to_string());
        }
        let StrategyState::Nebula(n) = state else {
            return Err("Nebula: expected Nebula strategy state".to_string());
        };
        let want = self.cloud.model().param_count();
        if n.cloud_param_bits.len() != want {
            return Err(format!(
                "Nebula: state has {} cloud params, model wants {want}",
                n.cloud_param_bits.len()
            ));
        }
        self.cloud.model_mut().load_param_vector(&floats_of(&n.cloud_param_bits));
        self.enhanced = n.enhanced;
        self.tracked = n.tracked.clone();
        self.clients.clear();
        for c in &n.clients {
            let s = EdgeClientState {
                params: floats_of(&c.param_bits),
                active: c.active.clone(),
                installed: c.installed.clone(),
            };
            let client = EdgeClient::from_state(self.cfg.modular.clone(), &s)
                .map_err(|e| format!("Nebula: client {}: {e}", c.id))?;
            self.clients.insert(c.id, client);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::ResourceSampler;
    use nebula_data::{PartitionSpec, Partitioner, SynthSpec, Synthesizer};

    fn toy_world(devices: usize) -> SimWorld {
        let synth = Synthesizer::new(SynthSpec::toy(), 1);
        let spec = PartitionSpec::new(devices, Partitioner::LabelSkew { m: 2 });
        SimWorld::new(synth, spec, 9, None, &ResourceSampler::default(), 5)
    }

    fn toy_cfg() -> StrategyConfig {
        let mut modular = ModularConfig::toy(16, 4);
        modular.gate_noise_std = 0.3;
        let mut cfg = StrategyConfig::new(modular);
        cfg.devices_per_round = 4;
        cfg.rounds_per_step = 2;
        cfg.pretrain_epochs = 6;
        cfg.proxy_samples = 300;
        cfg.finetune_epochs = 4;
        cfg
    }

    #[test]
    fn all_strategies_run_one_step() {
        let mut rng = NebulaRng::seed(3);
        let mut strategies: Vec<Box<dyn AdaptStrategy>> = vec![
            Box::new(NoAdaptStrategy::new(toy_cfg(), 1)),
            Box::new(LocalAdaptStrategy::new(toy_cfg(), 1)),
            Box::new(AdaptiveNetStrategy::new(toy_cfg(), 1)),
            Box::new(DenseFlStrategy::fedavg(toy_cfg(), 1)),
            Box::new(DenseFlStrategy::heterofl(toy_cfg(), 1)),
            Box::new(NebulaStrategy::new(toy_cfg(), 1)),
        ];
        for s in &mut strategies {
            let mut world = toy_world(8);
            s.offline(&mut world, &mut rng);
            s.track(&[0, 1]);
            let report = s.adaptation_step(&mut world, &mut rng);
            let acc = s.device_accuracy(&mut world, 0);
            assert!((0.0..=1.0).contains(&acc), "{}: acc {acc}", s.name());
            let fp = s.footprint(&world, 0);
            assert!(fp.params > 0, "{}: zero params", s.name());
            // Strategies that download models must move bytes (AN pays a
            // one-time branch download); purely local ones must not.
            match s.name() {
                "FA" | "HFL" | "Nebula" | "AN" => {
                    assert!(report.comm.total_bytes() > 0, "{}", s.name())
                }
                _ => assert_eq!(report.comm.total_bytes(), 0, "{}", s.name()),
            }
        }
    }

    #[test]
    fn nebula_comm_cheaper_than_fedavg() {
        let mut rng = NebulaRng::seed(4);
        let mut world_a = toy_world(8);
        let mut fa = DenseFlStrategy::fedavg(toy_cfg(), 1);
        fa.offline(&mut world_a, &mut rng);
        let fa_report = fa.adaptation_step(&mut world_a, &mut rng);

        let mut world_b = toy_world(8);
        let mut nb = NebulaStrategy::new(toy_cfg(), 1);
        nb.offline(&mut world_b, &mut rng);
        nb.track(&[]);
        let nb_report = nb.adaptation_step(&mut world_b, &mut rng);

        assert!(
            nb_report.comm.total_bytes() < fa_report.comm.total_bytes(),
            "Nebula {} vs FedAvg {}",
            nb_report.comm.total_bytes(),
            fa_report.comm.total_bytes()
        );
    }

    #[test]
    fn nebula_variants_differ_in_behaviour() {
        let mut rng = NebulaRng::seed(5);
        let mut world = toy_world(6);
        let mut no_cloud = NebulaStrategy::with_variant(toy_cfg(), 1, NebulaVariant::NoCloud);
        no_cloud.offline(&mut world, &mut rng);
        no_cloud.track(&[0]);
        let r1 = no_cloud.adaptation_step(&mut world, &mut rng);
        // w/o cloud: no collaborative rounds → only the one-time download.
        assert_eq!(r1.comm.rounds, 0);
        let r2 = no_cloud.adaptation_step(&mut world, &mut rng);
        // Second step: no new download at all.
        assert_eq!(r2.comm.downloads, 0, "w/o-cloud re-downloaded");
    }

    #[test]
    fn heterofl_assigns_smaller_ratios_to_weak_devices() {
        let world = toy_world(20);
        let s = DenseFlStrategy::heterofl(toy_cfg(), 1);
        let mut ratios: Vec<f32> = world.devices.iter().map(|d| s.ratio_for(d)).collect();
        ratios.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(ratios[0] < ratios[ratios.len() - 1], "no ratio heterogeneity");
    }
}
