//! Timing decorators around the program's public seams.
//!
//! Each wraps one trait object the program already accepts — an
//! `nn::Layer`, an `nn::Optimizer`, a `core::net::Transport`, a
//! `core::net::JobRunner`, a `sim::AdaptStrategy` — forwards every call
//! unchanged, and opens a span (or takes a timestamp) around the calls
//! that do a layer's work. They must be transparent: a decorated run
//! ends on the same parameter digest as a bare one (pinned by the tests
//! at the bottom of this file).

use nebula_core::{
    DispatchJob, JobResult, JobRunner, RobustAggregator, SanitizePolicy, Transport, TransportError,
};
use nebula_nn::{Layer, Mode, Optimizer};
use nebula_sim::strategy::{Footprint, StrategyState};
use nebula_sim::{AdaptStrategy, RoundStats, SimWorld};
use nebula_telemetry::Telemetry;
use nebula_tensor::{NebulaRng, Tensor};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// `nn::Layer` decorator: forward, backward, gradient clipping and
/// gradient zeroing each run inside their own span.
pub struct TimedLayer<'a> {
    inner: &'a mut dyn Layer,
    t: Telemetry,
}

impl<'a> TimedLayer<'a> {
    pub fn new(inner: &'a mut dyn Layer, t: Telemetry) -> Self {
        TimedLayer { inner, t }
    }
}

impl Layer for TimedLayer<'_> {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let _s = self.t.span("nn.forward");
        self.inner.forward(x, mode)
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let _s = self.t.span("nn.backward");
        self.inner.backward(grad)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        self.inner.visit_params(f)
    }

    fn visit_params_ref(&self, f: &mut dyn FnMut(&Tensor)) {
        self.inner.visit_params_ref(f)
    }

    fn zero_grad(&mut self) {
        let _s = self.t.span("nn.zero_grad");
        self.inner.zero_grad()
    }

    fn clip_grad_norm(&mut self, max_norm: f32) -> f32 {
        let _s = self.t.span("nn.clip");
        self.inner.clip_grad_norm(max_norm)
    }
}

/// `nn::Optimizer` decorator: every step runs inside an `nn.optim` span.
pub struct TimedOptimizer<O> {
    inner: O,
    t: Telemetry,
}

impl<O: Optimizer> TimedOptimizer<O> {
    pub fn new(inner: O, t: Telemetry) -> Self {
        TimedOptimizer { inner, t }
    }
}

impl<O: Optimizer> Optimizer for TimedOptimizer<O> {
    fn step(&mut self, model: &mut dyn Layer) {
        let _s = self.t.span("nn.optim");
        self.inner.step(model)
    }

    fn learning_rate(&self) -> f32 {
        self.inner.learning_rate()
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.inner.set_learning_rate(lr)
    }
}

/// A round's jobs and the results they came back with.
pub type Captured = (Vec<DispatchJob>, Vec<Result<JobResult, TransportError>>);

/// One `round_trip` as the decorator saw it.
pub struct TripRecord {
    pub start: Instant,
    /// Wall ms of the calibration probe run just before `start` (0 when
    /// off).
    pub probe_ms: f64,
    /// Process CPU seconds at `start`.
    pub cpu_s: f64,
    pub ms: f64,
    pub jobs: usize,
    pub failed: usize,
    /// The jobs and results themselves, kept only for the first
    /// `capture` trips (the traced run re-executes them).
    pub captured: Option<Captured>,
}

/// Shared log the [`TimedTransport`] appends to; the benchmark reads it
/// after the run.
pub type TripLog = Arc<Mutex<Vec<TripRecord>>>;

/// `core::net::Transport` decorator: timestamps each blocking
/// `round_trip`, counts failed jobs, optionally runs a calibration probe
/// (`crate::calib`) before each one, and optionally keeps copies of the
/// first rounds' jobs and results.
pub struct TimedTransport<T> {
    inner: T,
    log: TripLog,
    capture: usize,
    calibrate: bool,
    t: Telemetry,
}

impl<T: Transport> TimedTransport<T> {
    pub fn new(inner: T, log: TripLog, capture: usize, calibrate: bool, t: Telemetry) -> Self {
        TimedTransport { inner, log, capture, calibrate, t }
    }
}

impl<T: Transport> Transport for TimedTransport<T> {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn round_trip(&mut self, jobs: Vec<DispatchJob>) -> Vec<Result<JobResult, TransportError>> {
        let keep = self.log.lock().expect("trip log poisoned: a round trip panicked").len() < self.capture;
        let copy = keep.then(|| jobs.clone());
        let n = jobs.len();
        let probe_ms = if self.calibrate { crate::calib::probe_ms() } else { 0.0 };
        let cpu_s = crate::stats::process_cpu_s();
        let start = Instant::now();
        let results = {
            let _s = self.t.span("transport.round_trip");
            self.inner.round_trip(jobs)
        };
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let failed = results.iter().filter(|r| r.is_err()).count();
        let captured = copy.map(|jobs| (jobs, results.clone()));
        self.log.lock().expect("trip log poisoned: a round trip panicked").push(TripRecord {
            start,
            probe_ms,
            cpu_s,
            ms,
            jobs: n,
            failed,
            captured,
        });
        results
    }
}

/// `core::net::JobRunner` decorator: records each job's execution time.
pub struct TimedRunner<R> {
    inner: R,
    pub exec_ms: Mutex<Vec<f64>>,
}

impl<R: JobRunner> TimedRunner<R> {
    pub fn new(inner: R) -> Self {
        TimedRunner { inner, exec_ms: Mutex::new(Vec::new()) }
    }
}

impl<R: JobRunner> JobRunner for TimedRunner<R> {
    fn run(&self, job: &DispatchJob) -> Result<JobResult, TransportError> {
        let start = Instant::now();
        let out = self.inner.run(job);
        self.exec_ms
            .lock()
            .expect("exec log poisoned: a job panicked")
            .push(start.elapsed().as_secs_f64() * 1e3);
        out
    }
}

/// `sim::AdaptStrategy` decorator: one adaptation step (the round plus
/// the tracked devices' refresh and local adaptation) and each tracked
/// device's evaluation run inside their own spans.
pub struct TimedStrategy<'a> {
    inner: &'a mut dyn AdaptStrategy,
    t: Telemetry,
}

impl<'a> TimedStrategy<'a> {
    pub fn new(inner: &'a mut dyn AdaptStrategy, t: Telemetry) -> Self {
        TimedStrategy { inner, t }
    }
}

impl AdaptStrategy for TimedStrategy<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn offline(&mut self, world: &mut SimWorld, rng: &mut NebulaRng) {
        let _s = self.t.span("core.offline");
        self.inner.offline(world, rng)
    }

    fn track(&mut self, ids: &[usize]) {
        self.inner.track(ids)
    }

    fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.inner.set_telemetry(telemetry)
    }

    fn set_sanitize_policy(&mut self, policy: SanitizePolicy) {
        self.inner.set_sanitize_policy(policy)
    }

    fn set_aggregator(&mut self, aggregator: RobustAggregator) {
        self.inner.set_aggregator(aggregator)
    }

    fn set_transport(&mut self, transport: Box<dyn Transport>) {
        self.inner.set_transport(transport)
    }

    fn adaptation_step(&mut self, world: &mut SimWorld, rng: &mut NebulaRng) -> RoundStats {
        let _s = self.t.span("sim.adaptation_step");
        self.inner.adaptation_step(world, rng)
    }

    fn device_accuracy(&mut self, world: &mut SimWorld, id: usize) -> f32 {
        let _s = self.t.span("sim.eval");
        self.inner.device_accuracy(world, id)
    }

    fn footprint(&self, world: &SimWorld, id: usize) -> Footprint {
        self.inner.footprint(world, id)
    }

    fn export_state(&self) -> Option<StrategyState> {
        self.inner.export_state()
    }

    fn import_state(&mut self, state: &StrategyState) -> Result<(), String> {
        self.inner.import_state(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::fnv_digest;
    use crate::trace::Tracer;
    use nebula_core::{Loopback, ModularRunner, WireConfig};
    use nebula_data::{train_epochs, PartitionSpec, Partitioner, SynthSpec, Synthesizer, TrainConfig};
    use nebula_modular::{ModularConfig, ModularModel};
    use nebula_nn::Sgd;
    use nebula_sim::strategy::StrategyConfig;
    use nebula_sim::{ExperimentConfig, NebulaStrategy, ResourceSampler, Runner};

    fn toy_cfg() -> StrategyConfig {
        let mut modular = ModularConfig::toy(16, 4);
        modular.gate_noise_std = 0.3;
        let mut cfg = StrategyConfig::new(modular);
        cfg.devices_per_round = 4;
        cfg.rounds_per_step = 1;
        cfg.pretrain_epochs = 1;
        cfg.proxy_samples = 100;
        cfg.local_epochs = 1;
        cfg
    }

    fn toy_world() -> SimWorld {
        let synth = Synthesizer::new(SynthSpec::toy(), 1);
        SimWorld::new(
            synth,
            PartitionSpec::new(8, Partitioner::LabelSkew { m: 2 }),
            9,
            None,
            &ResourceSampler::default(),
            5,
        )
    }

    /// Runs three toy rounds over loopback executors, optionally through
    /// the transport, job-runner and strategy decorators, and digests
    /// the cloud model.
    fn toy_run(decorated: bool) -> u64 {
        let cfg = toy_cfg();
        let bare = ModularRunner::new(cfg.modular.clone(), WireConfig::raw());
        let mut world = toy_world();
        let mut strategy = NebulaStrategy::new(cfg, 1);
        let tracer = Tracer::new();
        let outcome = if decorated {
            let runner = Arc::new(TimedRunner::new(bare));
            let log = TripLog::default();
            let transport =
                TimedTransport::new(Loopback::new(runner.clone()), log.clone(), 1, false, tracer.telemetry());
            let mut timed = TimedStrategy::new(&mut strategy, tracer.telemetry());
            let out = Runner::new(&mut world, &mut timed)
                .config(ExperimentConfig { eval_devices: 2, seed: 4 })
                .target(1.01, 3, 1)
                .transport(Box::new(transport))
                .run();
            let log = log.lock().unwrap();
            assert_eq!(log.len(), 3, "one round trip per round");
            assert!(log[0].captured.is_some() && log[1].captured.is_none());
            assert_eq!(runner.exec_ms.lock().unwrap().len(), 3 * 4, "one timing per executed job");
            out
        } else {
            Runner::new(&mut world, &mut strategy)
                .config(ExperimentConfig { eval_devices: 2, seed: 4 })
                .target(1.01, 3, 1)
                .transport(Box::new(Loopback::new(Arc::new(bare))))
                .run()
        };
        let outcome = outcome.expect("toy run");
        assert_eq!(outcome.rounds, 3);
        if decorated {
            let spans = tracer.spans();
            assert_eq!(spans["sim.adaptation_step"].count, 3);
            assert_eq!(spans["transport.round_trip"].count, 3);
            assert!(spans["sim.eval"].count >= 2 * 3);
        }
        fnv_digest(&strategy.cloud().model().param_vector())
    }

    #[test]
    fn transport_runner_and_strategy_decorators_are_transparent() {
        assert_eq!(toy_run(true), toy_run(false));
    }

    #[test]
    fn layer_and_optimizer_decorators_are_transparent() {
        let synth = Synthesizer::new(SynthSpec::toy(), 3);
        let data = synth.sample(96, 0, &mut NebulaRng::seed(4));
        let cfg = TrainConfig { epochs: 2, batch_size: 16, clip_norm: Some(5.0) };
        let train = |decorated: bool| {
            let mut model = ModularModel::new(ModularConfig::toy(16, 4), 7);
            let mut rng = NebulaRng::seed(8);
            let tracer = Tracer::new();
            if decorated {
                let mut opt = TimedOptimizer::new(Sgd::with_momentum(0.02, 0.9), tracer.telemetry());
                let mut layer = TimedLayer::new(&mut model, tracer.telemetry());
                train_epochs(&mut layer, &mut opt, &data, cfg, &mut rng);
                let spans = tracer.spans();
                // 96 samples / 16 per batch × 2 epochs.
                for name in ["nn.forward", "nn.backward", "nn.clip", "nn.optim", "nn.zero_grad"] {
                    assert_eq!(spans[name].count, 12, "{name}");
                }
            } else {
                let mut opt = Sgd::with_momentum(0.02, 0.9);
                train_epochs(&mut model, &mut opt, &data, cfg, &mut rng);
            }
            (fnv_digest(&model.param_vector()), rng.state())
        };
        assert_eq!(train(true), train(false));
    }
}
