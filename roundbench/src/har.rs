//! `har_uds_durable`: the HAR/MLP preset through the serving plane.
//!
//! 100 devices, 25 per round, 1 local epoch, Raw codec with frame auth
//! (SipHash MAC). Jobs go through a `nebula-serve` `Coordinator` over a
//! Unix socket to 2 in-process workers with one executor thread each;
//! the `Runner` drives the run the way `nebula-node coordinator
//! --durable` does: `.target(1.01, N, 1)` (a target no run reaches, so
//! exactly N rounds), a journal append with fsync every round, a
//! snapshot every 5 rounds and an eval probe on 10 devices. A round is
//! the interval between successive `round_trip` starts, seen through a
//! `Transport` decorator, so it includes the eval, journal and snapshot
//! work; set-up ends when the first `round_trip` begins.

use crate::calib;
use crate::micro::{self, BENCH_KEY};
use crate::stats::{fnv_digest, process_cpu_s};
use crate::timing::{TimedRunner, TimedStrategy, TimedTransport, TripLog, TripRecord};
use crate::trace::{attributed_ms, self_ms, table, Tracer};
use crate::{end_to_end, layer_outcome, metric, Outcome, Segment};
use nebula_core::{modular_config_for, JobResult, JobRunner, JobSpec, ModularRunner, WireConfig};
use nebula_data::{PartitionSpec, Partitioner, Synthesizer, TaskPreset};
use nebula_nn::Layer;
use nebula_serve::proto::{self, JobTag};
use nebula_serve::worker::{run_worker, WorkerConfig, WorkerReport};
use nebula_serve::{Coordinator, Endpoint, ServeConfig, ServeError, WorkerRunConfig};
use nebula_sim::strategy::StrategyConfig;
use nebula_sim::{
    AdaptStrategy, DurabilityConfig, ExperimentConfig, NebulaStrategy, ResourceSampler, Runner, SimWorld,
};
use nebula_telemetry::Telemetry;
use nebula_wire::FrameKey;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Rounds per segment: ≈40 × 130 ms plus ≈1.4 s of set-up, so a 40 s
/// run holds five to six segments and well over 100 timed rounds.
const ROUNDS: usize = 40;
const DEVICES: usize = 100;
const WORKERS: usize = 2;
const EVAL_DEVICES: usize = 10;
/// Rounds whose jobs the traced run keeps for re-execution.
const CAPTURE: usize = 5;

/// Scratch space inside the working directory (the socket path is kept
/// relative so it fits the 108-byte `sun_path` limit wherever the
/// checkout lives).
fn scratch_dir(tag: &str) -> PathBuf {
    PathBuf::from(".roundbench-tmp").join(format!("{}-{tag}", std::process::id()))
}

fn strategy_config() -> StrategyConfig {
    let mut cfg = StrategyConfig::new(modular_config_for(TaskPreset::Har));
    cfg.local_epochs = 1;
    cfg.rounds_per_step = 1;
    cfg.wire = WireConfig::raw().with_auth(BENCH_KEY);
    cfg
}

fn world(seed: u64) -> SimWorld {
    let synth = Synthesizer::new(TaskPreset::Har.synth_spec(), seed);
    let spec = PartitionSpec::new(DEVICES, Partitioner::FeatureSkew);
    SimWorld::new(synth, spec, seed ^ 0x6E0, None, &ResourceSampler::default(), seed ^ 0x5EED)
}

/// A coordinator bound on a Unix socket with its workers registered.
struct Deployment {
    coordinator: Coordinator,
    workers: Vec<JoinHandle<Result<WorkerReport, ServeError>>>,
}

fn deploy(sock: &Path, cfg: &StrategyConfig, telemetry: Telemetry) -> Result<Deployment, String> {
    let worker_config = WorkerRunConfig {
        modular: Some(cfg.modular.clone()),
        delta_threshold: cfg.wire.delta_threshold,
        payload_auth: true,
    };
    let mut serve = ServeConfig::new(worker_config);
    serve.uds = Some(sock.to_path_buf());
    serve.auth_key = Some(BENCH_KEY);
    serve.telemetry = telemetry;
    let coordinator = Coordinator::bind(serve).map_err(|e| format!("bind {}: {e}", sock.display()))?;
    let workers = (0..WORKERS)
        .map(|i| {
            let mut wc = WorkerConfig::new(Endpoint::Uds(sock.to_path_buf()));
            wc.name = format!("bench-w{i}");
            wc.auth_key = Some(BENCH_KEY);
            wc.threads = 1;
            // A dropped session is a failed run here, never a rejoin.
            wc.rejoin = false;
            std::thread::spawn(move || run_worker(wc))
        })
        .collect();
    let dep = Deployment { coordinator, workers };
    if !dep.coordinator.wait_for_workers(WORKERS, Duration::from_secs(30)) {
        dep.teardown().ok();
        return Err(format!("{WORKERS} workers did not register within 30 s"));
    }
    Ok(dep)
}

impl Deployment {
    /// Shuts the coordinator down and joins every worker.
    fn teardown(self) -> Result<Vec<WorkerReport>, String> {
        self.coordinator.shutdown();
        self.workers
            .into_iter()
            .map(|w| match w.join() {
                Ok(Ok(report)) => Ok(report),
                Ok(Err(e)) => Err(format!("worker failed: {e}")),
                Err(_) => Err("worker thread panicked".to_string()),
            })
            .collect()
    }
}

/// What one durable serving run produced.
struct RunRecord {
    segment: Segment,
    trips: Vec<TripRecord>,
    /// Wall time from the first `round_trip` start to the run's end.
    window_s: f64,
    /// Process CPU time over `window_s` (coordinator and workers).
    cpu_util: f64,
    snapshot_bytes: u64,
}

/// Builds a deployment, world and strategy, and runs `ROUNDS` durable
/// rounds. With a tracer, the strategy, coordinator and Runner report
/// into it and the first rounds' jobs are kept. With `calibrate`, the
/// probe runs before every round trip and after the run, outside the
/// timed intervals.
fn durable_run(
    seed: u64,
    t0: Instant,
    tag: &str,
    tracer: Option<&Tracer>,
    calibrate: bool,
) -> Result<RunRecord, String> {
    let dir = scratch_dir(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let result = durable_run_in(seed, t0, &dir, tracer, calibrate);
    let _ = std::fs::remove_dir_all(&dir);
    // Leaves the scratch root only if no other run is using it.
    let _ = dir.parent().map(std::fs::remove_dir);
    result
}

fn durable_run_in(
    seed: u64,
    t0: Instant,
    dir: &Path,
    tracer: Option<&Tracer>,
    calibrate: bool,
) -> Result<RunRecord, String> {
    let telemetry = tracer.map_or_else(Telemetry::off, Tracer::telemetry);
    let cfg = strategy_config();
    let dep = deploy(&dir.join("coordinator.sock"), &cfg, telemetry.clone())?;
    let mut world = world(seed);
    let mut strategy = NebulaStrategy::new(cfg, seed);
    let log = TripLog::default();
    let capture = if tracer.is_some() { CAPTURE } else { 0 };
    let transport =
        TimedTransport::new(dep.coordinator.transport(), log.clone(), capture, calibrate, telemetry.clone());
    let journal_dir = dir.join("journal");
    let runner_cfg = ExperimentConfig { eval_devices: EVAL_DEVICES, seed };
    let outcome = {
        let mut timed;
        let s: &mut dyn AdaptStrategy = if tracer.is_some() {
            timed = TimedStrategy::new(&mut strategy, telemetry.clone());
            &mut timed
        } else {
            &mut strategy
        };
        Runner::new(&mut world, s)
            .config(runner_cfg)
            .target(1.01, ROUNDS, 1)
            .durable(DurabilityConfig::new(&journal_dir))
            .telemetry(telemetry.clone())
            .transport(Box::new(transport))
            .run()
    };
    let end = Instant::now();
    let cpu_end = process_cpu_s();
    let last_probe = calibrate.then(calib::probe_ms);
    let snapshot_bytes = newest_snapshot_bytes(&journal_dir);
    let reports = dep.teardown();
    let outcome = outcome.map_err(|e| format!("durable run failed: {e:?}"))?;
    let reports = reports?;
    let trips = std::mem::take(&mut *log.lock().expect("trip log poisoned: a round trip panicked"));
    let Some(first) = trips.first() else { return Err("no round reached the transport".into()) };
    let first_start = first.start;
    let window_s = (end - first_start).as_secs_f64();
    let cpu_util = (cpu_end - first.cpu_s) / window_s;

    // Lost or reassigned jobs fail the run: every job must come back Ok
    // from the worker it was sent to, over one session per worker.
    let jobs: usize = trips.iter().map(|t| t.jobs).sum();
    let failed: usize = trips.iter().map(|t| t.failed).sum();
    let ran: u64 = reports.iter().map(|r| r.jobs_run).sum();
    if failed > 0 {
        return Err(format!("{failed} of {jobs} jobs failed in transport"));
    }
    if ran != jobs as u64 || reports.iter().any(|r| r.sessions != 1) {
        return Err(format!(
            "jobs were reassigned: {jobs} dispatched, {ran} executed, sessions {:?}",
            reports.iter().map(|r| r.sessions).collect::<Vec<_>>()
        ));
    }
    if trips.len() != ROUNDS || outcome.rounds != ROUNDS as u64 {
        return Err(format!(
            "expected {ROUNDS} rounds, ran {} ({} round trips)",
            outcome.rounds,
            trips.len()
        ));
    }

    // The probe before each round trip falls in the previous round's
    // interval (the first in set-up): take it out.
    let mut round_ms: Vec<f64> =
        trips.windows(2).map(|w| (w[1].start - w[0].start).as_secs_f64() * 1e3 - w[1].probe_ms).collect();
    round_ms.push((end - trips[trips.len() - 1].start).as_secs_f64() * 1e3);
    let slowdown = match last_probe {
        Some(last) => trips.iter().map(|t| t.probe_ms).chain([last]).map(|ms| ms / calib::REF_MS).collect(),
        None => Vec::new(),
    };
    let comm = outcome.stats.comm;
    let segment = Segment {
        setup_s: (first_start - t0).as_secs_f64() - first.probe_ms / 1e3,
        round_ms,
        slowdown,
        sampled: outcome.stats.faults.sampled,
        participated: outcome.stats.faults.participated,
        wire_bytes: comm.up_bytes + comm.down_bytes,
        digest: fnv_digest(&strategy.cloud().model().param_vector()),
        accuracy: Some(outcome.final_accuracy as f64),
    };
    Ok(RunRecord { segment, trips, window_s, cpu_util, snapshot_bytes })
}

/// Size of the newest snapshot (`snap-<seq>.nbrs`, zero-padded so the
/// highest name is the newest) the durable engine left in `dir`.
fn newest_snapshot_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().starts_with("snap-"))
        .max_by_key(|e| e.file_name())
        .and_then(|e| e.metadata().ok())
        .map_or(0, |m| m.len())
}

pub fn run(seed: u64, seconds: Duration, process_start: Instant) -> Outcome {
    end_to_end(seconds, process_start, |t0, i| {
        durable_run(seed, t0, &format!("seg{i}"), None, true).map(|r| r.segment)
    })
}

/// Serving-plane breakdown of the captured rounds: the jobs re-executed
/// through a timing `JobRunner` around `ModularRunner`, the execution
/// critical path across the workers (jobs go round-robin, `j % WORKERS`),
/// and the socket bytes of the job and result frames.
struct ServeBreakdown {
    round_trip_ms: f64,
    exec_ms: f64,
    socket_bytes: f64,
    frames: Vec<Vec<u8>>,
}

fn serve_breakdown(trips: &[TripRecord]) -> Result<ServeBreakdown, String> {
    let cfg = strategy_config();
    let runner = TimedRunner::new(ModularRunner::new(cfg.modular.clone(), cfg.wire));
    let master = FrameKey::from_bytes(&BENCH_KEY);
    let job_key = proto::job_key(&master);
    let (mut trip_ms, mut exec_ms, mut socket_bytes, mut rounds) = (0.0, 0.0, 0u64, 0usize);
    let mut frames = Vec::new();
    let mut buf = Vec::new();
    for trip in trips {
        let Some((jobs, results)) = &trip.captured else { continue };
        let mut per_worker = [0.0f64; WORKERS];
        for (j, (job, result)) in jobs.iter().zip(results).enumerate() {
            let tag = JobTag { job: j as u64, attempt: 0, epoch: rounds as u64 + 1, device: job.device };
            socket_bytes +=
                proto::encode_job(&mut buf, job, tag, Some(&job_key)).map_err(|e| e.to_string())? as u64;
            socket_bytes += proto::encode_result(&mut buf, tag, result, Some(&job_key))
                .map_err(|e| e.to_string())? as u64;
            let again = runner.run(job).map_err(|e| format!("re-executing job {j}: {e}"))?;
            per_worker[j % WORKERS] += runner
                .exec_ms
                .lock()
                .expect("exec log poisoned: a job panicked")
                .last()
                .copied()
                .unwrap_or(0.0);
            let (JobResult::Frame(again), Ok(JobResult::Frame(orig))) = (again, result) else {
                return Err(format!("job {j} did not produce an update frame"));
            };
            if &again != orig {
                return Err(format!("re-executed job {j} produced a different update frame"));
            }
            if let JobSpec::Modular { frame } = &job.spec {
                frames.push(frame.clone());
            }
            frames.push(again);
        }
        trip_ms += trip.ms;
        exec_ms += per_worker.iter().copied().fold(0.0, f64::max);
        rounds += 1;
    }
    if rounds == 0 {
        return Err("no round was captured".into());
    }
    let r = rounds as f64;
    Ok(ServeBreakdown {
        round_trip_ms: trip_ms / r,
        exec_ms: exec_ms / r,
        socket_bytes: socket_bytes as f64 / r,
        frames,
    })
}

/// The traced run: one untraced durable run for the overhead baseline,
/// then the same run with the strategy, transport, coordinator and
/// Runner reporting into a tracer.
pub fn traced(seed: u64) -> Outcome {
    let mut out = Outcome::default();
    let base = match durable_run(seed, Instant::now(), "untraced", None, false) {
        Ok(r) => r,
        Err(why) => {
            out.problems.push(why);
            return out;
        }
    };
    let tracer = Tracer::new();
    let traced = match durable_run(seed, Instant::now(), "traced", Some(&tracer), false) {
        Ok(r) => r,
        Err(why) => {
            out.problems.push(why);
            return out;
        }
    };
    if traced.segment.digest != base.segment.digest {
        out.problems.push(format!(
            "traced run digest {:016x} != untraced {:016x}",
            traced.segment.digest, base.segment.digest
        ));
    }
    let serve = match serve_breakdown(&traced.trips) {
        Ok(s) => s,
        Err(why) => {
            out.problems.push(why);
            return out;
        }
    };
    let reassigned = tracer.counter("serve.jobs_reassigned");
    if reassigned > 0 {
        out.problems.push(format!("{reassigned} jobs were reassigned"));
    }
    let spans = tracer.spans();
    out.notes.push(format!("digest: {:016x}", traced.segment.digest));
    out.notes.extend(table(&spans, ROUNDS));
    let r = ROUNDS as f64;
    let per_round = |names: &[&str]| self_ms(&spans, names) / r;
    let (appends, append_ms) = tracer.histogram("journal.append_ms");
    let (saves, save_ms) = tracer.histogram("snapshot.save_ms");
    // The Runner's `run` span is the glue: its self time is whatever no
    // layer span claimed, minus the journal and snapshot writes the
    // durable engine times itself.
    let run_ms = spans.get("run").map_or(0.0, |s| s.total_ns as f64 / 1e6);
    let attributed = attributed_ms(&spans, &["run"]) + append_ms + save_ms;
    out.attempted = traced.segment.sampled;
    out.failed = traced.segment.sampled - traced.segment.participated;
    let table = vec![
        metric("core.derive_dispatch_ms", per_round(&["client"]), "ms"),
        metric("core.edge.tracked_ms", per_round(&["sim.adaptation_step"]), "ms"),
        metric(
            "tensor.preset_gemm_gflops",
            micro::preset_gemm_gflops(&strategy_config().modular, 16),
            "GFLOP/s",
        ),
        metric("par.cpu_util", base.cpu_util, "ratio"),
        metric("wire.tx_ms", per_round(&["wire_tx"]), "ms"),
        metric("wire.crc_mib_s", micro::crc_mib_s(&serve.frames), "MiB/s"),
        metric("wire.mac_mib_s", micro::mac_mib_s(&serve.frames), "MiB/s"),
        metric("serve.round_trip_ms", serve.round_trip_ms, "ms"),
        metric("serve.exec_ms", serve.exec_ms, "ms"),
        metric("serve.overhead_ms", serve.round_trip_ms - serve.exec_ms, "ms"),
        metric("serve.socket_bytes_per_round", serve.socket_bytes, "bytes"),
        metric("serve.jobs_sent", tracer.counter("serve.jobs_sent") as f64, "count"),
        metric("serve.results_failed", tracer.counter("serve.results_failed") as f64, "count"),
        metric("serve.jobs_reassigned", reassigned as f64, "count"),
        metric("journal.append_ms", append_ms / appends.max(1) as f64, "ms"),
        metric("snapshot.save_ms", save_ms / saves.max(1) as f64, "ms"),
        metric("snapshot.bytes", traced.snapshot_bytes as f64, "bytes"),
        metric("core.aggregate_ms", per_round(&["aggregate"]), "ms"),
        metric("sim.eval_ms", per_round(&["sim.eval"]), "ms"),
        metric("trace.unattributed_share", 1.0 - attributed / run_ms.max(1e-9), "ratio"),
        metric("trace.overhead_pct", (traced.window_s / base.window_s - 1.0) * 100.0, "%"),
    ];
    layer_outcome(&mut out, table);
    out
}
