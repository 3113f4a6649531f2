//! The collaborative round skeleton FedAvg/HeteroFL and Nebula share.
//!
//! [`RoundPlan`] owns the fault policy of a round, in one order for both
//! strategies: [`RoundPlan::start`] samples the cohort and then claims
//! the round index (traced replays mirror this order); per device,
//! [`RoundPlan::fate`] counts dropouts, [`RoundPlan::upload`] plans link
//! retries and [`RoundPlan::predict_ms`] predicts its wall-clock;
//! [`RoundPlan::resolve`] cuts the deadline and resolves crashes *before*
//! anything trains; [`RoundPlan::finish`] closes the books. Strategies
//! keep only what differs: the payload each device exchanges, how
//! survivors train and how updates combine.

use crate::device::SimDevice;
use crate::faults::{DeviceFate, FaultPlan, RoundPolicy, RoundReport};
use crate::latency::adaptation_latency_ms;
use crate::network::{transfer_time_ms, CommTracker};
use crate::strategy::{RoundOutcome, StrategyConfig};
use crate::world::SimWorld;
use nebula_core::{plan_upload, round_deadline_ms, RoundStats, UploadPlan};
use nebula_telemetry::{Span, Telemetry};

/// A device admitted to the round, with its predicted wall-clock.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Seat {
    pub id: usize,
    pub fate: DeviceFate,
    pub time_ms: f64,
}

/// One collaborative round in progress: its index, the fault plan and
/// policy it runs under, and its comm and fault accounting.
pub(crate) struct RoundPlan {
    pub round: u64,
    pub faults: FaultPlan,
    pub policy: RoundPolicy,
    pub comm: CommTracker,
    pub report: RoundReport,
    local_epochs: usize,
    batch_size: usize,
    round_time_ms: f64,
    telemetry: Telemetry,
    span: Span,
}

impl RoundPlan {
    /// Opens the round: samples `cfg.devices_per_round` participants,
    /// then claims the next round index. Returns the sampled ids.
    pub fn start(world: &mut SimWorld, cfg: &StrategyConfig, telemetry: &Telemetry) -> (Self, Vec<usize>) {
        let mut span = telemetry.span("round");
        let ids = world.sample_participants(cfg.devices_per_round);
        let round = world.next_round_index();
        span.int("index", round);
        let plan = RoundPlan {
            round,
            faults: world.faults,
            policy: world.policy,
            comm: CommTracker::new(),
            report: RoundReport { sampled: ids.len() as u64, ..Default::default() },
            local_epochs: cfg.local_epochs,
            batch_size: cfg.batch_size,
            round_time_ms: 0.0,
            telemetry: telemetry.clone(),
            span,
        };
        (plan, ids)
    }

    /// Device `id`'s fate this round, or `None` when it never starts
    /// (counted as dropped).
    pub fn fate(&mut self, id: usize) -> Option<DeviceFate> {
        let fate = self.faults.fate(self.round, id);
        if fate.dropped {
            self.report.dropped += 1;
            self.note(id, "dropped", None);
            return None;
        }
        Some(fate)
    }

    /// Plans the device's transfers over its link. When the retry budget
    /// runs out the device never joins: its `resends` are billed at
    /// `plan_bytes` each, it counts as `link_dropped`, and `None` comes
    /// back. A delivered plan's resends are left for the caller to bill
    /// ([`RoundPlan::resend`]) at the size it actually sends.
    pub fn upload(&mut self, id: usize, fate: &DeviceFate, plan_bytes: u64) -> Option<UploadPlan> {
        let up = plan_upload(fate.upload_attempts, fate.flaky_link, self.policy.retry_policy());
        if !up.delivered {
            self.resend(plan_bytes, up.resends);
            self.drop_link(id, None);
            return None;
        }
        Some(up)
    }

    /// Bills `times` re-sends of a `bytes`-long transfer.
    pub fn resend(&mut self, bytes: u64, times: u32) {
        for _ in 0..times {
            self.comm.record_retry(bytes);
        }
        self.report.retried += times as u64;
    }

    /// Counts device `id` as lost on its link.
    pub fn drop_link(&mut self, id: usize, time_ms: Option<f64>) {
        self.report.link_dropped += 1;
        self.note(id, "link_dropped", time_ms);
    }

    /// Predicted participant wall-clock: local training at `work` flops
    /// per sample under the injected slowdown, plus the down and up
    /// transfers and every re-send of `bytes` over the possibly-collapsed
    /// link, plus the backoff waits.
    pub fn predict_ms(
        &self,
        dev: &SimDevice,
        fate: &DeviceFate,
        work: u64,
        bytes: u64,
        up: &UploadPlan,
    ) -> f64 {
        let bw = dev.resources.bandwidth_bps * fate.bandwidth_factor;
        adaptation_latency_ms(&dev.resources, work, dev.volume(), self.local_epochs, self.batch_size)
            * fate.slowdown
            + transfer_time_ms(2 * bytes + up.resends as u64 * bytes, bw)
            + up.backoff_ms
    }

    /// Cuts the round deadline (`deadline_factor` × the median predicted
    /// time) and resolves crashes, in admission order, before anything
    /// trains: stragglers past the deadline drop, crashed devices call
    /// `crashed` (for whatever they received before dying) and drop. The
    /// rest are returned; the round time is the slowest survivor's, or
    /// the deadline when one cut a device.
    pub fn resolve<J>(
        &mut self,
        admitted: Vec<(Seat, J)>,
        mut crashed: impl FnMut(&Seat, &J, &mut CommTracker),
    ) -> Vec<(Seat, J)> {
        let times: Vec<f64> = admitted.iter().map(|(s, _)| s.time_ms).collect();
        let deadline = round_deadline_ms(self.policy.deadline_factor, &times);
        let mut survivors = Vec::with_capacity(admitted.len());
        for (seat, job) in admitted {
            if let Some(d) = deadline.filter(|&d| seat.time_ms > d) {
                self.report.deadline_dropped += 1;
                self.round_time_ms = self.round_time_ms.max(d);
                self.note(seat.id, "deadline_dropped", Some(seat.time_ms));
                continue;
            }
            if seat.fate.crashed {
                crashed(&seat, &job, &mut self.comm);
                self.report.crashed += 1;
                self.note(seat.id, "crashed", Some(seat.time_ms));
                continue;
            }
            self.round_time_ms = self.round_time_ms.max(seat.time_ms);
            survivors.push((seat, job));
        }
        survivors
    }

    /// Per-device fate telemetry (`kind = "client"`). `time_ms` is the
    /// predicted participant wall-clock when one was derived before the
    /// device's fate resolved.
    pub fn note(&self, device: usize, outcome: &'static str, time_ms: Option<f64>) {
        self.telemetry.emit("client", |e| {
            e.ints.insert("device".into(), device as u64);
            e.text.insert("outcome".into(), outcome.into());
            if let Some(ms) = time_ms {
                e.num.insert("time_ms".into(), ms);
            }
        });
    }

    /// Closes the round: ends the comm round, emits the fault counters
    /// and the `round` event, and returns the outcome.
    pub fn finish(mut self) -> RoundOutcome {
        self.comm.end_round();
        self.note_round();
        self.span.num("time_ms", self.round_time_ms);
        RoundOutcome {
            stats: RoundStats { comm: self.comm, adapt_time_ms: 0.0, faults: self.report },
            round_time_ms: self.round_time_ms,
        }
    }

    /// Round-level telemetry: fault counters plus one `kind = "round"`
    /// event. One branch on a disarmed handle.
    fn note_round(&self) {
        let (t, r, comm) = (&self.telemetry, &self.report, &self.comm);
        if !t.enabled() {
            return;
        }
        t.counter_add("rounds", 1);
        t.counter_add("faults.dropped", r.dropped);
        t.counter_add("faults.crashed", r.crashed);
        t.counter_add("faults.deadline_dropped", r.deadline_dropped);
        t.counter_add("faults.link_dropped", r.link_dropped);
        t.counter_add("faults.rejected", r.rejected);
        t.counter_add("faults.retried", r.retried);
        t.counter_add("faults.stale", r.stale);
        t.counter_add("faults.rolled_back", r.rolled_back);
        t.counter_add("faults.corrupt_frames", r.corrupt_frames);
        t.observe("round.time_ms", self.round_time_ms);
        t.emit("round", |e| {
            e.ints.insert("index".into(), self.round);
            e.ints.insert("sampled".into(), r.sampled);
            e.ints.insert("participated".into(), r.participated);
            e.ints.insert("lost".into(), r.lost());
            e.ints.insert("rejected".into(), r.rejected);
            e.ints.insert("down_bytes".into(), comm.down_bytes);
            e.ints.insert("up_bytes".into(), comm.up_bytes);
            e.ints.insert("retry_bytes".into(), comm.retry_bytes);
            e.num.insert("round_time_ms".into(), self.round_time_ms);
        });
    }
}
