//! FedAvg (McMahan et al., AISTATS'17) and HeteroFL (Diao et al.,
//! ICLR'21): one transport-routed round for both.
//!
//! Each participant trains the nested prefix sub-model of its width
//! ratio (`ratio ∈ HETEROFL_RATIOS` for HeteroFL, always 1.0 for
//! FedAvg, whose mask is all-true so slicing is the identity). Only the
//! active slice moves over the participant's [`DensePool`] channel, in
//! both directions, and the server combines what it *decoded*, never
//! what was sent. The two algorithms differ only in the [`Combine`]
//! rule.
//!
//! Channel state stays coordinator-side: `send_down` / `send_up` move
//! every frame through the pool, so the measured bytes and the decoded
//! values are the same for every codec and every [`Transport`]; only the
//! already-decoded parameter vector travels inside the job. A loopback
//! transport over [`DenseJobRunner`] and a socket deployment therefore
//! land on the same bits.
//!
//! A job the transport loses (worker crash, deadline) drops that
//! participant from the combine — the degrade-not-hang semantics the
//! collaborative strategies share — and is left out of
//! [`DenseRound::delivered`].

use crate::dense::{DenseDims, DenseModel};
use nebula_core::net::{DispatchJob, JobResult, JobRunner, JobSpec, TrainParams, Transport, TransportError};
use nebula_data::{Dataset, TrainConfig};
use nebula_nn::{Layer, Sgd};
use nebula_tensor::NebulaRng;
use nebula_wire::DensePool;

/// The nested width levels HeteroFL assigns to device classes.
pub const HETEROFL_RATIOS: [f32; 4] = [1.0, 0.5, 0.25, 0.125];

/// Picks the widest HeteroFL level whose parameter count fits
/// `budget_params`.
pub fn ratio_for_budget(model: &DenseModel, budget_params: usize) -> f32 {
    for &r in &HETEROFL_RATIOS {
        if model.active_params(r) <= budget_params {
            return r;
        }
    }
    *HETEROFL_RATIOS.last().unwrap()
}

/// Executes [`JobSpec::Dense`] jobs: rebuild the model from its shipped
/// dimensions, load the decoded parameters, train at the job's width
/// ratio, return the trained vector.
pub struct DenseJobRunner;

impl JobRunner for DenseJobRunner {
    fn run(&self, job: &DispatchJob) -> Result<JobResult, TransportError> {
        let JobSpec::Dense { input, width, blocks, block_hidden, classes, ratio, params } = &job.spec else {
            return Err(TransportError::Rejected("dense runner cannot execute modular jobs".into()));
        };
        let dims = DenseDims {
            input: *input,
            width: *width,
            blocks: *blocks,
            block_hidden: *block_hidden,
            classes: *classes,
        };
        let mut local = dims.build();
        if params.len() != local.param_count() {
            return Err(TransportError::Rejected(format!(
                "dense job ships {} params, model wants {}",
                params.len(),
                local.param_count()
            )));
        }
        let mut rng = NebulaRng::from_state(job.rng_state)
            .ok_or_else(|| TransportError::Rejected("degenerate rng state".into()))?;
        local.load_param_vector(params);
        local.set_width_ratio(*ratio);
        let mut opt = Sgd::with_momentum(job.train.lr, 0.9);
        nebula_data::train_epochs(
            &mut local,
            &mut opt,
            &job.data,
            TrainConfig { epochs: job.train.epochs, batch_size: job.train.batch_size, clip_norm: Some(5.0) },
            &mut rng,
        );
        Ok(JobResult::Params(local.param_vector()))
    }
}

/// How the server combines the returned parameter vectors. The two
/// rules agree in exact arithmetic on full-width rounds but not bit for
/// bit in `f32`, so each algorithm keeps its own.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Combine {
    /// FedAvg: `Σ (vᵢ/V)·pᵢ` with `V = Σ vᵢ` over the returned
    /// participants (`vᵢ` = local data volume).
    VolumeMean,
    /// HeteroFL: per coordinate `Σ vᵢ·pᵢ / Σ vᵢ` over the returned
    /// participants whose sub-model covers it; uncovered coordinates
    /// keep the server's value.
    CoverageMean,
}

/// One participant of a dense round.
#[derive(Clone, Copy)]
pub struct Participant<'a> {
    /// Stable channel identity (channels warm up per device, so ids
    /// must be stable across rounds for delta codecs to pay off).
    pub id: u64,
    pub data: &'a Dataset,
    /// Width ratio in `(0, 1]`; 1.0 trains the full model.
    pub ratio: f32,
}

/// What a dense round moved and who came back.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DenseRound {
    /// Measured cloud → edge frame bytes.
    pub down: u64,
    /// Measured edge → cloud frame bytes.
    pub up: u64,
    /// Indices (into the cohort) of the participants whose trained
    /// parameters came back and were combined, in cohort order.
    pub delivered: Vec<usize>,
}

/// The active coordinates of `full` under `mask`.
pub fn slice(full: &[f32], mask: &[bool]) -> Vec<f32> {
    full.iter().zip(mask).filter_map(|(&v, &m)| m.then_some(v)).collect()
}

/// Runs one dense round: download each participant's active slice over
/// its channel, train every participant through `transport`, upload the
/// returned slices and combine the decoded values into `server` under
/// `combine`. `round` rides in every job so frames stay distinguishable
/// across rounds (training never reads it). Participant `k` trains on
/// RNG stream `rng.fork(k)`, forked in cohort order. When no job comes
/// back the server is left untouched.
#[allow(clippy::too_many_arguments)]
pub fn dense_round(
    server: &mut DenseModel,
    cohort: &[Participant<'_>],
    combine: Combine,
    train: TrainParams,
    round: usize,
    rng: &mut NebulaRng,
    pool: &mut DensePool,
    transport: &mut dyn Transport,
) -> DenseRound {
    assert!(!cohort.is_empty(), "dense round with no participants");
    let base = server.param_vector();
    let dims = server.dims();
    let mut out = DenseRound::default();

    // Downloads: the active slice over the participant's channel,
    // spliced into a full vector coordinator-side; the job ships the
    // decoded result. A participant whose width changed since its last
    // round changes its slice length, and the channel falls back to a
    // cold frame.
    let masks: Vec<Vec<bool>> = cohort.iter().map(|p| server.mask_for_ratio(p.ratio)).collect();
    let mut decoded = Vec::new();
    let mut jobs = Vec::with_capacity(cohort.len());
    for (k, (p, mask)) in cohort.iter().zip(&masks).enumerate() {
        out.down += pool
            .send_down(p.id, &slice(&base, mask), &mut decoded)
            .expect("pristine in-process frame must decode");
        let mut params = base.clone();
        let mut it = decoded.iter();
        for (v, _) in params.iter_mut().zip(mask).filter(|(_, &m)| m) {
            *v = *it.next().expect("decoded slice shorter than mask");
        }
        jobs.push(DispatchJob {
            round,
            device: p.id,
            spec: JobSpec::Dense {
                input: dims.input,
                width: dims.width,
                blocks: dims.blocks,
                block_hidden: dims.block_hidden,
                classes: dims.classes,
                ratio: p.ratio,
                params,
            },
            rng_state: rng.fork(k as u64).state(),
            train,
            data: p.data.clone(),
        });
    }
    let results = transport.round_trip(jobs);

    let returned: Vec<(usize, Vec<f32>)> = results
        .into_iter()
        .enumerate()
        .filter_map(|(k, r)| match r {
            // A result of the wrong shape (a misbehaving worker) counts
            // as lost, like a failed job.
            Ok(JobResult::Params(params)) if params.len() == base.len() => Some((k, params)),
            Ok(_) | Err(_) => None,
        })
        .collect();
    if returned.is_empty() {
        return out;
    }

    // Uploads: the active slice back over the same channel; the combine
    // reads the decoded values.
    let len = base.len();
    let total: f32 = returned.iter().map(|(k, _)| cohort[*k].data.len() as f32).sum();
    let mut acc = vec![0.0f32; len];
    let mut weight = vec![0.0f32; len];
    for (k, params) in &returned {
        let (p, mask) = (&cohort[*k], &masks[*k]);
        out.up += pool
            .send_up(p.id, &slice(params, mask), &mut decoded)
            .expect("pristine in-process frame must decode");
        let v = p.data.len() as f32;
        let w = match combine {
            Combine::VolumeMean => v / total,
            Combine::CoverageMean => v,
        };
        let mut it = decoded.iter();
        for i in (0..len).filter(|&i| mask[i]) {
            acc[i] += w * it.next().expect("decoded slice shorter than mask");
            weight[i] += w;
        }
        out.delivered.push(*k);
    }
    if combine == Combine::CoverageMean {
        for ((a, &w), &b) in acc.iter_mut().zip(&weight).zip(&base) {
            *a = if w > 0.0 { *a / w } else { b };
        }
    }
    server.load_param_vector(&acc);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nebula_core::net::Loopback;
    use nebula_data::{SynthSpec, Synthesizer};
    use nebula_wire::CodecKind;
    use std::sync::Arc;

    fn server() -> DenseModel {
        DenseModel::new(16, 24, 2, 32, 4, 7)
    }

    fn train(epochs: usize, lr: f32) -> TrainParams {
        TrainParams { epochs, batch_size: 16, lr }
    }

    fn cohort<'a>(data: &[&'a Dataset], ratios: &[f32]) -> Vec<Participant<'a>> {
        data.iter()
            .zip(ratios)
            .enumerate()
            .map(|(k, (d, &ratio))| Participant { id: k as u64, data: d, ratio })
            .collect()
    }

    /// One round over a loopback transport.
    fn run(
        s: &mut DenseModel,
        cohort: &[Participant<'_>],
        combine: Combine,
        train: TrainParams,
        pool: &mut DensePool,
        rng: &mut NebulaRng,
    ) -> DenseRound {
        let mut loopback = Loopback::new(Arc::new(DenseJobRunner));
        dense_round(s, cohort, combine, train, 0, rng, pool, &mut loopback)
    }

    #[test]
    fn ratio_for_budget_is_monotone() {
        let m = server();
        let full = m.param_count();
        assert_eq!(ratio_for_budget(&m, full), 1.0);
        let r_small = ratio_for_budget(&m, m.active_params(0.25));
        assert!(r_small <= 0.25 + 1e-6);
        // Impossible budget degrades to the smallest level.
        assert_eq!(ratio_for_budget(&m, 0), 0.125);
    }

    #[test]
    fn fedavg_round_improves_global_accuracy() {
        let synth = Synthesizer::new(SynthSpec::toy(), 1);
        let mut rng = NebulaRng::seed(1);
        let d1 = synth.sample_classes(150, &[0, 1], 0, &mut rng);
        let d2 = synth.sample_classes(150, &[2, 3], 0, &mut rng);
        let test = synth.sample(200, 0, &mut rng);

        let mut s = server();
        let mut pool = DensePool::raw();
        let before = nebula_data::evaluate_accuracy(&mut s, &test, 64);
        for _ in 0..8 {
            let c = cohort(&[&d1, &d2], &[1.0, 1.0]);
            run(&mut s, &c, Combine::VolumeMean, train(3, 0.03), &mut pool, &mut rng);
        }
        let after = nebula_data::evaluate_accuracy(&mut s, &test, 64);
        assert!(after > before + 0.2, "FedAvg failed to learn: {before} -> {after}");
    }

    #[test]
    fn heterogeneous_round_improves_accuracy() {
        let synth = Synthesizer::new(SynthSpec::toy(), 1);
        let mut rng = NebulaRng::seed(1);
        let d1 = synth.sample_classes(150, &[0, 1], 0, &mut rng);
        let d2 = synth.sample_classes(150, &[2, 3], 0, &mut rng);
        let test = synth.sample(200, 0, &mut rng);

        let mut s = server();
        let mut pool = DensePool::raw();
        let before = nebula_data::evaluate_accuracy(&mut s, &test, 64);
        for _ in 0..15 {
            let c = cohort(&[&d1, &d2], &[1.0, 0.5]);
            run(&mut s, &c, Combine::CoverageMean, train(3, 0.03), &mut pool, &mut rng);
        }
        let after = nebula_data::evaluate_accuracy(&mut s, &test, 64);
        // Label-skewed participants make HeteroFL converge slowly (the
        // paper's 1.83× extra rounds) — require progress, not mastery.
        assert!(after > before + 0.1, "HeteroFL failed to learn: {before} -> {after}");
    }

    #[test]
    fn single_participant_fedavg_adopts_its_parameters() {
        let synth = Synthesizer::new(SynthSpec::toy(), 1);
        let d = synth.sample(100, 0, &mut NebulaRng::seed(2));
        let mut s = server();
        let before = s.param_vector();
        let mut pool = DensePool::raw();
        let c = cohort(&[&d], &[1.0]);
        let out = run(&mut s, &c, Combine::VolumeMean, train(1, 0.01), &mut pool, &mut NebulaRng::seed(2));
        assert_eq!(out.delivered, vec![0]);
        assert_ne!(s.param_vector(), before);

        // The same training run outside the round: weight v/v = 1 makes
        // the server adopt it bit for bit.
        let mut local = server();
        let mut rng = NebulaRng::seed(2).fork(0);
        nebula_data::train_epochs(
            &mut local,
            &mut Sgd::with_momentum(0.01, 0.9),
            &d,
            TrainConfig { epochs: 1, batch_size: 16, clip_norm: Some(5.0) },
            &mut rng,
        );
        assert_eq!(s.param_vector(), local.param_vector());
    }

    #[test]
    fn raw_bytes_count_every_download_and_upload() {
        let synth = Synthesizer::new(SynthSpec::toy(), 1);
        let d = synth.sample(50, 0, &mut NebulaRng::seed(3));
        let mut s = server();
        let payload = (s.param_count() * 4) as u64;
        let mut pool = DensePool::raw();
        let c = cohort(&[&d, &d, &d], &[1.0, 1.0, 1.0]);
        let out = run(&mut s, &c, Combine::VolumeMean, train(1, 0.01), &mut pool, &mut NebulaRng::seed(3));
        assert_eq!(out.delivered, vec![0, 1, 2]);
        assert_eq!(out.down, out.up);
        // Three raw frames each way: the payload plus framing overhead.
        assert!(out.down > 3 * payload && out.down < 3 * (payload + 128), "{out:?}");
    }

    /// A transport whose workers return `server + offsets[k]` for job `k`.
    struct Shift(Vec<f32>);
    impl Transport for Shift {
        fn kind(&self) -> &'static str {
            "shift"
        }
        fn round_trip(&mut self, jobs: Vec<DispatchJob>) -> Vec<Result<JobResult, TransportError>> {
            jobs.iter()
                .zip(&self.0)
                .map(|(job, &d)| {
                    let JobSpec::Dense { params, .. } = &job.spec else { unreachable!() };
                    Ok(JobResult::Params(params.iter().map(|p| p + d).collect()))
                })
                .collect()
        }
    }

    #[test]
    fn fedavg_weights_follow_volume() {
        let synth = Synthesizer::new(SynthSpec::toy(), 1);
        let mut rng = NebulaRng::seed(4);
        let (d3, d1) = (synth.sample(3, 0, &mut rng), synth.sample(1, 0, &mut rng));
        let mut s = DenseModel::new(4, 4, 1, 4, 2, 5);
        let base = s.param_vector();
        let mut pool = DensePool::raw();
        let c = cohort(&[&d3, &d1], &[1.0, 1.0]);
        let mut shift = Shift(vec![1.0, 5.0]);
        dense_round(&mut s, &c, Combine::VolumeMean, train(0, 0.0), 0, &mut rng, &mut pool, &mut shift);
        // (3·(p+1) + 1·(p+5)) / 4 = p + 2.
        for (after, b) in s.param_vector().iter().zip(&base) {
            nebula_tensor::assert_close(*after, b + 2.0, 1e-5);
        }
    }

    #[test]
    fn uncovered_coordinates_keep_server_values() {
        let synth = Synthesizer::new(SynthSpec::toy(), 1);
        let d = synth.sample(60, 0, &mut NebulaRng::seed(2));
        let mut s = server();
        let before = s.param_vector();
        let mask_small = s.mask_for_ratio(0.125);
        let mut pool = DensePool::raw();
        let c = cohort(&[&d], &[0.125]);
        run(&mut s, &c, Combine::CoverageMean, train(2, 0.05), &mut pool, &mut NebulaRng::seed(2));
        let after = s.param_vector();
        for i in 0..before.len() {
            if !mask_small[i] {
                assert_eq!(before[i], after[i], "uncovered coord {i} changed");
            }
        }
        // And some covered coordinate did change.
        assert!(
            before.iter().zip(&after).zip(&mask_small).any(|((b, a), &m)| m && b != a),
            "no covered coordinate moved"
        );
    }

    #[test]
    fn narrow_participants_move_fewer_bytes() {
        let synth = Synthesizer::new(SynthSpec::toy(), 1);
        let d = synth.sample(50, 0, &mut NebulaRng::seed(3));
        let bytes = |ratio: f32| {
            let c = cohort(&[&d], &[ratio]);
            let out = run(
                &mut server(),
                &c,
                Combine::CoverageMean,
                train(1, 0.01),
                &mut DensePool::raw(),
                &mut NebulaRng::seed(3),
            );
            out.down + out.up
        };
        let (full, narrow) = (bytes(1.0), bytes(0.125));
        assert!(narrow < full / 3, "narrow comm {narrow} vs full {full}");
    }

    #[test]
    fn int8_rounds_move_fewer_bytes() {
        let synth = Synthesizer::new(SynthSpec::toy(), 1);
        let d = synth.sample(60, 0, &mut NebulaRng::seed(9));
        let bytes = |mut pool: DensePool| {
            let c = cohort(&[&d], &[1.0]);
            let out = run(
                &mut server(),
                &c,
                Combine::VolumeMean,
                train(1, 0.03),
                &mut pool,
                &mut NebulaRng::seed(31),
            );
            out.down + out.up
        };
        let (raw, q8) = (bytes(DensePool::raw()), bytes(DensePool::new(CodecKind::QuantInt8, 0.0)));
        assert!(q8 * 3 < raw, "int8 bytes {q8} not well below raw {raw}");
    }

    #[test]
    fn delta_rounds_shrink_once_channels_warm() {
        let synth = Synthesizer::new(SynthSpec::toy(), 1);
        let d = synth.sample(60, 0, &mut NebulaRng::seed(10));
        let mut s = server();
        let mut pool = DensePool::new(CodecKind::DeltaFp32, 0.0);
        let mut rng = NebulaRng::seed(41);
        let c = cohort(&[&d], &[1.0]);
        // Zero local epochs: the model does not move, so every warm frame
        // is an empty delta — the measured size must collapse.
        let cold = run(&mut s, &c, Combine::VolumeMean, train(0, 0.01), &mut pool, &mut rng);
        let warm = run(&mut s, &c, Combine::VolumeMean, train(0, 0.01), &mut pool, &mut rng);
        let (cold, warm) = (cold.down + cold.up, warm.down + warm.up);
        assert!(warm < cold / 4, "warm round {warm} not well below cold {cold}");
    }

    /// A transport that loses every job whose index is in `lost`: even
    /// ones fail, odd ones come back with a malformed parameter vector.
    struct Lossy(Vec<usize>);
    impl Transport for Lossy {
        fn kind(&self) -> &'static str {
            "lossy"
        }
        fn round_trip(&mut self, jobs: Vec<DispatchJob>) -> Vec<Result<JobResult, TransportError>> {
            jobs.iter()
                .enumerate()
                .map(|(k, job)| {
                    if self.0.contains(&k) && k % 2 == 0 {
                        Err(TransportError::Closed("worker died".into()))
                    } else if self.0.contains(&k) {
                        Ok(JobResult::Params(Vec::new()))
                    } else {
                        DenseJobRunner.run(job)
                    }
                })
                .collect()
        }
    }

    #[test]
    fn lost_jobs_degrade_the_round_instead_of_hanging() {
        let synth = Synthesizer::new(SynthSpec::toy(), 1);
        let d = synth.sample(40, 0, &mut NebulaRng::seed(9));
        let mut s = server();
        let before = s.param_vector();
        let mut pool = DensePool::raw();
        let c = cohort(&[&d, &d], &[1.0, 0.5]);
        let mut rng = NebulaRng::seed(3);

        let all_lost = dense_round(
            &mut s,
            &c,
            Combine::CoverageMean,
            train(1, 0.03),
            0,
            &mut rng,
            &mut pool,
            &mut Lossy(vec![0, 1]),
        );
        assert!(all_lost.delivered.is_empty());
        assert_eq!((all_lost.up, all_lost.down > 0), (0, true), "downloads happen, uploads do not");
        assert_eq!(s.param_vector(), before, "an all-lost round must leave the server untouched");

        let one_lost = dense_round(
            &mut s,
            &c,
            Combine::CoverageMean,
            train(1, 0.03),
            1,
            &mut rng,
            &mut pool,
            &mut Lossy(vec![0]),
        );
        assert_eq!(one_lost.delivered, vec![1]);
        assert!(one_lost.up > 0);
        assert_ne!(s.param_vector(), before, "the surviving participant still moves the server");
    }
}
