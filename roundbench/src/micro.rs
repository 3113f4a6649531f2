//! Kernel-level probes run beside the traced rounds: GEMM throughput on
//! the shapes a preset implies, and CRC32 / SipHash-MAC throughput over
//! frames a traced round captured.

use nebula_modular::ModularConfig;
use nebula_tensor::{NebulaRng, Tensor};
use nebula_wire::FrameKey;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Repeats `f` until `budget` has passed and returns calls per second.
fn rate(budget: Duration, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    let mut calls = 0u64;
    while calls == 0 || start.elapsed() < budget {
        f();
        calls += 1;
    }
    calls as f64 / start.elapsed().as_secs_f64()
}

/// Fixed key for MAC probes and authenticated workloads.
pub const BENCH_KEY: [u8; 16] = *b"nebula-roundbnch";

/// GFLOP/s of the three GEMM entry points `nn::Linear` calls (forward
/// `matmul_nt`, input-gradient `matmul`, weight-gradient `matmul_tn`)
/// over every `(in, out)` Linear shape of `cfg` at `batch` rows, under
/// the process's active kernel backend.
pub fn preset_gemm_gflops(cfg: &ModularConfig, batch: usize) -> f64 {
    let (w, h) = (cfg.width, cfg.module_hidden);
    let shapes = [
        (cfg.input_dim, w),
        (w, h),
        (h, w),
        (w, cfg.classes),
        (cfg.input_dim, cfg.selector_embed),
        (cfg.selector_embed, cfg.modules_per_layer),
    ];
    let mut rng = NebulaRng::seed(11);
    let mut fill = |r: usize, c: usize| {
        Tensor::from_vec((0..r * c).map(|_| rng.normal_f32(0.0, 1.0)).collect(), &[r, c])
    };
    let mut cases: Vec<_> = shapes
        .iter()
        .map(|&(i, o)| {
            let x = fill(batch, i);
            let wt = fill(o, i);
            let g = fill(batch, o);
            (x, wt, g, Tensor::zeros(&[batch, o]), Tensor::zeros(&[o, i]), Tensor::zeros(&[batch, i]))
        })
        .collect();
    let flops: f64 = shapes.iter().map(|&(i, o)| 3.0 * 2.0 * (batch * i * o) as f64).sum();
    let per_s = rate(Duration::from_millis(300), || {
        for (x, wt, g, y, dw, dx) in cases.iter_mut() {
            x.matmul_nt_into(wt, y);
            g.matmul_tn_into(x, dw);
            g.matmul_into(wt, dx);
            black_box((&*y, &*dw, &*dx));
        }
    });
    flops * per_s / 1e9
}

fn mib(frames: &[Vec<u8>]) -> f64 {
    frames.iter().map(Vec::len).sum::<usize>() as f64 / (1024.0 * 1024.0)
}

/// MiB/s of `nebula_wire::crc32` over `frames`.
pub fn crc_mib_s(frames: &[Vec<u8>]) -> f64 {
    if frames.is_empty() {
        return 0.0;
    }
    mib(frames)
        * rate(Duration::from_millis(200), || {
            for f in frames {
                black_box(nebula_wire::crc32(black_box(f)));
            }
        })
}

/// MiB/s of `FrameKey::mac` under a per-device subkey over `frames`.
pub fn mac_mib_s(frames: &[Vec<u8>]) -> f64 {
    if frames.is_empty() {
        return 0.0;
    }
    let key = FrameKey::from_bytes(&BENCH_KEY).derive(7);
    mib(frames)
        * rate(Duration::from_millis(200), || {
            for f in frames {
                black_box(key.mac(black_box(f)));
            }
        })
}
