//! Small measurement helpers: order statistics, `/proc` parsers and the
//! host facts every result records.

use std::time::Instant;

/// Minimum number of samples that must lie strictly beyond a reported
/// tail percentile, so the tail is measured rather than interpolated
/// from one or two outliers.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Linear-interpolated percentile (`q` in 0..=1) of `samples`.
/// Returns `None` on an empty slice.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// The `q` percentile only when at least [`MIN_TAIL_SAMPLES`] samples
/// lie beyond it (`n · (1 − q) ≥ 10`, e.g. ≥ 100 samples for p90);
/// otherwise `None`, and the caller drops the metric rather than report
/// a thinner percentile under the same name.
pub fn tail_percentile(samples: &[f64], q: f64) -> Option<f64> {
    let beyond = samples.len() as f64 * (1.0 - q);
    if beyond + 1e-9 < MIN_TAIL_SAMPLES as f64 {
        return None;
    }
    percentile(samples, q)
}

/// Peak resident set size in kB from the text of `/proc/<pid>/status`
/// (the `VmHWM:` line).
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Peak RSS of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_vm_hwm_kb(&status).map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Kernel clock ticks per second for `/proc` CPU counters (USER_HZ,
/// fixed at 100 on Linux).
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds of this process so far (all threads), from
/// `/proc/self/stat` fields 14 and 15.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis, starting at field 3.
    let fields: Vec<&str> = stat.rsplit_once(')').map_or("", |(_, r)| r).split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / TICKS_PER_S
}

/// Machine-wide steal ticks so far (8th value of the `cpu` line of
/// `/proc/stat`); 0 where the kernel does not report it.
pub fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    parse_steal_ticks(&stat).unwrap_or(0)
}

fn parse_steal_ticks(stat: &str) -> Option<u64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// Process CPU time over wall time across a measured window: 1.0 means
/// one busy core on average.
pub struct CpuWindow {
    cpu0: f64,
    wall0: Instant,
}

impl CpuWindow {
    pub fn start() -> Self {
        CpuWindow { cpu0: process_cpu_s(), wall0: Instant::now() }
    }

    pub fn utilization(&self) -> f64 {
        let wall = self.wall0.elapsed().as_secs_f64();
        if wall <= 0.0 {
            return 0.0;
        }
        (process_cpu_s() - self.cpu0) / wall
    }
}

/// Host facts printed with every result so runs on different machines
/// are never compared blind. `backend` is the GEMM engine the run's
/// kernel backend (`KernelBackend::Auto` unless `NEBULA_KERNEL_BACKEND`
/// says otherwise) resolves to on this CPU.
pub struct HostFacts {
    pub nproc: usize,
    pub backend: String,
    pub avx512f: bool,
    steal0: u64,
}

impl HostFacts {
    pub fn capture() -> Self {
        HostFacts {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            backend: format!("{:?}", nebula_tensor::resolved_backend()),
            avx512f: avx512f(),
            steal0: steal_ticks(),
        }
    }

    /// One line of host facts, with the steal ticks accrued since
    /// [`HostFacts::capture`].
    pub fn line(&self) -> String {
        format!(
            "host: nproc={} kernel_backend={} avx512f={} steal_ticks_during_run={}",
            self.nproc,
            self.backend,
            self.avx512f,
            steal_ticks().saturating_sub(self.steal0)
        )
    }
}

#[cfg(target_arch = "x86_64")]
fn avx512f() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
}

#[cfg(not(target_arch = "x86_64"))]
fn avx512f() -> bool {
    false
}

/// FNV-1a fold of parameter bit patterns — the digest `serve_sweep` and
/// `nebula-node` print, so trajectories compare bit-for-bit.
pub fn fnv_digest(params: &[f32]) -> u64 {
    params
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, p| (h ^ p.to_bits() as u64).wrapping_mul(0x1000_0000_01b3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(4.0));
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[7.0]), Some(7.0));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.9), None, "99 samples leave 9.9 beyond p90");
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        let p90 = tail_percentile(&v, 0.9).expect("100 samples leave 10 beyond p90");
        assert!((p90 - 89.1).abs() < 1e-9, "p90 {p90}");
        assert_eq!(v.iter().filter(|&&x| x > p90).count(), 10);
        // p50 needs only 20 samples.
        assert!(tail_percentile(&v[..20], 0.5).is_some());
        assert!(tail_percentile(&v[..19], 0.5).is_none());
    }

    #[test]
    fn vm_hwm_parser_reads_the_kb_field() {
        let status = "Name:\tbench\nVmPeak:\t  99999 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(12345));
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tlots kB\n"), None);
        let own = std::fs::read_to_string("/proc/self/status").expect("procfs");
        assert!(parse_vm_hwm_kb(&own).expect("own VmHWM") > 0);
    }

    #[test]
    fn steal_parser_reads_the_eighth_cpu_value() {
        let stat = "cpu  10 20 30 40 50 60 70 8 0 0\ncpu0 1 2 3 4 5 6 7 1 0 0\n";
        assert_eq!(parse_steal_ticks(stat), Some(8));
        assert_eq!(parse_steal_ticks("intr 1\n"), None);
    }

    #[test]
    fn digest_sees_every_bit() {
        assert_ne!(fnv_digest(&[0.0]), fnv_digest(&[-0.0]));
        assert_eq!(fnv_digest(&[1.0, 2.0]), fnv_digest(&[1.0, 2.0]));
        assert_ne!(fnv_digest(&[1.0, 2.0]), fnv_digest(&[2.0, 1.0]));
    }
}
