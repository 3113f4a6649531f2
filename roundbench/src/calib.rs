//! Host-speed calibration.
//!
//! On a shared host the same round runs up to ≈1.4× slower for seconds
//! to minutes at a time, whatever the program does: a neighbour's load
//! slows every instruction stream on the core. A fixed probe — the
//! benchmark's own code, so no program change can move it — is timed
//! right before every round and after the last one. Its time over its
//! time at a reference host speed is the host's current slowdown, and
//! each measured interval is divided by the mean slowdown of the probes
//! on either side of it. The result is the interval as it would read on
//! the host at the reference speed: host slowdowns stretch round and
//! probe alike and cancel, while a program change moves the round alone.

use std::time::Instant;

/// Box–Muller draws per probe.
const ITERS: usize = 80_000;
/// The probe's time at the reference host speed: an otherwise idle
/// 2-vCPU AVX-512 (Xeon, 2.1 GHz) host.
pub const REF_MS: f64 = 2.5;

/// Runs the probe once and returns its wall time in ms: xorshift
/// uniforms through `ln`, `sqrt` and `cos`. Contention slows scalar and
/// vector code by different amounts; on the shared hosts measured, this
/// scalar mix tracked the rounds of all three workloads at least as
/// closely as a vector multiply-add probe or a blend of the two (see
/// README.md).
pub fn probe_ms() -> f64 {
    let start = Instant::now();
    let mut s: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0.0f64;
    for _ in 0..std::hint::black_box(ITERS) {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        let u1 = ((s >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
        let u2 = (s & 0xF_FFFF) as f64 / (1u64 << 20) as f64;
        acc += (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64() * 1e3
}

/// Runs the probe once and returns the host's slowdown against the
/// reference speed (1.0 = reference, 1.4 = 40% slower).
pub fn slowdown() -> f64 {
    probe_ms() / REF_MS
}

/// `wall` at the reference host speed, given the slowdowns the probes
/// right before and right after it measured.
pub fn normalize(wall: f64, slowdown_before: f64, slowdown_after: f64) -> f64 {
    wall * 2.0 / (slowdown_before + slowdown_after)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_takes_measurable_time() {
        let slowdown = slowdown();
        assert!(slowdown.is_finite() && slowdown > 0.01, "slowdown {slowdown}");
    }

    #[test]
    fn normalize_divides_by_the_mean_slowdown() {
        assert_eq!(normalize(100.0, 1.0, 1.0), 100.0);
        // A host at half speed doubles both round and probe.
        assert_eq!(normalize(200.0, 2.0, 2.0), 100.0);
        assert_eq!(normalize(150.0, 1.0, 2.0), 100.0);
    }
}
