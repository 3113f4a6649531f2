//! The Nebula round benchmark.
//!
//! Three closed-loop workloads — one coordinator issues the next
//! collaborative round only after the previous one completes, with a
//! fixed cohort — each run in its own process from a seed:
//!
//! * `cifar10_inproc` — the CIFAR-10/ResNet18 preset trained in-process
//!   (compute-bound: local training dominates);
//! * `har_uds_durable` — the HAR preset dispatched over a Unix socket to
//!   two workers with authenticated frames and a durable journal (the
//!   serving and durability planes);
//! * `population_sharded` — 10^5 virtual devices, 1,000 sampled per
//!   round, folded at 8 edge shards (sampling, derivation and the
//!   streaming fold; no training, wire or sockets).
//!
//! `--trace 0` reports the end-to-end metrics, their times scaled to a
//! reference host speed (see `calib`); `--trace 1` makes a separate
//! traced run that attributes the same rounds to the repository's
//! layers. See README.md beside this file.

mod calib;
mod cifar;
mod har;
mod micro;
mod population;
mod stats;
mod timing;
mod trace;

use stats::HostFacts;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "\
nebula-roundbench — end-to-end and per-layer timing of Nebula rounds

USAGE:
  nebula-roundbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]

WORKLOADS:
  cifar10_inproc      CIFAR-10/ResNet18 preset, 25 of 100 devices, in-process
  har_uds_durable     HAR preset over a Unix socket to 2 workers, MAC'd frames,
                      journal + snapshots
  population_sharded  10^5 virtual devices, 1,000 per round, 8 edge shards

--seed      seeds every input of the workload (default 1)
--seconds   time budget: set-up + rounds segments run while the next is
            expected to end within it, at least two (default 40)
--trace 1   run the traced replay and print the per-layer table instead of
            the end-to-end metrics

The last line of standard output is one JSON object:
  {\"correct\":..,\"attempted\":..,\"failed\":..,\"metrics\":{name:{value,unit}}}
";

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Failed correctness checks (empty = correct).
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the metrics.
    pub notes: Vec<String>,
    /// A traced run's full per-layer table (text only).
    pub layer_table: Vec<Metric>,
}

/// One set-up-plus-rounds pass of a workload. A run repeats segments
/// until its time is up; every segment of a run starts from the same
/// seed, so all of them must end on the same digest.
pub struct Segment {
    pub setup_s: f64,
    pub round_ms: Vec<f64>,
    /// Host slowdowns ([`calib::slowdown`]) measured right after
    /// set-up, between rounds and after the last round (one more than
    /// `round_ms`), all outside the timed intervals.
    pub slowdown: Vec<f64>,
    pub sampled: u64,
    pub participated: u64,
    pub wire_bytes: u64,
    pub digest: u64,
    pub accuracy: Option<f64>,
}

/// Runs segments while the next one is expected to end within `seconds`
/// (judged by the mean segment so far; at least two, so the digest check
/// always compares two runs of the same code) and folds them into the
/// end-to-end metrics, their times at the reference host speed
/// ([`calib::normalize`]).
pub fn end_to_end(
    seconds: Duration,
    process_start: Instant,
    mut segment: impl FnMut(Instant, usize) -> Result<Segment, String>,
) -> Outcome {
    let mut out = Outcome::default();
    let mut segs: Vec<Segment> = Vec::new();
    let run_start = Instant::now();
    while segs.len() < 2 || run_start.elapsed().mul_f64(1.0 + 1.0 / segs.len() as f64) < seconds {
        // The first segment's set-up counts from process start.
        let t0 = if segs.is_empty() { process_start } else { Instant::now() };
        match segment(t0, segs.len()) {
            Ok(s) => segs.push(s),
            Err(why) => {
                out.problems.push(why);
                return out;
            }
        }
    }
    let first = &segs[0];
    for (i, s) in segs.iter().enumerate() {
        if s.digest != first.digest {
            out.problems.push(format!(
                "segment {i} ended on digest {:016x}, segment 0 on {:016x}",
                s.digest, first.digest
            ));
        }
        if s.slowdown.len() != s.round_ms.len() + 1 {
            out.problems.push(format!(
                "segment {i} took {} probes for {} rounds",
                s.slowdown.len(),
                s.round_ms.len()
            ));
            return out;
        }
    }
    // Each round scaled by the probes on either side of it; set-up by
    // the probe right after it.
    let rounds: Vec<f64> = segs
        .iter()
        .flat_map(|s| {
            s.round_ms.iter().zip(s.slowdown.windows(2)).map(|(&r, p)| calib::normalize(r, p[0], p[1]))
        })
        .collect();
    let setups: Vec<f64> =
        segs.iter().map(|s| calib::normalize(s.setup_s, s.slowdown[0], s.slowdown[0])).collect();
    let wall_rounds: Vec<f64> = segs.iter().flat_map(|s| s.round_ms.iter().copied()).collect();
    let wall_setups: Vec<f64> = segs.iter().map(|s| s.setup_s).collect();
    let slowdowns: Vec<f64> = segs.iter().flat_map(|s| s.slowdown.iter().copied()).collect();
    let sampled: u64 = segs.iter().map(|s| s.sampled).sum();
    let participated: u64 = segs.iter().map(|s| s.participated).sum();
    let wire: u64 = segs.iter().map(|s| s.wire_bytes).sum();
    let per_s = |rounds: &[f64]| participated as f64 / (rounds.iter().sum::<f64>() / 1e3).max(1e-9);
    out.attempted = sampled;
    out.failed = sampled - participated.min(sampled);
    out.notes.push(format!(
        "segments: {} of {} timed rounds each; digest {:016x}",
        segs.len(),
        first.round_ms.len(),
        first.digest
    ));
    out.notes.push(format!(
        "host slowdown: median {:.4} over {} probes (1 = reference speed)",
        stats::median(&slowdowns).unwrap_or(0.0),
        slowdowns.len()
    ));
    out.notes.push(format!("setup_s per segment: {setups:.4?} (wall {wall_setups:.4?})"));
    out.notes.push(format!(
        "wall clock: setup_s {:.4} s, round_ms_p50 {:.3} ms, updates_per_s {:.3} 1/s",
        stats::median(&wall_setups).unwrap_or(0.0),
        stats::median(&wall_rounds).unwrap_or(0.0),
        per_s(&wall_rounds)
    ));
    if let Some(acc) = first.accuracy {
        out.notes.push(format!("final_accuracy: {acc:.4}"));
    }
    match stats::tail_percentile(&rounds, 0.9) {
        Some(p90) => out.notes.push(format!("round_ms_p90: {p90:.3} ms over {} rounds", rounds.len())),
        None => {
            out.notes.push(format!("round_ms_p90: dropped ({} rounds leave < 10 beyond p90)", rounds.len()))
        }
    }
    out.metrics = vec![
        metric("setup_s", stats::median(&setups).unwrap_or(0.0), "s"),
        metric("round_ms_p50", stats::median(&rounds).unwrap_or(0.0), "ms"),
        metric("updates_per_s", per_s(&rounds), "1/s"),
        metric("wire_bytes_per_round", wire as f64 / rounds.len().max(1) as f64, "bytes"),
        metric("peak_rss_mb", stats::peak_rss_mb(), "MB"),
    ];
    out
}

/// Per-layer metrics every workload measures, which the JSON line of a
/// traced run carries (`per_layer` in `BENCHMARK.json`). Each workload's
/// full layer table — metrics of layers only it exercises — prints as
/// `metric` lines above it.
pub const PER_LAYER: &[&str] = &[
    "core.derive_dispatch_ms",
    "core.aggregate_ms",
    "tensor.preset_gemm_gflops",
    "par.cpu_util",
    "trace.unattributed_share",
    "trace.overhead_pct",
];

/// Splits a traced run's layer table into the [`PER_LAYER`] metrics for
/// the JSON line and the full table for the text lines.
pub fn layer_outcome(out: &mut Outcome, table: Vec<Metric>) {
    out.metrics = PER_LAYER
        .iter()
        .map(|&name| {
            let m =
                table.iter().find(|m| m.name == name).expect("every workload reports every PER_LAYER metric");
            metric(m.name, m.value, m.unit)
        })
        .collect();
    out.layer_table = table;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

enum Parsed {
    Run(Args),
    Help,
}

fn parse_args(argv: &[String]) -> Result<Parsed, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 40u64, false);
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--help" || flag == "-h" {
            return Ok(Parsed::Help);
        }
        let value = || argv.get(i + 1).ok_or_else(|| format!("{flag} needs a value"));
        let number =
            |v: &String| v.parse::<u64>().map_err(|_| format!("{flag}: {v:?} is not a whole number"));
        match flag {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = number(value()?)?,
            "--seconds" => seconds = number(value()?)?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
        i += 2;
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["cifar10_inproc", "har_uds_durable", "population_sharded"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Parsed::Run(Args { workload, seed, seconds, trace }))
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Parsed::Run(a)) => a,
        Ok(Parsed::Help) => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(why) => {
            eprintln!("nebula-roundbench: {why}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = HostFacts::capture();
    let seconds = Duration::from_secs(args.seconds);
    println!(
        "workload: {} seed: {} seconds: {} trace: {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let out = match (args.workload.as_str(), args.trace) {
        ("cifar10_inproc", false) => cifar::run(args.seed, seconds, process_start),
        ("cifar10_inproc", true) => cifar::traced(args.seed),
        ("har_uds_durable", false) => har::run(args.seed, seconds, process_start),
        ("har_uds_durable", true) => har::traced(args.seed),
        ("population_sharded", false) => population::run(args.seed, seconds, process_start),
        ("population_sharded", true) => population::traced(args.seed),
        _ => unreachable!("parse_args validated the workload"),
    };
    for note in &out.notes {
        println!("{note}");
    }
    let table = if out.layer_table.is_empty() { &out.metrics } else { &out.layer_table };
    for m in table {
        println!("metric {:<30} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!("{}", host.line());
    for p in &out.problems {
        println!("CHECK FAILED: {p}");
    }
    let correct = out.problems.is_empty() && !out.metrics.is_empty();
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| format!("\"{}\":{{\"value\":{},\"unit\":\"{}\"}}", m.name, json_number(m.value), m.unit))
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn cli_accepts_its_flags_and_rejects_the_rest() {
        let ok = parse_args(&args(&[
            "--workload",
            "har_uds_durable",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]));
        let Ok(Parsed::Run(a)) = ok else { panic!("valid flags rejected") };
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("har_uds_durable", 7, 3, true));
        assert!(matches!(parse_args(&args(&["--workload", "x", "--help"])), Ok(Parsed::Help)));
        for bad in [
            &["--workload", "nope"][..],
            &["--workload", "cifar10_inproc", "--bogus", "1"],
            &["--workload", "cifar10_inproc", "--trace", "2"],
            &["--workload", "cifar10_inproc", "--seed"],
            &["--workload", "cifar10_inproc", "--seconds", "0"],
            &["--seed", "3"],
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn end_to_end_drops_a_thin_p90_and_flags_diverging_segments() {
        let seg = |rounds: usize, digest: u64| Segment {
            setup_s: 1.0,
            round_ms: (0..rounds).map(|r| r as f64).collect(),
            slowdown: vec![1.0; rounds + 1],
            sampled: 25,
            participated: 25,
            wire_bytes: 100,
            digest,
            accuracy: None,
        };
        let thin = end_to_end(Duration::ZERO, Instant::now(), |_, _| Ok(seg(12, 7)));
        assert!(thin.problems.is_empty(), "{:?}", thin.problems);
        assert!(thin.notes.iter().any(|n| n.starts_with("round_ms_p90: dropped (24 rounds")));
        let names: Vec<&str> = thin.metrics.iter().map(|m| m.name).collect();
        assert_eq!(
            names,
            ["setup_s", "round_ms_p50", "updates_per_s", "wire_bytes_per_round", "peak_rss_mb"]
        );
        assert_eq!((thin.attempted, thin.failed), (50, 0));

        let full = end_to_end(Duration::ZERO, Instant::now(), |_, _| Ok(seg(50, 7)));
        assert!(full.notes.iter().any(|n| n.starts_with("round_ms_p90: 44.100 ms over 100 rounds")));

        let mut digest = 0;
        let diverged = end_to_end(Duration::ZERO, Instant::now(), |_, _| {
            digest += 1;
            Ok(seg(12, digest))
        });
        assert_eq!(diverged.problems.len(), 1, "{:?}", diverged.problems);
    }

    #[test]
    fn end_to_end_scales_times_to_the_reference_host_speed() {
        let value = |out: &Outcome, name: &str| out.metrics.iter().find(|m| m.name == name).unwrap().value;
        // Every interval and probe twice as long: a host at half speed.
        let slow = |_: Instant, _: usize| {
            Ok(Segment {
                setup_s: 2.0,
                round_ms: vec![200.0; 20],
                slowdown: vec![2.0; 21],
                sampled: 25,
                participated: 25,
                wire_bytes: 100,
                digest: 1,
                accuracy: None,
            })
        };
        let out = end_to_end(Duration::ZERO, Instant::now(), slow);
        assert!(out.problems.is_empty(), "{:?}", out.problems);
        assert!((value(&out, "setup_s") - 1.0).abs() < 1e-12);
        assert!((value(&out, "round_ms_p50") - 100.0).abs() < 1e-9);
        // Two segments of 25 updates over 40 rounds of 100 ms.
        assert!((value(&out, "updates_per_s") - 12.5).abs() < 1e-9);
        assert!(out
            .notes
            .iter()
            .any(|n| n.starts_with("wall clock: setup_s 2.0000 s, round_ms_p50 200.000 ms")));

        let short = end_to_end(Duration::ZERO, Instant::now(), |t0, i| {
            slow(t0, i).map(|mut s| {
                s.slowdown.pop();
                s
            })
        });
        assert_eq!(short.problems, ["segment 0 took 20 probes for 20 rounds"]);
    }

    #[test]
    fn traced_json_carries_exactly_the_shared_layer_metrics() {
        let mut table: Vec<Metric> = PER_LAYER.iter().rev().map(|&n| metric(n, 1.0, "ms")).collect();
        table.push(metric("nn.batches", 3.0, "count"));
        let mut out = Outcome::default();
        layer_outcome(&mut out, table);
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, PER_LAYER);
        assert_eq!(out.layer_table.len(), PER_LAYER.len() + 1);
    }
}
