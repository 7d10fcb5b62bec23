//! `regemu-perfbench`: the workspace's whole-path and per-layer benchmark.
//!
//! ```text
//! regemu-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload for about `S` seconds with inputs derived from `N`,
//! checks every result, and prints one JSON object as its last line of
//! standard output: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones ([`END_TO_END`]); with
//! `--trace 1` the run alternates untraced and traced units over the same
//! inputs and reports the per-layer ones ([`PER_LAYER`]). See `README.md`
//! next to this package for what each workload and metric is for.

mod frontier;
mod live;
mod probe;
mod sim;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("lat_p50_us", "us"),
    ("lat_p90_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A layer
/// a workload does not reach reads `0`.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("fpsm.steps", "count"),
    ("fpsm.step_self_ns", "ns"),
    ("fpsm.pending_mean", "count"),
    ("fpsm.slab_span_mean", "count"),
    ("fpsm.events_per_op", "count"),
    ("adversary.blocks_calls_per_step", "count"),
    ("adversary.blocked_frac", "frac"),
    ("spec.stream_ns_per_event", "ns"),
    ("spec.stream_window_peak", "count"),
    ("spec.offline_ns_per_case", "ns"),
    ("workloads.build_ns_per_case", "ns"),
    ("workloads.report_ns_per_case", "ns"),
    ("workloads.engine_self_ns_per_step", "ns"),
    ("workloads.spool_s", "s"),
    ("workloads.spool_files", "count"),
    ("workloads.fold_ns", "ns"),
    ("core.proto_calls_per_op", "count"),
    ("core.proto_ns_per_call", "ns"),
    ("core.wire_ns_per_frame", "ns"),
    ("serve.recv_calls_per_op", "count"),
    ("serve.recv_hit_ratio", "frac"),
    ("serve.recv_wait_us_per_op", "us"),
    ("serve.send_ns_per_msg", "ns"),
    ("serve.msgs_per_op", "count"),
    ("serve.bytes_per_op", "bytes"),
    ("serve.apply_ns_per_req", "ns"),
    ("serve.server_requests_per_op", "count"),
    ("serve.server_faults", "count"),
    ("self.fpsm", "frac"),
    ("self.adversary", "frac"),
    ("self.core", "frac"),
    ("self.spec", "frac"),
    ("self.workloads", "frac"),
    ("self.serve", "frac"),
    ("self.residual", "frac"),
    ("trace.overhead", "frac"),
    ("trace.unit_ms", "ms"),
    ("failed_frac", "frac"),
];

/// The workloads, by the name `--workload` takes.
pub const WORKLOADS: [&str; 3] = ["sim-cover", "frontier-campaign", "live-held"];

/// What one invocation was asked to do.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Scratch directory of this run (spools) under `.bench_tmp` in the
    /// working directory; removed at exit.
    pub tmp: PathBuf,
}

/// What one run measured and whether its outputs were right.
#[derive(Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed ahead of the JSON result.
    pub notes: Vec<String>,
}

impl Report {
    pub fn new() -> Self {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Marks the run incorrect, keeping the reason for the output.
    pub fn wrong(&mut self, why: impl Into<String>) {
        self.correct = false;
        let why = why.into();
        if self.notes.iter().filter(|n| n.starts_with("WRONG")).count() < 20 {
            self.notes.push(format!("WRONG: {why}"));
        }
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Sets a percentile metric, or marks the run incorrect when the
    /// samples cannot support it.
    pub fn set_percentile(&mut self, name: &'static str, sorted: &[f64], p: f64) {
        match stats::percentile(sorted, p) {
            Some(v) => self.set(name, v),
            None => self.wrong(format!(
                "{name}: {} samples leave fewer than ten beyond p{}",
                sorted.len(),
                p * 100.0
            )),
        }
    }

    /// Sets `ops_per_s`, `lat_p50_us` and `lat_p90_us` from the fastest
    /// of a run's units (see [`stats::fastest`]): the median unit
    /// throughput and the pooled latency percentiles.
    pub fn set_from_fastest(&mut self, units: Vec<stats::Unit>) {
        let total = units.len();
        let kept = stats::fastest(units, 100);
        let rates: Vec<f64> = kept.iter().map(|u| u.ops_per_s).collect();
        let mut latencies: Vec<f64> = kept.iter().flat_map(|u| u.latencies_us.clone()).collect();
        latencies.sort_by(f64::total_cmp);
        self.set("ops_per_s", stats::median(&rates));
        self.set_percentile("lat_p50_us", &latencies, 0.5);
        self.set_percentile("lat_p90_us", &latencies, 0.9);
        self.note(format!(
            "throughput and latency from the fastest {} of {total} units ({} latency samples)",
            kept.len(),
            latencies.len()
        ));
    }

    /// The result line: exactly the keys the benchmark contract names.
    fn to_json(&self, names: &[(&'static str, &'static str)]) -> String {
        let metrics: Vec<String> = names
            .iter()
            .map(|(name, unit)| {
                let value = self.metrics.get(name).copied().unwrap_or(0.0);
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Sets each layer's share of the traced unit time, and the residual share
/// no layer accounts for.
pub fn set_shares(report: &mut Report, unit_ns: f64, layers: &[(&'static str, f64)]) {
    let mut accounted = 0.0;
    for &(name, ns) in layers {
        report.set(name, stats::ratio(ns, unit_ns));
        accounted += ns;
    }
    report.set("self.residual", stats::ratio(unit_ns - accounted, unit_ns));
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!(
                        "unknown workload {value:?} (one of {})",
                        WORKLOADS.join(", ")
                    ));
                }
                workload = Some(value);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value} is outside (0, 600]"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let run_dir = PathBuf::from(".bench_tmp").join(format!("run-{}", std::process::id()));
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        tmp: run_dir,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("regemu-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.tmp) {
        eprintln!(
            "regemu-perfbench: cannot create {}: {e}",
            args.tmp.display()
        );
        return ExitCode::from(1);
    }
    let mut report = match args.workload.as_str() {
        "sim-cover" => sim::run(&args),
        "frontier-campaign" => frontier::run(&args),
        "live-held" => live::run(&args),
        _ => unreachable!("parse_args admits only known workloads"),
    };
    // The spools live under the run's own directory; the parent is shared
    // by concurrent runs and removed only once empty.
    let _ = std::fs::remove_dir_all(&args.tmp);
    if let Some(parent) = args.tmp.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    if report.attempted == 0 {
        report.wrong("no operation was attempted");
        report.attempted = 1;
        report.failed = 1;
    }
    if args.trace {
        let failed_frac = report.failed as f64 / report.attempted as f64;
        report.set("failed_frac", failed_frac);
    } else if !report.metrics.contains_key("peak_rss_mb") {
        match stats::peak_rss_mb() {
            Some(mb) => report.set("peak_rss_mb", mb),
            None => report.wrong("peak RSS is not readable from /proc/self/status"),
        }
    }
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if !args.trace {
        for (name, _) in names {
            if !report.metrics.contains_key(name) {
                report.wrong(format!("metric {name} was not measured"));
            }
        }
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# workload {} seed {} seconds {} trace {} nproc {nproc}",
        args.workload,
        args.seed,
        args.seconds.as_secs_f64(),
        u8::from(args.trace)
    );
    for note in &report.notes {
        println!("# {note}");
    }
    for (name, unit) in names {
        let value = report.metrics.get(name).copied().unwrap_or(0.0);
        println!("# {name:<36} {value:>16.4} {unit}");
    }
    println!(
        "# attempted {} failed {} correct {}",
        report.attempted, report.failed, report.correct
    );
    println!("{}", report.to_json(names));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root names exactly the workloads
    /// and metrics this program prints, with the same units.
    #[test]
    fn benchmark_json_names_what_the_program_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        for workload in WORKLOADS {
            assert!(
                json.contains(&format!("{{\"name\": \"{workload}\", \"why\"")),
                "{workload}"
            );
        }
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "{entry}");
        }
        let named = json.matches("{\"name\": ").count();
        assert_eq!(named, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut report = Report::new();
        report.attempted = 3;
        report.set("setup_s", 0.5);
        let line = report.to_json(&END_TO_END[..2]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"ops_per_s\": {\"value\": 0, \"unit\": \"1/s\"}}}"
        );
    }
}
