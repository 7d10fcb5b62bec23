//! `frontier-campaign`: the paper's Figure-1 frontier as a spooled campaign.
//!
//! Each unit is one `run_frontier_campaign` over a fixed twelve-point grid,
//! all four constructions, fair and covering schedulers, with and without
//! `f` crashes, full recording and the offline WS-Regularity check — in
//! process, on one sweep thread, into a fresh spool. Every campaign of a run
//! uses the same derived seeds, so every one must fold to the same table.

use crate::probe::{Probe, TracedEmulation, TracedScheduler, TracedStrategy};
use crate::stats::{derive_seed, fastest, median, ratio, Unit};
use crate::{Args, Report};
use regemu_adversary::CoverWrites;
use regemu_fpsm::{AdversarialScheduler, BlockStrategy, FairDriver, Scheduler};
use regemu_spec::{check_ws_regular, SequentialSpec};
use regemu_workloads::campaign::{CampaignOptions, WorkerMode};
use regemu_workloads::sweep::{CaseResult, SweepCase, SweepReport};
use regemu_workloads::{
    drive, run_frontier, run_frontier_campaign, ConsistencyCheck, FrontierConfig, FrontierReport,
    SchedulerSpec, WorkloadSpec,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const GRID: &str = "1/1/3,2/1/3,4/1/3,8/1/3,2/1/4,4/1/5,8/1/5,4/1/6,2/2/5,3/2/6,5/2/6,8/2/7";
const ROUNDS: usize = 8;
/// Shards of a campaign: one per grid point (its sixteen cases), each run
/// by its own resumable `run_frontier_campaign` invocation.
const SHARDS: usize = 12;
/// Fewest times kept per invocation: twelve invocations keep at least 108
/// latency samples, enough for p90.
const MIN_KEPT_PER_CALL: usize = 9;

/// The campaign's configuration for run seed `seed`: validated, one sweep
/// thread.
fn config(seed: u64) -> Result<FrontierConfig, String> {
    let grid = FrontierConfig::grid_from_spec(GRID)?;
    let mut config = FrontierConfig::over_grid(grid);
    config.workloads = vec![WorkloadSpec::WriteSequential {
        rounds: ROUNDS,
        read_after_each: true,
    }];
    config.seeds = vec![derive_seed(seed, 0)];
    config.threads = 1;
    config.validate().map_err(|e| e.to_string())?;
    Ok(config)
}

fn options(spool: &Path) -> CampaignOptions {
    let mut options = CampaignOptions::new(spool);
    options.worker = WorkerMode::InProcess;
    options.worker_threads = 1;
    options.quiet = true;
    options.shards = SHARDS;
    options.exit_after = Some(1);
    options
}

/// High-level operations the config's cases complete when none fails.
fn expected_ops(config: &FrontierConfig) -> u64 {
    config
        .to_sweep_config()
        .cases()
        .iter()
        .map(|c| c.workload.instantiate(c.params.k, c.seed).len() as u64)
        .sum()
}

/// One campaign's measured outcome.
struct Campaign {
    setup_s: f64,
    /// Wall time of each one-shard invocation, in order.
    shard_s: Vec<f64>,
    run_s: f64,
    table: String,
    spool_files: usize,
}

/// Sets up and runs one campaign into `spool` and checks its table: every
/// row within its upper bound, no error and no inconsistency. Failed cases
/// and failed checks go into `report`; only a campaign that produced no
/// table is an `Err`.
fn campaign(seed: u64, spool: &Path, report: &mut Report) -> Result<Campaign, String> {
    let t = Instant::now();
    let config = config(seed)?;
    std::fs::create_dir_all(spool).map_err(|e| format!("spool {}: {e}", spool.display()))?;
    let setup_s = t.elapsed().as_secs_f64();
    let cases = config.case_count() as u64;
    report.attempted += cases;
    let options = options(spool);
    let mut shard_s = Vec::with_capacity(SHARDS);
    // One shard per invocation; the last one merges and folds the table.
    let outcome = loop {
        let t = Instant::now();
        let outcome = run_frontier_campaign(&config, &options);
        shard_s.push(t.elapsed().as_secs_f64());
        match outcome {
            Ok(None) if shard_s.len() < SHARDS => continue,
            Ok(None) => break Err(format!("campaign unmerged after {SHARDS} invocations")),
            Ok(Some(table)) => break Ok(table),
            Err(e) => break Err(format!("campaign failed: {e}")),
        }
    };
    let spool_files = std::fs::read_dir(spool).map_or(0, |d| d.count());
    let _ = std::fs::remove_dir_all(spool);
    let table = match outcome {
        Ok(table) => table,
        Err(why) => {
            report.failed += cases;
            return Err(why);
        }
    };
    if shard_s.len() != SHARDS {
        return Err(format!(
            "campaign merged after {} of {SHARDS} invocations",
            shard_s.len()
        ));
    }
    // A wrong table still took its time: it is reported, not dropped.
    for row in table.rows() {
        if row.errors + row.inconsistent > 0 {
            report.failed += (row.errors + row.inconsistent) as u64;
            report.wrong(format!(
                "{} at (k,f,n)=({},{},{}): {} cases erred, {} inconsistent",
                row.emulation,
                row.params.k,
                row.params.f,
                row.params.n,
                row.errors,
                row.inconsistent
            ));
        }
    }
    if !table.all_within_upper() {
        report.wrong(format!(
            "a row exceeds its upper bound: {:?}",
            table.violations().next()
        ));
    }
    Ok(Campaign {
        setup_s,
        run_s: shard_s.iter().sum(),
        shard_s,
        table: table.to_text(),
        spool_files,
    })
}

pub fn run(args: &Args) -> Report {
    if args.trace {
        return run_traced(args);
    }
    let mut report = Report::new();
    let ops_per_campaign = match config(args.seed) {
        Ok(config) => expected_ops(&config),
        Err(e) => {
            report.wrong(e);
            return report;
        }
    };
    let mut setups = Vec::new();
    // Each invocation's wall times, by its place in the campaign.
    let mut calls_s: Vec<Vec<f64>> = vec![Vec::new(); SHARDS];
    let mut first_table: Option<String> = None;
    let started = Instant::now();
    let mut index = 0;
    while started.elapsed() < args.seconds {
        let spool = args.tmp.join(format!("spool-{index}"));
        index += 1;
        match campaign(args.seed, &spool, &mut report) {
            Ok(c) => {
                setups.push(c.setup_s);
                for (call, s) in c.shard_s.into_iter().enumerate() {
                    calls_s[call].push(s);
                }
                match &first_table {
                    None => first_table = Some(c.table),
                    Some(first) if *first != c.table => {
                        report.wrong("campaign tables differ between identical campaigns")
                    }
                    Some(_) => {}
                }
            }
            Err(why) => report.wrong(why),
        }
    }
    report.set("setup_s", median(&setups));
    // Each invocation does the same work in every campaign of the run, so
    // its fastest times are taken on their own (see `fastest_calls`).
    let (campaign_s, mut latencies_us) = fastest_calls(calls_s);
    latencies_us.sort_by(f64::total_cmp);
    report.set("ops_per_s", ratio(ops_per_campaign as f64, campaign_s));
    report.set_percentile("lat_p50_us", &latencies_us, 0.5);
    report.set_percentile("lat_p90_us", &latencies_us, 0.9);
    report.note(format!(
        "{} campaigns of {SHARDS} one-shard invocations; latency is one invocation, \
         throughput and latency from each invocation's fastest times ({} samples)",
        setups.len(),
        latencies_us.len()
    ));
    report
}

/// From each invocation's wall times across a run's campaigns, keeps the
/// fastest twentieth (at least [`MIN_KEPT_PER_CALL`]): the sum of the kept
/// medians, a campaign's time when every invocation runs undisturbed, and
/// the kept times in microseconds.
///
/// A burst of interference spoils the invocations it overlaps, not whole
/// campaigns, so ranking invocations rather than campaigns keeps more of
/// the quiet time a run holds.
fn fastest_calls(calls_s: Vec<Vec<f64>>) -> (f64, Vec<f64>) {
    let (mut campaign_s, mut latencies_us) = (0.0, Vec::new());
    for times in calls_s {
        let units = times
            .into_iter()
            .map(|s| Unit {
                ops_per_s: 1.0 / s,
                latencies_us: vec![s * 1e6],
            })
            .collect();
        let kept = fastest(units, MIN_KEPT_PER_CALL);
        let kept_us: Vec<f64> = kept.iter().flat_map(|u| u.latencies_us.clone()).collect();
        campaign_s += median(&kept_us) / 1e6;
        latencies_us.extend(kept_us);
    }
    (campaign_s, latencies_us)
}

/// Builds the scheduler a frontier case runs under, decorated.
fn traced_scheduler(case: &SweepCase, probe: &Arc<Probe>) -> TracedScheduler {
    let plan = case.crashes.instantiate(case.params);
    let (inner, replay): (Box<dyn Scheduler>, Option<Box<dyn BlockStrategy>>) = match case.scheduler
    {
        SchedulerSpec::Fair => (
            Box::new(FairDriver::new(case.seed).with_crash_plan(plan)),
            None,
        ),
        SchedulerSpec::CoverAdversary => {
            let cover = || CoverWrites::highest(case.params.n, case.params.f);
            let strategy = TracedStrategy::new(Box::new(cover()), Arc::clone(probe));
            (
                Box::new(
                    AdversarialScheduler::new(case.seed, Box::new(strategy)).with_crash_plan(plan),
                ),
                Some(Box::new(cover())),
            )
        }
        other => unreachable!("the frontier config has no {other} scheduler"),
    };
    TracedScheduler::new(inner, Arc::clone(probe), replay, false)
}

/// Per-layer totals of one traced pass over every case of the config.
#[derive(Default)]
struct Pass {
    build_ns: f64,
    report_ns: f64,
    offline_ns: f64,
    drive_ns: f64,
    events: f64,
    ops: f64,
}

fn run_traced(args: &Args) -> Report {
    let mut report = Report::new();
    let config = match config(args.seed) {
        Ok(config) => config,
        Err(e) => {
            report.wrong(e);
            return report;
        }
    };
    let expected = expected_ops(&config) as f64;
    let sweep = config.to_sweep_config();
    let spec = SequentialSpec::register();
    let total = Probe::new();
    let mut pass = Pass::default();
    let (mut untraced_s, mut spool_s, mut fold_ns) = (0.0, 0.0, 0.0);
    let (mut spool_files, mut campaigns) = (0usize, 0u64);
    let started = Instant::now();
    while started.elapsed() < args.seconds {
        let spool: PathBuf = args.tmp.join(format!("spool-{campaigns}"));
        campaigns += 1;
        let untraced = match campaign(args.seed, &spool, &mut report) {
            Ok(c) => c,
            Err(why) => {
                report.wrong(why);
                continue;
            }
        };
        untraced_s += untraced.setup_s + untraced.run_s;
        spool_files = untraced.spool_files;
        let t = Instant::now();
        let single = run_frontier(&config);
        let single_s = t.elapsed().as_secs_f64();
        if !matches!(&single, Ok(t) if t.to_text() == untraced.table) {
            report.wrong("run_frontier disagrees with the spooled campaign");
        }
        let campaign_overhead_s = (untraced.run_s - single_s).max(0.0);
        spool_s += campaign_overhead_s;

        // Every case again: the undecorated ScenarioRun for build, report
        // and offline-check times, then a decorated drive() whose results
        // must fold to the same table.
        let mut results = Vec::with_capacity(sweep.case_count());
        for case in sweep.cases() {
            report.attempted += 1;
            let scenario = case.scenario(config.check, config.max_steps_per_op);
            let b = Instant::now();
            let mut run = scenario.build();
            pass.build_ns += b.elapsed().as_nanos() as f64;
            if let Err(e) = run.run() {
                report.failed += 1;
                report.wrong(format!("case {}: {e}", case.index));
                continue;
            }
            pass.events += run.history().total_events() as f64;
            let r = Instant::now();
            let plain = run.into_report();
            let into_report_ns = r.elapsed().as_nanos() as f64;
            let o = Instant::now();
            let violation = check_ws_regular(&plain.history, &spec).err();
            let offline_ns = o.elapsed().as_nanos() as f64;
            pass.offline_ns += offline_ns;
            pass.report_ns += (into_report_ns - offline_ns).max(0.0);

            let probe = Probe::new();
            let emulation =
                TracedEmulation::new(case.emulation.build(case.params), Arc::clone(&probe));
            let mut scheduler = traced_scheduler(&case, &probe);
            let steps = case.workload.instantiate(case.params.k, case.seed);
            let d = Instant::now();
            let traced = drive(
                &emulation,
                &steps,
                &mut scheduler,
                ConsistencyCheck::None,
                config.max_steps_per_op,
                false,
            );
            pass.drive_ns += d.elapsed().as_nanos() as f64;
            total.absorb(&probe);
            let traced = match traced {
                Ok(traced) => traced,
                Err(e) => {
                    report.failed += 1;
                    report.wrong(format!("traced case {}: {e}", case.index));
                    continue;
                }
            };
            pass.ops += traced.completed_ops as f64;
            if traced.metrics != plain.metrics || violation != plain.check_violation {
                report.failed += 1;
                report.wrong(format!("traced case {} differs from Scenario", case.index));
            }
            results.push(case_result(&case, &traced, violation));
        }
        let f = Instant::now();
        let folded = FrontierReport::from_sweep(&config, &SweepReport::from_results(results));
        fold_ns += f.elapsed().as_nanos() as f64;
        if !matches!(&folded, Ok(t) if t.to_text() == untraced.table) {
            report.wrong("the traced cases fold to a different table");
        }
    }
    let n = campaigns.max(1) as f64;
    let cases = n * sweep.case_count() as f64;
    if (pass.ops - expected * n).abs() > 0.5 {
        report.wrong(format!(
            "{} ops completed, {} expected",
            pass.ops,
            expected * n
        ));
    }
    let steps = Probe::get(&total.steps) as f64;
    let step_ns = Probe::get(&total.step_ns) as f64;
    let blocks_calls = Probe::get(&total.blocks_calls) as f64;
    let block_ns = blocks_calls
        * ratio(
            Probe::get(&total.block_replay_ns) as f64,
            Probe::get(&total.block_replay_calls) as f64,
        );
    let fpsm_ns = (step_ns - Probe::get(&total.proto_ns_in_step) as f64 - block_ns).max(0.0);
    let engine_ns = (pass.drive_ns
        - step_ns
        - Probe::get(&total.proto_ns_other) as f64
        - Probe::get(&total.trace_ns) as f64)
        .max(0.0);
    let shape = Probe::get(&total.shape_samples) as f64;
    report.set("fpsm.steps", ratio(steps, cases));
    report.set("fpsm.step_self_ns", ratio(fpsm_ns, steps));
    report.set(
        "fpsm.pending_mean",
        ratio(Probe::get(&total.pending_sum) as f64, shape),
    );
    report.set(
        "fpsm.slab_span_mean",
        ratio(Probe::get(&total.span_sum) as f64, shape),
    );
    report.set("fpsm.events_per_op", ratio(pass.events, pass.ops));
    report.set(
        "adversary.blocks_calls_per_step",
        ratio(blocks_calls, steps),
    );
    report.set(
        "adversary.blocked_frac",
        ratio(Probe::get(&total.blocked) as f64, blocks_calls),
    );
    report.set("spec.offline_ns_per_case", ratio(pass.offline_ns, cases));
    report.set("workloads.build_ns_per_case", ratio(pass.build_ns, cases));
    report.set("workloads.report_ns_per_case", ratio(pass.report_ns, cases));
    report.set("workloads.engine_self_ns_per_step", ratio(engine_ns, steps));
    report.set("workloads.spool_s", spool_s / n);
    report.set("workloads.spool_files", spool_files as f64);
    report.set("workloads.fold_ns", fold_ns / n);
    report.set(
        "core.proto_calls_per_op",
        ratio(Probe::get(&total.proto_calls) as f64, pass.ops),
    );
    report.set(
        "core.proto_ns_per_call",
        ratio(
            total.proto_ns() as f64,
            Probe::get(&total.proto_calls) as f64,
        ),
    );
    // The traced unit: every case's build, decorated run and report (with
    // its offline check), plus the campaign's spool overhead and the fold.
    let unit_ns =
        pass.build_ns + pass.drive_ns + pass.report_ns + pass.offline_ns + spool_s * 1e9 + fold_ns;
    let workloads_ns = pass.build_ns + pass.report_ns + engine_ns + spool_s * 1e9 + fold_ns;
    crate::set_shares(
        &mut report,
        unit_ns,
        &[
            ("self.fpsm", fpsm_ns),
            ("self.adversary", block_ns),
            ("self.core", total.proto_ns() as f64),
            ("self.spec", pass.offline_ns),
            ("self.workloads", workloads_ns),
        ],
    );
    report.set("trace.overhead", ratio(unit_ns / 1e9, untraced_s) - 1.0);
    report.set("trace.unit_ms", unit_ns / n / 1e6);
    report.note(format!(
        "{campaigns} campaigns, each followed by run_frontier and a traced pass over its cases"
    ));
    report
}

/// The sweep row a traced case contributes to the fold.
fn case_result(
    case: &SweepCase,
    traced: &regemu_workloads::RunReport,
    violation: Option<regemu_spec::Violation>,
) -> CaseResult {
    let m = &traced.metrics;
    CaseResult {
        case: *case,
        provisioned_objects: traced.provisioned_objects,
        resource_consumption: m.resource_consumption(),
        covered: m.covered_count(),
        peak_covered: m.peak_covered_count(),
        peak_covered_server: m.peak_covered_on_one_server,
        max_occupancy: m.max_occupancy(),
        point_contention: m.point_contention,
        low_level_triggers: m.low_level_triggers,
        low_level_responses: m.low_level_responses,
        completed_ops: traced.completed_ops,
        consistent: violation.is_none(),
        coverage: regemu_workloads::CheckCoverage::Complete.name().to_string(),
        violation: violation.as_ref().map(ToString::to_string),
        error: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastest_calls_ranks_each_invocation_on_its_own() {
        // Invocation 0 takes 1..=20 ms, invocation 1 takes 10 times as
        // long; each keeps its own nine fastest.
        let calls_s = vec![
            (1..=20).map(|ms| f64::from(ms) / 1e3).collect(),
            (1..=20).map(|ms| f64::from(ms) / 1e2).collect(),
        ];
        let (campaign_s, latencies_us) = fastest_calls(calls_s);
        assert_eq!(latencies_us.len(), 2 * MIN_KEPT_PER_CALL);
        assert!((campaign_s - 0.005 - 0.05).abs() < 1e-9, "{campaign_s}");
        assert!(latencies_us.iter().all(|&us| us <= 9e4 + 1e-6));
    }
}
