//! `sim-cover`: the paper's covering adversary (`Ad_i`) in the simulator.
//!
//! One `Scenario` per derived seed, on one thread: the space-optimal
//! construction at `(k, f, n) = (24, 1, 3)`, a concurrent read/write
//! workload, the `CoverAdversary` scheduler, and `Ring(4096)` recording
//! checked online for WS-Regularity. Covering writes are never delivered,
//! so they stay pending and the scheduler's scan over the pending set
//! dominates each step.

use crate::probe::{Probe, TracedEmulation, TracedScheduler, TracedStrategy};
use crate::stats::{derive_seed, median, ratio, Unit};
use crate::{Args, Report};
use regemu_adversary::CoverWrites;
use regemu_bounds::Params;
use regemu_core::EmulationKind;
use regemu_fpsm::{AdversarialScheduler, Event, HighOpId, Scheduler};
use regemu_spec::{Condition, SequentialSpec, StreamingChecker, StreamingOutcome};
use regemu_workloads::{
    drive, ConsistencyCheck, RecordingModeSpec, RunReport, Scenario, ScenarioRun, SchedulerSpec,
    WorkloadSpec,
};
use std::sync::Arc;
use std::time::Instant;

const K: usize = 24;
const F: usize = 1;
const N: usize = 3;
const ROUNDS: usize = 4;
const RING: usize = 4096;
/// Cases built per set-up: every case's `ScenarioRun` is built before the
/// first of them runs.
const BATCH: u64 = 32;
/// The engine's per-operation step budget (the `Scenario` default).
const MAX_STEPS_PER_OP: u64 = 100_000;

fn params() -> Params {
    Params::new(K, F, N).expect("(24, 1, 3) is a valid point")
}

fn workload() -> WorkloadSpec {
    WorkloadSpec::ConcurrentReadWrite { rounds: ROUNDS }
}

/// The untraced case at `p` (the workload runs it at [`params`]) for
/// scenario seed `seed`.
pub fn scenario(p: Params, seed: u64) -> Scenario {
    Scenario::new(p)
        .emulation(EmulationKind::SpaceOptimal)
        .workload(workload())
        .scheduler(SchedulerSpec::CoverAdversary)
        .recording(RecordingModeSpec::Ring(RING))
        .check(ConsistencyCheck::WsRegular)
        .seed(seed)
        .max_steps_per_op(MAX_STEPS_PER_OP)
}

/// Runs a built case to completion and checks it: consistent, fully
/// checked, every operation completed.
///
/// With `latencies_us`, the case is stepped by hand and every high-level
/// operation's wall time — from the start of the step that invoked it to
/// the end of the step that completed it — is appended.
fn complete(
    mut run: ScenarioRun,
    expected_ops: usize,
    mut latencies_us: Option<&mut Vec<f64>>,
) -> Result<RunReport, String> {
    let mut invoked_at: Vec<Instant> = Vec::with_capacity(expected_ops);
    let mut open: Vec<usize> = Vec::new();
    let mut before = Instant::now();
    loop {
        let more = run.step().map_err(|e| format!("stuck: {e}"))?;
        if let Some(latencies) = latencies_us.as_deref_mut() {
            let after = Instant::now();
            let sim = run.sim();
            while invoked_at.len() < sim.invoked_high_count() {
                open.push(invoked_at.len());
                invoked_at.push(before);
            }
            open.retain(|&op| {
                let done = sim.result_of(HighOpId::new(op as u64)).is_some();
                if done {
                    latencies.push((after - invoked_at[op]).as_secs_f64() * 1e6);
                }
                !done
            });
            before = after;
        }
        if !more {
            break;
        }
    }
    let report = run.into_report();
    if !report.is_consistent() {
        return Err(format!("inconsistent: {:?}", report.check_violation));
    }
    if !report.is_fully_checked() {
        return Err(format!("verdict not complete: {:?}", report.check_coverage));
    }
    if report.completed_ops != expected_ops {
        return Err(format!(
            "{} of {expected_ops} operations completed",
            report.completed_ops
        ));
    }
    Ok(report)
}

pub fn run(args: &Args) -> Report {
    if args.trace {
        return run_traced(args);
    }
    let mut report = Report::new();
    let expected_ops = workload().instantiate(K, 0).len();
    let mut setups = Vec::new();
    let (mut ops, mut units) = (0usize, Vec::new());
    let mut next = 0;
    let started = Instant::now();
    while started.elapsed() < args.seconds {
        let t = Instant::now();
        let runs: Vec<ScenarioRun> = (next..next + BATCH)
            .map(|i| scenario(params(), derive_seed(args.seed, i)).build())
            .collect();
        setups.push(t.elapsed().as_secs_f64());
        next += BATCH;
        for run in runs {
            if started.elapsed() >= args.seconds {
                break;
            }
            report.attempted += 1;
            let t = Instant::now();
            let mut latencies_us = Vec::with_capacity(expected_ops);
            let outcome = complete(run, expected_ops, Some(&mut latencies_us));
            let took = t.elapsed();
            match outcome {
                Ok(case) => {
                    ops += case.completed_ops;
                    units.push(Unit {
                        ops_per_s: case.completed_ops as f64 / took.as_secs_f64(),
                        latencies_us,
                    });
                }
                Err(why) => {
                    report.failed += 1;
                    report.wrong(why);
                }
            }
        }
    }
    report.set("setup_s", median(&setups));
    report.set_from_fastest(units);
    report.note(format!(
        "{} cases in {} set-ups, {ops} ops; latency is one high-level op",
        report.attempted,
        setups.len()
    ));
    report
}

/// One case through `drive` with every layer decorated.
pub struct TracedCase {
    pub report: RunReport,
    pub probe: Arc<Probe>,
    pub drive_ns: u64,
}

/// Runs the case `scenario(p, seed)` describes through `regemu_workloads::drive`
/// with a decorated scheduler, block strategy and emulation (full
/// recording, the check left to the caller).
pub fn traced_case(p: Params, seed: u64, capture_events: bool) -> Result<TracedCase, String> {
    let probe = Probe::new();
    let emulation = TracedEmulation::new(EmulationKind::SpaceOptimal.build(p), Arc::clone(&probe));
    let strategy =
        TracedStrategy::new(Box::new(CoverWrites::highest(p.n, p.f)), Arc::clone(&probe));
    let inner: Box<dyn Scheduler> = Box::new(AdversarialScheduler::new(seed, Box::new(strategy)));
    let mut scheduler = TracedScheduler::new(
        inner,
        Arc::clone(&probe),
        Some(Box::new(CoverWrites::highest(p.n, p.f))),
        capture_events,
    );
    let steps = workload().instantiate(p.k, seed);
    let t = Instant::now();
    let report = drive(
        &emulation,
        &steps,
        &mut scheduler,
        ConsistencyCheck::None,
        MAX_STEPS_PER_OP,
        false,
    )
    .map_err(|e| format!("traced run stuck: {e}"))?;
    let drive_ns = t.elapsed().as_nanos() as u64;
    Ok(TracedCase {
        report,
        probe,
        drive_ns,
    })
}

fn run_traced(args: &Args) -> Report {
    let mut report = Report::new();
    let expected_ops = workload().instantiate(K, 0).len();
    let total = Probe::new();
    let (mut untraced_ns, mut traced_ns, mut drive_ns, mut stream_ns) = (0u64, 0u64, 0u64, 0u64);
    let (mut cases, mut ops, mut events, mut window_peak) = (0u64, 0u64, 0u64, 0usize);
    let started = Instant::now();
    while started.elapsed() < args.seconds {
        let seed = derive_seed(args.seed, cases);
        cases += 1;
        report.attempted += 2;
        let t = Instant::now();
        let untraced = complete(scenario(params(), seed).build(), expected_ops, None);
        untraced_ns += t.elapsed().as_nanos() as u64;
        let untraced = match untraced {
            Ok(r) => r,
            Err(why) => {
                report.failed += 2;
                report.wrong(why);
                continue;
            }
        };
        let t = Instant::now();
        let traced = match traced_case(params(), seed, true) {
            Ok(traced) => traced,
            Err(why) => {
                report.failed += 1;
                report.wrong(why);
                continue;
            }
        };
        let captured = std::mem::take(&mut *traced.probe.events.lock().expect("probe lock"));
        let (outcome, replay_ns) = replay_stream(&captured);
        traced_ns += t.elapsed().as_nanos() as u64;
        stream_ns += replay_ns;
        drive_ns += traced.drive_ns;
        events += captured.len() as u64;
        window_peak = window_peak.max(outcome.peak_window);
        ops += traced.report.completed_ops as u64;
        total.absorb(&traced.probe);
        if traced.report.metrics != untraced.metrics {
            report.failed += 1;
            report.wrong(format!(
                "seed {seed}: traced metrics differ from the untraced run"
            ));
        } else if !outcome.is_consistent() {
            report.failed += 1;
            report.wrong(format!(
                "seed {seed}: replayed verdict differs from the online one"
            ));
        }
    }
    let steps = Probe::get(&total.steps) as f64;
    let step_ns = Probe::get(&total.step_ns) as f64;
    let proto_in_step = Probe::get(&total.proto_ns_in_step) as f64;
    let proto_other = Probe::get(&total.proto_ns_other) as f64;
    let blocks_calls = Probe::get(&total.blocks_calls) as f64;
    let block_ns = blocks_calls
        * ratio(
            Probe::get(&total.block_replay_ns) as f64,
            Probe::get(&total.block_replay_calls) as f64,
        );
    let fpsm_ns = (step_ns - proto_in_step - block_ns).max(0.0);
    let trace_ns = Probe::get(&total.trace_ns) as f64;
    let engine_ns = (drive_ns as f64 - step_ns - proto_other - trace_ns).max(0.0);
    let shape = Probe::get(&total.shape_samples) as f64;
    report.set("fpsm.steps", ratio(steps, cases as f64));
    report.set("fpsm.step_self_ns", ratio(fpsm_ns, steps));
    report.set(
        "fpsm.pending_mean",
        ratio(Probe::get(&total.pending_sum) as f64, shape),
    );
    report.set(
        "fpsm.slab_span_mean",
        ratio(Probe::get(&total.span_sum) as f64, shape),
    );
    report.set("fpsm.events_per_op", ratio(events as f64, ops as f64));
    report.set(
        "adversary.blocks_calls_per_step",
        ratio(blocks_calls, steps),
    );
    report.set(
        "adversary.blocked_frac",
        ratio(Probe::get(&total.blocked) as f64, blocks_calls),
    );
    report.set(
        "spec.stream_ns_per_event",
        ratio(stream_ns as f64, events as f64),
    );
    report.set("spec.stream_window_peak", window_peak as f64);
    report.set(
        "core.proto_calls_per_op",
        ratio(Probe::get(&total.proto_calls) as f64, ops as f64),
    );
    report.set(
        "core.proto_ns_per_call",
        ratio(
            total.proto_ns() as f64,
            Probe::get(&total.proto_calls) as f64,
        ),
    );
    report.set("workloads.engine_self_ns_per_step", ratio(engine_ns, steps));
    let unit = traced_ns as f64;
    let layers = [
        ("self.fpsm", fpsm_ns),
        ("self.adversary", block_ns),
        ("self.core", total.proto_ns() as f64),
        ("self.spec", stream_ns as f64),
        ("self.workloads", engine_ns),
    ];
    crate::set_shares(&mut report, unit, &layers);
    report.set("trace.overhead", ratio(unit, untraced_ns as f64) - 1.0);
    report.set("trace.unit_ms", ratio(unit, cases as f64) / 1e6);
    report.note(format!(
        "{cases} cases, each run untraced (Ring + online check) then traced \
         (drive + decorators + streaming replay)"
    ));
    report
}

/// The online WS-Regularity check, replayed over a captured event stream:
/// its outcome and the nanoseconds the replay took.
fn replay_stream(events: &[Event]) -> (StreamingOutcome, u64) {
    let t = Instant::now();
    let mut checker = StreamingChecker::new(Condition::WsRegularity, SequentialSpec::register());
    for event in events {
        checker.observe(event);
    }
    let outcome = checker.into_outcome();
    (outcome, t.elapsed().as_nanos() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_drive_reproduces_the_scenario_run() {
        for (k, seed) in [(8, 1), (8, 2), (24, 3)] {
            let p = Params::new(k, F, N).unwrap();
            let expected = workload().instantiate(k, 0).len();
            let plain = complete(scenario(p, seed).build(), expected, None).unwrap();
            let traced = traced_case(p, seed, true).unwrap();
            assert_eq!(traced.report.metrics, plain.metrics, "k={k} seed={seed}");
            assert_eq!(traced.report.completed_ops, plain.completed_ops);
            let events = traced.probe.events.lock().unwrap().clone();
            let (outcome, _) = replay_stream(&events);
            assert_eq!(outcome.checked_ops, expected as u64);
            assert!(outcome.is_consistent());
            let probe = &traced.probe;
            assert!(Probe::get(&probe.steps) > 0);
            assert!(Probe::get(&probe.blocked) > 0);
            assert!(Probe::get(&probe.blocks_calls) >= Probe::get(&probe.blocked));
            assert!(Probe::get(&probe.proto_calls) > expected as u64);
            assert!(Probe::get(&probe.block_replay_calls) > 0);
        }
    }

    #[test]
    fn latency_tracking_sees_every_operation() {
        let p = Params::new(8, F, N).unwrap();
        let expected = workload().instantiate(8, 0).len();
        let mut latencies = Vec::new();
        let tracked = complete(scenario(p, 5).build(), expected, Some(&mut latencies)).unwrap();
        let plain = complete(scenario(p, 5).build(), expected, None).unwrap();
        assert_eq!(latencies.len(), expected);
        assert!(latencies.iter().all(|&us| us > 0.0));
        assert_eq!(tracked.metrics, plain.metrics);
    }
}
