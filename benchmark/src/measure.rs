//! The timed unit (`sched`), its correctness checks, and the per-workload
//! measurement loop.
//!
//! `sched` is what `coflow-cli --policy` does for a user with a new trace:
//! build the registry policy (cold LP cache), run it on the engine, and
//! replay-verify the schedule. Everything else — instance generation, the
//! lower bound, the objective recomputation — happens outside the timed
//! region.

use crate::host;
use crate::metrics::{geomean, quantile, Metric, Report};
use crate::workload::{Case, Workload};
use coflow::bounds::interval_lp_bound;
use coflow::{
    run_policy, run_policy_with_faults, verify_faulty_outcome, verify_outcome, Coflow, Decision,
    EpochState, Instance, Policy, PolicyEntry, PolicyRegistry, PolicyState, SchedError,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

const MIB: f64 = 1024.0 * 1024.0;

/// Untimed warm-up schedules per run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 5;

/// A run stops starting schedules after this long in its measured loop, so
/// it still reports within the 180-s limit of one benchmark run when the
/// code under test is several times slower than at calibration.
const LOOP_CAP: Duration = Duration::from_secs(120);

/// Delegates every method to the policy under test and times each
/// `decide` call.
struct TimedPolicy<'a> {
    inner: Box<dyn Policy>,
    latencies_ns: &'a mut Vec<u64>,
    decide_ns: u64,
}

impl Policy for TimedPolicy<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn decide(&mut self, state: &EpochState<'_>) -> Result<Decision, SchedError> {
        let start = Instant::now();
        let decision = self.inner.decide(state);
        let ns = elapsed_ns(start);
        self.decide_ns += ns;
        self.latencies_ns.push(ns);
        decision
    }

    fn tier(&self) -> usize {
        self.inner.tier()
    }

    fn final_order(&self, completions: &[u64]) -> Vec<usize> {
        self.inner.final_order(completions)
    }

    fn recycle(&mut self, pairs: Vec<(usize, usize, Vec<usize>)>) {
        self.inner.recycle(pairs)
    }

    fn finish(&mut self) {
        self.inner.finish()
    }

    fn capture_state(&self) -> Option<PolicyState> {
        self.inner.capture_state()
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// What one timed `sched` produced. `build + decide + exec + verify` is the
/// whole timed region; there is no unattributed remainder.
#[derive(Clone, Debug)]
struct Sample {
    /// `PolicyEntry::build` (for LP policies: the cold interval LP).
    build_ns: u64,
    /// Σ of the policy's `decide` calls.
    decide_ns: u64,
    /// Engine and executor work: the engine run minus Σ `decide`.
    exec_ns: u64,
    /// The replay check.
    verify_ns: u64,
    /// Decisions the engine asked for.
    decisions: u64,
    /// Completion slot per coflow (`None`: cancelled by the fault plan).
    completions: Vec<Option<u64>>,
    /// The objective the engine reported.
    objective: f64,
    /// Last busy slot of the executed schedule.
    makespan: u64,
    /// Planning epochs (fault workloads; 0 on the clean engine).
    replans: u64,
}

impl Sample {
    /// The whole timed region.
    fn sched_ns(&self) -> u64 {
        self.build_ns + self.decide_ns + self.exec_ns + self.verify_ns
    }
}

/// Runs the timed unit on `case`: clears the LP cache (untimed), then
/// builds, runs and replay-verifies. Per-decision latencies are appended to
/// `latencies_ns`.
fn schedule(
    entry: &PolicyEntry,
    case: &Case,
    latencies_ns: &mut Vec<u64>,
) -> Result<Sample, String> {
    coflow_lp::global_cache().clear();
    let inst = &case.instance;
    let t0 = Instant::now();
    let mut policy = TimedPolicy {
        inner: entry.build(inst),
        latencies_ns,
        decide_ns: 0,
    };
    let t1 = Instant::now();
    let decisions_before = policy.latencies_ns.len();
    let (completions, objective, makespan, replans, t2, t3) = match &case.plan {
        None => {
            let out = run_policy(inst, &mut policy).map_err(|e| format!("policy failed: {e}"))?;
            let t2 = Instant::now();
            let verdict = verify_outcome(inst, &out);
            let t3 = Instant::now();
            verdict.map_err(|e| format!("replay check failed: {e}"))?;
            let completions = out.completions.iter().map(|&c| Some(c)).collect();
            (completions, out.objective, out.makespan(), 0, t2, t3)
        }
        Some(plan) => {
            let out = run_policy_with_faults(inst, &mut policy, plan)
                .map_err(|e| format!("engine failed: {e}"))?;
            let t2 = Instant::now();
            let verdict = verify_faulty_outcome(inst, plan, &out);
            let t3 = Instant::now();
            verdict.map_err(|e| format!("faulted replay check failed: {e}"))?;
            let makespan = out.executed.makespan();
            (
                out.completions,
                out.objective,
                makespan,
                out.replans as u64,
                t2,
                t3,
            )
        }
    };
    let run_ns = (t2 - t1).as_nanos() as u64;
    Ok(Sample {
        build_ns: (t1 - t0).as_nanos() as u64,
        decide_ns: policy.decide_ns,
        exec_ns: run_ns.saturating_sub(policy.decide_ns),
        verify_ns: (t3 - t2).as_nanos() as u64,
        decisions: (policy.latencies_ns.len() - decisions_before) as u64,
        completions,
        objective,
        makespan,
        replans,
    })
}

/// The untimed checks on a verified sample. Returns TWCT ÷ the interval-LP
/// bound of the completed coflows.
fn check(case: &Case, sample: &Sample) -> Result<f64, String> {
    let inst = &case.instance;
    if case.plan.is_none() && sample.completions.iter().any(Option::is_none) {
        return Err("clean run left a coflow incomplete".into());
    }
    let twct: f64 = inst
        .coflows()
        .iter()
        .zip(&sample.completions)
        .filter_map(|(c, done)| done.map(|t| c.weight * t as f64))
        .sum();
    if twct.to_bits() != sample.objective.to_bits() {
        return Err(format!(
            "reported objective {} differs from the recomputed {}",
            sample.objective, twct
        ));
    }
    let completed: Vec<Coflow> = inst
        .coflows()
        .iter()
        .zip(&sample.completions)
        .filter(|(_, done)| done.is_some())
        .enumerate()
        .map(|(k, (c, _))| {
            Coflow::new(k, c.demand.clone())
                .with_release(c.release)
                .with_weight(c.weight)
        })
        .collect();
    if completed.is_empty() {
        return Err("no coflow completed".into());
    }
    let bound = interval_lp_bound(&Instance::new(inst.ports(), completed));
    if !(bound > 0.0 && bound <= twct * (1.0 + 1e-9)) {
        return Err(format!("lower bound {bound} is not in (0, TWCT = {twct}]"));
    }
    Ok(twct / bound)
}

/// Runs `f`, turning a panic into an error naming its message.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into());
        Err(format!("panicked: {msg}"))
    })
}

/// What a measurement run asks for.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Instance `i` uses seed `seed + i`.
    pub seed: u64,
    /// Sets the instance count: about `seconds` of measuring on the
    /// reference host, fixed per workload so it never depends on the clock.
    pub seconds: f64,
    /// Per-layer run (obs registry on, paired with an untraced schedule of
    /// the same instance) instead of the end-to-end run.
    pub trace: bool,
}

/// Measures one workload in this process.
///
/// Every instance is scheduled twice. An end-to-end run makes two passes
/// over the instance set and keeps each instance's faster schedule, and
/// each decision's faster latency: on a shared host, interference comes in
/// phases of seconds that slow everything by up to 1.6×, and two passes
/// several seconds apart rarely both land in one. A traced run schedules
/// each instance once plain and once traced instead.
pub fn run(cfg: &RunConfig) -> Report {
    let entry = PolicyRegistry::builtin()
        .resolve(cfg.workload.policy())
        .unwrap_or_else(|e| panic!("workload policy missing from the registry: {e}"));
    let mut scratch = Vec::new();
    let mut setup_s: Vec<f64> = (0..SETUP_ROUNDS as u64)
        .map(|r| {
            let (seconds, slowdown) = host::bracketed(|| {
                let start = Instant::now();
                let case = cfg.workload.generate(cfg.seed.wrapping_add(r));
                // Failures surface in the measured loop, which runs these
                // seeds again.
                let _ = guarded(|| schedule(entry, &case, &mut scratch));
                start.elapsed().as_secs_f64()
            });
            scratch.clear();
            seconds / slowdown
        })
        .collect();
    setup_s.sort_by(f64::total_cmp);
    let setup_s = quantile(&setup_s, 0.5);

    let instances = cfg.workload.instances(cfg.seconds);
    let passes = if cfg.trace { 1 } else { 2 };
    let loop_start = Instant::now();
    let mut results: Vec<Result<Measured, String>> = Vec::with_capacity(instances);
    'passes: for pass in 0..passes {
        for i in 0..instances {
            if loop_start.elapsed() > LOOP_CAP {
                eprintln!("{}: stopped at the time cap", cfg.workload.name());
                break 'passes;
            }
            if results.get(i).is_some_and(Result::is_err) {
                continue;
            }
            let gen_start = Instant::now();
            let case = cfg.workload.generate(cfg.seed.wrapping_add(i as u64));
            let gen_ns = elapsed_ns(gen_start);
            let outcome = if cfg.trace {
                let outcome = guarded(|| measure_traced(entry, &case, gen_ns, i % 2 == 0));
                obs::set_enabled(false);
                outcome
            } else if pass == 0 {
                guarded(|| {
                    let plain = measure_plain(entry, &case)?;
                    let ratio = check(&case, &plain.sample)?;
                    let coflows = case.instance.len() as u64;
                    Ok(Measured {
                        gen_ns,
                        coflows,
                        ratio,
                        plain,
                        traced: None,
                    })
                })
            } else {
                let Ok(best) = &mut results[i] else { continue };
                match guarded(|| measure_plain(entry, &case)) {
                    Ok(p) if !same_schedule(&p.sample, &best.plain.sample) => {
                        Err("the schedule differs between passes".to_string())
                    }
                    Ok(p) => {
                        // Decision k is the same work in both passes: keep
                        // each decision's faster reading, and the faster
                        // schedule's totals.
                        let mut decide_us = std::mem::take(&mut best.plain.decide_us);
                        for (kept, new) in decide_us.iter_mut().zip(&p.decide_us) {
                            *kept = kept.min(*new);
                        }
                        if p.adjusted_sched_ms() < best.plain.adjusted_sched_ms() {
                            best.plain = p;
                        }
                        best.plain.decide_us = decide_us;
                        continue;
                    }
                    Err(reason) => Err(reason),
                }
            };
            let outcome = outcome.map_err(|reason| {
                eprintln!("FAIL {} seed {}: {reason}", cfg.workload.name(), case.seed);
                format!("seed {}: {reason}", case.seed)
            });
            if pass == 0 {
                results.push(outcome);
            } else {
                results[i] = outcome;
            }
        }
    }
    let mut acc = Accumulator::default();
    for result in &results {
        match result {
            Ok(m) => acc.add(m),
            Err(reason) => acc.failures.push(reason.clone()),
        }
    }
    let metrics = if cfg.trace {
        acc.per_layer()
    } else {
        acc.end_to_end(setup_s)
    };
    let mut slowdowns: Vec<f64> = results.iter().flatten().map(|m| m.plain.slowdown).collect();
    slowdowns.sort_by(f64::total_cmp);
    Report {
        workload: cfg.workload,
        seed: cfg.seed,
        attempted: results.len(),
        failures: acc.failures,
        host_slowdown: quantile(&slowdowns, 0.5),
        metrics,
    }
}

/// True when two samples describe the same schedule.
fn same_schedule(a: &Sample, b: &Sample) -> bool {
    a.objective.to_bits() == b.objective.to_bits()
        && a.completions == b.completions
        && (a.makespan, a.decisions, a.replans) == (b.makespan, b.decisions, b.replans)
}

/// One plain (untraced) schedule of an instance, between host-speed
/// probes.
struct Plain {
    sample: Sample,
    /// Host slowdown while it ran (see [`host::bracketed`]).
    slowdown: f64,
    /// Per-decision latency at reference host speed, microseconds.
    decide_us: Vec<f64>,
    /// Allocation calls during `sched`.
    alloc_calls: u64,
    /// Peak heap `sched` held above what was live when it started.
    heap_peak_bytes: u64,
}

impl Plain {
    /// `sched` at reference host speed, in milliseconds.
    fn adjusted_sched_ms(&self) -> f64 {
        self.sample.sched_ns() as f64 / 1e6 / self.slowdown
    }
}

fn measure_plain(entry: &PolicyEntry, case: &Case) -> Result<Plain, String> {
    let mut latencies_ns = Vec::new();
    let ((sample, alloc_calls, heap_peak_bytes), slowdown) = host::bracketed(|| {
        obs::alloc::reset_peak();
        let before = obs::alloc::stats();
        let sample = schedule(entry, case, &mut latencies_ns);
        let after = obs::alloc::stats();
        let heap_peak = after.peak_live_bytes.saturating_sub(before.live_bytes);
        (sample, after.alloc_calls - before.alloc_calls, heap_peak)
    });
    let per_us = 1e3 * slowdown;
    Ok(Plain {
        sample: sample?,
        slowdown,
        decide_us: latencies_ns.iter().map(|&ns| ns as f64 / per_us).collect(),
        alloc_calls,
        heap_peak_bytes,
    })
}

/// One instance's measurement.
struct Measured {
    gen_ns: u64,
    coflows: u64,
    ratio: f64,
    plain: Plain,
    /// Traced runs: the traced schedule's `sched` and the obs registry
    /// after it.
    traced: Option<(u64, obs::Snapshot)>,
}

/// Schedules `case` once plain (outside timers, allocator readings) and
/// once with the obs registry on (spans and counters), alternating which
/// goes first so neither always gets the warmer heap.
fn measure_traced(
    entry: &PolicyEntry,
    case: &Case,
    gen_ns: u64,
    plain_first: bool,
) -> Result<Measured, String> {
    let traced = || {
        obs::reset();
        obs::set_enabled(true);
        let sample = schedule(entry, case, &mut Vec::new());
        obs::set_enabled(false);
        sample.map(|s| (s, obs::snapshot()))
    };
    let (plain, (traced_sample, snapshot)) = if plain_first {
        let p = measure_plain(entry, case)?;
        (p, traced()?)
    } else {
        let t = traced()?;
        (measure_plain(entry, case)?, t)
    };
    if !same_schedule(&plain.sample, &traced_sample) {
        return Err("tracing changed the schedule".into());
    }
    let ratio = check(case, &plain.sample)?;
    Ok(Measured {
        gen_ns,
        coflows: case.instance.len() as u64,
        ratio,
        plain,
        traced: Some((traced_sample.sched_ns(), snapshot)),
    })
}

/// Sums over the successful instances of a run. End-to-end timings are
/// kept at reference host speed, per-layer ones as measured.
#[derive(Default)]
struct Accumulator {
    failures: Vec<String>,
    ok: u64,
    coflows: u64,
    sched_ns: u64,
    adjusted_sched_ms: Vec<f64>,
    adjusted_decide_us: Vec<f64>,
    ratios: Vec<f64>,
    gen_ns: u64,
    build_ns: u64,
    decide_ns: u64,
    exec_ns: u64,
    verify_ns: u64,
    decisions: u64,
    makespan: u64,
    replans: u64,
    heap_peak_bytes: Vec<u64>,
    alloc_calls: u64,
    traced_sched_ns: u64,
    lp_build_ms: f64,
    lp_solve_ms: f64,
    bvn_ms: f64,
    pivots: u64,
    exact_hits: u64,
    misses: u64,
    permutations: u64,
    hk_paths: u64,
}

impl Accumulator {
    fn add(&mut self, m: &Measured) {
        let p = &m.plain;
        let s = &p.sample;
        self.ok += 1;
        self.coflows += m.coflows;
        self.sched_ns += s.sched_ns();
        self.adjusted_sched_ms.push(p.adjusted_sched_ms());
        self.adjusted_decide_us.extend_from_slice(&p.decide_us);
        self.heap_peak_bytes.push(p.heap_peak_bytes);
        self.alloc_calls += p.alloc_calls;
        self.ratios.push(m.ratio);
        self.gen_ns += m.gen_ns;
        self.build_ns += s.build_ns;
        self.decide_ns += s.decide_ns;
        self.exec_ns += s.exec_ns;
        self.verify_ns += s.verify_ns;
        self.decisions += s.decisions;
        self.makespan += s.makespan;
        self.replans += s.replans;
        if let Some((traced_sched_ns, snap)) = &m.traced {
            self.traced_sched_ns += traced_sched_ns;
            self.lp_build_ms += snap.span_total_ms("lp.build_model");
            self.lp_solve_ms += snap.span_total_ms("lp.solve");
            self.bvn_ms += snap.span_total_ms("matching.bvn_decompose");
            self.pivots += snap.counter("lp.simplex.pivots");
            self.exact_hits += snap.counter("lp.basis_cache.exact_hits");
            self.misses += snap.counter("lp.basis_cache.misses");
            self.permutations += snap.counter("matching.bvn.permutations");
            self.hk_paths += snap.counter("matching.hk.augmenting_paths");
        }
    }

    fn end_to_end(&mut self, setup_s: f64) -> Vec<Metric> {
        let sched_s = self.adjusted_sched_ms.iter().sum::<f64>() / 1e3;
        let sched_ms = &mut self.adjusted_sched_ms;
        sched_ms.sort_by(f64::total_cmp);
        let decide_us = &mut self.adjusted_decide_us;
        decide_us.sort_by(f64::total_cmp);
        let mut heap_mib: Vec<f64> = self
            .heap_peak_bytes
            .iter()
            .map(|&b| b as f64 / MIB)
            .collect();
        heap_mib.sort_by(f64::total_cmp);
        vec![
            Metric::new("setup_s", setup_s),
            Metric::new("sched_ms_p50", quantile(sched_ms, 0.5)),
            Metric::new("coflows_per_s", self.coflows as f64 / sched_s),
            Metric::new("decide_us_p50", quantile(decide_us, 0.5)),
            Metric::new("decide_us_p99", quantile(decide_us, 0.99)),
            Metric::new("twct_ratio", geomean(&self.ratios)),
            Metric::new("heap_mib_p50", quantile(&heap_mib, 0.5)),
        ]
    }

    fn per_layer(&self) -> Vec<Metric> {
        let n = self.ok as f64;
        let ms = |ns: u64| ns as f64 / 1e6 / n;
        let per = |count: u64| count as f64 / n;
        // Span totals come from the traced schedules, so they are shares of
        // the traced `sched`.
        let traced_pct = |span_ms: f64| span_ms * 1e8 / self.traced_sched_ns as f64;
        vec![
            Metric::new("workloads.gen_ms", ms(self.gen_ns)),
            Metric::new("sched.total_ms", ms(self.sched_ns)),
            Metric::new("sched.build_ms", ms(self.build_ns)),
            Metric::new("sched.decide_ms", ms(self.decide_ns)),
            Metric::new("sched.decisions", per(self.decisions)),
            Metric::new(
                "sched.decisions_per_kslot",
                self.decisions as f64 * 1000.0 / self.makespan as f64,
            ),
            Metric::new("engine.exec_ms", ms(self.exec_ns)),
            Metric::new("engine.replans", per(self.replans)),
            Metric::new("netsim.makespan_slots", per(self.makespan)),
            Metric::new("verify.ms", ms(self.verify_ns)),
            Metric::new("lp.build_pct", traced_pct(self.lp_build_ms)),
            Metric::new("lp.solve_pct", traced_pct(self.lp_solve_ms)),
            Metric::new("lp.pivots", per(self.pivots)),
            Metric::new("lp.cache_exact_hits", per(self.exact_hits)),
            Metric::new("lp.cache_misses", per(self.misses)),
            Metric::new("matching.bvn_pct", traced_pct(self.bvn_ms)),
            Metric::new("matching.permutations", per(self.permutations)),
            Metric::new("matching.hk_augmenting_paths", per(self.hk_paths)),
            Metric::new(
                "mem.alloc_calls_per_coflow",
                self.alloc_calls as f64 / self.coflows as f64,
            ),
            Metric::new(
                "mem.peak_live_mib",
                self.heap_peak_bytes.iter().copied().max().unwrap_or(0) as f64 / MIB,
            ),
            Metric::new(
                "trace.overhead_pct",
                (self.traced_sched_ns as f64 / self.sched_ns as f64 - 1.0) * 100.0,
            ),
        ]
    }
}
