//! The event-driven scheduling engine with pluggable policies.
//!
//! Historically the crate grew four independent time loops — the batch
//! executor (`execute_batches`), the online ρ/w scheduler, the priority
//! greedy baseline, and the fault/recovery epoch loop — each re-implementing
//! arrival admission, port-conflict matching, trace emission, and completion
//! tracking. This module unifies them: one engine owns the clock and the
//! executor, a [`FaultSim`] under a fault plan (the empty plan for a clean
//! run); a [`Policy`] owns the scheduling brain and is consulted at
//! *decision epochs* (whenever the previous decision has been carried
//! out).
//!
//! The contract is deliberately small:
//!
//! * the engine calls [`Policy::decide`] with a read-only [`EpochState`]
//!   snapshot (current time, the instance, live remaining demand);
//! * the policy answers with a [`Decision`]: advance the clock, run a
//!   matching for some slots, execute a fully planned trace, or declare
//!   itself finished;
//! * the engine applies the decision, updates completions/trace/obs, and
//!   asks again.
//!
//! Because the environment loop is shared, every policy×environment
//! combination composes for free: the online and greedy schedulers run
//! under fault injection (and hence under the flight recorder and the
//! diagnostics detectors) exactly like the BvN pipeline does.
//!
//! Determinism: each policy ported here reproduces its legacy loop
//! *bit-identically* — same per-slot schedule, completions, and objective
//! (differential-tested against frozen copies of the old loops, and pinned
//! in CI via `experiments -- gate pins`). The
//! slot-reactive policies hold each matching until the next event that
//! can change it (`hold`), so their traces group the legacy one-slot
//! runs into longer ones.

use super::recovery::FaultyOutcome;
use super::resilient::plan_resilient_until;
use super::{AlgorithmSpec, ExecOptions, ScheduleOutcome};
use crate::coflow::Coflow;
use crate::error::SchedError;
use crate::instance::Instance;
use coflow_lp::SimplexOptions;
use coflow_matching::{bvn_decompose_keeping, BvnDecomposition, IntMatrix};
use coflow_netsim::{
    DemandView, FaultPlan, FaultSim, ScheduleTrace, SimError, SparseDemand, Transfer,
};
use std::fmt;
use std::time::Instant;

/// A failure inside an engine run: either the policy could not produce a
/// decision ([`SchedError`]) or the fault simulator rejected one as
/// structurally invalid ([`SimError`], always a scheduler bug).
#[derive(Clone, Debug)]
pub enum EngineError {
    /// The policy failed to decide.
    Sched(SchedError),
    /// The executor rejected a decision.
    Sim(SimError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Sched(e) => write!(f, "policy failed: {}", e),
            EngineError::Sim(e) => write!(f, "executor rejected decision: {}", e),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<SchedError> for EngineError {
    fn from(e: SchedError) -> Self {
        EngineError::Sched(e)
    }
}

impl From<SimError> for EngineError {
    fn from(e: SimError) -> Self {
        EngineError::Sim(e)
    }
}

/// Read-only snapshot of execution state at a decision epoch.
pub struct EpochState<'a> {
    /// Current time (end of the last executed slot). The next schedulable
    /// slot is `now + 1`; a coflow with release date `r` is servable when
    /// `r <= now`.
    pub now: u64,
    /// The instance being scheduled (full demands, releases, weights).
    pub instance: &'a Instance,
    /// The executor's remaining demand: policies read it through this.
    demand: &'a SparseDemand,
    /// The executor.
    sim: &'a FaultSim,
    next_boundary: u64,
    window_end: u64,
}

impl<'a> EpochState<'a> {
    /// Remaining demand of coflow `k` on pair `(i, j)`: a binary search
    /// over the coflow's pairs.
    #[inline]
    pub fn remaining(&self, k: usize, i: usize, j: usize) -> u64 {
        self.demand.get(k, i, j)
    }

    /// Remaining demand of coflow `k`, viewed in the executor's state.
    #[inline]
    pub fn remaining_matrix(&self, k: usize) -> DemandView<'a> {
        self.demand.view(k)
    }

    /// Remaining demand of every coflow over its nonzero pairs, the
    /// executor's own state. Hot paths resolve an entry once and read it
    /// by index from then on; the indices hold for the whole run.
    #[inline]
    pub fn remaining_demand(&self) -> &'a SparseDemand {
        self.demand
    }

    /// Remaining total units of coflow `k`.
    #[inline]
    pub fn remaining_total(&self, k: usize) -> u64 {
        self.demand.total(k)
    }

    /// True when coflow `k` has been cancelled by the fault plan (never
    /// under the empty plan).
    #[inline]
    pub fn is_cancelled(&self, k: usize) -> bool {
        self.sim.is_cancelled(k)
    }

    /// The first [`FaultPlan::boundaries`] entry after slot `now + 1`: the
    /// slot before which the engine stops a [`Decision::Execute`] trace.
    /// Runs of the trace starting at or after it are never executed.
    /// `u64::MAX` once no boundary is left (always, under the empty plan).
    #[inline]
    pub fn next_boundary(&self) -> u64 {
        self.next_boundary
    }

    /// Last slot of the fault window holding slot `now + 1`: the fault
    /// plan changes nothing in slots `now + 2 ..= window_end`, so a
    /// [`Decision::Run`] that ends there crosses no
    /// [`FaultPlan::boundaries`] entry. When the plan changes state in slot
    /// `now + 1` itself this is `now + 1`, because a cancellation taking
    /// effect there is not yet visible in the remaining demand read here.
    /// Otherwise it is the slot before [`EpochState::next_boundary`];
    /// `u64::MAX` once no boundary is left.
    #[inline]
    pub fn window_end(&self) -> u64 {
        self.window_end
    }
}

/// One policy decision, applied by the engine before the next epoch.
#[derive(Clone, Debug)]
pub enum Decision {
    /// Advance the clock to the given slot without serving anything (idle
    /// until an arrival, a batch release, or a pending cancellation).
    Advance(u64),
    /// Run a matching for `duration` consecutive slots starting at
    /// `now + 1`. Each used port pair carries a priority-ordered candidate
    /// list; the executor serves candidates in order, exhausting each one's
    /// remaining demand on the pair (the in-group priority + backfilling
    /// rule). Empty `pairs` idles for `duration` slots.
    Run {
        /// `(ingress, egress, priority-ordered coflows)`, each port used at
        /// most once.
        pairs: Vec<(usize, usize, Vec<usize>)>,
        /// Number of consecutive slots to hold the matching.
        duration: u64,
    },
    /// Execute a fully planned schedule trace until the fault state next
    /// changes (to its end when it never does again).
    Execute(ScheduleTrace),
    /// Nothing left to schedule; the engine stops consulting the policy.
    Finished,
}

/// A scheduling brain the engine consults at decision epochs.
///
/// To add a policy: decide, from the [`EpochState`] snapshot, what the
/// fabric should do next and return it as a [`Decision`]. The engine owns
/// all bookkeeping (clock, completions, trace, blocked demand); policies
/// own only their planning state. See `DESIGN.md` §7 for the epoch model
/// and the porting notes for the four built-in policies.
pub trait Policy {
    /// Short stable name, used in diagnostics and panic messages.
    fn name(&self) -> &'static str;

    /// Produces the next decision for the current epoch.
    fn decide(&mut self, state: &EpochState<'_>) -> Result<Decision, SchedError>;

    /// Fallback tier of the most recent planning decision (0 = requested
    /// rule). Recorded per planning epoch into [`FaultyOutcome::tiers`].
    fn tier(&self) -> usize {
        0
    }

    /// The committed coflow order reported on the outcome. Defaults to the
    /// completion order, which is the natural answer for reactive policies;
    /// order-driven policies return their input order.
    fn final_order(&self, completions: &[u64]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..completions.len()).collect();
        order.sort_by_key(|&k| (completions[k], k));
        order
    }

    /// Hands the buffers of an applied [`Decision::Run`] back to the policy
    /// for reuse (hot-path allocation recycling). Default: drop them.
    fn recycle(&mut self, _pairs: Vec<(usize, usize, Vec<usize>)>) {}

    /// Called once after the engine loop ends (all demand delivered or the
    /// policy declared [`Decision::Finished`]); releases any per-run
    /// resources the policy holds, e.g. obs span guards.
    fn finish(&mut self) {}

    /// Captures the policy's planning state for [`Engine::checkpoint`].
    /// The captured state must be *complete*: rebuilding via
    /// [`super::snapshot::PolicyState::rebuild`] and continuing the run
    /// must be bit-identical to never having stopped. Policies return
    /// `None` (the default) to opt out of checkpointing.
    fn capture_state(&self) -> Option<super::snapshot::PolicyState> {
        None
    }
}

/// Aggregated progress of a run at one decision epoch, feeding the bounded
/// `obs` time series and the NDJSON telemetry stream.
struct Progress {
    residual_units: u64,
    active_coflows: u64,
    completed_coflows: u64,
}

/// Progress over the simulator, O(n) over its per-coflow remainders;
/// cancelled coflows are neither active nor completed and their stranded
/// demand is excluded from the residual.
fn sim_progress(sim: &FaultSim, releases: &[u64]) -> Progress {
    let now = sim.now();
    let mut p = Progress {
        residual_units: 0,
        active_coflows: 0,
        completed_coflows: 0,
    };
    for (k, c) in sim.completion_times().iter().enumerate() {
        if sim.is_cancelled(k) {
            continue;
        }
        let rem = sim.remaining_total(k);
        p.residual_units += rem;
        if c.is_some() {
            p.completed_coflows += 1;
        } else if rem > 0 && releases.get(k).copied().unwrap_or(0) <= now {
            p.active_coflows += 1;
        }
    }
    p
}

/// True when per-epoch progress should be sampled at all; one or two
/// relaxed loads, safe to evaluate every decision.
#[inline]
fn progress_wanted() -> bool {
    obs::enabled() || obs::telemetry::active()
}

/// Records one progress sample: the five bounded per-epoch series
/// (residual demand, active coflows, replans, allocator live bytes, epoch
/// wall-clock) plus one NDJSON heartbeat when a telemetry sink is
/// installed. `epoch_ms` is the wall-clock since the caller's previous
/// sample.
fn emit_progress(
    source: &'static str,
    label: &str,
    now: u64,
    progress: &Progress,
    replans: u64,
    decisions: u64,
    epoch_ms: f64,
) {
    obs::series_record("engine.residual_units", now, progress.residual_units as f64);
    obs::series_record("engine.active_coflows", now, progress.active_coflows as f64);
    obs::series_record("engine.replans", now, replans as f64);
    obs::series_record(
        "engine.live_bytes",
        now,
        obs::alloc::stats().live_bytes as f64,
    );
    obs::series_record("engine.epoch_ms", now, epoch_ms);
    obs::telemetry::emit(&obs::telemetry::Sample {
        source,
        label,
        epoch: now,
        residual_units: progress.residual_units,
        active_coflows: progress.active_coflows,
        completed_coflows: progress.completed_coflows,
        replans,
        decisions,
    });
}

/// Initial decision cadence for the progress samples of [`run_policy`]
/// (see [`HeartbeatPacer`]).
const CLEAN_SAMPLE_EVERY: u64 = 128;

/// Adaptive heartbeat cadence for engines with no planning epochs to hook.
///
/// A fixed every-128-decisions sample floods the NDJSON sink on
/// million-epoch runs (thousands of lines per second when decisions are
/// cheap) while under-sampling runs with expensive decisions. The pacer
/// targets a human-scale wall-clock rhythm instead: after each emitted
/// beat, the decision stride doubles when beats arrive faster than
/// [`Self::FAST_MS`] and halves when they lag past [`Self::SLOW_MS`],
/// bounded to `[MIN_STRIDE, MAX_STRIDE]`. The first decision always beats
/// (matching the old `% == 1` phase), so short runs still emit a sample.
#[derive(Clone, Copy, Debug)]
pub struct HeartbeatPacer {
    stride: u64,
    next_at: u64,
}

impl HeartbeatPacer {
    /// Beats closer together than this double the stride.
    pub const FAST_MS: f64 = 100.0;
    /// Beats farther apart than this halve the stride.
    pub const SLOW_MS: f64 = 2000.0;
    /// Stride floor: never sample more often than every 16 decisions.
    pub const MIN_STRIDE: u64 = 16;
    /// Stride ceiling: even on microsecond decisions, 64Ki decisions per
    /// heartbeat keeps multi-million-epoch runs to a few hundred lines.
    pub const MAX_STRIDE: u64 = 65_536;

    /// A pacer starting at `stride` decisions per beat.
    pub fn new(stride: u64) -> Self {
        let stride = stride.clamp(Self::MIN_STRIDE, Self::MAX_STRIDE);
        HeartbeatPacer { stride, next_at: 1 }
    }

    /// True when the `decisions`-th decision should emit a heartbeat.
    /// `decisions` counts from 1; the first decision always beats.
    pub fn due(&self, decisions: u64) -> bool {
        decisions >= self.next_at
    }

    /// Records an emitted beat that took `epoch_ms` of wall clock since the
    /// previous one and schedules the next.
    pub fn beat(&mut self, decisions: u64, epoch_ms: f64) {
        if epoch_ms < Self::FAST_MS {
            self.stride = (self.stride * 2).min(Self::MAX_STRIDE);
        } else if epoch_ms > Self::SLOW_MS {
            self.stride = (self.stride / 2).max(Self::MIN_STRIDE);
        }
        self.next_at = decisions + self.stride;
    }

    /// Skips a due beat without adapting the stride (sampling disabled).
    pub fn skip(&mut self, decisions: u64) {
        self.next_at = decisions + self.stride;
    }

    /// Current stride (diagnostics/tests).
    pub fn stride(&self) -> u64 {
        self.stride
    }
}

impl Default for HeartbeatPacer {
    fn default() -> Self {
        HeartbeatPacer::new(CLEAN_SAMPLE_EVERY)
    }
}

/// Runs `policy` to completion on the engine under the empty fault plan.
///
/// Returns [`SchedError`] when the policy fails or makes a decision that
/// cannot move the clock. Panics, like the legacy loops, if the policy
/// declares itself finished while demand is undelivered, or makes a
/// decision the executor refuses (a port in two pairs, a coflow served
/// before its release) — those are policy bugs, not input errors.
pub fn run_policy<P: Policy + ?Sized>(
    instance: &Instance,
    policy: &mut P,
) -> Result<ScheduleOutcome, SchedError> {
    let sim = run_policy_until(instance, policy, u64::MAX)?;
    assert!(
        sim.all_settled(),
        "engine: policy '{}' finished with undelivered demand (scheduler bug)",
        policy.name()
    );
    // Under the empty plan, settled means complete.
    let (trace, completions, ..) = sim.finish();
    let completions: Vec<u64> = completions.into_iter().flatten().collect();
    let objective = instance.objective(&completions);
    let order = policy.final_order(&completions);
    Ok(ScheduleOutcome {
        order,
        completions,
        objective,
        trace,
    })
}

/// The engine under the empty plan, stepped while the next slot `now + 1`
/// lies before `horizon`, with paced `engine` heartbeats; then
/// [`Policy::finish`]. The engine is causal, so every slot the returned
/// simulator executed before `horizon` is the full run's, and later
/// decisions are never made; [`run_policy`] runs it to the end.
pub(crate) fn run_policy_until<P: Policy + ?Sized>(
    instance: &Instance,
    policy: &mut P,
    horizon: u64,
) -> Result<FaultSim, SchedError> {
    let _span = obs::span("sched.engine");
    let mut engine = Engine::new(instance, &FaultPlan::default());
    engine.pacer = Some(HeartbeatPacer::default());
    match engine.run(policy, horizon) {
        Ok(()) => {
            engine.wind_up(policy);
            Ok(engine.sim)
        }
        Err(EngineError::Sched(e)) => Err(e),
        Err(EngineError::Sim(e)) => panic!(
            "engine: policy '{}' made a decision the executor refused: {} (scheduler bug)",
            policy.name(),
            e
        ),
    }
}

/// Runs `policy` to quiescence under `plan` on a fault-injecting simulator.
///
/// Planning epochs are counted uniformly for every policy (satisfying
/// [`FaultyOutcome::replans`]/[`FaultyOutcome::tiers`]): a
/// [`Decision::Execute`] is one epoch, exactly like the legacy recovery
/// loop; slot-reactive policies ([`Decision::Run`]) are charged one epoch
/// per fault window entered — each entry is where such a policy re-derives
/// its plan from post-fault state, and a quiet plan yields exactly one
/// epoch on both paths.
pub fn run_policy_with_faults<P: Policy + ?Sized>(
    instance: &Instance,
    policy: &mut P,
    plan: &FaultPlan,
) -> Result<FaultyOutcome, EngineError> {
    let _span = obs::span("sched.engine.faulty");
    let mut engine = Engine::new(instance, plan);
    engine.run(policy, u64::MAX)?;
    Ok(engine.into_outcome(policy))
}

/// The engine as a steppable object: the loop body of [`run_policy`] and
/// [`run_policy_with_faults`], exposed so harnesses can interleave decision
/// epochs with [`Engine::checkpoint`] / [`Engine::restore`] (crash-safe
/// long runs, the chaos harness, the SIGINT path). Driving [`Engine::step`]
/// to quiescence and calling [`Engine::into_outcome`] is *bit-identical*
/// to the one-shot entry point — same `FaultyOutcome`, same obs counters.
pub struct Engine<'a> {
    instance: &'a Instance,
    sim: FaultSim,
    replans: usize,
    tiers: Vec<usize>,
    last_window: Option<usize>,
    decisions: u64,
    /// Release dates, cached for progress sampling.
    releases: Vec<u64>,
    /// Wall-clock of the previous progress sample. Not part of snapshots:
    /// telemetry timing restarts at restore, the schedule does not care.
    last_beat: Instant,
    /// The heartbeat cadence of [`run_policy`]'s runs, which report as the
    /// `engine` source every few decisions; `None` on the other runs,
    /// which report as `engine.faults` once per planning epoch.
    pacer: Option<HeartbeatPacer>,
}

impl<'a> Engine<'a> {
    /// Builds a fresh engine over `instance` under `plan`.
    pub fn new(instance: &'a Instance, plan: &FaultPlan) -> Self {
        let releases = instance.releases();
        let sim = FaultSim::new(
            instance.ports(),
            instance.demands(),
            &releases,
            plan.clone(),
        );
        Engine {
            instance,
            sim,
            replans: 0,
            tiers: Vec::new(),
            last_window: None,
            decisions: 0,
            releases,
            last_beat: Instant::now(),
            pacer: None,
        }
    }

    /// Current time (end of the last executed slot).
    pub fn now(&self) -> u64 {
        self.sim.now()
    }

    /// True when every coflow is settled (complete or cancelled).
    pub fn done(&self) -> bool {
        self.sim.all_settled()
    }

    /// Planning epochs so far (the eventual [`FaultyOutcome::replans`]).
    pub fn replans(&self) -> usize {
        self.replans
    }

    /// Fallback tiers recorded so far, one per planning epoch.
    pub fn tiers(&self) -> &[usize] {
        &self.tiers
    }

    /// Read-only view of the underlying fault simulator.
    pub fn sim(&self) -> &FaultSim {
        &self.sim
    }

    /// Samples progress: one series point per tracked metric and (when a
    /// sink is installed) one NDJSON heartbeat. A fault run samples at
    /// every planning epoch — the "≥ 1 line per decision-epoch window"
    /// guarantee of the telemetry schema — and a run of [`run_policy`]
    /// when its pacer is due. Returns the wall-clock since the previous
    /// sample, 0 when nobody is listening.
    fn sample_progress(&mut self, label: &str) -> f64 {
        if !progress_wanted() {
            return 0.0;
        }
        let beat = Instant::now();
        let epoch_ms = beat.saturating_duration_since(self.last_beat).as_secs_f64() * 1e3;
        self.last_beat = beat;
        let (source, replans) = match self.pacer {
            Some(_) => ("engine", 0),
            None => ("engine.faults", self.replans as u64),
        };
        emit_progress(
            source,
            label,
            self.sim.now(),
            &sim_progress(&self.sim, &self.releases),
            replans,
            self.decisions,
            epoch_ms,
        );
        epoch_ms
    }

    /// The paced heartbeat of a [`run_policy`] run. The pacer advances
    /// even when nobody is listening, so the cadence (and per-decision
    /// cost) stays the same whether or not telemetry is on.
    fn pace<P: Policy + ?Sized>(&mut self, policy: &P) {
        let Some(mut pacer) = self.pacer.filter(|p| p.due(self.decisions)) else {
            return;
        };
        if progress_wanted() {
            let epoch_ms = self.sample_progress(policy.name());
            pacer.beat(self.decisions, epoch_ms);
        } else {
            pacer.skip(self.decisions);
        }
        self.pacer = Some(pacer);
    }

    /// Opens a planning epoch: one more replan and tier and, on a fault
    /// run, the `coflow.recovery.epochs` counter and a heartbeat.
    fn plan_epoch<P: Policy + ?Sized>(&mut self, policy: &P) {
        self.replans += 1;
        self.tiers.push(policy.tier());
        if self.pacer.is_none() {
            obs::counter_add("coflow.recovery.epochs", 1);
            self.sample_progress(policy.name());
        }
    }

    /// Steps `policy` while the next slot lies before `horizon` and the run
    /// is not over. On an error, releases the policy's resources and
    /// flushes the decision counter.
    fn run<P: Policy + ?Sized>(&mut self, policy: &mut P, horizon: u64) -> Result<(), EngineError> {
        let result = (|| {
            while self.now().saturating_add(1) < horizon && self.step(policy)? {}
            Ok(())
        })();
        if result.is_err() {
            policy.finish();
            obs::counter_add("coflow.engine.decisions", self.decisions);
        }
        result
    }

    /// Ends the run: releases the policy's resources, flushes the decision
    /// counter and samples progress one last time.
    fn wind_up<P: Policy + ?Sized>(&mut self, policy: &mut P) {
        policy.finish();
        obs::counter_add("coflow.engine.decisions", self.decisions);
        self.sample_progress(policy.name());
    }

    /// Runs one decision epoch: consults the policy and applies its
    /// decision. Returns `Ok(false)` when the run is over (all demand
    /// settled, or the policy declared [`Decision::Finished`]) and
    /// `Ok(true)` when there is more to do. A decision that would leave
    /// the clock where it is — a zero-length [`Decision::Run`], an
    /// [`Decision::Advance`] to `now` or earlier, a [`Decision::Execute`]
    /// with no slot to execute — is refused with
    /// [`SchedError::Unsupported`], since asking again would loop forever.
    pub fn step<P: Policy + ?Sized>(&mut self, policy: &mut P) -> Result<bool, EngineError> {
        if self.sim.all_settled() {
            return Ok(false);
        }
        let now = self.sim.now();
        let boundaries = self.sim.index().boundaries();
        // The fault window of slot now+1 is the count of boundaries at or
        // before it; the next boundary after now+1 ends it, and stops an
        // executed trace (the plan's end when there is none).
        let window = boundaries.partition_point(|&b| b <= now + 1);
        let stop = boundaries.get(window).copied();
        // The simulator applies a cancellation only as it enters the
        // cancelled slot, so when the plan changes state in slot now+1
        // itself (or at slot 0, before anything ran) the remaining demand a
        // policy reads may predate the change.
        let changes_next = (window > 0 && boundaries[window - 1] == now + 1)
            || (now == 0 && boundaries.first() == Some(&0));
        let decision = policy.decide(&EpochState {
            now,
            instance: self.instance,
            demand: self.sim.remaining_demand(),
            sim: &self.sim,
            next_boundary: stop.unwrap_or(u64::MAX),
            window_end: if changes_next {
                now + 1
            } else {
                stop.map_or(u64::MAX, |b| b - 1)
            },
        })?;
        self.decisions += 1;
        self.pace(policy);
        match decision {
            Decision::Execute(trace) => {
                self.plan_epoch(policy);
                // Execute until the fault state next changes (needing
                // ≥ 1 slot of progress), or to the end of the plan when
                // it never does again.
                self.sim.execute_trace(&trace, stop)?;
            }
            Decision::Run { pairs, duration } => {
                // One planning epoch per fault window entered.
                if self.last_window != Some(window) {
                    self.last_window = Some(window);
                    self.plan_epoch(policy);
                }
                self.sim.apply_run(&pairs, duration)?;
                policy.recycle(pairs);
            }
            Decision::Advance(t) if t < now => {
                return Err(EngineError::Sched(SchedError::Unsupported {
                    what: "Decision::Advance to an earlier slot",
                }));
            }
            Decision::Advance(t) => self.sim.advance_to(t),
            Decision::Finished => return Ok(false),
        }
        if self.sim.now() == now {
            return Err(EngineError::Sched(SchedError::Unsupported {
                what: "a decision that leaves the clock where it is",
            }));
        }
        Ok(true)
    }

    /// Finalizes the run: releases policy resources, flushes the decision
    /// counter, and assembles the [`FaultyOutcome`] exactly as
    /// [`run_policy_with_faults`] does.
    pub fn into_outcome<P: Policy + ?Sized>(mut self, policy: &mut P) -> FaultyOutcome {
        self.wind_up(policy);
        debug_assert!(
            self.sim.all_settled(),
            "engine: policy '{}' finished with unsettled coflows",
            policy.name()
        );
        let (executed, completions, blocked_units, blocked) = self.sim.finish();
        let objective = completions
            .iter()
            .zip(self.instance.coflows())
            .filter_map(|(c, cf)| c.map(|t| cf.weight * t as f64))
            .sum();
        FaultyOutcome {
            completions,
            executed,
            objective,
            replans: self.replans,
            tiers: self.tiers,
            blocked_units,
            blocked,
        }
    }

    /// Captures the full engine + policy state as a versioned snapshot.
    /// Fails with [`SchedError::Unsupported`] for policies that do not
    /// implement [`Policy::capture_state`].
    pub fn checkpoint<P: Policy + ?Sized>(
        &self,
        policy: &P,
    ) -> Result<super::snapshot::EngineSnapshot, SchedError> {
        let Some(policy_state) = policy.capture_state() else {
            return Err(SchedError::Unsupported {
                what: "policy does not support checkpointing",
            });
        };
        Ok(super::snapshot::EngineSnapshot {
            replans: self.replans,
            tiers: self.tiers.clone(),
            last_window: self.last_window,
            decisions: self.decisions,
            sim: self.sim.capture(),
            policy: policy_state,
        })
    }

    /// Rebuilds an engine and its policy from a snapshot, validating the
    /// snapshot against `instance`: the fabric width, the coflow count and
    /// release dates, every executed transfer (ports `< m`, coflow `< n`,
    /// at least one unit, no more units on a pair than its run lasts, runs
    /// in order), and the residual demand — only on pairs the instance
    /// demands, never above that demand, zero exactly for the coflows
    /// marked complete or cancelled. The restored pair continues
    /// bit-identically to the checkpointed run.
    pub fn restore(
        instance: &'a Instance,
        snapshot: super::snapshot::EngineSnapshot,
    ) -> Result<(Engine<'a>, Box<dyn Policy>), coflow_netsim::SnapshotError> {
        let bad = coflow_netsim::SnapshotError::new;
        let (m, n) = (instance.ports(), instance.len());
        if snapshot.sim.m != m {
            return Err(bad("snapshot fabric width disagrees with instance"));
        }
        if snapshot.sim.releases != instance.releases() {
            return Err(bad("snapshot release dates disagree with instance"));
        }
        let mut transfers = snapshot.sim.executed.runs.iter().flat_map(|r| &r.transfers);
        if let Some(t) =
            transfers.find(|t| t.src() >= m || t.dst() >= m || t.coflow() >= n || t.units == 0)
        {
            return Err(coflow_netsim::SnapshotError::new(format!(
                "executed transfer ({}, {}, coflow {}, {} units) is outside the instance",
                t.src(),
                t.dst(),
                t.coflow(),
                t.units
            )));
        }
        let policy = snapshot.policy.rebuild(instance)?;
        let sim = FaultSim::from_state(snapshot.sim)?;
        let residual = sim.remaining_demand();
        for k in 0..n {
            let demand = &instance.coflow(k).demand;
            for (i, j, units) in residual.view(k).nonzero_entries() {
                let demanded = demand.get(i, j);
                if units > demanded {
                    return Err(coflow_netsim::SnapshotError::new(format!(
                        "coflow {} has {} residual units on ({}, {}), above its demand of {}",
                        k, units, i, j, demanded
                    )));
                }
            }
        }
        Ok((
            Engine {
                instance,
                sim,
                replans: snapshot.replans,
                tiers: snapshot.tiers,
                last_window: snapshot.last_window,
                decisions: snapshot.decisions,
                releases: instance.releases(),
                last_beat: Instant::now(),
                pacer: None,
            },
            policy,
        ))
    }
}

/// Greedily matches free port pairs to candidate coflows in the given
/// priority order, scanning each candidate's dense remaining-demand
/// matrix. The slot-reactive policies compute the same matching from
/// per-coflow row runs (`FlowMatcher`, tested equal to this reference).
///
/// Scans `candidates` front to back; for each, claims every still-free
/// `(ingress, egress)` pair with remaining demand. Stops early once all `m`
/// ingresses are matched (every later claim would conflict). `src_used`/
/// `dst_used` are caller-provided scratch (cleared here) so hot loops can
/// reuse them. Returns unit moves `(src, dst, coflow)` in discovery order.
pub fn greedy_match<'a, I, F>(
    m: usize,
    candidates: I,
    remaining: F,
    src_used: &mut [bool],
    dst_used: &mut [bool],
) -> Vec<(usize, usize, usize)>
where
    I: IntoIterator<Item = usize>,
    F: Fn(usize) -> &'a IntMatrix,
{
    src_used.iter_mut().for_each(|b| *b = false);
    dst_used.iter_mut().for_each(|b| *b = false);
    let mut moves: Vec<(usize, usize, usize)> = Vec::new();
    let mut matched = 0usize;
    for k in candidates {
        if matched == m {
            break;
        }
        for (i, j, _) in remaining(k).nonzero_entries() {
            if !src_used[i] && !dst_used[j] {
                src_used[i] = true;
                dst_used[j] = true;
                matched += 1;
                moves.push((i, j, k));
            }
        }
    }
    moves
}

/// One coflow's live flows as row runs: its `(entry, egress)` pairs in
/// [`SparseDemand`] row-major order, plus one `(ingress, start, len)` run
/// per ingress port with `flows[start..start + len]` that port's row.
struct RowRuns {
    flows: Vec<(usize, usize)>,
    runs: Vec<(usize, usize, usize)>,
}

impl RowRuns {
    /// The flows of coflow `k` with units left in `demand`.
    fn new(demand: &SparseDemand, k: usize) -> Self {
        let mut flows = Vec::with_capacity(demand.entries(k).len());
        let mut runs: Vec<(usize, usize, usize)> = Vec::new();
        for e in demand.entries(k).filter(|&e| demand.units(e) > 0) {
            let (i, j) = demand.pair(e);
            match runs.last_mut() {
                Some(run) if run.0 == i => run.2 += 1,
                _ => runs.push((i, flows.len(), 1)),
            }
            flows.push((e, j));
        }
        RowRuns { flows, runs }
    }
}

/// The greedy matcher of the slot-reactive policies: [`greedy_match`]'s
/// matching computed over per-coflow row runs instead of dense `m × m`
/// scans, returned in recycled [`Decision::Run`] buffers.
///
/// A coflow's flows are taken from the executor's [`SparseDemand`] on
/// first use — its port pairs in row-major order, the order
/// `IntMatrix::nonzero_entries` yields — and grouped into one run per
/// ingress port. The scan passes over a run whose ingress is taken in one
/// step: none of its flows could be claimed. It scans a free run only up
/// to its first claim, which takes the ingress, so the rest of the run
/// could not be claimed either. Drained flows are compacted out of the
/// runs the scan reads; in the others they linger, and add 0 to
/// [`FlowMatcher::load`]. Remaining demand never grows, so the runs hold
/// every pair the coflow still has demand on, in the same order. The runs
/// are derived state: a policy rebuilt from a checkpoint takes them again
/// from the restored executor.
pub(crate) struct FlowMatcher {
    rows: Vec<Option<RowRuns>>,
    src_used: Vec<bool>,
    dst_used: Vec<bool>,
    /// Per-egress demand scratch of [`FlowMatcher::load`], zero between
    /// calls.
    col: Vec<u64>,
    /// Buffers of applied runs, handed back through [`Policy::recycle`].
    pairs_pool: Vec<(usize, usize, Vec<usize>)>,
    spare: Vec<Vec<usize>>,
}

impl FlowMatcher {
    pub(crate) fn new(instance: &Instance) -> Self {
        let m = instance.ports();
        FlowMatcher {
            rows: (0..instance.len()).map(|_| None).collect(),
            src_used: vec![false; m],
            dst_used: vec![false; m],
            col: vec![0; m],
            pairs_pool: Vec::new(),
            spare: Vec::new(),
        }
    }

    fn rows_of<'r>(
        rows: &'r mut [Option<RowRuns>],
        demand: &SparseDemand,
        k: usize,
    ) -> &'r mut RowRuns {
        rows[k].get_or_insert_with(|| RowRuns::new(demand, k))
    }

    /// Removes the settled (drained or cancelled) coflows from `coflows`
    /// and drops their runs: settled coflows are never scanned again.
    /// Returns true when any coflow was removed.
    pub(crate) fn retain_unsettled(
        &mut self,
        coflows: &mut Vec<usize>,
        state: &EpochState<'_>,
    ) -> bool {
        let before = coflows.len();
        coflows.retain(|&k| {
            let unsettled = state.remaining_total(k) > 0;
            if !unsettled {
                self.rows[k] = None;
            }
            unsettled
        });
        coflows.len() != before
    }

    /// `ρ` of coflow `k`'s remaining demand — the `load()` of
    /// `Demand::from(state.remaining_matrix(k))` — summed run by run,
    /// without allocating.
    pub(crate) fn load(&mut self, state: &EpochState<'_>, k: usize) -> u64 {
        let demand = state.remaining_demand();
        let FlowMatcher { rows, col, .. } = self;
        let RowRuns { flows, runs } = Self::rows_of(rows, demand, k);
        let mut load = 0;
        for &(_, start, len) in runs.iter() {
            let mut row = 0;
            for &(e, j) in &flows[start..start + len] {
                let r = demand.units(e);
                row += r;
                col[j] += r;
            }
            load = load.max(row);
        }
        for &(_, start, len) in runs.iter() {
            for &(_, j) in &flows[start..start + len] {
                load = load.max(col[j]);
                col[j] = 0;
            }
        }
        load
    }

    /// Greedily matches free port pairs to `candidates` in priority order,
    /// exactly as [`greedy_match`] does. Returns the matching as
    /// single-candidate run pairs, with the least remaining demand on a
    /// matched pair (`u64::MAX` when nothing matched): no matched pair can
    /// drain sooner.
    pub(crate) fn matching<I: IntoIterator<Item = usize>>(
        &mut self,
        state: &EpochState<'_>,
        candidates: I,
    ) -> (Vec<(usize, usize, Vec<usize>)>, u64) {
        let m = state.instance.ports();
        let demand = state.remaining_demand();
        let FlowMatcher {
            rows,
            src_used,
            dst_used,
            pairs_pool,
            spare,
            ..
        } = self;
        src_used.fill(false);
        dst_used.fill(false);
        let mut pairs = std::mem::take(pairs_pool);
        let mut min_remaining = u64::MAX;
        for k in candidates {
            if pairs.len() == m {
                break;
            }
            let RowRuns { flows, runs } = Self::rows_of(rows, demand, k);
            runs.retain_mut(|(i, start, len)| {
                if src_used[*i] {
                    return true;
                }
                let row = &mut flows[*start..*start + *len];
                // Keep the live flows before the first claim in place,
                // then slide the unscanned rest down behind them.
                let mut kept = 0;
                let mut scanned = 0;
                while scanned < row.len() {
                    let (e, j) = row[scanned];
                    scanned += 1;
                    let r = demand.units(e);
                    if r == 0 {
                        continue;
                    }
                    row[kept] = (e, j);
                    kept += 1;
                    if !dst_used[j] {
                        src_used[*i] = true;
                        dst_used[j] = true;
                        min_remaining = min_remaining.min(r);
                        let mut prio = spare.pop().unwrap_or_default();
                        prio.push(k);
                        pairs.push((*i, j, prio));
                        break;
                    }
                }
                if kept < scanned {
                    row.copy_within(scanned.., kept);
                    *len -= scanned - kept;
                }
                *len > 0
            });
        }
        (pairs, min_remaining)
    }

    /// Takes back an applied run's buffers (see [`Policy::recycle`]).
    pub(crate) fn recycle(&mut self, mut pairs: Vec<(usize, usize, Vec<usize>)>) {
        for (_, _, mut prio) in pairs.drain(..) {
            prio.clear();
            self.spare.push(prio);
        }
        self.pairs_pool = pairs;
    }
}

/// How long a slot-reactive policy holds a greedy matching: until the next
/// event that can change it. The matching depends only on the priority
/// order and on which pairs of active coflows still have demand, and
/// between events neither changes. The events are: a matched pair drains
/// (`min_remaining` slots at the earliest — blocked units only delay it),
/// the next coflow is released (`next_release`), or the fault window ends
/// ([`EpochState::window_end`]). Holding the matching that long schedules
/// exactly what re-matching every slot would.
pub(crate) fn hold(state: &EpochState<'_>, min_remaining: u64, next_release: u64) -> u64 {
    min_remaining
        .min(next_release - state.now)
        .min(state.window_end() - state.now)
}

// ---------------------------------------------------------------------------
// BvnBatchPolicy: the paper's batch pipeline (grouping × backfill × rematch),
// ported decision-for-decision from the legacy `execute_batches`.
// ---------------------------------------------------------------------------

/// With rematching, long runs are split into short chunks so freshly
/// drained pairs are re-matched promptly; chunking only re-plans the same
/// matching, so the paper-mode schedule is untouched.
const REMATCH_CHUNK: u64 = 4;

/// Marks a missing queue (an edge no coflow demands, an entry not yet
/// grouped) or a queue without a member at its front.
const NO_QUEUE: u32 = u32::MAX;

/// The batch currently being executed: its decomposition, the pair queue
/// of each of its edges, the pending chunk queue, and the batch's
/// eligibility horizon.
struct ActiveBatch {
    /// Each slot keeps the edges whose pair has a queue. A restored batch
    /// keeps every edge until the queues are built.
    dec: BvnDecomposition,
    /// Pair queue of each edge of `dec`, [`NO_QUEUE`] where no coflow
    /// demands the edge's pair. Empty until the queues are built: a
    /// restored batch waits for the first decision.
    edge_queue: Vec<u32>,
    chunks: std::vec::IntoIter<(usize, u64)>,
    batch_end_pos: usize,
}

/// Per-pair coflow queues in global order: candidates for service on a
/// pair, scanned front to back. One CSR over the distinct port pairs that
/// some coflow demands, in row-major order; each item is a coflow and its
/// entry in the executor's remaining demand. Built at the first decision
/// from that state, so its buffers are O(nnz + m).
struct PairQueues {
    /// The distinct demanded pairs `(i, j)`; queue `q` serves `pairs[q]`.
    pairs: Vec<(u32, u32)>,
    /// Queue `q` is `items[at[q]..at[q + 1]]`.
    at: Vec<usize>,
    items: Vec<(usize, usize)>,
    /// How far each queue's prefix of pair-finished coflows reaches:
    /// remaining demand only ever decreases, so the trim is permanent and
    /// the skipped prefix can never become a candidate again.
    head: Vec<usize>,
    /// The queue of each entry of the executor's remaining demand.
    of_entry: Vec<u32>,
    /// Units per queue while a batch is aggregated; zero between batches.
    sum: Vec<u64>,
    /// The queues a batch's aggregate touches.
    touched: Vec<u32>,
}

impl PairQueues {
    /// Groups `demand`'s entries by pair, with each pair's coflows in
    /// `order`: a stable counting sort by egress and then one by ingress
    /// list the entries row-major by pair, each pair's in global order, in
    /// O(nnz + m).
    fn build(demand: &SparseDemand, m: usize, order: &[usize]) -> Self {
        let nnz = demand.nnz();
        assert!(u32::try_from(nnz).is_ok(), "pair queue ids must fit in u32");
        let mut by_order = Vec::with_capacity(nnz);
        for &k in order {
            by_order.extend(demand.entries(k).map(|e| (k, e)));
        }
        let pair = |&(_, e): &(usize, usize)| demand.pair(e);
        let mut by_egress = vec![(0, 0); nnz];
        let mut items = vec![(0, 0); nnz];
        counting_sort(&by_order, &mut by_egress, m, |x| pair(x).1);
        counting_sort(&by_egress, &mut items, m, |x| pair(x).0);
        let mut of_entry = vec![NO_QUEUE; nnz];
        let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(nnz);
        let mut at = Vec::with_capacity(nnz + 1);
        for (x, &(_, e)) in items.iter().enumerate() {
            let (i, j) = demand.pair(e);
            let p = (i as u32, j as u32);
            if pairs.last() != Some(&p) {
                pairs.push(p);
                at.push(x);
            }
            of_entry[e] = (pairs.len() - 1) as u32;
        }
        at.push(nnz);
        pairs.shrink_to_fit();
        at.shrink_to_fit();
        PairQueues {
            head: at[..pairs.len()].to_vec(),
            sum: vec![0; pairs.len()],
            touched: Vec::new(),
            pairs,
            at,
            items,
            of_entry,
        }
    }

    /// Decomposes the batch's remaining demand, summed per pair through
    /// the entry → queue map, with the pair queue of each edge of its
    /// augmentation. Each slot keeps the edges whose pair has a queue:
    /// those some coflow demands, the batch's own or a backfill
    /// candidate's. `None` when the batch has nothing left.
    fn decompose(
        &mut self,
        demand: &SparseDemand,
        batch: &[usize],
        m: usize,
    ) -> Option<(BvnDecomposition, Vec<u32>)> {
        let PairQueues {
            pairs,
            of_entry,
            sum,
            touched,
            ..
        } = self;
        touched.clear();
        for &k in batch {
            for e in demand.entries(k) {
                let units = demand.units(e);
                let q = of_entry[e] as usize;
                if units > 0 {
                    if sum[q] == 0 {
                        touched.push(q as u32);
                    }
                    sum[q] += units;
                }
            }
        }
        if touched.is_empty() {
            return None;
        }
        // Queues are numbered row-major, so sorting them sorts the pairs.
        touched.sort_unstable();
        let entries = touched.iter().map(|&q| {
            let (i, j) = pairs[q as usize];
            (i as usize, j as usize, sum[q as usize])
        });
        // The augmentation adds at most 2m − 1 edges.
        let mut edge_queue = Vec::with_capacity(touched.len() + 2 * m);
        let dec = bvn_decompose_keeping(m, entries, |i, j| {
            let q = queue_of_pair(pairs, i, j);
            edge_queue.push(q);
            q != NO_QUEUE
        });
        for &q in touched.iter() {
            sum[q as usize] = 0;
        }
        Some((dec, edge_queue))
    }

    /// The queue of each edge of `dec`.
    fn edge_queues(&self, dec: &BvnDecomposition) -> Vec<u32> {
        let mut out = Vec::with_capacity(dec.edge_count());
        for i in 0..dec.ports() {
            out.extend(
                dec.row(i)
                    .map(|e| queue_of_pair(&self.pairs, i, dec.egress(e))),
            );
        }
        out
    }
}

/// The queue of pair `(i, j)`, [`NO_QUEUE`] when no coflow demands it: a
/// binary search of the row-major `pairs`.
fn queue_of_pair(pairs: &[(u32, u32)], i: usize, j: usize) -> u32 {
    pairs
        .binary_search(&(i as u32, j as u32))
        .map_or(NO_QUEUE, |q| q as u32)
}

/// Stable counting sort of `src` into `dst` by `key`, which is below
/// `buckets`.
fn counting_sort<T: Copy>(src: &[T], dst: &mut [T], buckets: usize, key: impl Fn(&T) -> usize) {
    let mut at = vec![0usize; buckets + 1];
    for x in src {
        at[key(x) + 1] += 1;
    }
    for b in 0..buckets {
        at[b + 1] += at[b];
    }
    for x in src {
        let slot = &mut at[key(x)];
        dst[*slot] = *x;
        *slot += 1;
    }
}

/// The batch-pipeline policy: partitions the committed order into batches,
/// waits for each batch's releases, clears its aggregated remaining demand
/// with a Birkhoff–von Neumann schedule, and (per [`ExecOptions`]) donates
/// idle capacity via same-pair backfilling or work-conserving rematching.
///
/// Scheduling state (order positions, per-pair queues with permanent
/// prefix trims, the batch in flight, spare candidate buffers) lives here;
/// the engine owns the clock and the fabric. The pair queues and the
/// per-edge arrays grow with the instance's nonzero pairs and the fabric
/// width `m`, never with `m²`. Each slot of the batch in flight stores
/// only the edges of its permutation whose pair some coflow demands: the
/// only ones a chunk can serve, by the batch or by backfilling. A batch
/// whose slots are mostly augmentation holds little more than its
/// support; one with about `m` slots of demanded edges still holds
/// `Θ(m²)` (DESIGN §5.1).
pub struct BvnBatchPolicy {
    order: Vec<usize>,
    batches: Vec<Vec<usize>>,
    opts: ExecOptions,
    /// Position of each coflow in the global order.
    pos: Vec<usize>,
    /// Built at the first decision from the executor's state.
    queues: Option<PairQueues>,
    b_idx: usize,
    current: Option<ActiveBatch>,
    /// Reused across chunks: the outer run buffer and a spare-buffer pool
    /// for the per-pair candidate lists (returned via [`Policy::recycle`]).
    pairs_pool: Vec<(usize, usize, Vec<usize>)>,
    spare: Vec<Vec<usize>>,
    src_used: Vec<bool>,
    dst_used: Vec<bool>,
    slot_order: SlotOrder,
    /// Per-batch `sched.simulate` span, held across decisions while the
    /// batch's chunks execute (kept so the obs stage taxonomy matches the
    /// legacy loop). Must be `None` before a new span is assigned.
    sim_span: Option<obs::SpanGuard>,
}

impl BvnBatchPolicy {
    /// Builds the policy for `order` partitioned into `batches`
    /// (consecutive runs of the order; every caller in this crate
    /// guarantees this).
    pub fn new(
        instance: &Instance,
        order: Vec<usize>,
        batches: Vec<Vec<usize>>,
        opts: ExecOptions,
    ) -> Self {
        let n = instance.len();
        let m = instance.ports();
        let mut pos = vec![usize::MAX; n];
        for (p, &k) in order.iter().enumerate() {
            pos[k] = p;
        }
        debug_assert!(
            pos.iter().all(|&p| p != usize::MAX),
            "order must be a permutation"
        );
        BvnBatchPolicy {
            order,
            batches,
            opts,
            pos,
            queues: None,
            b_idx: 0,
            current: None,
            pairs_pool: Vec::new(),
            spare: Vec::new(),
            src_used: vec![false; m],
            dst_used: vec![false; m],
            slot_order: SlotOrder::default(),
            sim_span: None,
        }
    }

    /// Builds the policy for `order` batched as [`super::run_with_order`]
    /// batches it: Algorithm 2's doubling groups when `grouping` is on, one
    /// coflow per batch otherwise.
    pub fn grouped(
        instance: &Instance,
        order: Vec<usize>,
        grouping: bool,
        opts: ExecOptions,
    ) -> Self {
        let batches = super::batches_of(instance, &order, grouping);
        Self::new(instance, order, batches, opts)
    }

    /// Rebuilds a checkpointed policy. Derived state is recomputed: order
    /// positions from the order the snapshot carries, the pair queues at
    /// the first decision from the restored executor. The queues' prefix
    /// trims restart at each queue's front: they are a pure scan
    /// optimization (trimmed prefixes have zero remaining demand and are
    /// filtered out either way), so decisions are unaffected. The per-batch
    /// obs span is reopened when a batch is in flight so the stage taxonomy
    /// matches an uninterrupted run. A batch in flight must be one
    /// decomposition: each slot a permutation over the augmented matrix's
    /// support, the augmented matrix Σ q·Π over its slots, its load the sum
    /// of the counts q, and each slot's pending chunks at least 1 long and
    /// totalling no more than its count. It must also be the peel a run
    /// computes: its slots and counts are the augmented matrix's
    /// decomposition with every edge kept, so a restored batch is derived
    /// from its augmented matrix. Its slots keep every edge until the
    /// queues are built.
    pub(crate) fn restore(
        instance: &Instance,
        order: Vec<usize>,
        batches: Vec<Vec<usize>>,
        opts: ExecOptions,
        b_idx: usize,
        current: Option<&super::snapshot::ActiveBatchState>,
    ) -> Result<Self, coflow_netsim::SnapshotError> {
        let bad = coflow_netsim::SnapshotError::new;
        if b_idx > batches.len() {
            return Err(bad("bvn-batch: b_idx past the last batch"));
        }
        let mut policy = BvnBatchPolicy::new(instance, order, batches, opts);
        policy.b_idx = b_idx;
        if let Some(cs) = current {
            let m = instance.ports();
            if cs.augmented.len() != m * m {
                return Err(bad("bvn-batch: augmented matrix width mismatch"));
            }
            let mut seen = vec![false; m];
            for (map, _) in &cs.slots {
                if map.len() != m {
                    return Err(bad("bvn-batch: permutation length mismatch"));
                }
                seen.fill(false);
                for &j in map {
                    if j >= m || seen[j] {
                        return Err(bad("bvn-batch: slot is not a permutation"));
                    }
                    seen[j] = true;
                }
            }
            // A slot's chunks split its count and the ones already run came
            // first, so the pending chunks fit in what the count leaves.
            let mut rest: Vec<u64> = cs.slots.iter().map(|&(_, count)| count).collect();
            for &(idx, len) in &cs.chunks {
                let Some(room) = rest.get_mut(idx) else {
                    return Err(bad("bvn-batch: chunk references a missing slot"));
                };
                if len == 0 || len > *room {
                    return Err(bad("bvn-batch: chunks do not fit their slot's count"));
                }
                *room -= len;
            }
            let counts = cs
                .slots
                .iter()
                .try_fold(0u64, |sum, &(_, count)| sum.checked_add(count));
            if counts != Some(cs.load) {
                return Err(bad("bvn-batch: load is not the sum of the slot counts"));
            }
            let augmented = IntMatrix::from_rows(m, cs.augmented.clone());
            let Some(dec) = BvnDecomposition::from_dense(&augmented, &cs.slots) else {
                return Err(bad(
                    "bvn-batch: a slot pairs ports off the augmented support",
                ));
            };
            // The count sum fits in u64 (checked above), so no entry of
            // Σ q·Π overflows.
            if !dec.is_slot_sum() {
                return Err(bad(
                    "bvn-batch: augmented matrix is not the sum of its slots",
                ));
            }
            // Σ q·Π of permutations is doubly balanced at Σ q, so it peels.
            if dec.repeeled() != dec {
                return Err(bad(
                    "bvn-batch: slots are not the peel of the augmented matrix",
                ));
            }
            policy.sim_span = Some(obs::span("sched.simulate"));
            policy.current = Some(ActiveBatch {
                dec,
                edge_queue: Vec::new(),
                chunks: cs.chunks.clone().into_iter(),
                batch_end_pos: cs.batch_end_pos,
            });
        }
        Ok(policy)
    }

    /// Plans the candidate lists for one chunk of the active batch,
    /// identically to the legacy chunk loop: per-pair queue scan with
    /// permanent head trims, eligibility gate
    /// `release <= now && (pos <= batch_end_pos || backfill)`, and — with
    /// rematching — re-matching of unused ports to pending demand in
    /// priority order.
    fn plan_chunk(
        &mut self,
        state: &EpochState<'_>,
        cur: &ActiveBatch,
        slot_idx: usize,
    ) -> Vec<(usize, usize, Vec<usize>)> {
        let instance = state.instance;
        let now = state.now;
        let backfill = self.opts.backfill;
        let rematch = self.opts.rematch;
        let batch_end_pos = cur.batch_end_pos;
        let demand = state.remaining_demand();
        let Self {
            order,
            pos,
            queues,
            pairs_pool,
            spare,
            src_used,
            dst_used,
            ..
        } = self;
        let Some(PairQueues {
            at,
            items,
            head,
            of_entry,
            ..
        }) = queues.as_mut()
        else {
            unreachable!("the queues are built at the first decision")
        };
        let eligible =
            |k: usize| instance.coflow(k).release <= now && (pos[k] <= batch_end_pos || backfill);
        let mut pairs = std::mem::take(pairs_pool);
        debug_assert!(pairs.is_empty(), "recycle must drain the run buffer");
        if rematch {
            src_used.fill(false);
            dst_used.fill(false);
        }
        for &e in cur.dec.slot(slot_idx) {
            let q = cur.edge_queue[e as usize];
            debug_assert_ne!(q, NO_QUEUE, "a slot keeps only edges with a queue");
            let q = q as usize;
            let head = &mut head[q];
            let end = at[q + 1];
            while *head < end && demand.units(items[*head].1) == 0 {
                *head += 1;
            }
            if *head == end {
                continue;
            }
            let mut candidates = spare.pop().unwrap_or_default();
            candidates.extend(
                items[*head..end]
                    .iter()
                    .filter(|&&(k, e)| eligible(k) && demand.units(e) > 0)
                    .map(|&(k, _)| k),
            );
            if candidates.is_empty() {
                spare.push(candidates);
            } else {
                let (i, j) = (cur.dec.ingress(e as usize), cur.dec.egress(e as usize));
                if rematch {
                    src_used[i] = true;
                    dst_used[j] = true;
                }
                pairs.push((i, j, candidates));
            }
        }
        if rematch {
            // Work-conserving extension: ports whose matched pair has
            // nothing to send are re-matched to pending demand, scanning
            // coflows in priority order.
            for &k in order.iter() {
                if !eligible(k) || demand.total(k) == 0 {
                    continue;
                }
                for e in demand.entries(k) {
                    let (i, j) = demand.pair(e);
                    if !src_used[i] && !dst_used[j] && demand.units(e) > 0 {
                        src_used[i] = true;
                        dst_used[j] = true;
                        let q = of_entry[e] as usize;
                        let mut candidates = spare.pop().unwrap_or_default();
                        candidates.extend(
                            items[at[q]..at[q + 1]]
                                .iter()
                                .filter(|&&(c, ce)| eligible(c) && demand.units(ce) > 0)
                                .map(|&(c, _)| c),
                        );
                        pairs.push((i, j, candidates));
                    }
                }
            }
        }
        pairs
    }
}

/// Orders a batch's BvN slots so its members complete in priority order.
/// Algorithm 1 admits any slot order (the group still clears in exactly ρ
/// slots, so Lemma 4 and Proposition 1 are untouched), but applying, for
/// each member in order, the slots that still serve it lets that member
/// finish as early as the decomposition allows instead of at the group's
/// end. Leftover slots (serving only backfill demand) run last.
///
/// A slot serves its edges' members in batch order, so each edge a member
/// still needs has a queue of the members needing it, drained from the
/// front. The queues live in one CSR layout (queue `q` owns entries
/// `start[q]..start[q + 1]`) whose buffers are reused across batches.
/// While member `b` is placed every earlier member is drained, so a slot
/// serves `b` exactly when `b` heads the queue of one of the slot's edges;
/// and `b`'s picks strictly increase, since the edges it needs only ever
/// shrink. One forward cursor per member therefore picks the slots a
/// rescan of the pending slots from the first would pick, for every pick
/// (that quadratic rescan is the reference the tests compare against).
#[derive(Default)]
struct SlotOrder {
    /// Queue of each edge of the decomposition; `NO_QUEUE` when no
    /// member needs the edge's pair.
    queue_of: Vec<u32>,
    /// Member heading the queue of each edge; `NO_QUEUE` when none.
    front_of: Vec<u32>,
    /// Edge of each queue.
    edge_of: Vec<usize>,
    /// Entry offsets of the queues (their sizes while counting).
    start: Vec<usize>,
    /// First entry of each queue with units left; entries before it are
    /// drained.
    head: Vec<usize>,
    /// Units the heading member has left on each queue's edge.
    left: Vec<u64>,
    /// Queue entries: the members needing the edge, in batch order, each
    /// with its entry on the edge's pair in the executor's remaining
    /// demand.
    member: Vec<(u32, usize)>,
    /// The queue of each member's edges and the member's entry on it,
    /// member after member.
    staged: Vec<(u32, usize)>,
    /// Edges each member still has units on.
    need: Vec<usize>,
    /// Slots already placed in the sequence.
    taken: Vec<bool>,
}

impl SlotOrder {
    /// The order in which to apply `dec`'s slots to `batch`, whose
    /// members' remaining demand lies in `dec`'s support and is covered by
    /// its slots.
    fn order(
        &mut self,
        state: &EpochState<'_>,
        batch: &[usize],
        dec: &BvnDecomposition,
    ) -> Vec<usize> {
        let demand = state.remaining_demand();
        let SlotOrder {
            queue_of,
            front_of,
            edge_of,
            start,
            head,
            left,
            member,
            staged,
            need,
            taken,
        } = self;
        queue_of.clear();
        queue_of.resize(dec.edge_count(), NO_QUEUE);
        front_of.clear();
        front_of.resize(dec.edge_count(), NO_QUEUE);
        edge_of.clear();
        start.clear();
        staged.clear();
        need.clear();
        for &k in batch {
            let before = staged.len();
            for e in demand.entries(k).filter(|&e| demand.units(e) > 0) {
                let (i, j) = demand.pair(e);
                let Some(edge) = dec.find(i, j) else {
                    unreachable!("the batch's remaining demand lies in the augmented support")
                };
                if queue_of[edge] == NO_QUEUE {
                    queue_of[edge] = edge_of.len() as u32;
                    edge_of.push(edge);
                    start.push(0);
                }
                start[queue_of[edge] as usize] += 1;
                staged.push((queue_of[edge], e));
            }
            need.push(staged.len() - before);
        }
        // Queue sizes to offsets; each queue lists its members in order.
        let mut total = 0;
        for s in start.iter_mut() {
            let len = *s;
            *s = total;
            total += len;
        }
        start.push(total);
        let queues = edge_of.len();
        head.clear();
        head.extend_from_slice(&start[..queues]);
        member.clear();
        member.resize(total, (0, 0));
        let mut staged_from = 0;
        for (b, &len) in need.iter().enumerate() {
            for &(q, e) in &staged[staged_from..staged_from + len] {
                let at = &mut head[q as usize];
                member[*at] = (b as u32, e);
                *at += 1;
            }
            staged_from += len;
        }
        head.copy_from_slice(&start[..queues]);
        // A member's units on an edge are read when it reaches the front.
        left.clear();
        for (q, &edge) in edge_of.iter().enumerate() {
            let (b, e) = member[start[q]];
            front_of[edge] = b;
            left.push(demand.units(e));
        }

        taken.clear();
        taken.resize(dec.len(), false);
        let mut sequence = Vec::with_capacity(dec.len());
        for b in 0..batch.len() {
            let mut cursor = 0;
            while need[b] > 0 {
                let serves_b = |s: usize| {
                    dec.slot(s)
                        .iter()
                        .any(|&e| front_of[e as usize] == b as u32)
                };
                while cursor < dec.len() && (taken[cursor] || !serves_b(cursor)) {
                    cursor += 1;
                }
                if cursor == dec.len() {
                    unreachable!("BvN coverage must clear every group coflow");
                }
                taken[cursor] = true;
                sequence.push(cursor);
                // The slot's service on each edge goes to the queue's
                // members in order.
                let count = dec.count(cursor);
                for &edge in dec.slot(cursor) {
                    let edge = edge as usize;
                    if queue_of[edge] == NO_QUEUE {
                        continue;
                    }
                    let q = queue_of[edge] as usize;
                    let mut budget = count;
                    while budget > 0 && head[q] < start[q + 1] {
                        let take = left[q].min(budget);
                        left[q] -= take;
                        budget -= take;
                        if left[q] == 0 {
                            need[member[head[q]].0 as usize] -= 1;
                            head[q] += 1;
                            front_of[edge] = NO_QUEUE;
                            if head[q] < start[q + 1] {
                                let (b, e) = member[head[q]];
                                front_of[edge] = b;
                                left[q] = demand.units(e);
                            }
                        }
                    }
                }
            }
        }
        sequence.extend((0..dec.len()).filter(|&s| !taken[s]));
        sequence
    }
}

/// Splits a slot sequence into `(slot index, length)` chunks in one
/// exact-size list; without rematching every slot is one chunk of its
/// full count.
fn chunk_slots(
    slot_sequence: Vec<usize>,
    dec: &BvnDecomposition,
    rematch: bool,
) -> Vec<(usize, u64)> {
    let pieces = |q: u64| {
        if rematch {
            q.div_ceil(REMATCH_CHUNK)
        } else {
            1
        }
    };
    let total: u64 = slot_sequence.iter().map(|&s| pieces(dec.count(s))).sum();
    let mut chunks = Vec::with_capacity(total as usize);
    for slot_idx in slot_sequence {
        let q = dec.count(slot_idx);
        let step = if rematch { REMATCH_CHUNK } else { q };
        let mut done = 0;
        while done < q {
            let len = step.min(q - done);
            chunks.push((slot_idx, len));
            done += len;
        }
    }
    chunks
}

impl Policy for BvnBatchPolicy {
    fn name(&self) -> &'static str {
        "bvn-batch"
    }

    fn decide(&mut self, state: &EpochState<'_>) -> Result<Decision, SchedError> {
        let instance = state.instance;
        let m = instance.ports();
        let demand = state.remaining_demand();
        if self.queues.is_none() {
            let queues = PairQueues::build(demand, m, &self.order);
            if let Some(cur) = self.current.as_mut() {
                // A restored batch keeps every edge until now.
                cur.edge_queue = queues.edge_queues(&cur.dec);
                cur.dec.retain_edges(|e| cur.edge_queue[e] != NO_QUEUE);
            }
            self.queues = Some(queues);
        }
        loop {
            // Emit the next chunk of the batch in flight, if any.
            if let Some(mut cur) = self.current.take() {
                if let Some((slot_idx, chunk_len)) = cur.chunks.next() {
                    let pairs = self.plan_chunk(state, &cur, slot_idx);
                    self.current = Some(cur);
                    return Ok(Decision::Run {
                        pairs,
                        duration: chunk_len,
                    });
                }
                // Batch done: close its simulate span before planning the
                // next one.
                self.sim_span = None;
                continue;
            }

            // Plan the next batch.
            if self.b_idx >= self.batches.len() {
                return Ok(Decision::Finished);
            }
            let b_idx = self.b_idx;
            let batch = &self.batches[b_idx];
            if batch.is_empty() {
                self.b_idx += 1;
                continue;
            }
            // Algorithm 2: schedule the group only after all members'
            // releases. Members with no remaining demand (zero-demand
            // coflows, or demand already cleared by backfilling) cannot
            // gate the group: they are complete regardless, and waiting
            // for them could only delay others.
            let batch_release = batch
                .iter()
                .filter(|&&k| state.remaining_total(k) > 0)
                .map(|&k| instance.coflow(k).release)
                .max();
            let Some(batch_release) = batch_release else {
                // Everything in this batch is already done.
                self.b_idx += 1;
                continue;
            };
            if batch_release > state.now {
                // Re-entered after the engine advances the clock; the
                // recomputation above is idempotent (no service happens
                // while idling).
                return Ok(Decision::Advance(batch_release));
            }
            let batch_end_pos = batch
                .iter()
                .map(|&k| self.pos[k])
                .max()
                .unwrap_or_else(|| unreachable!("batch checked non-empty above"));

            // Aggregate the *remaining* demand of the batch: backfilling
            // may have partially cleared it, and a cancelled member has
            // none left.
            let Some(queues) = self.queues.as_mut() else {
                unreachable!("the queues are built above")
            };
            let Some((dec, edge_queue)) = queues.decompose(demand, batch, m) else {
                self.b_idx += 1;
                continue;
            };

            let slot_sequence = self.slot_order.order(state, &self.batches[b_idx], &dec);
            if b_idx + 1 == self.batches.len() {
                // No batch is left to order: release the buffers before
                // the schedule's trace reaches its full size.
                self.slot_order = SlotOrder::default();
            }
            let chunked = chunk_slots(slot_sequence, &dec, self.opts.rematch);

            obs::counter_add("coflow.sched.batches", 1);
            debug_assert!(
                self.sim_span.is_none(),
                "simulate span must be closed between batches"
            );
            self.sim_span = Some(obs::span("sched.simulate"));
            self.current = Some(ActiveBatch {
                dec,
                edge_queue,
                chunks: chunked.into_iter(),
                batch_end_pos,
            });
            self.b_idx += 1;
        }
    }

    fn final_order(&self, _completions: &[u64]) -> Vec<usize> {
        self.order.clone()
    }

    fn recycle(&mut self, mut pairs: Vec<(usize, usize, Vec<usize>)>) {
        // Recycle the chunk's candidate buffers and the outer run buffer
        // instead of reallocating them per pair per chunk.
        for (_, _, mut buf) in pairs.drain(..) {
            buf.clear();
            self.spare.push(buf);
        }
        self.pairs_pool = pairs;
    }

    fn finish(&mut self) {
        self.sim_span = None;
    }

    /// The batch in flight is written densely, as `coflow-snapshot/1`
    /// stores it: the augmented matrix row-major and each slot's full
    /// ingress → egress map. The slots keep only demanded edges, so the
    /// maps come from peeling the augmented matrix again with every edge
    /// kept: the same slots, in the same order, with the same counts.
    fn capture_state(&self) -> Option<super::snapshot::PolicyState> {
        let current = self.current.as_ref().map(|cur| {
            let full = cur.dec.repeeled();
            debug_assert_eq!(full.len(), cur.dec.len(), "the peel is deterministic");
            super::snapshot::ActiveBatchState {
                augmented: cur.dec.to_matrix().as_slice().to_vec(),
                slots: (0..full.len())
                    .map(|s| {
                        let map = full.slot_pairs(s).map(|(_, j)| j).collect();
                        (map, full.count(s))
                    })
                    .collect(),
                load: cur.dec.load(),
                chunks: cur.chunks.as_slice().to_vec(),
                batch_end_pos: cur.batch_end_pos,
            }
        });
        Some(super::snapshot::PolicyState::BvnBatch {
            order: self.order.clone(),
            batches: self.batches.clone(),
            opts: self.opts,
            b_idx: self.b_idx,
            current,
        })
    }
}

// ---------------------------------------------------------------------------
// OnlineRhoPolicy: the online ρ/w-priority scheduler.
// ---------------------------------------------------------------------------

/// The online scheduler: maintains a priority order over *released,
/// unfinished* coflows by the Smith-style ratio `ρ(remaining) / weight`
/// (the online analogue of `H_ρ`) and serves a greedy matching in priority
/// order, held until the next event that can change it (`hold`). The
/// order is re-sorted whenever a coflow arrives or completes: every slot
/// drains the remaining loads, and a completion is when the head of the
/// order can change. Never looks at coflows before their release dates,
/// so its decisions are legitimately online — which also makes it safe to
/// run under fault injection: it replans from live state at every
/// decision.
pub struct OnlineRhoPolicy {
    weights: Vec<f64>,
    /// Arrival events in time order.
    events: Vec<(u64, usize)>,
    next_event: usize,
    active: Vec<usize>,
    /// Re-sort scratch: `(ρ(remaining)/w, coflow)` per active coflow.
    keys: Vec<(f64, usize)>,
    matcher: FlowMatcher,
}

impl OnlineRhoPolicy {
    /// Rebuilds a checkpointed policy: the event list is recomputed from
    /// the instance (it is a pure function of the release dates); the
    /// admission cursor and the active set — in their current priority
    /// order, which a rebuild could not reproduce from drained loads — come
    /// from the snapshot.
    pub(crate) fn restore(
        instance: &Instance,
        next_event: usize,
        active: Vec<usize>,
    ) -> Result<Self, coflow_netsim::SnapshotError> {
        let bad = coflow_netsim::SnapshotError::new;
        if next_event > instance.len() {
            return Err(bad("online-rho: admission cursor past the last event"));
        }
        if active.iter().any(|&k| k >= instance.len()) {
            return Err(bad("online-rho: active set references a missing coflow"));
        }
        let mut policy = OnlineRhoPolicy::new(instance);
        policy.next_event = next_event;
        policy.active = active;
        Ok(policy)
    }

    /// Builds the policy over the instance's arrival events.
    pub fn new(instance: &Instance) -> Self {
        let n = instance.len();
        let mut events: Vec<(u64, usize)> = instance.releases().iter().copied().zip(0..n).collect();
        events.sort_unstable();
        OnlineRhoPolicy {
            weights: instance.weights(),
            events,
            next_event: 0,
            active: Vec::new(),
            keys: Vec::new(),
            matcher: FlowMatcher::new(instance),
        }
    }
}

impl Policy for OnlineRhoPolicy {
    fn name(&self) -> &'static str {
        "online-rho"
    }

    fn decide(&mut self, state: &EpochState<'_>) -> Result<Decision, SchedError> {
        let now = state.now;
        // Coflows drained (or cancelled) since the previous decision leave
        // the active set, which also refreshes the priorities.
        let completed = self.matcher.retain_unsettled(&mut self.active, state);
        // Admit arrivals with release <= now (servable from slot now+1 on).
        let mut admitted = false;
        while self.next_event < self.events.len() && self.events[self.next_event].0 <= now {
            let k = self.events[self.next_event].1;
            self.next_event += 1;
            if state.remaining_total(k) > 0 {
                self.active.push(k);
                admitted = true;
            }
        }
        if admitted || completed {
            // One key per coflow per re-sort. The id tie-break makes the
            // order total, so the unstable sort is deterministic.
            self.keys.clear();
            for &k in &self.active {
                let key = self.matcher.load(state, k) as f64 / self.weights[k];
                self.keys.push((key, k));
            }
            self.keys
                .sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            self.active.clear();
            self.active.extend(self.keys.iter().map(|&(_, k)| k));
        }
        if self.active.is_empty() {
            if self.next_event == self.events.len() {
                // Nothing active and nothing to come: every coflow is
                // drained (complete or cancelled).
                return Ok(Decision::Finished);
            }
            // Idle until the next arrival.
            return Ok(Decision::Advance(self.events[self.next_event].0));
        }
        let (pairs, min_remaining) = self.matcher.matching(state, self.active.iter().copied());
        debug_assert!(!pairs.is_empty(), "active coflows must be servable");
        // Admission consumed every release at or before `now`.
        let next_release = self
            .events
            .get(self.next_event)
            .map_or(u64::MAX, |&(r, _)| r);
        Ok(Decision::Run {
            pairs,
            duration: hold(state, min_remaining, next_release),
        })
    }

    fn recycle(&mut self, pairs: Vec<(usize, usize, Vec<usize>)>) {
        self.matcher.recycle(pairs);
    }

    fn capture_state(&self) -> Option<super::snapshot::PolicyState> {
        Some(super::snapshot::PolicyState::OnlineRho {
            next_event: self.next_event,
            active: self.active.clone(),
        })
    }
}

// ---------------------------------------------------------------------------
// ResilientPolicy: plan-ahead recovery via the H_LP → H_ρ → H_A chain.
// ---------------------------------------------------------------------------

/// The recovery policy: at each planning epoch, builds the residual
/// instance (live coflows, remaining demand, releases clamped to now) and
/// plans it like [`super::resilient::run_resilient`] — degrading
/// `H_LP → H_ρ → H_A` under the configured solver budgets — then hands the
/// planned trace to the engine to execute until the fault state next
/// changes. Planning stops at that boundary
/// ([`EpochState::next_boundary`]): the slots it leaves out would never be
/// executed, and the planning run is causal, so the slots it keeps are
/// exactly the full plan's. This is the legacy recovery epoch loop,
/// expressed as a policy; under the empty plan ([`run_policy`]) it plans
/// the whole instance once and executes that plan.
pub struct ResilientPolicy {
    spec: AlgorithmSpec,
    lp_opts: SimplexOptions,
    last_tier: usize,
}

impl ResilientPolicy {
    /// Builds the policy for the given grid cell and solver budgets.
    pub fn new(spec: AlgorithmSpec, lp_opts: SimplexOptions) -> Self {
        ResilientPolicy {
            spec,
            lp_opts,
            last_tier: 0,
        }
    }

    /// Shrinks the solver budgets by `factor` (watchdog retry path). The
    /// scaled budgets persist — and are checkpointed — so a restored run
    /// retries under the same pressure it was under when interrupted.
    pub fn scale_budgets(&mut self, factor: f64) {
        self.lp_opts = self.lp_opts.with_scaled_budgets(factor);
    }

    /// Rebuilds a checkpointed policy (planning is stateless beyond the
    /// last reported tier).
    pub(crate) fn restore(spec: AlgorithmSpec, lp_opts: SimplexOptions, last_tier: usize) -> Self {
        ResilientPolicy {
            spec,
            lp_opts,
            last_tier,
        }
    }
}

/// The instance a `resilient` replan plans: live coflows with their
/// remaining demand, released no earlier than the current slot so the
/// planned trace lands strictly in the future, and the original index of
/// each. Coflow ids are preserved so H_A stays the trace arrival order
/// across replans. `None` when no coflow has demand left.
fn residual_instance(state: &EpochState<'_>) -> Option<(Instance, Vec<usize>)> {
    let _span = obs::span("sched.residual");
    let instance = state.instance;
    let mut residual_to_orig = Vec::new();
    let mut residual = Vec::new();
    for (k, c) in instance.coflows().iter().enumerate() {
        if state.is_cancelled(k) || state.remaining_total(k) == 0 {
            continue;
        }
        residual_to_orig.push(k);
        residual.push(
            Coflow::new(c.id, state.remaining_matrix(k))
                .with_weight(c.weight)
                .with_release(c.release.max(state.now)),
        );
    }
    (!residual.is_empty()).then(|| (Instance::new(instance.ports(), residual), residual_to_orig))
}

impl Policy for ResilientPolicy {
    fn name(&self) -> &'static str {
        "resilient"
    }

    fn tier(&self) -> usize {
        self.last_tier
    }

    fn decide(&mut self, state: &EpochState<'_>) -> Result<Decision, SchedError> {
        let Some((residual_instance, residual_to_orig)) = residual_instance(state) else {
            // Nothing left to serve, but some coflow is still pending a
            // future cancellation — step the clock to settle it.
            return Ok(Decision::Advance(state.now + 1));
        };
        // The engine executes the plan only up to the next fault boundary,
        // so planning stops there too.
        let (mut trace, tier) = plan_resilient_until(
            &residual_instance,
            &self.spec,
            &self.lp_opts,
            state.next_boundary(),
        );
        self.last_tier = tier;

        // The planner numbers coflows by residual index; map back.
        for run in &mut trace.runs {
            for t in run.transfers.iter_mut() {
                let k = residual_to_orig[t.coflow()];
                let Some(mapped) = Transfer::new(t.src(), t.dst(), k, t.units) else {
                    return Err(SchedError::Unsupported {
                        what: "coflow index does not fit in a transfer",
                    });
                };
                *t = mapped;
            }
        }
        Ok(Decision::Execute(trace))
    }

    fn capture_state(&self) -> Option<super::snapshot::PolicyState> {
        Some(super::snapshot::PolicyState::Resilient {
            spec: self.spec,
            lp_opts: self.lp_opts.clone(),
            last_tier: self.last_tier,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coflow::Demand;
    use crate::instance::Instance;
    use coflow_matching::{bvn_decompose, IntMatrix};
    use proptest::prelude::*;

    fn inst() -> Instance {
        let c0 = Coflow::new(0, IntMatrix::from_nested(&[[3, 1], [0, 2]])).with_weight(2.0);
        let c1 = Coflow::new(1, IntMatrix::from_nested(&[[1, 4], [2, 0]]));
        let c2 = Coflow::new(2, IntMatrix::from_nested(&[[0, 0], [5, 1]]))
            .with_weight(0.5)
            .with_release(3);
        Instance::new(2, vec![c0, c1, c2])
    }

    #[test]
    fn decisions_that_leave_the_clock_are_refused() {
        /// Answers every decision with the same kind of stalled one.
        struct Stall(u8);
        impl Policy for Stall {
            fn name(&self) -> &'static str {
                "stall"
            }
            fn decide(&mut self, state: &EpochState<'_>) -> Result<Decision, SchedError> {
                Ok(match self.0 {
                    0 => Decision::Execute(ScheduleTrace::new(state.instance.ports())),
                    1 => Decision::Run {
                        pairs: vec![(0, 0, vec![0])],
                        duration: 0,
                    },
                    _ => Decision::Advance(state.now),
                })
            }
        }
        for kind in 0..3 {
            let err = run_policy(&inst(), &mut Stall(kind)).unwrap_err();
            assert!(
                matches!(err, SchedError::Unsupported { .. }),
                "{kind}: {err}"
            );
            let plan = FaultPlan::default();
            let err = run_policy_with_faults(&inst(), &mut Stall(kind), &plan).unwrap_err();
            assert!(
                matches!(err, EngineError::Sched(SchedError::Unsupported { .. })),
                "{kind}: {err}"
            );
        }
    }

    #[test]
    fn greedy_match_respects_port_exclusivity_and_order() {
        let a = IntMatrix::from_nested(&[[1, 1], [0, 0]]);
        let b = IntMatrix::from_nested(&[[1, 0], [0, 1]]);
        let mats = [a, b];
        let mut src = vec![false; 2];
        let mut dst = vec![false; 2];
        let moves = greedy_match(2, [0usize, 1], |k| &mats[k], &mut src, &mut dst);
        // Coflow 0 claims (0,0); its (0,1) conflicts on the ingress; coflow
        // 1 then claims (1,1).
        assert_eq!(moves, vec![(0, 0, 0), (1, 1, 1)]);
    }

    /// The slot ordering [`SlotOrder`] replaced, kept as its reference:
    /// for each member in order, rescan the pending slots from the first
    /// for one covering a pair the member still needs, and account every
    /// picked slot's service against dense per-member remainders.
    fn order_slots_reference(
        state: &EpochState<'_>,
        batch: &[usize],
        dec: &BvnDecomposition,
    ) -> Vec<usize> {
        let instance = state.instance;
        let mut slot_sequence: Vec<usize> = Vec::with_capacity(dec.len());
        let mut pending: Vec<usize> = (0..dec.len()).collect();
        let mut rem: Vec<IntMatrix> = batch
            .iter()
            .map(|&k| {
                let mut r = IntMatrix::zeros(instance.ports());
                for (i, j, _) in instance.coflow(k).demand.nonzero_entries() {
                    r[(i, j)] = state.remaining(k, i, j);
                }
                r
            })
            .collect();
        for member in 0..batch.len() {
            while !rem[member].is_zero() {
                let found = pending
                    .iter()
                    .position(|&s| dec.slot_pairs(s).any(|(i, j)| rem[member][(i, j)] > 0));
                let Some(p_idx) = found else {
                    unreachable!("BvN coverage must clear every group coflow")
                };
                let s = pending.remove(p_idx);
                let q = dec.count(s);
                for (i, j) in dec.slot_pairs(s) {
                    let mut budget = q;
                    for r in rem.iter_mut() {
                        if budget == 0 {
                            break;
                        }
                        let take = r[(i, j)].min(budget);
                        r[(i, j)] -= take;
                        budget -= take;
                    }
                }
                slot_sequence.push(s);
            }
        }
        slot_sequence.extend(pending);
        slot_sequence
    }

    /// SplitMix64 finalizer: a deterministic shuffle key.
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// One batch-ordering case: fabric width, each member's full demand
    /// and how it was drained, plus a seed for the batch order and the
    /// decomposition's slot order and extra slots.
    type SlotOrderCase = (usize, Vec<(Vec<u64>, Vec<u64>, u8)>, u64, usize);

    fn slot_order_case() -> impl Strategy<Value = SlotOrderCase> {
        (1usize..7, 1usize..7).prop_flat_map(|(m, n)| {
            (
                Just(m),
                proptest::collection::vec(
                    (
                        proptest::collection::vec(0u64..7, m * m),
                        proptest::collection::vec(0u64..4, m * m),
                        0u8..4,
                    ),
                    n,
                ),
                any::<u64>(),
                0usize..3,
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// The one-pass ordering emits the reference's slot sequence on
        /// random batches — members with no demand or already drained,
        /// partly drained remainders (what backfilling leaves), single
        /// members — over their remainders' BvN decomposition with its
        /// slots shuffled and unneeded slots appended, and again on a
        /// prefix of the batch with the same buffers.
        #[test]
        fn slot_order_matches_the_quadratic_reference(case in slot_order_case()) {
            let (m, members, seed, extra) = case;
            let n = members.len();
            let mut coflows = Vec::with_capacity(n);
            let mut remaining = Vec::with_capacity(n);
            for (k, (data, drain, mode)) in members.into_iter().enumerate() {
                // Mode 0: no demand; 1: fully drained; 2: untouched;
                // 3: partly drained.
                let full: Vec<u64> = data
                    .iter()
                    .map(|&d| if mode == 0 { 0 } else { d.saturating_sub(2) })
                    .collect();
                let rem: Vec<u64> = full
                    .iter()
                    .zip(&drain)
                    .map(|(&f, &d)| match mode {
                        1 => 0,
                        3 => f.saturating_sub(d),
                        _ => f,
                    })
                    .collect();
                coflows.push(Coflow::new(k, IntMatrix::from_rows(m, full)));
                remaining.push(IntMatrix::from_rows(m, rem));
            }
            let instance = Instance::new(m, coflows);
            let left: Vec<Demand> = remaining.iter().map(Demand::from).collect();
            let sim = FaultSim::new(m, &left, &vec![0; n], FaultPlan::default());
            let state = EpochState {
                now: 0,
                instance: &instance,
                demand: sim.remaining_demand(),
                sim: &sim,
                next_boundary: u64::MAX,
                window_end: u64::MAX,
            };
            let mut batch: Vec<usize> = (0..n).collect();
            batch.sort_by_key(|&k| mix(seed ^ k as u64));
            let mut agg = IntMatrix::zeros(m);
            for r in &remaining {
                for (i, j, v) in r.nonzero_entries() {
                    agg[(i, j)] += v;
                }
            }
            // The decomposition's slots, shuffled, then unneeded slots
            // appended: random permutations folded into the augmented
            // matrix, so the slots are edges of its support.
            let dec = bvn_decompose(m, agg.nonzero_entries());
            let mut keyed: Vec<(u64, (Vec<usize>, u64))> = (0..dec.len())
                .map(|s| {
                    let map = dec.slot_pairs(s).map(|(_, j)| j).collect();
                    (mix(seed.rotate_left(17) ^ s as u64), (map, dec.count(s)))
                })
                .collect();
            keyed.sort_by_key(|(key, _)| *key);
            let mut slots: Vec<(Vec<usize>, u64)> =
                keyed.into_iter().map(|(_, slot)| slot).collect();
            let mut augmented = dec.to_matrix();
            for e in 0..extra as u64 {
                let mut map: Vec<usize> = (0..m).collect();
                map.sort_by_key(|&i| mix(seed ^ (e << 32) ^ i as u64));
                let count = 1 + mix(seed ^ e) % 3;
                for (i, &j) in map.iter().enumerate() {
                    augmented[(i, j)] += count;
                }
                slots.push((map, count));
            }
            let Some(dec) = BvnDecomposition::from_dense(&augmented, &slots) else {
                unreachable!("every slot lies in the augmented support")
            };
            prop_assert!(dec.is_slot_sum());
            let mut order = SlotOrder::default();
            prop_assert_eq!(
                order.order(&state, &batch, &dec),
                order_slots_reference(&state, &batch, &dec)
            );
            let prefix = &batch[..n.div_ceil(2)];
            prop_assert_eq!(
                order.order(&state, prefix, &dec),
                order_slots_reference(&state, prefix, &dec)
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// The queues are what a stable sort of the entries by pair would
        /// give: the demanded pairs row-major, each pair's coflows in
        /// global order, and every entry's queue.
        #[test]
        fn pair_queues_match_a_stable_sort_by_pair(case in matcher_case()) {
            let (m, coflows, seed) = case;
            let coflows = coflows
                .into_iter()
                .enumerate()
                .map(|(k, (data, _))| {
                    let d: Vec<u64> = data.iter().map(|&v| v.saturating_sub(4)).collect();
                    Coflow::new(k, IntMatrix::from_rows(m, d))
                })
                .collect();
            let instance = Instance::new(m, coflows);
            let demand = &SparseDemand::new(m, instance.demands());
            let mut order: Vec<usize> = (0..instance.len()).collect();
            order.sort_by_key(|&k| mix(seed ^ k as u64));
            let mut keyed: Vec<((usize, usize), usize, usize, usize)> = order
                .iter()
                .enumerate()
                .flat_map(|(rank, &k)| demand.entries(k).map(move |e| (demand.pair(e), rank, k, e)))
                .collect();
            keyed.sort_unstable();
            let q = PairQueues::build(demand, m, &order);
            let items: Vec<(usize, usize)> = keyed.iter().map(|&(_, _, k, e)| (k, e)).collect();
            prop_assert_eq!(&q.items, &items);
            let mut pairs: Vec<(u32, u32)> =
                keyed.iter().map(|&((i, j), ..)| (i as u32, j as u32)).collect();
            pairs.dedup();
            prop_assert_eq!(&q.pairs, &pairs);
            prop_assert_eq!(q.at.len(), pairs.len() + 1);
            for (p, &(i, j)) in pairs.iter().enumerate() {
                for &(_, e) in &q.items[q.at[p]..q.at[p + 1]] {
                    prop_assert_eq!(demand.pair(e), (i as usize, j as usize));
                    prop_assert_eq!(q.of_entry[e] as usize, p);
                }
            }
        }
    }

    /// One matcher case: fabric width, each coflow's demand and release,
    /// and a seed for the decisions' candidate orders, holds and
    /// cancellations.
    type MatcherCase = (usize, Vec<(Vec<u64>, u64)>, u64);

    fn matcher_case() -> impl Strategy<Value = MatcherCase> {
        (1usize..13, 1usize..7).prop_flat_map(|(m, n)| {
            (
                Just(m),
                proptest::collection::vec((proptest::collection::vec(0u64..9, m * m), 0u64..6), n),
                any::<u64>(),
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Drains random instances decision by decision — several flows
        /// per ingress, staggered releases, the candidate order re-sorted
        /// at random with coflows dropped from it, random holds that may
        /// outlast the least remaining demand, random cancellations — and
        /// at every decision holds the row-run matcher to the dense
        /// references: the same matching as [`greedy_match`], the least
        /// remaining demand on a matched pair as its drain bound, and the
        /// dense `load()` of every live coflow, before and after the scan
        /// compacts its runs.
        #[test]
        fn flow_matcher_matches_the_dense_references(case in matcher_case()) {
            let (m, coflows, seed) = case;
            let n = coflows.len();
            let coflows = coflows
                .into_iter()
                .enumerate()
                .map(|(k, (data, release))| {
                    let d: Vec<u64> = data.iter().map(|&v| v.saturating_sub(3)).collect();
                    Coflow::new(k, IntMatrix::from_rows(m, d)).with_release(release)
                })
                .collect();
            let instance = Instance::new(m, coflows);
            let mut demand = SparseDemand::new(m, instance.demands());
            let mut matcher = FlowMatcher::new(&instance);
            let (mut src, mut dst) = (vec![false; m], vec![false; m]);
            let mut z = seed;
            let mut draw = |bound: u64| {
                z = mix(z);
                z % bound
            };
            let quiet = FaultSim::new(m, instance.demands(), &instance.releases(), FaultPlan::default());
            let mut pool: Vec<usize> = (0..n).collect();
            let mut now = 0;
            for _ in 0..4000 {
                let state = EpochState {
                    now,
                    instance: &instance,
                    demand: &demand,
                    sim: &quiet,
                    next_boundary: u64::MAX,
                    window_end: u64::MAX,
                };
                matcher.retain_unsettled(&mut pool, &state);
                if pool.is_empty() {
                    break;
                }
                if draw(2) == 0 {
                    let salt = draw(u64::MAX);
                    pool.sort_by_key(|&k| mix(salt ^ k as u64));
                }
                let candidates: Vec<usize> = pool
                    .iter()
                    .copied()
                    .filter(|&k| instance.coflow(k).release <= now && draw(4) != 0)
                    .collect();
                let dense_load = |k: usize| Demand::from(state.remaining_matrix(k)).load();
                for &k in &candidates {
                    prop_assert_eq!(matcher.load(&state, k), dense_load(k));
                }
                let rem: Vec<IntMatrix> =
                    (0..n).map(|k| state.remaining_matrix(k).to_matrix()).collect();
                let dense =
                    greedy_match(m, candidates.iter().copied(), |k| &rem[k], &mut src, &mut dst);
                let (pairs, min_remaining) = matcher.matching(&state, candidates.iter().copied());
                let held: Vec<(usize, usize, usize)> =
                    pairs.iter().map(|(i, j, prio)| (*i, *j, prio[0])).collect();
                prop_assert_eq!(&held, &dense);
                let least = dense.iter().map(|&(i, j, k)| state.remaining(k, i, j)).min();
                prop_assert_eq!(min_remaining, least.unwrap_or(u64::MAX));
                for &k in &pool {
                    prop_assert_eq!(matcher.load(&state, k), dense_load(k));
                }
                matcher.recycle(pairs);
                let hold = if held.is_empty() { 1 } else { 1 + draw(min_remaining + 1) };
                for &(i, j, k) in &held {
                    let Some(e) = demand.find(k, i, j) else {
                        unreachable!("a matched pair is one of the coflow's entries")
                    };
                    let take = demand.units(e).min(hold);
                    demand.take(k, e, take);
                }
                if draw(8) == 0 {
                    let k = pool[draw(pool.len() as u64) as usize];
                    demand.clear(k);
                }
                now += hold;
            }
            prop_assert!(pool.is_empty(), "the instance did not drain");
        }
    }

    #[test]
    fn epoch_state_reports_environment() {
        let instance = inst();
        /// Records the fault window each decision saw.
        struct Probe {
            windows: Vec<(u64, u64)>,
        }
        impl Policy for Probe {
            fn name(&self) -> &'static str {
                "probe"
            }
            fn decide(&mut self, state: &EpochState<'_>) -> Result<Decision, SchedError> {
                self.windows
                    .push((state.next_boundary(), state.window_end()));
                // Serve everything via a trivial greedy sweep.
                let n = state.instance.len();
                let m = state.instance.ports();
                let mut src = vec![false; m];
                let mut dst = vec![false; m];
                let rem: Vec<IntMatrix> = (0..n)
                    .map(|k| state.remaining_matrix(k).to_matrix())
                    .collect();
                let moves = greedy_match(
                    m,
                    (0..n).filter(|&k| {
                        state.remaining_total(k) > 0
                            && state.instance.coflow(k).release <= state.now
                    }),
                    |k| &rem[k],
                    &mut src,
                    &mut dst,
                );
                if moves.is_empty() {
                    return Ok(Decision::Advance(state.now + 1));
                }
                Ok(Decision::Run {
                    pairs: moves.into_iter().map(|(i, j, k)| (i, j, vec![k])).collect(),
                    duration: 1,
                })
            }
        }
        // Under the empty plan no boundary is ever left.
        let unbounded = |probe: &Probe| probe.windows.iter().all(|&w| w == (u64::MAX, u64::MAX));
        let mut probe = Probe {
            windows: Vec::new(),
        };
        let out = run_policy(&instance, &mut probe).expect("probe policy runs clean");
        assert!(unbounded(&probe));
        assert!(out.completions.iter().all(|&c| c > 0));

        let mut probe = Probe {
            windows: Vec::new(),
        };
        let fault_out = run_policy_with_faults(&instance, &mut probe, &FaultPlan::default())
            .expect("probe policy runs under the (empty) fault plan");
        assert!(unbounded(&probe));
        assert_eq!(fault_out.replans, 1, "quiet plan charges exactly one epoch");
        assert!(fault_out.completions.iter().all(Option::is_some));
    }

    #[test]
    fn pacer_first_decision_always_beats() {
        let pacer = HeartbeatPacer::default();
        assert!(pacer.due(1));
    }

    #[test]
    fn pacer_backs_off_on_fast_beats() {
        let mut pacer = HeartbeatPacer::default();
        assert_eq!(pacer.stride(), 128);
        pacer.beat(1, 1.0); // far below FAST_MS
        assert_eq!(pacer.stride(), 256);
        assert!(!pacer.due(128));
        assert!(pacer.due(257));
        // Repeated fast beats saturate at the ceiling.
        let mut d = 257;
        for _ in 0..20 {
            pacer.beat(d, 1.0);
            d += pacer.stride();
        }
        assert_eq!(pacer.stride(), HeartbeatPacer::MAX_STRIDE);
    }

    #[test]
    fn pacer_speeds_up_on_slow_beats() {
        let mut pacer = HeartbeatPacer::default();
        pacer.beat(1, 5000.0); // past SLOW_MS
        assert_eq!(pacer.stride(), 64);
        for i in 0..20 {
            pacer.beat(i, 5000.0);
        }
        assert_eq!(pacer.stride(), HeartbeatPacer::MIN_STRIDE);
    }

    #[test]
    fn pacer_holds_stride_in_the_target_band() {
        let mut pacer = HeartbeatPacer::default();
        pacer.beat(1, 500.0); // between FAST_MS and SLOW_MS
        assert_eq!(pacer.stride(), 128);
        assert!(pacer.due(129));
    }

    #[test]
    fn pacer_skip_advances_without_adapting() {
        let mut pacer = HeartbeatPacer::default();
        pacer.skip(1);
        assert_eq!(pacer.stride(), 128);
        assert!(!pacer.due(2));
        assert!(pacer.due(129));
    }
}
