//! The four workloads: which registry policy runs, on which generated
//! instances, under which fault plan.

use coflow::Instance;
use coflow_netsim::FaultPlan;
use coflow_workloads::{assign_weights, generate_trace, TraceConfig, WeightScheme};

/// Fault rate of the fault workloads: the repo's canonical 20% plan.
const FAULT_RATE: f64 = 0.20;

/// Offset from an instance seed to its fault-plan seed (the repo's
/// rate-0.20 convention, so the plan is not a function of the trace RNG).
const FAULT_SEED_OFFSET: u64 = 20;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Algorithm 2 (`bvn-batch`) on the paper's §4.1 setting: 150×150
    /// Facebook-like trace, zero releases. LP build and batch BvN.
    OfflineAlg2,
    /// The `online` ρ/w policy on Poisson arrivals (60 ports, 100
    /// coflows): a decision every slot on the clean `Fabric`, no LP, no BvN.
    OnlineArrivals,
    /// The `resilient` replanner under a rate-0.20 fault plan (30 ports,
    /// 100 arrival coflows): repeated residual LP solves, BvN, and
    /// run-length `FaultSim` execution.
    ResilientFaults,
    /// The `online` policy on the `resilient-faults` instances and plans:
    /// slot-by-slot `FaultSim` stepping and the faulted replay check.
    OnlineFaults,
}

/// One generated input: the instance and, for fault workloads, its plan.
pub(crate) struct Case {
    /// Seed the case was generated from.
    pub(crate) seed: u64,
    /// The coflow instance.
    pub(crate) instance: Instance,
    /// Fault plan (fault workloads only).
    pub(crate) plan: Option<FaultPlan>,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::OfflineAlg2,
        Workload::OnlineArrivals,
        Workload::ResilientFaults,
        Workload::OnlineFaults,
    ];

    /// Stable name, as in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OfflineAlg2 => "offline-alg2",
            Workload::OnlineArrivals => "online-arrivals",
            Workload::ResilientFaults => "resilient-faults",
            Workload::OnlineFaults => "online-faults",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Registry name of the policy under test.
    pub(crate) fn policy(self) -> &'static str {
        match self {
            Workload::OfflineAlg2 => "bvn-batch",
            Workload::OnlineArrivals | Workload::OnlineFaults => "online",
            Workload::ResilientFaults => "resilient",
        }
    }

    /// Schedules measured per requested second. Calibrated on the
    /// reference host (see `host`) so the measured loop — generation,
    /// schedules, checks — lasts about `--seconds`; fixed, so a run's work
    /// depends only on the seed and `--seconds`, never on the speed of the
    /// code under test.
    fn schedules_per_second(self) -> f64 {
        match self {
            Workload::OfflineAlg2 => 6.0,
            Workload::OnlineArrivals => 12.0,
            Workload::ResilientFaults => 6.4,
            Workload::OnlineFaults => 19.0,
        }
    }

    /// Distinct instances a run of `seconds` measures: every instance is
    /// scheduled twice, and a run measures at least two.
    pub(crate) fn instances(self, seconds: f64) -> usize {
        ((seconds * self.schedules_per_second() / 2.0).round() as usize).max(2)
    }

    fn trace_config(self, seed: u64) -> TraceConfig {
        // The repo's canonical arrivals parameters (mean gap 40 slots,
        // flows capped at 128 MB) for every workload with releases. Per-
        // instance cost varies by a CV of 0.2–0.3 across seeds, so the
        // arrival workloads use fabrics small enough for a run to average
        // over a hundred or more instances (see README.md, "Why these
        // sizes").
        let arrivals = |ports, num_coflows| TraceConfig {
            ports,
            num_coflows,
            seed,
            zero_release: false,
            mean_interarrival: 40.0,
            max_flow_size: 128,
            ..TraceConfig::default()
        };
        match self {
            Workload::OfflineAlg2 => TraceConfig {
                ports: 150,
                num_coflows: 150,
                seed,
                ..TraceConfig::default()
            },
            Workload::OnlineArrivals => arrivals(60, 100),
            Workload::ResilientFaults | Workload::OnlineFaults => arrivals(30, 100),
        }
    }

    /// True for the workloads that run under a fault plan.
    fn faulted(self) -> bool {
        matches!(self, Workload::ResilientFaults | Workload::OnlineFaults)
    }

    /// Generates the input of seed `seed`: same seed, same case.
    pub(crate) fn generate(self, seed: u64) -> Case {
        let instance = assign_weights(
            &generate_trace(&self.trace_config(seed)),
            WeightScheme::RandomPermutation { seed },
        );
        let plan = self.faulted().then(|| {
            FaultPlan::generate(
                instance.ports(),
                instance.len(),
                plan_horizon(&instance),
                FAULT_RATE,
                seed.wrapping_add(FAULT_SEED_OFFSET),
            )
        });
        Case {
            seed,
            instance,
            plan,
        }
    }
}

/// Fault-plan horizon: the last release plus the busiest port's load of the
/// summed demand — a schedule-free estimate of when the fabric drains.
fn plan_horizon(instance: &Instance) -> u64 {
    let last_release = instance.releases().into_iter().max().unwrap_or(0);
    let busiest = instance
        .ingress_loads()
        .into_iter()
        .chain(instance.egress_loads())
        .max()
        .unwrap_or(0);
    last_release + busiest.max(1)
}
