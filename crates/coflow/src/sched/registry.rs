//! The policy registry: one table from scheduler name to constructor and
//! capability flags, shared by every surface that selects algorithms —
//! `coflow-cli --policy`, `experiments -- tournament --policies`, the
//! fault harness, the pin table and the chaos harness. None of them keeps
//! a name→policy table of its own, and `coflow` has no per-policy entry
//! point: a caller builds the entry's policy and runs it on the engine
//! ([`run_policy`](super::engine::run_policy) or
//! [`run_policy_with_faults`](super::engine::run_policy_with_faults)).
//!
//! Adding a scheduler to the repo is: implement [`Policy`] (plus a
//! [`PolicyState`](super::snapshot::PolicyState) variant if it
//! checkpoints), append one [`PolicyEntry`] here, and every harness —
//! tournament, faults, CLI — picks it up by name. The entry
//! declares what the harnesses need to know up front:
//!
//! * `supports_faults` — the policy replans from live remaining demand,
//!   so [`run_policy_with_faults`](super::engine::run_policy_with_faults)
//!   terminates. Open-loop planners (the BvN batch policy executes a
//!   precomputed augmented schedule and never revisits it) must say
//!   `false`: a blocked unit would strand forever.
//!
//! Every entry checkpoints (`capture_state()` returns `Some`), and
//! `select("all")` expands to all six.

use crate::instance::Instance;
use crate::ordering::{compute_order, OrderRule};
use crate::sched::engine::{BvnBatchPolicy, OnlineRhoPolicy, Policy, ResilientPolicy};
use crate::sched::ordered::{GreedyPolicy, ImPurohitPolicy, ShafieeGhaderiPolicy};
use crate::sched::{AlgorithmSpec, ExecOptions};
use coflow_lp::SimplexOptions;
use std::sync::OnceLock;

/// One registered scheduler: identity, provenance, fault support, and the
/// boxed constructor.
#[derive(Debug)]
pub struct PolicyEntry {
    /// Registry name (stable: report labels, pins, and CLI flags use it).
    pub name: &'static str,
    /// One-line provenance/summary shown by `--policy help` surfaces.
    pub summary: &'static str,
    /// Proven approximation bound vs the interval-LP lower bound, when
    /// the policy carries one (`None` for unproven heuristics).
    pub bound: Option<f64>,
    /// Terminates under the fault-aware engine (replans from live demand).
    pub supports_faults: bool,
    ctor: fn(&Instance) -> Box<dyn Policy>,
}

impl PolicyEntry {
    /// Constructs a fresh policy instance over `instance`. Policies are
    /// stateful: build one per run, never share across runs.
    pub fn build(&self, instance: &Instance) -> Box<dyn Policy> {
        (self.ctor)(instance)
    }
}

/// The registry: an ordered table of [`PolicyEntry`]s. Order is the
/// canonical report order (tournament rows, fault tables).
pub struct PolicyRegistry {
    entries: Vec<PolicyEntry>,
}

fn build_bvn_batch(instance: &Instance) -> Box<dyn Policy> {
    // The paper's best grid cell: Algorithm 2 (H_LP order + doubling
    // groups) with same-pair backfilling — grid case (d).
    let order = compute_order(instance, OrderRule::LpBased);
    Box::new(BvnBatchPolicy::grouped(
        instance,
        order,
        true,
        ExecOptions::paper(true),
    ))
}

fn build_online(instance: &Instance) -> Box<dyn Policy> {
    Box::new(OnlineRhoPolicy::new(instance))
}

fn build_greedy(instance: &Instance) -> Box<dyn Policy> {
    Box::new(GreedyPolicy::new(
        instance,
        compute_order(instance, OrderRule::LoadOverWeight),
    ))
}

fn build_resilient(_instance: &Instance) -> Box<dyn Policy> {
    Box::new(ResilientPolicy::new(
        AlgorithmSpec {
            order: OrderRule::LpBased,
            grouping: true,
            backfill: true,
        },
        SimplexOptions::default(),
    ))
}

fn build_shafiee_ghaderi(instance: &Instance) -> Box<dyn Policy> {
    Box::new(ShafieeGhaderiPolicy::new(instance))
}

fn build_im_purohit(instance: &Instance) -> Box<dyn Policy> {
    Box::new(ImPurohitPolicy::new(instance))
}

impl PolicyRegistry {
    /// The built-in registry: the four seed policies plus the two
    /// successor-paper schedulers.
    pub fn builtin() -> &'static PolicyRegistry {
        static REG: OnceLock<PolicyRegistry> = OnceLock::new();
        REG.get_or_init(|| PolicyRegistry {
            entries: vec![
                PolicyEntry {
                    name: "bvn-batch",
                    summary: "QSZ15 Algorithm 2 + backfill: H_LP order, doubling groups, \
                              BvN batch execution (67/3-approx)",
                    bound: Some(crate::DETERMINISTIC_RATIO),
                    supports_faults: false,
                    ctor: build_bvn_batch,
                },
                PolicyEntry {
                    name: "online",
                    summary: "online rho/w priority scheduler, priorities re-sorted on \
                              arrivals and completions (heuristic)",
                    bound: None,
                    supports_faults: true,
                    ctor: build_online,
                },
                PolicyEntry {
                    name: "greedy",
                    summary: "work-conserving priority-greedy baseline over the H_rho \
                              order (heuristic)",
                    bound: None,
                    supports_faults: true,
                    ctor: build_greedy,
                },
                PolicyEntry {
                    name: "resilient",
                    summary: "epoch replanner with the H_LP -> H_rho -> H_A degradation \
                              chain (fault-tolerant 67/3-approx planning)",
                    bound: Some(crate::DETERMINISTIC_RATIO),
                    supports_faults: true,
                    ctor: build_resilient,
                },
                PolicyEntry {
                    name: "shafiee-ghaderi",
                    summary: "Shafiee-Ghaderi LP-free primal-dual permutation, \
                              work-conserving service (5-approx, arXiv:1704.08357)",
                    bound: Some(5.0),
                    supports_faults: true,
                    ctor: build_shafiee_ghaderi,
                },
                PolicyEntry {
                    name: "im-purohit",
                    summary: "Im-Purohit LP-completion-time permutation, work-conserving \
                              service (4-approx, arXiv:1707.04331)",
                    bound: Some(4.0),
                    supports_faults: true,
                    ctor: build_im_purohit,
                },
            ],
        })
    }

    /// Every entry, in canonical report order.
    pub fn entries(&self) -> &[PolicyEntry] {
        &self.entries
    }

    /// Looks an entry up by exact registry name.
    pub fn get(&self, name: &str) -> Option<&PolicyEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Resolves a name to an entry, accepting the engine-internal
    /// `online-rho` spelling as an alias of `online`. Unknown names get
    /// an error that lists what the registry knows.
    pub fn resolve(&self, name: &str) -> Result<&PolicyEntry, String> {
        let name = match name {
            "online-rho" => "online",
            other => other,
        };
        self.get(name).ok_or_else(|| {
            format!(
                "unknown policy '{}' (known: {})",
                name,
                self.entries
                    .iter()
                    .map(|e| e.name)
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })
    }

    /// Expands a selection spec: `all` means every entry; a
    /// comma-separated list resolves each name (order preserved,
    /// duplicates dropped).
    pub fn select(&self, spec: &str) -> Result<Vec<&PolicyEntry>, String> {
        if spec == "all" {
            return Ok(self.entries.iter().collect());
        }
        let mut picked: Vec<&PolicyEntry> = Vec::new();
        for name in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let entry = self.resolve(name)?;
            if !picked.iter().any(|e| e.name == entry.name) {
                picked.push(entry);
            }
        }
        if picked.is_empty() {
            return Err("empty policy selection (use 'all' or a comma-separated list)".into());
        }
        Ok(picked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coflow::Coflow;
    use coflow_matching::IntMatrix;

    fn tiny() -> Instance {
        let c0 = Coflow::new(0, IntMatrix::from_nested(&[[2, 1], [0, 1]]));
        let c1 = Coflow::new(1, IntMatrix::from_nested(&[[0, 1], [2, 0]])).with_release(1);
        Instance::new(2, vec![c0, c1])
    }

    #[test]
    fn registry_has_six_policies() {
        let reg = PolicyRegistry::builtin();
        let names: Vec<&str> = reg.entries().iter().map(|e| e.name).collect();
        assert_eq!(
            names,
            [
                "bvn-batch",
                "online",
                "greedy",
                "resilient",
                "shafiee-ghaderi",
                "im-purohit"
            ]
        );
    }

    #[test]
    fn every_entry_builds_and_schedules_the_tiny_instance() {
        // The resilient planner emits Execute decisions, which only the
        // fault-aware engine accepts — a quiet plan exercises every entry
        // through one uniform driver.
        let inst = tiny();
        let quiet = coflow_netsim::FaultPlan::generate(inst.ports(), inst.len(), 64, 0.0, 1);
        for entry in PolicyRegistry::builtin().entries() {
            let mut policy = entry.build(&inst);
            let out = crate::sched::engine::run_policy_with_faults(&inst, &mut *policy, &quiet)
                .unwrap_or_else(|e| panic!("{}: {}", entry.name, e));
            assert!(
                out.objective > 0.0,
                "{} produced an empty schedule",
                entry.name
            );
            assert!(
                out.completions.iter().all(|c| c.is_some()),
                "{} left a coflow unfinished on a quiet plan",
                entry.name
            );
            assert!(
                policy.capture_state().is_some(),
                "{}: every entry checkpoints",
                entry.name
            );
        }
    }

    #[test]
    fn resolve_and_select_handle_aliases_lists_and_errors() {
        let reg = PolicyRegistry::builtin();
        assert_eq!(reg.resolve("online-rho").unwrap().name, "online");
        assert!(reg
            .resolve("nonsense")
            .unwrap_err()
            .contains("shafiee-ghaderi"));
        let all = reg.select("all").unwrap();
        assert_eq!(all.len(), 6);
        let picked = reg.select("greedy, online ,greedy").unwrap();
        let names: Vec<&str> = picked.iter().map(|e| e.name).collect();
        assert_eq!(names, ["greedy", "online"]);
        assert!(reg.select("").is_err());
        assert!(reg.select("greedy,bogus").is_err());
    }
}
