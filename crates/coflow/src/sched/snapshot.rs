//! Versioned checkpoint documents for the engine
//! ([`Engine::checkpoint`](super::engine::Engine::checkpoint) /
//! [`Engine::restore`](super::engine::Engine::restore)).
//!
//! Schema `coflow-snapshot/1`, hand-rolled JSON like every report schema
//! in the workspace (shared parser: [`obs::json`]). One document captures:
//!
//! * the full [`FaultSimState`] — residual demand, completions,
//!   cancellations, the executed trace so far, stranded-unit accounting,
//!   and the static fault plan (plan "position" is `now` + cancellation
//!   flags; plans carry no RNG state at run time);
//! * the engine counters (`replans`, `tiers`, `last_window`, `decisions`);
//! * the policy's planning state ([`PolicyState`]), complete enough that
//!   [`PolicyState::rebuild`] + the restored simulator continue
//!   *bit-identically* to a run that was never interrupted (differential-
//!   and property-tested against the committed pins).
//!
//! Versioning rules: readers reject any schema string other than
//! `coflow-snapshot/1`; within a version, fields are only ever added or
//! retired, and a reader must error (not guess) on missing required
//! fields. A retired field is no longer written, but a reader still
//! checks it when present. A field retired because every value ran the
//! same schedule (`sequential`, `sharded`) must still be a bool. A field
//! retired with the behaviour it selected (`resort_on_completion`,
//! `maxmin`, `partial_pricing`) must hold the one value the code still
//! runs: any other value describes a schedule this code cannot resume,
//! and the document is refused. The watchdog's deadline keys are retired
//! with the deadline: `deadline_us` must be `null` and `breaches` `0`,
//! while `attempts` and `backoff` may be any number, since without a
//! deadline they never acted. Bumping the version is required for any
//! change to the meaning or encoding of an existing field.

use super::engine::{BvnBatchPolicy, OnlineRhoPolicy, Policy, ResilientPolicy};
use super::ordered::GreedyPolicy;
use super::watchdog::WatchdogPolicy;
use super::{AlgorithmSpec, ExecOptions};
use crate::instance::Instance;
use crate::ordering::OrderRule;
use coflow_lp::SimplexOptions;
use coflow_netsim::snapshot::{
    as_arr, field, get_u64, get_u64_array, get_usize, num_f64, num_u64, FaultSimState,
    SnapshotError,
};
use obs::json::{fmt_f64, quote, JsonValue};
use std::fmt::Write as _;

/// Schema identifier of the engine checkpoint document.
pub const SNAPSHOT_SCHEMA: &str = "coflow-snapshot/1";

/// A complete engine + policy checkpoint.
#[derive(Clone, Debug)]
pub struct EngineSnapshot {
    /// Planning epochs completed so far.
    pub replans: usize,
    /// Fallback tier per completed planning epoch.
    pub tiers: Vec<usize>,
    /// Fault window of the last `Decision::Run` epoch, if any.
    pub last_window: Option<usize>,
    /// Policy decisions taken so far (obs accounting).
    pub decisions: u64,
    /// The simulator state.
    pub sim: FaultSimState,
    /// The policy's planning state.
    pub policy: PolicyState,
}

/// Mid-batch execution state of a [`BvnBatchPolicy`]: the active
/// decomposition and the chunks not yet emitted.
#[derive(Clone, Debug, PartialEq)]
pub struct ActiveBatchState {
    /// Augmented matrix of the decomposition, row-major.
    pub augmented: Vec<u64>,
    /// `(permutation map, count)` per decomposition slot.
    pub slots: Vec<(Vec<usize>, u64)>,
    /// `ρ` of the batch aggregate.
    pub load: u64,
    /// Pending `(slot index, chunk length)` entries, in emission order.
    pub chunks: Vec<(usize, u64)>,
    /// Eligibility horizon of the batch (max order position).
    pub batch_end_pos: usize,
}

/// Serializable planning state of every checkpointable policy.
#[derive(Clone, Debug)]
pub enum PolicyState {
    /// [`BvnBatchPolicy`].
    BvnBatch {
        /// Committed coflow order.
        order: Vec<usize>,
        /// Batch partition of the order.
        batches: Vec<Vec<usize>>,
        /// Execution options.
        opts: ExecOptions,
        /// Next batch to plan.
        b_idx: usize,
        /// Batch currently in flight.
        current: Option<ActiveBatchState>,
    },
    /// [`OnlineRhoPolicy`].
    OnlineRho {
        /// Admission cursor into the arrival event list.
        next_event: usize,
        /// Active set in current priority order.
        active: Vec<usize>,
    },
    /// [`GreedyPolicy`].
    Greedy {
        /// Committed coflow order.
        order: Vec<usize>,
    },
    /// [`ShafieeGhaderiPolicy`](super::ordered::ShafieeGhaderiPolicy).
    ShafieeGhaderi {
        /// Committed primal-dual (`H_pd`) permutation.
        order: Vec<usize>,
    },
    /// [`ImPurohitPolicy`](super::ordered::ImPurohitPolicy).
    ImPurohit {
        /// Committed LP-completion-time (`H_LP`) permutation.
        order: Vec<usize>,
    },
    /// [`ResilientPolicy`].
    Resilient {
        /// Grid cell being planned.
        spec: AlgorithmSpec,
        /// Solver budgets.
        lp_opts: SimplexOptions,
        /// Tier of the last planning epoch.
        last_tier: usize,
    },
    /// [`WatchdogPolicy`].
    Watchdog {
        /// Rescues taken so far: 0 while the batch plan decides, 1 once
        /// the online policy has taken over.
        degradations: u64,
        /// State of the deciding policy: [`PolicyState::BvnBatch`] before
        /// the rescue, [`PolicyState::OnlineRho`] after it.
        inner: Box<PolicyState>,
    },
}

impl PolicyState {
    /// Rebuilds a live policy from the captured state, validating it
    /// against `instance`.
    pub fn rebuild(&self, instance: &Instance) -> Result<Box<dyn Policy>, SnapshotError> {
        let bad = SnapshotError::new;
        let check_order = |order: &[usize]| -> Result<(), SnapshotError> {
            if order.len() != instance.len() {
                return Err(bad("order length disagrees with instance"));
            }
            let mut seen = vec![false; order.len()];
            for &k in order {
                if k >= order.len() || seen[k] {
                    return Err(bad("order is not a permutation of the coflows"));
                }
                seen[k] = true;
            }
            Ok(())
        };
        match self {
            PolicyState::BvnBatch {
                order,
                batches,
                opts,
                b_idx,
                current,
            } => {
                check_order(order)?;
                if !batches.iter().flatten().eq(order.iter()) {
                    return Err(bad("batches are not consecutive runs of the order"));
                }
                Ok(Box::new(BvnBatchPolicy::restore(
                    instance,
                    order.clone(),
                    batches.clone(),
                    *opts,
                    *b_idx,
                    current.as_ref(),
                )?))
            }
            PolicyState::OnlineRho { next_event, active } => Ok(Box::new(
                OnlineRhoPolicy::restore(instance, *next_event, active.clone())?,
            )),
            PolicyState::Greedy { order } => {
                check_order(order)?;
                Ok(Box::new(GreedyPolicy::new(instance, order.clone())))
            }
            PolicyState::ShafieeGhaderi { order } => {
                check_order(order)?;
                Ok(Box::new(super::ordered::ShafieeGhaderiPolicy::with_order(
                    instance,
                    order.clone(),
                )))
            }
            PolicyState::ImPurohit { order } => {
                check_order(order)?;
                Ok(Box::new(super::ordered::ImPurohitPolicy::with_order(
                    instance,
                    order.clone(),
                )))
            }
            PolicyState::Resilient {
                spec,
                lp_opts,
                last_tier,
            } => Ok(Box::new(ResilientPolicy::restore(
                *spec,
                lp_opts.clone(),
                *last_tier,
            ))),
            PolicyState::Watchdog {
                degradations,
                inner,
            } => {
                // The inner state is checked and rebuilt like a top-level
                // one, once the rescue count names its kind.
                let rescued = match (*degradations, &**inner) {
                    (0, PolicyState::BvnBatch { .. }) => false,
                    (1, PolicyState::OnlineRho { .. }) => true,
                    (d, _) => {
                        return Err(SnapshotError::new(format!(
                            "watchdog: {} degradations over its inner state; only 0 over \
                             bvn-batch or 1 over online-rho is run",
                            d
                        )))
                    }
                };
                Ok(Box::new(WatchdogPolicy::restored(
                    inner.rebuild(instance)?,
                    rescued,
                )))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

fn push_usize_array(out: &mut String, xs: &[usize]) {
    out.push('[');
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}", x);
    }
    out.push(']');
}

fn push_opt_u64(out: &mut String, x: Option<u64>) {
    match x {
        Some(v) => {
            let _ = write!(out, "{}", v);
        }
        None => out.push_str("null"),
    }
}

fn render_lp_opts(out: &mut String, o: &SimplexOptions) {
    let _ = write!(
        out,
        "{{\"max_iterations\":{},\"time_limit_ms\":",
        o.max_iterations
    );
    push_opt_u64(out, o.time_limit_ms);
    out.push_str(",\"stall_window\":");
    push_opt_u64(out, o.stall_window.map(|x| x as u64));
    let _ = write!(
        out,
        ",\"max_residual\":{},\"verify_duality\":{},\"refactor_period\":{},\
         \"opt_tol\":{},\"pivot_tol\":{},\"degeneracy_patience\":{},\
         \"presolve\":{},\"always_bland\":{}}}",
        fmt_f64(o.max_residual),
        o.verify_duality,
        o.refactor_period,
        fmt_f64(o.opt_tol),
        fmt_f64(o.pivot_tol),
        o.degeneracy_patience,
        o.presolve,
        o.always_bland,
    );
}

fn parse_lp_opts(v: &JsonValue) -> Result<SimplexOptions, SnapshotError> {
    let opt_usize = |key: &str| -> Result<Option<usize>, SnapshotError> {
        match field(v, key)? {
            JsonValue::Null => Ok(None),
            other => num_u64(other, key).map(|x| Some(x as usize)),
        }
    };
    check_retired_value(v, "partial_pricing", JsonValue::Null)?;
    Ok(SimplexOptions {
        max_iterations: get_usize(v, "max_iterations")?,
        time_limit_ms: match field(v, "time_limit_ms")? {
            JsonValue::Null => None,
            other => Some(num_u64(other, "time_limit_ms")?),
        },
        stall_window: opt_usize("stall_window")?,
        max_residual: num_f64(field(v, "max_residual")?, "max_residual")?,
        verify_duality: get_bool(v, "verify_duality")?,
        refactor_period: get_usize(v, "refactor_period")?,
        opt_tol: num_f64(field(v, "opt_tol")?, "opt_tol")?,
        pivot_tol: num_f64(field(v, "pivot_tol")?, "pivot_tol")?,
        degeneracy_patience: get_usize(v, "degeneracy_patience")?,
        presolve: get_bool(v, "presolve")?,
        always_bland: get_bool(v, "always_bland")?,
    })
}

fn render_policy(out: &mut String, p: &PolicyState) {
    match p {
        PolicyState::BvnBatch {
            order,
            batches,
            opts,
            b_idx,
            current,
        } => {
            out.push_str("{\"kind\":\"bvn-batch\",\"order\":");
            push_usize_array(out, order);
            out.push_str(",\"batches\":[");
            for (i, b) in batches.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_usize_array(out, b);
            }
            let _ = write!(
                out,
                "],\"opts\":{{\"backfill\":{},\"rematch\":{}}},\"b_idx\":{},\"current\":",
                opts.backfill, opts.rematch, b_idx
            );
            match current {
                None => out.push_str("null"),
                Some(cs) => {
                    out.push_str("{\"augmented\":[");
                    for (i, x) in cs.augmented.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "{}", x);
                    }
                    out.push_str("],\"slots\":[");
                    for (i, (map, count)) in cs.slots.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push('[');
                        push_usize_array(out, map);
                        let _ = write!(out, ",{}]", count);
                    }
                    let _ = write!(out, "],\"load\":{},\"chunks\":[", cs.load);
                    for (i, (slot, len)) in cs.chunks.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "[{},{}]", slot, len);
                    }
                    let _ = write!(out, "],\"batch_end_pos\":{}}}", cs.batch_end_pos);
                }
            }
            out.push('}');
        }
        PolicyState::OnlineRho { next_event, active } => {
            let _ = write!(
                out,
                "{{\"kind\":\"online-rho\",\"next_event\":{},\"active\":",
                next_event
            );
            push_usize_array(out, active);
            out.push('}');
        }
        PolicyState::Greedy { order } => {
            out.push_str("{\"kind\":\"greedy\",\"order\":");
            push_usize_array(out, order);
            out.push('}');
        }
        PolicyState::ShafieeGhaderi { order } => {
            out.push_str("{\"kind\":\"shafiee-ghaderi\",\"order\":");
            push_usize_array(out, order);
            out.push('}');
        }
        PolicyState::ImPurohit { order } => {
            out.push_str("{\"kind\":\"im-purohit\",\"order\":");
            push_usize_array(out, order);
            out.push('}');
        }
        PolicyState::Resilient {
            spec,
            lp_opts,
            last_tier,
        } => {
            let _ = write!(
                out,
                "{{\"kind\":\"resilient\",\"spec\":{{\"order\":{},\"grouping\":{},\"backfill\":{}}},\
                 \"lp_opts\":",
                quote(spec.order.name()),
                spec.grouping,
                spec.backfill
            );
            render_lp_opts(out, lp_opts);
            let _ = write!(out, ",\"last_tier\":{}}}", last_tier);
        }
        PolicyState::Watchdog {
            degradations,
            inner,
        } => {
            let _ = write!(
                out,
                "{{\"kind\":\"watchdog\",\"degradations\":{},\"inner\":",
                degradations
            );
            render_policy(out, inner);
            out.push('}');
        }
    }
}

fn order_rule_from_name(name: &str) -> Result<OrderRule, SnapshotError> {
    match name {
        "H_A" => Ok(OrderRule::Arrival),
        "H_rho" => Ok(OrderRule::LoadOverWeight),
        "H_LP" => Ok(OrderRule::LpBased),
        "H_size" => Ok(OrderRule::SizeOverWeight),
        "H_pd" => Ok(OrderRule::PortPrimalDual),
        other => Err(SnapshotError::new(format!(
            "unknown order rule '{}'",
            other
        ))),
    }
}

fn get_usize_array(v: &JsonValue, key: &str) -> Result<Vec<usize>, SnapshotError> {
    Ok(get_u64_array(v, key)?
        .into_iter()
        .map(|x| x as usize)
        .collect())
}

/// Type-checks a retired bool field when present; its value is unused.
fn check_retired_bool(v: &JsonValue, key: &str) -> Result<(), SnapshotError> {
    if field(v, key).is_ok() {
        get_bool(v, key)?;
    }
    Ok(())
}

/// Type-checks a retired number field when present; its value is unused.
fn check_retired_number(v: &JsonValue, key: &str) -> Result<(), SnapshotError> {
    match v.get(key) {
        Some(x) => num_f64(x, key).map(|_| ()),
        None => Ok(()),
    }
}

/// Checks a retired field whose other values selected a behaviour this
/// code no longer has: absent or `kept` (the value the code runs), it is
/// accepted; anything else is refused, since resuming it would silently
/// change the schedule.
fn check_retired_value(v: &JsonValue, key: &str, kept: JsonValue) -> Result<(), SnapshotError> {
    let literal = |x: &JsonValue| match x {
        JsonValue::Bool(b) => b.to_string(),
        JsonValue::Num(n) => n.clone(),
        other => other.kind().to_string(),
    };
    match v.get(key) {
        Some(found) if *found != kept => Err(SnapshotError::new(format!(
            "{}: retired option set to {}; only {} is still run",
            key,
            literal(found),
            literal(&kept)
        ))),
        _ => Ok(()),
    }
}

fn get_bool(v: &JsonValue, key: &str) -> Result<bool, SnapshotError> {
    match field(v, key)? {
        JsonValue::Bool(b) => Ok(*b),
        other => Err(SnapshotError::new(format!(
            "{}: expected bool, found {}",
            key,
            other.kind()
        ))),
    }
}

fn parse_policy(v: &JsonValue) -> Result<PolicyState, SnapshotError> {
    let kind = match field(v, "kind")? {
        JsonValue::Str(s) => s.as_str(),
        other => {
            return Err(SnapshotError::new(format!(
                "policy kind: expected string, found {}",
                other.kind()
            )))
        }
    };
    match kind {
        "bvn-batch" => {
            let order = get_usize_array(v, "order")?;
            let batches = as_arr(field(v, "batches")?, "batches")?
                .iter()
                .map(|b| {
                    as_arr(b, "batches[i]")?
                        .iter()
                        .map(|x| num_u64(x, "batches[i][j]").map(|x| x as usize))
                        .collect::<Result<Vec<_>, _>>()
                })
                .collect::<Result<Vec<_>, _>>()?;
            let opts_v = field(v, "opts")?;
            let opts = ExecOptions {
                backfill: get_bool(opts_v, "backfill")?,
                rematch: get_bool(opts_v, "rematch")?,
            };
            check_retired_value(opts_v, "maxmin", JsonValue::Bool(false))?;
            // Retired keys: older checkpoints name the decomposition path
            // ("sequential", "sharded"). Every path produced the same
            // schedule, so the value is checked and ignored.
            for retired in ["sequential", "sharded"] {
                check_retired_bool(opts_v, retired)?;
            }
            let b_idx = get_usize(v, "b_idx")?;
            let current = match field(v, "current")? {
                JsonValue::Null => None,
                cur => {
                    let augmented = get_u64_array(cur, "augmented")?;
                    let slots = as_arr(field(cur, "slots")?, "slots")?
                        .iter()
                        .map(|s| {
                            let pair = as_arr(s, "slots[i]")?;
                            if pair.len() != 2 {
                                return Err(SnapshotError::new("slot is not [perm, count]"));
                            }
                            let map = as_arr(&pair[0], "slot perm")?
                                .iter()
                                .map(|x| num_u64(x, "slot perm entry").map(|x| x as usize))
                                .collect::<Result<Vec<_>, _>>()?;
                            Ok((map, num_u64(&pair[1], "slot count")?))
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                    let chunks = as_arr(field(cur, "chunks")?, "chunks")?
                        .iter()
                        .map(|c| {
                            let pair = as_arr(c, "chunks[i]")?;
                            if pair.len() != 2 {
                                return Err(SnapshotError::new("chunk is not [slot, len]"));
                            }
                            Ok((
                                num_u64(&pair[0], "chunk slot")? as usize,
                                num_u64(&pair[1], "chunk len")?,
                            ))
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                    Some(ActiveBatchState {
                        augmented,
                        slots,
                        load: get_u64(cur, "load")?,
                        chunks,
                        batch_end_pos: get_usize(cur, "batch_end_pos")?,
                    })
                }
            };
            Ok(PolicyState::BvnBatch {
                order,
                batches,
                opts,
                b_idx,
                current,
            })
        }
        "online-rho" => {
            check_retired_value(v, "resort_on_completion", JsonValue::Bool(true))?;
            Ok(PolicyState::OnlineRho {
                next_event: get_usize(v, "next_event")?,
                active: get_usize_array(v, "active")?,
            })
        }
        "greedy" => Ok(PolicyState::Greedy {
            order: get_usize_array(v, "order")?,
        }),
        "shafiee-ghaderi" => Ok(PolicyState::ShafieeGhaderi {
            order: get_usize_array(v, "order")?,
        }),
        "im-purohit" => Ok(PolicyState::ImPurohit {
            order: get_usize_array(v, "order")?,
        }),
        "resilient" => {
            let spec_v = field(v, "spec")?;
            let order = match field(spec_v, "order")? {
                JsonValue::Str(s) => order_rule_from_name(s)?,
                other => {
                    return Err(SnapshotError::new(format!(
                        "spec order: expected string, found {}",
                        other.kind()
                    )))
                }
            };
            Ok(PolicyState::Resilient {
                spec: AlgorithmSpec {
                    order,
                    grouping: get_bool(spec_v, "grouping")?,
                    backfill: get_bool(spec_v, "backfill")?,
                },
                lp_opts: parse_lp_opts(field(v, "lp_opts")?)?,
                last_tier: get_usize(v, "last_tier")?,
            })
        }
        "watchdog" => {
            // Retired with the decision deadline: a deadline or a breach
            // describes a run this code cannot resume; the retry settings
            // never acted without a deadline.
            check_retired_value(v, "deadline_us", JsonValue::Null)?;
            check_retired_value(v, "breaches", JsonValue::Num("0".into()))?;
            for retired in ["attempts", "backoff"] {
                check_retired_number(v, retired)?;
            }
            Ok(PolicyState::Watchdog {
                degradations: get_u64(v, "degradations")?,
                inner: Box::new(parse_policy(field(v, "inner")?)?),
            })
        }
        other => Err(SnapshotError::new(format!(
            "unknown policy kind '{}'",
            other
        ))),
    }
}

impl EngineSnapshot {
    /// Renders the checkpoint as a `coflow-snapshot/1` JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        let _ = write!(
            out,
            "{{\n  \"schema\": {},\n  \"replans\": {},\n  \"tiers\": ",
            quote(SNAPSHOT_SCHEMA),
            self.replans
        );
        push_usize_array(&mut out, &self.tiers);
        out.push_str(",\n  \"last_window\": ");
        push_opt_u64(&mut out, self.last_window.map(|x| x as u64));
        let _ = write!(out, ",\n  \"decisions\": {},\n  \"sim\": ", self.decisions);
        self.sim.render(&mut out);
        out.push_str(",\n  \"policy\": ");
        render_policy(&mut out, &self.policy);
        out.push_str("\n}\n");
        out
    }

    /// Parses and validates a `coflow-snapshot/1` document.
    pub fn from_json(text: &str) -> Result<EngineSnapshot, SnapshotError> {
        let v = obs::json::parse(text).map_err(|e| SnapshotError::new(format!("JSON {}", e)))?;
        match field(&v, "schema")? {
            JsonValue::Str(s) if s == SNAPSHOT_SCHEMA => {}
            JsonValue::Str(s) => {
                return Err(SnapshotError::new(format!(
                    "unsupported schema '{}' (expected '{}')",
                    s, SNAPSHOT_SCHEMA
                )))
            }
            other => {
                return Err(SnapshotError::new(format!(
                    "schema: expected string, found {}",
                    other.kind()
                )))
            }
        }
        Ok(EngineSnapshot {
            replans: get_usize(&v, "replans")?,
            tiers: get_usize_array(&v, "tiers")?,
            last_window: match field(&v, "last_window")? {
                JsonValue::Null => None,
                other => Some(num_u64(other, "last_window")? as usize),
            },
            decisions: get_u64(&v, "decisions")?,
            sim: FaultSimState::from_json(field(&v, "sim")?)?,
            policy: parse_policy(field(&v, "policy")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lp_opts_round_trip() {
        let o = SimplexOptions {
            time_limit_ms: Some(250),
            opt_tol: 1.0 / 3.0,
            ..SimplexOptions::default()
        };
        let mut s = String::new();
        render_lp_opts(&mut s, &o);
        let parsed = parse_lp_opts(&obs::json::parse(&s).unwrap()).unwrap();
        assert_eq!(parsed.max_iterations, o.max_iterations);
        assert_eq!(parsed.time_limit_ms, o.time_limit_ms);
        assert_eq!(parsed.opt_tol.to_bits(), o.opt_tol.to_bits());
    }

    #[test]
    fn unknown_schema_rejected() {
        let err = EngineSnapshot::from_json("{\"schema\": \"coflow-snapshot/99\"}").unwrap_err();
        assert!(err.to_string().contains("unsupported schema"), "{}", err);
    }

    #[test]
    fn policy_state_round_trips() {
        let p = PolicyState::Watchdog {
            degradations: 1,
            inner: Box::new(PolicyState::OnlineRho {
                next_event: 3,
                active: vec![4, 1, 2],
            }),
        };
        let mut s = String::new();
        render_policy(&mut s, &p);
        assert_eq!(
            s,
            "{\"kind\":\"watchdog\",\"degradations\":1,\"inner\":\
             {\"kind\":\"online-rho\",\"next_event\":3,\"active\":[4,1,2]}}"
        );
        let parsed = parse_policy(&obs::json::parse(&s).unwrap()).unwrap();
        let PolicyState::Watchdog {
            degradations,
            inner,
        } = parsed
        else {
            panic!("wrong kind");
        };
        assert_eq!(degradations, 1);
        let PolicyState::OnlineRho { active, .. } = *inner else {
            panic!("wrong inner kind");
        };
        assert_eq!(active, vec![4, 1, 2]);
    }
}
