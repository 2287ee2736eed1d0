//! Output bits of every registry policy on the engine, on a fixed list of
//! generated instances.
//!
//! Each policy runs clean (`resilient`, which only plans ahead, on the
//! fault-aware engine under the empty plan) and, when it supports faults,
//! under a rate-0.20 fault plan. Every schedule must pass its replay
//! check, and its objective bits, an FNV-1a fold of its completions, its
//! makespan, the number of slots that move a unit and the number of runs
//! in its trace must equal recorded constants. The first four were
//! recorded before the engine's executors and policies moved from dense
//! demand matrices to sparse per-coflow entries. A change to the run path
//! that keeps every decision keeps every one of them; a dropped, reordered
//! or misread demand entry moves at least the slot or run count.
//!
//! The fault executor used to record one run per busy slot, so its old
//! run counts are the busy-slot counts of the rows it runs (`resilient`
//! and every `/faults` row). It now records a run per maximal stretch of
//! identical slots, and the run column holds those counts.
//!
//! The last two columns pin the blocked log: the planned units a fault
//! stranded (`FaultyOutcome::blocked_units`, recorded when the log held
//! one entry per unit) and the runs the log holds them in. Both read 0 on
//! clean rows.
//!
//! The instances cover the benchmark's shapes at test size: the offline
//! trace (zero releases, Algorithm 2's home ground) and the arrivals trace
//! (mean gap 40 slots, flows capped at 128 MB) on two fabric widths.

use coflow::{
    run_policy, run_policy_with_faults, verify_faulty_outcome, verify_outcome, Instance,
    PolicyRegistry,
};
use coflow_netsim::{FaultPlan, ScheduleTrace};
use coflow_workloads::{assign_weights, generate_trace, TraceConfig, WeightScheme};
use std::fmt::Write as _;

/// What one schedule must reproduce, bit for bit.
#[derive(Debug, PartialEq, Eq)]
struct Bits {
    /// `"<policy>"` for a clean run, `"<policy>/faults"` under the plan.
    label: String,
    objective: u64,
    completions_fnv: u64,
    makespan: u64,
    /// Slots that move at least one unit.
    busy_slots: usize,
    runs: usize,
    /// Planned units stranded by a fault.
    blocked_units: u64,
    /// Runs of the blocked log.
    blocked_runs: usize,
}

/// 64-bit FNV-1a over the little-endian bytes of each word.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Slots of `trace` that move at least one unit.
fn busy_slots(trace: &ScheduleTrace) -> usize {
    let mut busy = 0;
    trace.for_each_slot(|_, moves| busy += usize::from(!moves.is_empty()));
    busy
}

/// The benchmark's trace generator, offline or arrivals shaped, with
/// random-permutation weights.
fn generated(ports: usize, num_coflows: usize, seed: u64, arrivals: bool) -> Instance {
    let config = if arrivals {
        TraceConfig {
            ports,
            num_coflows,
            seed,
            zero_release: false,
            mean_interarrival: 40.0,
            max_flow_size: 128,
            ..TraceConfig::default()
        }
    } else {
        TraceConfig {
            ports,
            num_coflows,
            seed,
            ..TraceConfig::default()
        }
    };
    assign_weights(
        &generate_trace(&config),
        WeightScheme::RandomPermutation { seed },
    )
}

/// The benchmark's rate-0.20 plan: horizon = last release + the busiest
/// port's load of the summed demand.
fn plan_for(instance: &Instance, seed: u64) -> FaultPlan {
    let last_release = instance.releases().into_iter().max().unwrap_or(0);
    let busiest = instance
        .ingress_loads()
        .into_iter()
        .chain(instance.egress_loads())
        .max()
        .unwrap_or(0);
    FaultPlan::generate(
        instance.ports(),
        instance.len(),
        last_release + busiest.max(1),
        0.20,
        seed,
    )
}

/// Runs every registry policy on `instance`, clean and (where supported)
/// under `plan`, replay-checking each schedule.
fn run_all(instance: &Instance, plan: &FaultPlan) -> Vec<Bits> {
    let mut rows = Vec::new();
    for entry in PolicyRegistry::builtin().entries() {
        let mut policy = entry.build(instance);
        let clean = if entry.name == "resilient" {
            let out = run_policy_with_faults(instance, &mut *policy, &FaultPlan::default())
                .unwrap_or_else(|e| panic!("{}: {}", entry.name, e));
            verify_faulty_outcome(instance, &FaultPlan::default(), &out)
                .unwrap_or_else(|e| panic!("{}: {}", entry.name, e));
            let completions = out.completions.iter().map(|c| c.unwrap_or(u64::MAX));
            Bits {
                label: entry.name.to_string(),
                objective: out.objective.to_bits(),
                completions_fnv: fnv1a(completions),
                makespan: out.executed.makespan(),
                busy_slots: busy_slots(&out.executed),
                runs: out.executed.runs.len(),
                blocked_units: out.blocked_units,
                blocked_runs: out.blocked.len(),
            }
        } else {
            let out = run_policy(instance, &mut *policy)
                .unwrap_or_else(|e| panic!("{}: {}", entry.name, e));
            verify_outcome(instance, &out).unwrap_or_else(|e| panic!("{}: {}", entry.name, e));
            Bits {
                label: entry.name.to_string(),
                objective: out.objective.to_bits(),
                completions_fnv: fnv1a(out.completions.iter().copied()),
                makespan: out.makespan(),
                busy_slots: busy_slots(&out.trace),
                runs: out.trace.runs.len(),
                blocked_units: 0,
                blocked_runs: 0,
            }
        };
        rows.push(clean);
        if entry.supports_faults {
            let mut policy = entry.build(instance);
            let out = run_policy_with_faults(instance, &mut *policy, plan)
                .unwrap_or_else(|e| panic!("{}/faults: {}", entry.name, e));
            verify_faulty_outcome(instance, plan, &out)
                .unwrap_or_else(|e| panic!("{}/faults: {}", entry.name, e));
            let completions = out.completions.iter().map(|c| c.unwrap_or(u64::MAX));
            rows.push(Bits {
                label: format!("{}/faults", entry.name),
                objective: out.objective.to_bits(),
                completions_fnv: fnv1a(completions),
                makespan: out.executed.makespan(),
                busy_slots: busy_slots(&out.executed),
                runs: out.executed.runs.len(),
                blocked_units: out.blocked_units,
                blocked_runs: out.blocked.len(),
            });
        }
    }
    rows
}

/// One recorded row: label, objective bits, completions FNV, makespan,
/// busy slots, runs, blocked units, blocked runs.
type Row<'a> = (&'a str, u64, u64, u64, usize, usize, u64, usize);

/// Compares `got` with the recorded rows; on drift, the panic message
/// holds the whole table as it now reads, in the form written below.
fn check(name: &str, got: Vec<Bits>, want: &[Row]) {
    let want: Vec<Bits> = want
        .iter()
        .map(
            |&(label, objective, completions_fnv, makespan, busy, runs, units, blocked)| Bits {
                label: label.to_string(),
                objective,
                completions_fnv,
                makespan,
                busy_slots: busy,
                runs,
                blocked_units: units,
                blocked_runs: blocked,
            },
        )
        .collect();
    if got != want {
        let mut table = String::new();
        for b in &got {
            let _ = writeln!(
                table,
                "            (\"{}\", {}, {:#018x}, {}, {}, {}, {}, {}),",
                b.label,
                b.objective,
                b.completions_fnv,
                b.makespan,
                b.busy_slots,
                b.runs,
                b.blocked_units,
                b.blocked_runs
            );
        }
        panic!("{name}: engine output drifted; it now reads\n{table}");
    }
}

#[rustfmt::skip]
#[test]
fn offline_shape_40_ports() {
    let instance = generated(40, 30, 2015, false);
    let plan = plan_for(&instance, 2015);
    check(
        "offline 40x30",
        run_all(&instance, &plan),
        &[
            ("bvn-batch", 4691240082743492608, 0x6b6815e2f22382b5, 10639, 10639, 430, 0, 0),
            ("online", 4686142815556599808, 0x4856ee16c716f10e, 4704, 4704, 470, 0, 0),
            ("online/faults", 4687232637738156032, 0x521b0c287307db68, 4865, 4865, 485, 2985, 34),
            ("greedy", 4686536749956988928, 0x7a56c3a110029262, 4704, 4704, 471, 0, 0),
            ("greedy/faults", 4687626572138545152, 0x578a007774dda704, 4865, 4865, 484, 2984, 31),
            ("resilient", 4691240082743492608, 0x6b6815e2f22382b5, 10639, 10639, 518, 0, 0),
            ("resilient/faults", 4691800575975620608, 0xd49881624ce169cb, 8313, 8313, 563, 944, 24),
            ("shafiee-ghaderi", 4686159411310231552, 0xf236c5f4d3f48c17, 4704, 4704, 467, 0, 0),
            ("shafiee-ghaderi/faults", 4687249233491787776, 0xe1efbabedcb65149, 4865, 4865, 483, 2961, 29),
            ("im-purohit", 4686141819124187136, 0x1953d33f7606ac78, 4704, 4704, 464, 0, 0),
            ("im-purohit/faults", 4687231641305743360, 0x2382b28d367bdaf2, 4865, 4865, 477, 2966, 31),
        ],
    );
}

#[rustfmt::skip]
#[test]
fn arrivals_shape_16_ports() {
    let instance = generated(16, 40, 7, true);
    let plan = plan_for(&instance, 7);
    check(
        "arrivals 16x40",
        run_all(&instance, &plan),
        &[
            ("bvn-batch", 4698033909256945664, 0xb062892db86aaf3b, 2349, 1561, 181, 0, 0),
            ("online", 4695031138706522112, 0x448727538b8e6300, 1945, 1864, 294, 0, 0),
            ("online/faults", 4694996375241228288, 0x61825407b2018530, 1945, 1841, 268, 1140, 15),
            ("greedy", 4695046394430357504, 0xe6522941943a2490, 1942, 1861, 294, 0, 0),
            ("greedy/faults", 4695068951598596096, 0x94292d61cc556a52, 1942, 1838, 267, 1140, 7),
            ("resilient", 4698033909256945664, 0xb062892db86aaf3b, 2349, 1561, 251, 0, 0),
            ("resilient/faults", 4696908434551865344, 0xb9ca4e663e550887, 2848, 2120, 242, 297, 19),
            ("shafiee-ghaderi", 4695048859741585408, 0x4edeb5999c514851, 1942, 1861, 295, 0, 0),
            ("shafiee-ghaderi/faults", 4695027324775563264, 0x655f68c4ab36c48c, 1942, 1838, 267, 1140, 8),
            ("im-purohit", 4695462860229181440, 0x5527f4b12b875bb0, 1942, 1861, 300, 0, 0),
            ("im-purohit/faults", 4695413261946847232, 0x0ac7df31ba5e20a0, 1942, 1838, 267, 1134, 3),
        ],
    );
}

#[rustfmt::skip]
#[test]
fn arrivals_shape_30_ports() {
    let instance = generated(30, 40, 99, true);
    let plan = plan_for(&instance, 99);
    check(
        "arrivals 30x40",
        run_all(&instance, &plan),
        &[
            ("bvn-batch", 4698784944418193408, 0xcfb4bfc235b10eb6, 2508, 1450, 264, 0, 0),
            ("online", 4696028266903896064, 0x0c7bb996f8a83055, 2232, 2145, 349, 0, 0),
            ("online/faults", 4695788015023292416, 0x4cc86797676011da, 2232, 2029, 350, 1469, 17),
            ("greedy", 4696036461701496832, 0xaebddf1d070f1c22, 2232, 2145, 349, 0, 0),
            ("greedy/faults", 4695808862794547200, 0x7d5cebe599af3087, 2232, 2029, 350, 1469, 15),
            ("resilient", 4698784944418193408, 0xcfb4bfc235b10eb6, 2508, 1450, 301, 0, 0),
            ("resilient/faults", 4698210552671895552, 0x982a310c1c4b13a6, 3331, 2735, 353, 436, 42),
            ("shafiee-ghaderi", 4696033214706221056, 0xb40c1fa0f109146d, 2232, 2145, 347, 0, 0),
            ("shafiee-ghaderi/faults", 4695795960712790016, 0xe06a5c3ba41d5178, 2232, 2029, 346, 1469, 15),
            ("im-purohit", 4696129456333389824, 0xf3f6c7f313888a52, 2232, 2145, 359, 0, 0),
            ("im-purohit/faults", 4695883672534908928, 0x56ec863d2f55935d, 2232, 2029, 349, 1460, 5),
        ],
    );
}
