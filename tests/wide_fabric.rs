//! The registry's `bvn-batch` on wide, sparse fabrics: its memory must
//! follow the demand's nonzero pairs, not the `m × m` cells of the fabric.
//! The batch in flight adds, for each slot, the edges of its permutation
//! that some coflow demands, not all `m` of them.
//!
//! Both cases run the policy end to end (interval-LP order, doubling
//! groups, one Birkhoff–von Neumann decomposition per group, backfilling)
//! and replay-check the schedule. The peak heap is read from the
//! workspace's counting allocator; the allocator is process-wide, so the
//! cases take one lock and this file holds nothing else.

use coflow::{run_policy, verify_outcome, Coflow, Demand, Instance, PolicyRegistry};
use coflow_matching::bvn_decompose;
use coflow_workloads::io;
use std::sync::Mutex;

static ALLOCATOR: Mutex<()> = Mutex::new(());

const MIB: u64 = 1024 * 1024;

/// Runs the registry's `bvn-batch` on `instance`, replay-checks the
/// schedule, and returns it with the heap it held at its peak above what
/// was live when it started.
fn bvn_batch_with_peak(instance: &Instance) -> (coflow::ScheduleOutcome, u64) {
    let entry = PolicyRegistry::builtin()
        .get("bvn-batch")
        .expect("bvn-batch is registered");
    obs::alloc::reset_peak();
    let before = obs::alloc::stats();
    let out = run_policy(instance, &mut *entry.build(instance)).expect("bvn-batch runs");
    let peak = obs::alloc::stats()
        .peak_live_bytes
        .saturating_sub(before.live_bytes);
    verify_outcome(instance, &out).expect("the schedule replays on the fabric");
    (out, peak)
}

/// `n` coflows of `flows` flows each on an `m`-port fabric, every flow
/// between two ports drawn at random, with 1–64 units and weights 1–4.
fn scattered(m: usize, n: usize, flows: usize, seed: u64) -> Instance {
    let mut z = seed;
    let mut draw = move |bound: u64| {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = z;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (x ^ (x >> 31)) % bound
    };
    let coflows = (0..n)
        .map(|k| {
            let mut list: Vec<(usize, usize, u64)> = (0..flows)
                .map(|_| {
                    let src = draw(m as u64) as usize;
                    let dst = draw(m as u64) as usize;
                    (src, dst, 1 + draw(64))
                })
                .collect();
            list.sort_unstable();
            let demand = Demand::from_flows(m, list).expect("flows on the fabric");
            Coflow::new(k, demand).with_weight(1.0 + draw(4) as f64)
        })
        .collect();
    Instance::new(m, coflows)
}

#[test]
fn two_thousand_ports_schedule_in_a_few_mib() {
    let _lock = ALLOCATOR.lock().unwrap_or_else(|e| e.into_inner());
    let instance = scattered(2_000, 30, 10, 2015);
    let (out, peak) = bvn_batch_with_peak(&instance);
    // Recorded when every batch was aggregated and decomposed in m × m
    // arrays; that schedule peaked at 184.0 MiB.
    assert_eq!(
        out.objective.to_bits(),
        OBJECTIVE_BITS_2000,
        "{}",
        out.objective
    );
    assert!(
        peak < 8 * MIB,
        "peak heap {:.1} MiB",
        peak as f64 / MIB as f64
    );
}

/// The objective of [`two_thousand_ports_schedule_in_a_few_mib`]'s
/// schedule.
const OBJECTIVE_BITS_2000: u64 = 4665905685572091904;

#[test]
fn a_flow_to_port_50000_completes_in_slot_one() {
    let _lock = ALLOCATOR.lock().unwrap_or_else(|e| e.into_inner());
    // 50 001² cells would be 20 GB dense; the schedule holds the one flow
    // and the 50 001 edges its decomposition augments it to.
    let csv = "coflow_id,src,dst,mb,release,weight\n0,0,50000,1,0,1\n";
    let ports = io::csv_ports(csv);
    assert_eq!(ports, 50_001);
    let instance = io::from_csv(ports, csv).expect("one flow");
    let (out, peak) = bvn_batch_with_peak(&instance);
    assert_eq!(out.completions, vec![1]);
    assert!(
        peak < 16 * MIB,
        "peak heap {:.1} MiB",
        peak as f64 / MIB as f64
    );
}

/// A batch peeled into many slots holds only the edges some coflow
/// demands (DESIGN §5.1): one coflow on 1,000 ports whose ingress 0 sends
/// 1, 2, …, 250 units to egresses 0..250. Its augmentation pairs each of
/// those egresses with a row of its own, so every slot uses one demanded
/// edge and 999 augmented ones, and the peel needs a slot per flow. A slot
/// stores its one demanded edge: the peak was 1.16 MiB, 0.95 MiB of it
/// slot ids, while a slot stored all `m` edges of its permutation.
#[test]
fn a_batch_of_many_slots_holds_only_its_demanded_edges() {
    let _lock = ALLOCATOR.lock().unwrap_or_else(|e| e.into_inner());
    let (m, k) = (1_000, 250);
    let flows: Vec<(usize, usize, u64)> = (0..k).map(|j| (0, j, j as u64 + 1)).collect();
    let slots = bvn_decompose(m, flows.iter().copied()).len();
    assert!(slots >= k, "{slots} slots");
    let demand = Demand::from_flows(m, flows).expect("flows on the fabric");
    let instance = Instance::new(m, vec![Coflow::new(0, demand)]);
    let (out, peak) = bvn_batch_with_peak(&instance);
    // A lone coflow finishes in exactly its load (Lemma 4).
    assert_eq!(out.completions, vec![(k * (k + 1) / 2) as u64]);
    assert!(
        peak < MIB / 4,
        "peak heap {:.3} MiB",
        peak as f64 / MIB as f64
    );
}
