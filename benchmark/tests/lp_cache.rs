//! LP-cache hygiene: every timed `sched` starts from an empty LP cache, so
//! the traced `offline-alg2` build pays its cold interval LP — a miss, never
//! an exact hit — even though the warm-up rounds and the paired plain
//! schedule solve the very same LPs just before.

use coflow_benchmark::{run, RunConfig, Workload};

#[test]
fn traced_offline_build_never_hits_the_lp_cache() {
    let report = run(&RunConfig {
        workload: Workload::OfflineAlg2,
        seed: 2015,
        seconds: 0.01,
        trace: true,
    });
    assert!(report.correct(), "{:?}", report.failures);
    assert_eq!(report.value("lp.cache_exact_hits"), Some(0.0));
    assert_eq!(
        report.value("lp.cache_misses"),
        Some(1.0),
        "one cold solve per instance"
    );
}
