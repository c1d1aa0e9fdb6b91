//! The `kspan` zero-perturbation test: enabling causal request tracing
//! on top of `kprof` must change *nothing* simulated.
//!
//! Identical oracle to the kstat/kprof test: the raw ktrace digests in
//! `tests/golden/ktrace_digests.txt` were blessed with all
//! instrumentation *off*; this test re-runs the same traced `flukeperf`
//! workloads with `kprof` *and* `kspan` on and requires bit-identical
//! digests. A kspan hook that ever charged a cycle, reordered a wake, or
//! perturbed a scheduling decision fails at the first shifted timestamp.

use fluke_bench::tracediff::{golden_configs, golden_digests, run_traced_flukeperf, trace_digest};
use fluke_bench::Scale;

#[test]
fn kspan_runs_match_uninstrumented_golden_digests() {
    let golden = golden_digests();
    for (label, cfg) in golden_configs() {
        let k = run_traced_flukeperf(cfg.with_kprof().with_kspan(), Scale::Quick);
        assert_eq!(k.trace.dropped_total(), 0, "{label}: trace overflowed");
        // The tracer really ran: requests completed, each decomposed
        // exactly into the five critical-path buckets.
        assert!(k.kspan.enabled, "{label}: kspan should be enabled");
        assert!(
            !k.kspan.completed().is_empty(),
            "{label}: no requests recorded"
        );
        for r in k.kspan.completed() {
            assert_eq!(
                r.decomposed(),
                r.e2e(),
                "{label}: request {} ({}) decomposition does not sum to e2e",
                r.req,
                r.class
            );
        }
        assert!(
            !k.kspan.flows().is_empty(),
            "{label}: flukeperf's IPC phases should record flow edges"
        );
        // The oracle: bit-identical raw trace against the digests
        // blessed with instrumentation off.
        let got = trace_digest(&k);
        let want = golden
            .get(&label)
            .unwrap_or_else(|| panic!("no golden digest for config {label}"));
        assert_eq!(
            &got, want,
            "{label}: enabling kspan perturbed the simulation \
             (got 0x{:016x}/{} records, want 0x{:016x}/{})",
            got.0, got.1, want.0, want.1
        );
    }
}
