//! The zero-perturbation test: enabling the `kstat`/`kprof`
//! instrumentation must change *nothing* simulated.
//!
//! The strongest oracle we have is the raw ktrace digest — FNV-1a over
//! every record's timestamp, CPU, sequence number, event kind and
//! payload. The digests in `tests/golden/ktrace_digests.txt` were
//! blessed with `kprof` *off*; this test re-runs the same traced
//! `flukeperf` workloads with `kprof` *on* and requires the digests to
//! be bit-identical. If an observability hook ever perturbs a charge, a
//! wakeup, or a preemption decision, the first shifted timestamp fails
//! the comparison.

use fluke_bench::tracediff::{
    golden_configs, golden_digests, run_traced_flukeperf, run_traced_shootdown,
    shootdown_golden_row, trace_digest,
};
use fluke_bench::Scale;

#[test]
fn instrumented_runs_match_uninstrumented_golden_digests() {
    let golden = golden_digests();
    for (label, cfg) in golden_configs() {
        // Same workload, same trace, but with the profiler enabled.
        let k = run_traced_flukeperf(cfg.with_kprof(), Scale::Quick);
        assert_eq!(k.trace.dropped_total(), 0, "{label}: trace overflowed");
        // The instrumentation really ran: every simulated cycle was
        // attributed to a kprof phase…
        assert!(k.kprof.enabled, "{label}: kprof should be enabled");
        assert_eq!(
            k.kprof.total(),
            k.total_cpu_cycles(),
            "{label}: kprof attribution incomplete"
        );
        assert!(k.kprof.kernel_cycles() > 0, "{label}: no kernel cycles");
        // …and the kstat snapshot is populated.
        let reg = k.kstat();
        assert!(
            reg.scalar("kernel.syscall.count").unwrap_or(0) > 0,
            "{label}: kstat registry empty"
        );
        // The oracle: bit-identical raw trace against the digests
        // blessed with instrumentation off.
        let got = trace_digest(&k);
        let want = golden
            .get(&label)
            .unwrap_or_else(|| panic!("no golden digest for config {label}"));
        assert_eq!(
            &got, want,
            "{label}: enabling kstat/kprof perturbed the simulation \
             (got 0x{:016x}/{} records, want 0x{:016x}/{})",
            got.0, got.1, want.0, want.1
        );
    }
}

/// The shootdown row with kprof on: the `Shootdown` event's kprof and
/// Stats fan-out must leave the trace bit-identical too.
#[test]
fn instrumented_shootdown_run_matches_uninstrumented_golden_digest() {
    let (label, cfg) = shootdown_golden_row();
    let k = run_traced_shootdown(cfg.with_kprof());
    assert_eq!(
        k.kprof.total(),
        k.total_cpu_cycles(),
        "{label}: kprof attribution incomplete"
    );
    assert!(k.stats.tlb_shootdown_ipis > 0, "{label}: no shootdown");
    assert_eq!(
        Some(&trace_digest(&k)),
        golden_digests().get(&label),
        "{label}: enabling kstat/kprof perturbed the simulation"
    );
}
