//! The `kfault` zero-perturbation test: compiling the injection engine in
//! — and even *arming* it in count-only mode — must change nothing
//! simulated.
//!
//! The blessed digests in `tests/golden/ktrace_digests.txt` were produced
//! with no `kfault` engine at all. The disarmed case (`kfault: None`) is
//! already covered by the `ktrace_golden` test, which runs every config
//! with the default knob. This test re-runs the same traced `flukeperf`
//! workloads with the engine armed at the [`KfaultConfig::COUNT_ONLY`]
//! sentinel — every hook executes and counts its site, but never fires —
//! and requires the raw ktrace digests to stay bit-identical. Two kinds
//! cover both hook paths: [`KfaultKind::ExtractRestore`] exercises the
//! instruction-boundary hook (shared by `Timer` and `PageFlush`), and
//! [`KfaultKind::Transient`] exercises the syscall-dispatch hook.

use fluke_bench::tracediff::{golden_digests, run_traced_flukeperf, trace_digest};
use fluke_bench::Scale;
use fluke_core::{Config, KfaultConfig, KfaultKind};

#[test]
fn count_only_armed_runs_match_unarmed_golden_digests() {
    let golden = golden_digests();
    for cfg in [
        Config::process_np(),
        Config::process_pp(),
        Config::interrupt_np(),
        Config::interrupt_pp(),
    ] {
        for kind in [KfaultKind::ExtractRestore, KfaultKind::Transient] {
            let label = cfg.label.replace(' ', "_");
            let armed = cfg.clone().with_kfault(KfaultConfig::count_sites(kind));
            let k = run_traced_flukeperf(armed, Scale::Quick);
            assert_eq!(k.trace.dropped_total(), 0, "{label}: trace overflowed");
            // The hooks really ran: the engine saw a nonempty site space…
            let engine = k.kfault().expect("engine armed");
            assert!(
                engine.sites_seen() > 0,
                "{label}/{}: no injection sites counted",
                kind.name()
            );
            assert!(!engine.fired(), "{label}/{}: count-only fired", kind.name());
            // …and no injection was ever recorded.
            for k2 in KfaultKind::ALL {
                assert_eq!(
                    k.stats.faults_injected[k2.index()],
                    0,
                    "{label}/{}: spurious {} injection count",
                    kind.name(),
                    k2.name()
                );
            }
            // The oracle: bit-identical raw trace against digests blessed
            // with no engine compiled in at all.
            let got = trace_digest(&k);
            let want = golden
                .get(&label)
                .unwrap_or_else(|| panic!("no golden digest for config {label}"));
            assert_eq!(
                &got,
                want,
                "{label}/{}: arming kfault in count-only mode perturbed the \
                 simulation (got 0x{:016x}/{} records, want 0x{:016x}/{})",
                kind.name(),
                got.0,
                got.1,
                want.0,
                want.1
            );
        }
    }
}
