//! Golden-digest regression test for the dispatch path.
//!
//! The dispatch refactor (handler table + `SysCtx` mediation) must be
//! *behavior-preserving*: not just user-visibly equivalent, but
//! bit-identical in the raw ktrace — every timestamp, preemption,
//! restart, and rollback exactly where it was. This test runs the
//! traced `flukeperf` workload under both execution models (and both
//! NP/PP preemption styles), plus multiprocessor rows that pin the
//! lock-wait and idle paths, and a 4-CPU row of its own that pins
//! cross-CPU TLB shootdown; it compares a canonical FNV-1a digest of
//! the merged trace against digests blessed *before* the refactor.
//!
//! To re-bless after an intentional behavioral change:
//!
//! ```text
//! FLUKE_BLESS=1 cargo test -p fluke-bench --test ktrace_golden
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

use fluke_bench::tracediff::{
    golden_configs, golden_digest_path, golden_digests, run_traced_flukeperf, run_traced_shootdown,
    shootdown_golden_row, trace_digest,
};
use fluke_bench::Scale;

#[test]
fn raw_ktrace_digests_match_blessed_goldens() {
    let bless = std::env::var("FLUKE_BLESS").is_ok();
    let mut current = BTreeMap::new();
    for (label, cfg) in golden_configs() {
        let k = run_traced_flukeperf(cfg, Scale::Quick);
        assert_eq!(k.trace.dropped_total(), 0, "{label}: trace overflowed");
        current.insert(label, trace_digest(&k));
    }
    let (label, cfg) = shootdown_golden_row();
    let k = run_traced_shootdown(cfg);
    assert_eq!(k.trace.dropped_total(), 0, "{label}: trace overflowed");
    assert!(
        k.stats.tlb_shootdown_ipis > 0,
        "{label}: the row must shoot down remote TLBs"
    );
    current.insert(label, trace_digest(&k));

    if bless {
        let mut text = String::from(
            "# Blessed raw-ktrace digests for traced flukeperf (quick scale).\n\
             # label  fnv1a64  record_count\n",
        );
        for (label, (hash, count)) in &current {
            writeln!(text, "{label} 0x{hash:016x} {count}").unwrap();
        }
        std::fs::create_dir_all(golden_digest_path().parent().unwrap()).unwrap();
        std::fs::write(golden_digest_path(), text).unwrap();
        eprintln!(
            "blessed {} digests to {}",
            current.len(),
            golden_digest_path().display()
        );
        return;
    }

    let golden = golden_digests();
    for (label, got) in &current {
        let want = golden
            .get(label)
            .unwrap_or_else(|| panic!("no golden digest for config {label}"));
        assert_eq!(
            got, want,
            "raw ktrace diverged from blessed golden for config {label} \
             (got 0x{:016x}/{} records, want 0x{:016x}/{})",
            got.0, got.1, want.0, want.1
        );
    }
}
