//! Cross-model trace diffing: run the same workload under the process
//! and interrupt execution models with `ktrace` enabled, project each
//! trace to its user-visible events, and verify the projections are
//! identical — the paper's claim that the execution model is a kernel
//! implementation detail, checked event by event instead of only at
//! final state.
//!
//! The *full* traces legitimately differ: the models charge different
//! entry/exit and context-switch costs, which shifts preemption timing,
//! and with it restarts, context switches and rollbacks. What must not
//! differ is what each thread could itself observe — the ordered result
//! codes of its completed system calls, its `sys_trace` marks, and its
//! halt ([`fluke_core::Tracer::user_visible`]).

use std::collections::BTreeMap;
use std::path::PathBuf;

use fluke_api::SysClass;
use fluke_core::krec::{fnv64, FNV_OFFSET};
use fluke_core::{Config, Histogram, Kernel, RunExit, TraceEvent, UserVisible};
use fluke_workloads::common::WorkloadRun;
use fluke_workloads::{flukeperf, FlukeperfParams};

use crate::Scale;

/// Ring capacity for diff runs: generous enough that no event drops
/// (dropped events would punch holes in the projection).
pub const DIFF_RING_CAPACITY: usize = 1 << 20;

/// Run a built workload to completion and hand back the kernel (unlike
/// `run_workload`, which consumes it and keeps only the stats).
///
/// # Panics
///
/// Panics if the workload fails to finish within `budget` cycles.
pub fn run_keep_kernel(mut w: WorkloadRun, budget: u64) -> Kernel {
    let start = w.kernel.now();
    let deadline = start + budget;
    const SLICE: u64 = 50_000;
    loop {
        let exit = w.kernel.run(Some((w.kernel.now() + SLICE).min(deadline)));
        if w.main_threads.iter().all(|&t| w.kernel.thread_halted(t)) {
            break;
        }
        match exit {
            RunExit::TimeLimit if w.kernel.now() >= deadline => {
                panic!("workload {} did not finish within {budget} cycles", w.label)
            }
            RunExit::TimeLimit => {}
            RunExit::AllHalted | RunExit::Deadlock => {
                panic!("workload {} wedged (exit {exit:?})", w.label)
            }
        }
    }
    w.kernel
}

/// Build and run flukeperf under `cfg` with tracing on; return the
/// kernel with its full trace.
pub fn run_traced_flukeperf(cfg: Config, scale: Scale) -> Kernel {
    let params = match scale {
        Scale::Paper => FlukeperfParams::paper(),
        Scale::Quick => FlukeperfParams::quick(),
    };
    let run = flukeperf::build(cfg.with_tracing(DIFF_RING_CAPACITY), &params);
    run_keep_kernel(run, 8_000_000_000)
}

/// Label and configuration of the golden row that pins cross-CPU TLB
/// shootdown (run by [`run_traced_shootdown`], not flukeperf).
pub fn shootdown_golden_row() -> (String, Config) {
    (
        "Process_PP_4cpu_shootdown".into(),
        Config::process_pp().with_cpus(4),
    )
}

/// Four reader threads of one space share the machine's four CPUs with a
/// protector thread of the same space, which repeatedly write-protects
/// and unprotects a page they read (`region_protect`). Every downgrade
/// must invalidate the remote TLBs. The readers also contend on one
/// mutex, so blocks, cross-CPU wakes, steals and preemptions interleave
/// with the shootdowns. The run exercises `Kernel::tlb_shootdown` under
/// `cfg` with tracing on; the kernel is returned with its full trace.
///
/// # Panics
///
/// Panics if a thread fails to halt within the cycle budget.
pub fn run_traced_shootdown(cfg: Config) -> Kernel {
    use fluke_api::abi::{ARG_COUNT, ARG_HANDLE, ARG_SBUF, ARG_VAL, PAGE_SIZE};
    use fluke_api::{ObjType, Sys};
    use fluke_arch::{Assembler, Cond, Reg};
    use fluke_user::proc::{run_to_halt, ChildProc};
    use fluke_user::FlukeAsm;

    let mut k = Kernel::new(cfg.with_tracing(DIFF_RING_CAPACITY));
    let mut p = ChildProc::new(&mut k);
    let region = p.alloc_obj();
    let mutex = p.alloc_obj();
    k.loader_create(p.space, mutex, ObjType::Mutex);
    let shared = p.mem_base + 4 * PAGE_SIZE;

    let mut a = Assembler::new("protector");
    a.movi(ARG_HANDLE, region);
    a.movi(ARG_COUNT, PAGE_SIZE);
    a.movi(ARG_VAL, shared);
    a.movi(ARG_SBUF, 0);
    a.sys(Sys::RegionCreate);
    a.movi(Reg::Ecx, 60);
    a.label("top");
    a.compute(1_000);
    a.sys_hv(Sys::RegionProtect, region, 0);
    a.sys_hv(Sys::RegionProtect, region, 1);
    a.subi(Reg::Ecx, 1);
    a.cmpi(Reg::Ecx, 0);
    a.jcc(Cond::Ne, "top");
    a.halt();
    let mut threads = vec![p.start(&mut k, a.finish(), 8)];

    for i in 0..4 {
        let mut a = Assembler::new(format!("reader{i}"));
        a.movi(Reg::Edi, 200);
        a.label("top");
        a.movi(Reg::Ebp, shared);
        a.load(Reg::Esi, Reg::Ebp, 4 * i);
        a.compute(300);
        a.mutex_lock(mutex);
        a.compute(40);
        a.mutex_unlock(mutex);
        a.subi(Reg::Edi, 1);
        a.cmpi(Reg::Edi, 0);
        a.jcc(Cond::Ne, "top");
        a.halt();
        threads.push(p.start(&mut k, a.finish(), 8));
    }
    assert!(
        run_to_halt(&mut k, &threads, 1_000_000_000),
        "shootdown workload did not finish"
    );
    k
}

/// The configurations pinned by `tests/golden/ktrace_digests.txt`, each
/// with its golden label: the four uniprocessor NP/PP rows, plus
/// multiprocessor rows that exercise fine-grained lock waits and idle
/// parking (Process PP on 4 CPUs), the big-lock oracle (the same with
/// `with_big_lock(true)`), and the full-preemption surcharge across CPUs
/// (Process FP on 2 CPUs). flukebench never shoots down a TLB; the
/// shootdown row is [`shootdown_golden_row`].
pub fn golden_configs() -> Vec<(String, Config)> {
    let mut out: Vec<(String, Config)> = [
        Config::process_np(),
        Config::process_pp(),
        Config::interrupt_np(),
        Config::interrupt_pp(),
    ]
    .into_iter()
    .map(|c| (c.label.replace(' ', "_"), c))
    .collect();
    out.push(("Process_PP_4cpu".into(), Config::process_pp().with_cpus(4)));
    out.push((
        "Process_PP_4cpu_biglock".into(),
        Config::process_pp().with_cpus(4).with_big_lock(true),
    ));
    out.push(("Process_FP_2cpu".into(), Config::process_fp().with_cpus(2)));
    out
}

/// Path of the blessed raw-ktrace digest file.
pub fn golden_digest_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("ktrace_digests.txt")
}

/// The blessed digests, label → (FNV-1a hash, record count).
///
/// # Panics
///
/// Panics if the golden file is missing or malformed.
pub fn golden_digests() -> BTreeMap<String, (u64, u64)> {
    let text = std::fs::read_to_string(golden_digest_path())
        .expect("golden file missing; bless via the ktrace_golden test");
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        let label = it.next().expect("label").to_string();
        let hash = u64::from_str_radix(it.next().expect("hash").trim_start_matches("0x"), 16)
            .expect("hex hash");
        let count: u64 = it.next().expect("count").parse().expect("record count");
        out.insert(label, (hash, count));
    }
    out
}

/// A canonical digest of a kernel's *raw* merged trace: FNV-1a over one
/// text line per record, plus the record count.
///
/// This is the strongest behavior-preservation oracle we have: two
/// kernels produce the same digest only if every record — timestamp,
/// CPU, sequence number, event kind and payload — is identical. The
/// golden-digest regression test uses it to prove refactors of the
/// dispatch path change *nothing*, not merely nothing user-visible.
///
/// The canonical line enumerates payload fields explicitly so that
/// *adding* a field to an event (e.g. a derived annotation) does not
/// silently invalidate blessed digests.
pub fn trace_digest(k: &Kernel) -> (u64, u64) {
    let mut h = FNV_OFFSET;
    let merged = k.trace.merged();
    for rec in &merged {
        let tid = rec
            .event
            .thread()
            .map_or_else(|| "-".to_string(), |t| t.0.to_string());
        let payload = match rec.event {
            TraceEvent::SyscallEnter { sys, .. } | TraceEvent::SyscallRestart { sys, .. } => {
                format!("sys={sys}")
            }
            TraceEvent::SyscallExit { code, .. } => format!("code={code}"),
            TraceEvent::IpcSend { bytes, .. } | TraceEvent::IpcTransfer { bytes, .. } => {
                format!("bytes={bytes}")
            }
            TraceEvent::IpcReceive { window, .. } => format!("window={window}"),
            TraceEvent::SoftFault { addr, remedy, .. } => format!("addr={addr} remedy={remedy}"),
            TraceEvent::HardFault { offset, .. } => format!("offset={offset}"),
            TraceEvent::HardFaultDone { remedy, .. } => format!("remedy={remedy}"),
            TraceEvent::Rollback { cycles, .. } => format!("cycles={cycles}"),
            TraceEvent::CtxSwitch { space_switch, .. } => format!("space={}", space_switch as u32),
            TraceEvent::Mark { value, .. } => format!("value={value}"),
            TraceEvent::FaultInjected { kind, site, .. } => format!("kind={kind} site={site}"),
            TraceEvent::IpcMessage { .. }
            | TraceEvent::UserPreempt { .. }
            | TraceEvent::KernelPreempt { .. }
            | TraceEvent::Block { .. }
            | TraceEvent::Wake { .. }
            | TraceEvent::Halt { .. } => String::new(),
        };
        let line = format!(
            "{} {} {} {} {} {}\n",
            rec.at,
            rec.cpu,
            rec.seq,
            rec.event.name(),
            tid,
            payload
        );
        h = fnv64(h, line.as_bytes());
    }
    (h, merged.len() as u64)
}

/// Enter-to-exit latency of completed system calls, one histogram per
/// Table-1 class — the bucketing the paper's Table 6 uses to compare
/// entrypoint costs (Trivial vs Short vs Long vs Multi-stage).
///
/// Latency is wall-clock simulated time from the `syscall_enter` event
/// to the matching `syscall_exit`, so it includes blocking, restarts and
/// rollbacks — the user-observable cost of the call, not just the
/// in-kernel path length.
#[derive(Default)]
pub struct ClassLatency {
    per_class: [Histogram; 4],
}

impl ClassLatency {
    /// The latency histogram for one Table-1 class.
    pub fn class(&self, c: SysClass) -> &Histogram {
        &self.per_class[c.index()]
    }

    /// Completed calls across all classes.
    pub fn total_count(&self) -> u64 {
        self.per_class.iter().map(Histogram::count).sum()
    }

    /// One summary line per class: count, mean, p95, max (cycles).
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for c in SysClass::ALL {
            let h = self.class(c);
            out.push_str(&format!(
                "{:<12} n={:<8} mean={:<10.1} p95={:<8} max={}\n",
                c.name(),
                h.count(),
                h.mean(),
                h.percentile(95.0),
                h.max()
            ));
        }
        out
    }
}

/// Bucket every completed syscall's enter-to-exit latency by the
/// [`SysClass`] stamped on the ktrace events.
///
/// Calls whose entrypoint number was invalid carry no class and are
/// skipped; a call still in flight when the trace ends never exits and
/// is likewise skipped. Restart re-dispatches (`syscall_restart`) do
/// not reopen a call — latency spans the original user-issued entry.
pub fn syscall_latency_by_class(k: &Kernel) -> ClassLatency {
    assert_eq!(
        k.trace.dropped_total(),
        0,
        "trace overflowed; grow the ring"
    );
    let mut open: std::collections::BTreeMap<u32, (u64, SysClass)> =
        std::collections::BTreeMap::new();
    let mut out = ClassLatency::default();
    for rec in k.trace.merged() {
        match rec.event {
            TraceEvent::SyscallEnter {
                thread,
                class: Some(c),
                ..
            } => {
                open.insert(thread.0, (rec.at, c));
            }
            TraceEvent::SyscallExit { thread, .. } => {
                if let Some((at, c)) = open.remove(&thread.0) {
                    out.per_class[c.index()].record(rec.at - at);
                }
            }
            _ => {}
        }
    }
    out
}

/// One user-visible divergence between two traces.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The thread (arena id, identical across runs of the same builder).
    pub thread: u32,
    /// Index into that thread's user-visible sequence.
    pub index: usize,
    /// What the first run saw at that position.
    pub left: Option<UserVisible>,
    /// What the second run saw.
    pub right: Option<UserVisible>,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "thread {} event {}: {:?} vs {:?}",
            self.thread, self.index, self.left, self.right
        )
    }
}

/// Diff two kernels' user-visible projections. Empty result means the
/// runs were user-visibly identical.
pub fn diff_user_visible(a: &Kernel, b: &Kernel) -> Vec<Divergence> {
    assert_eq!(a.trace.dropped_total(), 0, "left trace overflowed");
    assert_eq!(b.trace.dropped_total(), 0, "right trace overflowed");
    let ua = a.trace.user_visible();
    let ub = b.trace.user_visible();
    let mut out = Vec::new();
    let threads: std::collections::BTreeSet<_> = ua.keys().chain(ub.keys()).copied().collect();
    let empty = Vec::new();
    for t in threads {
        let left = ua.get(&t).unwrap_or(&empty);
        let right = ub.get(&t).unwrap_or(&empty);
        for i in 0..left.len().max(right.len()) {
            let l = left.get(i).copied();
            let r = right.get(i).copied();
            if l != r {
                out.push(Divergence {
                    thread: t.0,
                    index: i,
                    left: l,
                    right: r,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_and_interrupt_models_are_user_visibly_identical() {
        let a = run_traced_flukeperf(Config::process_np(), Scale::Quick);
        let b = run_traced_flukeperf(Config::interrupt_np(), Scale::Quick);
        // The raw traces must differ (the models really are different
        // kernels inside: entry/exit and switch costs shift every
        // timestamp)…
        assert_ne!(
            a.trace.merged(),
            b.trace.merged(),
            "expected different internal event streams across models"
        );
        // …while the user-visible projections are identical.
        let div = diff_user_visible(&a, &b);
        assert!(
            div.is_empty(),
            "models diverged: {}",
            div.iter()
                .take(5)
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("; ")
        );
    }

    #[test]
    fn class_latency_buckets_flukeperf_syscalls() {
        let k = run_traced_flukeperf(Config::process_np(), Scale::Quick);
        let lat = syscall_latency_by_class(&k);
        // flukeperf's phases issue calls of every class but Long: nulls
        // and yields (Trivial), object lifecycle (Short), and IPC
        // send/receive (Multi-stage).
        for c in [SysClass::Trivial, SysClass::Short, SysClass::MultiStage] {
            assert!(
                !lat.class(c).is_empty(),
                "expected {} calls in flukeperf\n{}",
                c.name(),
                lat.summary()
            );
        }
        // Every completed call landed in exactly one bucket: the class
        // totals add up to the number of exit events with a valid class.
        let exits = k
            .trace
            .merged()
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::SyscallExit { .. }))
            .count() as u64;
        assert!(lat.total_count() <= exits);
        assert!(lat.total_count() > 0);
        // Blocking classes cannot be cheaper than the trivial floor.
        if !lat.class(SysClass::MultiStage).is_empty() {
            assert!(
                lat.class(SysClass::MultiStage).max() >= lat.class(SysClass::Trivial).min(),
                "{}",
                lat.summary()
            );
        }
    }

    #[test]
    fn preemption_styles_are_user_visibly_identical() {
        let a = run_traced_flukeperf(Config::process_np(), Scale::Quick);
        let b = run_traced_flukeperf(Config::process_pp(), Scale::Quick);
        let div = diff_user_visible(&a, &b);
        assert!(div.is_empty(), "{} divergences", div.len());
    }
}
