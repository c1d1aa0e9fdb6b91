//! One pass: boot and build a workload, run it to completion, checkpoint
//! it, check its outputs. Untraced passes only time the top-level steps;
//! traced passes record a span around every call into a layer.

use std::collections::BTreeMap;
use std::time::Instant;

use fluke_api::abi::PAGE_SIZE;
use fluke_api::Sys;
use fluke_arch::cost::{ms_to_cycles, Cycles};
use fluke_core::{Kernel, SpaceId};
use fluke_workloads::memtest::SCAN_BASE;

use crate::heap::Heap;
use crate::trace::{Counters, Delta, Recorder};
use crate::workload::{rpc_class, Built, Expect, Size, Workload};

/// A checkpoint: `snapshot_bytes` → `restore_from` → `state_digest`.
#[derive(Debug, Clone)]
pub struct Ckpt {
    /// Host ns in `Kernel::snapshot_bytes`.
    pub encode_ns: u64,
    /// Host ns in `Kernel::restore_from`.
    pub restore_ns: u64,
    /// Host ns in the restored kernel's `Kernel::state_digest`.
    pub digest_ns: u64,
    /// Snapshot image size.
    pub bytes: u64,
    /// Allocations made by the three calls.
    pub heap: Heap,
    /// The source kernel's digest (the image's trailer).
    pub digest: u64,
}

impl Ckpt {
    /// Host ns of the whole checkpoint.
    pub fn ns(&self) -> u64 {
        self.encode_ns + self.restore_ns + self.digest_ns
    }
}

/// Table 6 probe latencies (simulated cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeLat {
    /// Median.
    pub p50: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Maximum (exact).
    pub max: u64,
    /// Probe activations recorded.
    pub runs: u64,
    /// Periods the probe was still pending.
    pub misses: u64,
}

/// kspan client-RPC latencies (simulated cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RpcLat {
    /// Median.
    pub p50: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Requests in the histogram.
    pub count: u64,
}

/// Everything simulated a pass produced.
#[derive(Debug, Clone)]
pub struct Sim {
    /// Simulated cycles of the measured run.
    pub elapsed: Cycles,
    /// Every scalar kstat of the finished kernel, minus process-wide
    /// accumulators (auditor coverage, fuzz campaign) and kprof's own.
    pub kstat: BTreeMap<String, u64>,
    /// Table 6 probe latency (flukeperf).
    pub probe: Option<ProbeLat>,
    /// Client RPC latency (server).
    pub rpc: Option<RpcLat>,
    /// kprof self cycles per phase name (traced passes).
    pub kprof: BTreeMap<String, u64>,
}

impl Sim {
    /// A kstat scalar (0 when absent).
    pub fn stat(&self, name: &str) -> u64 {
        self.kstat.get(name).copied().unwrap_or(0)
    }

    /// FNV-1a over every simulated result: equal fingerprints mean equal
    /// simulated outcomes, whatever the observers armed.
    pub fn fingerprint(&self) -> u64 {
        let mut h = fluke_core::krec::FNV_OFFSET;
        let mut eat = |b: &[u8]| h = fluke_core::krec::fnv64(h, b);
        eat(&self.elapsed.to_le_bytes());
        for (k, v) in &self.kstat {
            eat(k.as_bytes());
            eat(&v.to_le_bytes());
        }
        if let Some(p) = self.probe {
            for v in [p.p50, p.p99, p.max, p.runs, p.misses] {
                eat(&v.to_le_bytes());
            }
        }
        if let Some(r) = self.rpc {
            for v in [r.p50, r.p99, r.count] {
                eat(&v.to_le_bytes());
            }
        }
        h
    }
}

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// Observed vs expected.
    pub detail: String,
}

impl Check {
    /// A check comparing `got` with `want`.
    pub fn eq<T: PartialEq + std::fmt::Debug>(name: &'static str, got: T, want: T) -> Check {
        Check {
            name,
            ok: got == want,
            detail: format!("{got:?} (want {want:?})"),
        }
    }
}

/// Host cost of the memory-layer probe on the finished kernel.
#[derive(Debug, Clone, Copy)]
pub struct MemProbe {
    /// Host ns per `UserMem::read_u8`.
    pub read_u8_ns: f64,
    /// Host ns per KB through `UserMem::read_bytes` (4 KB reads).
    pub read_ns_per_kb: f64,
}

/// The outcome of one pass.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Host ns of set-up: the workload's build (which boots the kernel)
    /// plus arming it.
    pub setup_ns: u64,
    /// Host ns of a stand-alone `Kernel::new` of the same configuration
    /// (traced passes only).
    pub kernel_new_ns: u64,
    /// Allocations made by set-up.
    pub setup_heap: Heap,
    /// Host ns of the measured run (every `Kernel::run` call to completion).
    pub run_ns: u64,
    /// Allocations made inside `Kernel::run` (traced passes only).
    pub run_heap: Heap,
    /// `Kernel::run` calls.
    pub run_calls: u64,
    /// The checkpoint, if the snapshot succeeded.
    pub ckpt: Option<Ckpt>,
    /// Simulated results.
    pub sim: Sim,
    /// Output checks of this pass.
    pub checks: Vec<Check>,
    /// Memory-layer probe (traced passes only).
    pub mem: Option<MemProbe>,
}

/// Times a step and, when tracing, records it as a span.
struct Tr<'a>(Option<&'a mut Recorder>);

impl Tr<'_> {
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> (T, u64, Heap) {
        if let Some(r) = self.0.as_deref_mut() {
            r.begin(name);
        }
        let h0 = Heap::now();
        let t0 = Instant::now();
        let v = f(self);
        let ns = t0.elapsed().as_nanos() as u64;
        let heap = Heap::now().since(h0);
        if let Some(r) = self.0.as_deref_mut() {
            r.end();
        }
        (v, ns, heap)
    }
}

/// Run one pass of `w`. With a recorder the pass is traced: kprof is
/// armed, every layer call is a span, and the memory probe runs.
pub fn run_pass(w: Workload, size: Size, seed: u64, rec: Option<&mut Recorder>) -> Pass {
    let traced = rec.is_some();
    let (pass, _, _) = Tr(rec).span("pass", |tr| {
        let mut checks = Vec::new();
        let mut kernel_new_ns = 0;

        // Set-up. flukeperf's checkpoint falls between build and arming:
        // the probe it arms is a native thread, outside the snapshot
        // contract. Set-up time excludes that checkpoint.
        let ((mut built, pre, setup_ns, setup_heap), _, _) = tr.span("setup", |tr| {
            if traced {
                let (_, ns, _) = tr.span("setup.kernel_new", |_| Kernel::new(w.config(true)));
                kernel_new_ns = ns;
            }
            let (mut built, build_ns, build_heap) =
                tr.span("setup.build", |_| w.build(size, seed, traced));
            let pre = (!w.checkpoint_after_run()).then(|| checkpoint(tr, &built.kernel));
            let (_, arm_ns, arm_heap) = tr.span("setup.arm", |_| built.arm());
            (built, pre, build_ns + arm_ns, build_heap.plus(arm_heap))
        });

        // The measured run, slice by slice.
        let start = built.kernel.now();
        let mut run_heap = Heap::default();
        let ((run_calls, outcome), run_ns, _) = tr.span("run", |tr| {
            let mut before = None;
            built.run(w.budget(), |k, after| match (tr.0.as_deref_mut(), after) {
                (Some(r), false) => {
                    before = Some(Counters::read(k));
                    r.begin("run.slice");
                }
                (Some(r), true) => {
                    r.end();
                    let a = before.take().expect("slice opened");
                    r.set_delta(Delta::between(&a, &Counters::read(k)));
                    run_heap = run_heap.plus(r.spans.last().expect("slice closed").heap);
                }
                (None, _) => {}
            })
        });
        checks.push(Check {
            name: "run_completes",
            ok: outcome.is_ok(),
            detail: format!("{outcome:?}"),
        });
        let sim = collect_sim(&built, start);
        check_outputs(&built.expect, &sim, &mut checks);

        // The checkpoint of the finished kernel.
        let post = w
            .checkpoint_after_run()
            .then(|| checkpoint(tr, &built.kernel));
        let mut ckpt = None;
        match pre.or(post) {
            Some(Ok((c, restored_ok))) => {
                checks.push(Check::eq("restore_digest", restored_ok, true));
                ckpt = Some(c);
            }
            Some(Err(e)) => checks.push(Check {
                name: "snapshot",
                ok: false,
                detail: e,
            }),
            None => {}
        }

        let mut mem = None;
        if traced {
            match tr.span("probe.mem", |_| mem_probe(&mut built)).0 {
                Ok(m) => mem = Some(m),
                Err(e) => checks.push(Check {
                    name: "mem_probe",
                    ok: false,
                    detail: e,
                }),
            }
        }
        Pass {
            setup_ns,
            kernel_new_ns,
            setup_heap,
            run_ns,
            run_heap,
            run_calls,
            ckpt,
            sim,
            checks,
            mem,
        }
    });
    pass
}

/// Host ns of one stand-alone set-up (build and arm, as a pass does),
/// for extra `setup_s` samples.
pub fn setup_only(w: Workload, size: Size, seed: u64) -> u64 {
    let t0 = Instant::now();
    let mut built = w.build(size, seed, false);
    built.arm();
    let ns = t0.elapsed().as_nanos() as u64;
    drop(built);
    ns
}

/// Snapshot, restore and digest `k`; the restored kernel's digest must
/// equal the image's trailer (the source kernel's digest).
fn checkpoint(tr: &mut Tr, k: &Kernel) -> Result<(Ckpt, bool), String> {
    let (res, _, _) = tr.span("checkpoint", |tr| {
        let (bytes, encode_ns, h1) = tr.span("snap.encode", |_| k.snapshot_bytes());
        let bytes = bytes.map_err(|e| format!("snapshot_bytes: {e:?}"))?;
        let n = bytes.len();
        let digest = u64::from_le_bytes(bytes[n - 8..].try_into().expect("8-byte trailer"));
        let (restored, restore_ns, h2) = tr.span("snap.restore", |_| Kernel::restore_from(&bytes));
        let restored = restored.map_err(|e| format!("restore_from: {e:?}"))?;
        let (again, digest_ns, h3) = tr.span("snap.digest", |_| restored.state_digest());
        let again = again.map_err(|e| format!("state_digest: {e:?}"))?;
        let ckpt = Ckpt {
            encode_ns,
            restore_ns,
            digest_ns,
            bytes: n as u64,
            heap: h1.plus(h2).plus(h3),
            digest,
        };
        Ok((ckpt, again == digest))
    });
    res
}

fn collect_sim(b: &Built, start: Cycles) -> Sim {
    let k = &b.kernel;
    let kstat = k
        .kstat()
        .iter()
        .filter(|(name, _)| {
            !(name.ends_with(".audit_blocks")
                || name.starts_with("kernel.fuzz.")
                || name.starts_with("kernel.kprof."))
        })
        .filter_map(|(name, e)| e.value.scalar().map(|v| (name.to_string(), v)))
        .collect();
    let probe = matches!(b.expect, Expect::Flukeperf { .. }).then(|| {
        let h = &k.stats.probe_hist;
        ProbeLat {
            p50: h.percentile(50.0),
            p99: h.percentile(99.0),
            max: h.max(),
            runs: k.stats.probe_runs,
            misses: k.stats.probe_misses,
        }
    });
    let rpc = matches!(b.expect, Expect::Server { .. }).then(|| {
        let h = k
            .kspan
            .class_histograms()
            .get(rpc_class())
            .cloned()
            .unwrap_or_default();
        RpcLat {
            p50: h.percentile(50.0),
            p99: h.percentile(99.0),
            count: h.count(),
        }
    });
    // Self cycles per phase: each path's cycles go to its leaf phase.
    let mut kprof = BTreeMap::new();
    if k.kprof.enabled {
        for (path, cycles) in k.kprof.flat() {
            let leaf = path.rsplit(';').next().unwrap_or(&path).to_string();
            *kprof.entry(leaf).or_insert(0) += cycles;
        }
    }
    Sim {
        elapsed: k.now() - start,
        kstat,
        probe,
        rpc,
        kprof,
    }
}

fn check_outputs(expect: &Expect, sim: &Sim, checks: &mut Vec<Check>) {
    match *expect {
        Expect::Flukeperf { ipc_bytes } => {
            checks.push(Check::eq(
                "ipc_bytes",
                sim.stat("kernel.ipc.bytes"),
                ipc_bytes,
            ));
            // One probe period is either a run or a miss, from the first
            // period to the end of the simulated run.
            let p = sim.probe.expect("flukeperf records probe latency");
            checks.push(Check::eq(
                "probe_coverage",
                p.runs + p.misses,
                sim.elapsed / ms_to_cycles(1),
            ));
        }
        Expect::Memtest { hard_faults } => {
            checks.push(Check::eq(
                "hard_faults",
                sim.stat("kernel.fault.hard"),
                hard_faults,
            ));
        }
        Expect::Server { requests } => {
            // Each request is routed to its shard once and acknowledged
            // once; kspan records one client RPC per request.
            let count = |sys: Sys| sim.stat(&format!("kernel.syscall.{}.count", sys.name()));
            checks.push(Check::eq(
                "requests_completed",
                count(Sys::IpcServerAckSendWaitReceive),
                requests,
            ));
            checks.push(Check::eq(
                "requests_routed",
                count(Sys::IpcSendOneway),
                requests,
            ));
            let r = sim.rpc.expect("server records RPC latency");
            checks.push(Check::eq("kspan_requests", r.count, requests));
        }
    }
}

/// Time `UserMem::read_u8` and `UserMem::read_bytes` on the finished
/// kernel: over memtest's scanned window, or (other workloads) over a
/// 1 MB window the benchmark grants in a fresh space.
fn mem_probe(b: &mut Built) -> Result<MemProbe, String> {
    let k = &mut b.kernel;
    let (space, base, len): (SpaceId, u32, u32) = match b.expect {
        Expect::Memtest { hard_faults } => {
            let space = k
                .thread_space(b.mains[0])
                .ok_or("memtest thread has no space")?;
            (space, SCAN_BASE, hard_faults as u32 * PAGE_SIZE)
        }
        _ => {
            let space = k.create_space();
            let base = 0x0100_0000;
            k.grant_pages(space, base, 1 << 20, true);
            k.write_mem(space, base, &vec![0x5a; 1 << 20]);
            (space, base, 1 << 20)
        }
    };
    let mut m = k.user_mem(space).ok_or("probe space vanished")?;
    use fluke_arch::UserMem;
    let mut acc = 0u8;
    let t0 = Instant::now();
    for a in base..base + len {
        acc ^= m.read_u8(a).map_err(|f| format!("read_u8 fault {f:?}"))?;
    }
    let u8_ns = t0.elapsed().as_nanos() as f64;
    let mut buf = vec![0u8; 4096];
    let t0 = Instant::now();
    for a in (base..base + len).step_by(4096) {
        m.read_bytes(a, &mut buf)
            .map_err(|f| format!("read_bytes fault {f:?}"))?;
        acc ^= buf[17];
    }
    let bytes_ns = t0.elapsed().as_nanos() as f64;
    std::hint::black_box(acc);
    Ok(MemProbe {
        read_u8_ns: u8_ns / len as f64,
        read_ns_per_kb: bytes_ns / (len as f64 / 1024.0),
    })
}

/// Host ns per instruction of `Cpu::run_user` interpreting memtest's scan
/// loop over a flat, never-faulting 1 MB window the benchmark owns (no
/// kernel involved). The fastest of `reps` scans.
pub fn cpu_probe(reps: usize) -> Result<f64, String> {
    use fluke_arch::{AccessKind, CostModel, Cpu, MemFault, StepOutcome, Trap, UserMem, UserRegs};

    struct Window {
        base: u32,
        bytes: Vec<u8>,
    }
    impl Window {
        fn at(&mut self, addr: u32, kind: AccessKind) -> Result<&mut u8, MemFault> {
            addr.checked_sub(self.base)
                .and_then(|i| self.bytes.get_mut(i as usize))
                .ok_or(MemFault { addr, kind })
        }
    }
    impl UserMem for Window {
        fn read_u8(&mut self, addr: u32) -> Result<u8, MemFault> {
            self.at(addr, AccessKind::Read).map(|b| *b)
        }
        fn write_u8(&mut self, addr: u32, val: u8) -> Result<(), MemFault> {
            self.at(addr, AccessKind::Write).map(|b| *b = val)
        }
    }

    let mb = 1u32;
    let run = fluke_workloads::memtest::build(Workload::Memtest.config(false), mb);
    let prog = run
        .kernel
        .program(run.kernel.thread_frame(run.main_threads[0]).program)
        .ok_or("memtest program not registered")?;
    // Two set-up instructions, the loop body once per byte, the halt.
    let body = prog.len() as u64 - 3;
    let instrs = 2 + body * (mb as u64) * (1 << 20) + 1;
    let cost = CostModel::pentium_pro_200();
    let mut mem = Window {
        base: SCAN_BASE,
        bytes: vec![0; (mb as usize) << 20],
    };
    let mut best = f64::MAX;
    for _ in 0..reps {
        let mut cpu = Cpu::new(0);
        let mut regs = UserRegs::new();
        let t0 = Instant::now();
        let out = cpu.run_user(&mut regs, &prog, &mut mem, &cost, Cycles::MAX);
        let ns = t0.elapsed().as_nanos() as f64;
        if !matches!(out, StepOutcome::Trapped(Trap::Halt)) {
            return Err(format!("scan loop ended with {out:?}"));
        }
        best = best.min(ns / instrs as f64);
    }
    Ok(best)
}
