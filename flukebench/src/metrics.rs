//! The metric catalog: every end-to-end and per-layer metric, with its
//! unit, clock and direction, and for each per-layer metric the
//! end-to-end metric and workload it should move.

/// An end-to-end metric.
pub struct E2e {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `host`, `simulated` or `checks`.
    pub clock: &'static str,
    /// Listed in `BENCHMARK.json` (measured on every workload, never 0).
    pub gated: bool,
    /// Workloads it applies to.
    pub applies: &'static [&'static str],
}

const ALL: &[&str] = &["flukeperf", "memtest", "server"];

/// The twelve end-to-end metrics, in report order.
pub const E2E: &[E2e] = &[
    E2e {
        name: "host_s",
        unit: "s",
        clock: "host",
        gated: true,
        applies: ALL,
    },
    E2e {
        name: "setup_s",
        unit: "s",
        clock: "host",
        gated: true,
        applies: ALL,
    },
    E2e {
        name: "checkpoint_s",
        unit: "s",
        clock: "host",
        gated: true,
        applies: ALL,
    },
    E2e {
        name: "peak_rss_mb",
        unit: "MB",
        clock: "host",
        gated: true,
        applies: ALL,
    },
    E2e {
        name: "sim_ms",
        unit: "ms_simulated",
        clock: "simulated",
        gated: true,
        applies: ALL,
    },
    E2e {
        name: "sim_kmem_peak_kb",
        unit: "KB",
        clock: "simulated",
        gated: true,
        applies: ALL,
    },
    E2e {
        name: "preempt_p50_us",
        unit: "us_simulated",
        clock: "simulated",
        gated: false,
        applies: &["flukeperf"],
    },
    E2e {
        name: "preempt_p99_us",
        unit: "us_simulated",
        clock: "simulated",
        gated: false,
        applies: &["flukeperf"],
    },
    E2e {
        name: "preempt_max_us",
        unit: "us_simulated",
        clock: "simulated",
        gated: false,
        applies: &["flukeperf"],
    },
    E2e {
        name: "rpc_p50_us",
        unit: "us_simulated",
        clock: "simulated",
        gated: false,
        applies: &["server"],
    },
    E2e {
        name: "rpc_p99_us",
        unit: "us_simulated",
        clock: "simulated",
        gated: false,
        applies: &["server"],
    },
    E2e {
        name: "error_rate",
        unit: "fraction",
        clock: "checks",
        gated: false,
        applies: ALL,
    },
];

/// A per-layer metric.
pub struct PerLayer {
    /// Name as printed (kstat names keep their DESIGN.md §13 spelling).
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `higher` or `lower`.
    pub better: &'static str,
    /// The layer (module) it measures.
    pub layer: &'static str,
    /// End-to-end metric(s) it should move.
    pub moves: &'static str,
    /// Workload(s) it should move them on.
    pub on: &'static str,
    /// Workload(s) where it should stay flat.
    pub flat: &'static str,
}

macro_rules! layer {
    ($layer:expr, $moves:expr, $on:expr, $flat:expr; $( $name:literal $unit:literal $better:literal ),+ $(,)?) => {
        [$( PerLayer { name: $name, unit: $unit, better: $better, layer: $layer, moves: $moves, on: $on, flat: $flat } ),+]
    };
}

static SETUP: [PerLayer; 3] = layer!("fluke_workloads + Kernel::new", "setup_s", "server", "memtest";
    "setup.kernel_new_ms" "ms" "lower",
    "setup.build_ms" "ms" "lower",
    "setup.heap_allocs" "count" "lower");
static CPU: [PerLayer; 2] = layer!("fluke_arch::cpu", "host_s", "memtest", "server";
    "cpu.ns_per_instr" "ns" "lower",
    "kernel.cycles.user" "cycles" "lower");
static MEM: [PerLayer; 6] = layer!("fluke_core::kernel::mem + tlb", "host_s", "memtest", "server";
    "kernel.tlb.hits" "count" "higher",
    "kernel.tlb.misses" "count" "lower",
    "tlb.hit_ratio" "ratio" "higher",
    "kernel.fault.soft" "count" "lower",
    "mem.read_u8_ns" "ns" "lower",
    "mem.read_ns_per_kb" "ns/KB" "lower");
static SHOOTDOWN: [PerLayer; 2] = layer!("fluke_core::kernel::mem shootdown", "host_s, rpc_p99_us", "server", "flukeperf";
    "kernel.tlb.shootdowns" "count" "lower",
    "kernel.tlb.shootdown.ipis" "count" "lower");
static PAGER: [PerLayer; 3] = layer!("fluke_user::pager (fault IPC)", "sim_ms", "memtest", "flukeperf";
    "kernel.fault.hard" "count" "lower",
    "kprof.fault_ipc" "cycles" "lower",
    "kprof.mem_fill" "cycles" "lower");
static DISPATCH: [PerLayer; 8] = layer!("fluke_core::kernel::{run,dispatch,sysctx}", "host_s, sim_ms, preempt_*", "flukeperf", "memtest";
    "kernel.syscall.count" "count" "lower",
    "kernel.syscall.restarts" "count" "lower",
    "kernel.cycles.rollback" "cycles" "lower",
    "syscall.host_ns" "ns" "lower",
    "kprof.entry" "cycles" "lower",
    "kprof.exit" "cycles" "lower",
    "kprof.dispatch" "cycles" "lower",
    "kprof.restart" "cycles" "lower");
static IPC: [PerLayer; 11] = layer!("fluke_core::kernel::{ipc,submit} + conn + waitq", "host_s, rpc_p99_us", "flukeperf (bulk copy), server (namespace, portsets)", "memtest";
    "kernel.ipc.messages" "count" "lower",
    "kernel.ipc.bytes" "bytes" "lower",
    "ipc.host_ns_per_msg" "ns" "lower",
    "kprof.ipc_copy" "cycles" "lower",
    "kernel.waitq.enqueues" "count" "lower",
    "kernel.waitq.wakes" "count" "lower",
    "kernel.waitq.cancels_linear" "count" "lower",
    "kernel.waitq.tombstones_skipped" "count" "lower",
    "kernel.port.index.lookups" "count" "lower",
    "kernel.port.index.ref_chases" "count" "lower",
    "kernel.port.index.unlinks_linear" "count" "lower");
static SCHED: [PerLayer; 13] = layer!("fluke_core::sched + MP run loop", "host_s, rpc_p99_us", "server (8 CPUs)", "flukeperf, memtest (1 CPU)";
    "kernel.sched.ctx_switches" "count" "lower",
    "kernel.sched.space_switches" "count" "lower",
    "sched.host_ns_per_ctx_switch" "ns" "lower",
    "kernel.sched.percpu.steals" "count" "higher",
    "kernel.sched.percpu.steal_attempts" "count" "lower",
    "sched.steal_ratio" "ratio" "higher",
    "kernel.sched.percpu.ipis" "count" "lower",
    "kernel.contention.runq.wait_cycles" "cycles" "lower",
    "kernel.cycles.klock_wait" "cycles" "lower",
    "kernel.cycles.idle" "cycles" "lower",
    "kprof.sched" "cycles" "lower",
    "kprof.lock" "cycles" "lower",
    "run.calls" "count" "lower");
static OBSERVERS: [PerLayer; 3] = layer!("fluke_core::kspan / kstat", "host_s, peak_rss_mb", "server (armed)", "flukeperf, memtest (all off)";
    "kernel.kspan.requests" "count" "higher",
    "kernel.kspan.flows" "count" "lower",
    "kernel.kspan.aborted" "count" "lower");
static KREC: [PerLayer; 7] = layer!("fluke_core::krec + kernel::snapshot", "checkpoint_s", "memtest (bytes), server (objects)", "flukeperf (booted kernel only)";
    "snap.bytes" "bytes" "lower",
    "snap.encode_ms" "ms" "lower",
    "snap.restore_ms" "ms" "lower",
    "snap.digest_ms" "ms" "lower",
    "snap.encode_ns_per_kb" "ns/KB" "lower",
    "snap.restore_ns_per_kb" "ns/KB" "lower",
    "snap.heap_allocs" "count" "lower");
static HEAP: [PerLayer; 2] = layer!("host allocator (benchmark-side)", "host_s, peak_rss_mb", "server", "flukeperf";
    "heap.allocs_per_syscall" "allocs/syscall" "lower",
    "heap.bytes_per_syscall" "B/syscall" "lower");
static TRACE: [PerLayer; 2] = layer!("benchmark trace", "none (cost of tracing)", "all", "-";
    "trace.spans" "count" "lower",
    "trace.overhead_ratio" "ratio" "lower");

/// Every per-layer metric, grouped by layer.
pub fn per_layer() -> impl Iterator<Item = &'static PerLayer> {
    static GROUPS: [&[PerLayer]; 12] = [
        &SETUP, &CPU, &MEM, &SHOOTDOWN, &PAGER, &DISPATCH, &IPC, &SCHED, &OBSERVERS, &KREC, &HEAP,
        &TRACE,
    ];
    GROUPS.into_iter().flatten()
}
