//! `ktrace`: the kernel's deterministic flight recorder.
//!
//! Every interesting kernel transition — syscall entry/exit/restart, IPC
//! stages, faults, scheduling — is recorded as a structured
//! [`TraceEvent`] in a bounded per-CPU ring buffer, timestamped with the
//! *simulated* cycle clock. Because the simulation is a deterministic
//! discrete-event system, two runs of the same configuration produce
//! bit-identical traces; this is what lets us *diff* traces across the
//! process and interrupt execution models and check the paper's claim
//! that they are user-visibly equivalent, event by event.
//!
//! Design constraints:
//!
//! * **Zero-cost when off.** Every emission site is guarded by a single
//!   branch on [`Tracer::enabled`]; a disabled tracer allocates nothing
//!   and records nothing.
//! * **Bounded.** Each CPU's ring holds at most the configured capacity;
//!   overflow drops the *oldest* records and counts them in
//!   [`TraceRing::dropped`] — never silently.
//! * **Deterministic.** Records carry the cycle timestamp plus a per-CPU
//!   sequence number, so a total order exists even among same-cycle
//!   events and merged output is reproducible bit for bit.
//!
//! The module also provides [`Histogram`], the log-linear latency
//! histogram backing the Table 6 percentile summaries, and the
//! [`UserVisible`] projection used by the `trace_diff` tool: the
//! per-thread subsequence of events a thread could itself observe
//! (syscall completion codes, its own trace marks, its halt), which is
//! invariant across execution models even though the full trace — costs,
//! preemptions, restarts — legitimately differs.

use std::collections::{BTreeMap, VecDeque};

use fluke_api::SysClass;
use fluke_arch::cost::Cycles;

use crate::ids::ThreadId;

/// One structured kernel event.
///
/// Payloads are small and `Copy`; recording an event never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A thread entered the kernel with a system call (`eax` holds the
    /// entrypoint number, possibly invalid).
    SyscallEnter {
        /// The calling thread.
        thread: ThreadId,
        /// Raw entrypoint number from `eax`.
        sys: u32,
        /// Table-1 class of the entrypoint (`None` if `sys` is invalid).
        class: Option<SysClass>,
    },
    /// A kernel entry that re-dispatches an in-flight (restarted) call.
    SyscallRestart {
        /// The restarting thread.
        thread: ThreadId,
        /// Raw entrypoint number being re-issued.
        sys: u32,
        /// Table-1 class of the entrypoint (`None` if `sys` is invalid).
        class: Option<SysClass>,
    },
    /// A system call completed user-visibly: result code written to
    /// `eax`, `eip` advanced past the trap. This fires exactly once per
    /// user-issued call, whether the thread was running
    /// (`finish_syscall`) or completed while blocked (continuation
    /// recognition via `complete_blocked`).
    SyscallExit {
        /// The completing thread.
        thread: ThreadId,
        /// Result code delivered in `eax`.
        code: u32,
        /// Table-1 class of the entrypoint that completed (`None` when
        /// the entrypoint number was itself invalid).
        class: Option<SysClass>,
    },
    /// An IPC send stage began moving bytes.
    IpcSend {
        /// The sending thread.
        thread: ThreadId,
        /// Bytes remaining to send at stage start.
        bytes: u32,
    },
    /// An IPC receive stage posted a window.
    IpcReceive {
        /// The receiving thread.
        thread: ThreadId,
        /// Window bytes available at stage start.
        window: u32,
    },
    /// The transfer pump moved one chunk.
    IpcTransfer {
        /// The thread driving the pump.
        thread: ThreadId,
        /// Chunk size in bytes.
        bytes: u32,
    },
    /// A complete IPC message was delivered.
    IpcMessage {
        /// The thread driving the pump at completion.
        thread: ThreadId,
    },
    /// A soft page fault was resolved inline from the mapping hierarchy.
    SoftFault {
        /// The faulting thread.
        thread: ThreadId,
        /// Faulting virtual address.
        addr: u32,
        /// Cycles of remedy work (hierarchy walk + PTE install).
        remedy: Cycles,
    },
    /// A hard fault was converted into an exception IPC to a keeper.
    HardFault {
        /// The faulting thread (now blocked on the pager).
        thread: ThreadId,
        /// Page-aligned offset within the faulting region.
        offset: u32,
    },
    /// A keeper replied: the hard fault is remedied.
    HardFaultDone {
        /// The previously faulting thread.
        thread: ThreadId,
        /// Full remedy cost in cycles (fault raise to keeper reply).
        remedy: Cycles,
    },
    /// Rolled-back preamble work was re-executed after a restart. Emitted
    /// once per rollback window with the total re-executed cycles — the
    /// Table 3 "rollback" column as individual events.
    Rollback {
        /// The thread whose call restarted.
        thread: ThreadId,
        /// Cycles of discarded work re-executed.
        cycles: Cycles,
    },
    /// The scheduler dispatched a thread onto this CPU (context switch).
    CtxSwitch {
        /// The incoming thread.
        thread: ThreadId,
        /// Whether the dispatch also switched address spaces.
        space_switch: bool,
    },
    /// A thread was preempted at a user-mode instruction boundary.
    UserPreempt {
        /// The outgoing thread.
        thread: ThreadId,
    },
    /// A thread was preempted *inside* the kernel at an explicit clean
    /// point (PP/FP configurations).
    KernelPreempt {
        /// The preempted thread (left ready, registers at a restart
        /// point).
        thread: ThreadId,
    },
    /// A thread blocked with its registers at a clean restart point.
    Block {
        /// The blocking thread.
        thread: ThreadId,
    },
    /// A blocked or sleeping thread became runnable.
    Wake {
        /// The woken thread.
        thread: ThreadId,
    },
    /// A thread halted.
    Halt {
        /// The halting thread.
        thread: ThreadId,
    },
    /// A value logged through the `sys_trace` debug channel.
    Mark {
        /// The logging thread.
        thread: ThreadId,
        /// The logged value.
        value: u32,
    },
    /// A `kfault` adversarial perturbation fired (never part of the
    /// user-visible projection: injections perturb *kernel* execution;
    /// the user-visible outcome must not change).
    FaultInjected {
        /// The victim thread.
        thread: ThreadId,
        /// Injection kind ([`crate::kfault::KfaultKind::index`]).
        kind: u32,
        /// The injection-site index that fired.
        site: u64,
    },
}

impl TraceEvent {
    /// A short stable name for summaries and exporters.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::SyscallEnter { .. } => "syscall_enter",
            TraceEvent::SyscallRestart { .. } => "syscall_restart",
            TraceEvent::SyscallExit { .. } => "syscall_exit",
            TraceEvent::IpcSend { .. } => "ipc_send",
            TraceEvent::IpcReceive { .. } => "ipc_receive",
            TraceEvent::IpcTransfer { .. } => "ipc_transfer",
            TraceEvent::IpcMessage { .. } => "ipc_message",
            TraceEvent::SoftFault { .. } => "soft_fault",
            TraceEvent::HardFault { .. } => "hard_fault",
            TraceEvent::HardFaultDone { .. } => "hard_fault_done",
            TraceEvent::Rollback { .. } => "rollback",
            TraceEvent::CtxSwitch { .. } => "ctx_switch",
            TraceEvent::UserPreempt { .. } => "user_preempt",
            TraceEvent::KernelPreempt { .. } => "kernel_preempt",
            TraceEvent::Block { .. } => "block",
            TraceEvent::Wake { .. } => "wake",
            TraceEvent::Halt { .. } => "halt",
            TraceEvent::Mark { .. } => "mark",
            TraceEvent::FaultInjected { .. } => "fault_injected",
        }
    }

    /// The thread the event concerns, if any.
    pub fn thread(&self) -> Option<ThreadId> {
        match *self {
            TraceEvent::SyscallEnter { thread, .. }
            | TraceEvent::SyscallRestart { thread, .. }
            | TraceEvent::SyscallExit { thread, .. }
            | TraceEvent::IpcSend { thread, .. }
            | TraceEvent::IpcReceive { thread, .. }
            | TraceEvent::IpcTransfer { thread, .. }
            | TraceEvent::IpcMessage { thread }
            | TraceEvent::SoftFault { thread, .. }
            | TraceEvent::HardFault { thread, .. }
            | TraceEvent::HardFaultDone { thread, .. }
            | TraceEvent::Rollback { thread, .. }
            | TraceEvent::CtxSwitch { thread, .. }
            | TraceEvent::UserPreempt { thread }
            | TraceEvent::KernelPreempt { thread }
            | TraceEvent::Block { thread }
            | TraceEvent::Wake { thread }
            | TraceEvent::Halt { thread }
            | TraceEvent::Mark { thread, .. }
            | TraceEvent::FaultInjected { thread, .. } => Some(thread),
        }
    }
}

/// One recorded event with its position in simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulated cycle time of the event.
    pub at: Cycles,
    /// CPU that recorded it.
    pub cpu: u32,
    /// Per-CPU monotone sequence number (counts from 0 including dropped
    /// records, so gaps at the front reveal overflow).
    pub seq: u64,
    /// The event.
    pub event: TraceEvent,
}

/// A bounded per-CPU ring of trace records.
///
/// Overflow drops the oldest record and increments [`TraceRing::dropped`]
/// — loss is always explicit, never silent.
#[derive(Debug, Clone, Default)]
pub struct TraceRing {
    buf: VecDeque<TraceRecord>,
    cap: usize,
    /// Records dropped to make room (oldest-first).
    pub dropped: u64,
    next_seq: u64,
}

impl TraceRing {
    fn with_capacity(cap: usize) -> TraceRing {
        TraceRing {
            buf: VecDeque::with_capacity(cap),
            cap,
            dropped: 0,
            next_seq: 0,
        }
    }

    fn push(&mut self, at: Cycles, cpu: u32, event: TraceEvent) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.buf.push_back(TraceRecord {
            at,
            cpu,
            seq,
            event,
        });
    }

    /// Records currently held, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.buf.iter()
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no records.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events ever recorded (held + dropped).
    pub fn total_recorded(&self) -> u64 {
        self.next_seq
    }
}

/// The kernel's tracer: one bounded ring per CPU plus the enable flag
/// consulted (once, inline) at every emission site.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    /// Whether events are recorded. Immutable over a run.
    pub enabled: bool,
    rings: Vec<TraceRing>,
    /// Rollback cycles accumulated since the last progress point; flushed
    /// as a single [`TraceEvent::Rollback`] when the window closes.
    pub(crate) pending_rollback: Cycles,
}

impl Tracer {
    /// Create a tracer. A disabled tracer allocates nothing.
    pub fn new(enabled: bool, ring_capacity: usize, num_cpus: usize) -> Tracer {
        Tracer {
            enabled,
            rings: if enabled {
                (0..num_cpus)
                    .map(|_| TraceRing::with_capacity(ring_capacity))
                    .collect()
            } else {
                Vec::new()
            },
            pending_rollback: 0,
        }
    }

    /// Record an event (caller has already checked [`Tracer::enabled`]).
    #[inline]
    pub(crate) fn emit(&mut self, cpu: usize, at: Cycles, event: TraceEvent) {
        debug_assert!(self.enabled);
        self.rings[cpu].push(at, cpu as u32, event);
    }

    /// The ring of one CPU.
    pub fn ring(&self, cpu: usize) -> Option<&TraceRing> {
        self.rings.get(cpu)
    }

    /// Heap capacity held by the rings, in records. Zero when disabled —
    /// the "no allocation when off" guarantee, testably.
    pub fn allocated_capacity(&self) -> usize {
        self.rings.iter().map(|r| r.buf.capacity()).sum()
    }

    /// Total events currently held across all rings.
    pub fn len(&self) -> usize {
        self.rings.iter().map(|r| r.len()).sum()
    }

    /// Whether no events are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total records dropped to overflow across all rings.
    pub fn dropped_total(&self) -> u64 {
        self.rings.iter().map(|r| r.dropped).sum()
    }

    /// All held records merged into one deterministic total order:
    /// by cycle time, then CPU, then sequence number.
    pub fn merged(&self) -> Vec<TraceRecord> {
        let mut out: Vec<TraceRecord> = self
            .rings
            .iter()
            .flat_map(|r| r.records().copied())
            .collect();
        out.sort_by_key(|r| (r.at, r.cpu, r.seq));
        out
    }

    /// The user-visible projection: for each thread, in order, the events
    /// that thread could itself observe — the result code of each
    /// completed system call, the values it logged through `sys_trace`,
    /// and its halt.
    ///
    /// This is the cross-model invariant. The full event stream
    /// legitimately differs between the process and interrupt models
    /// (different entry/exit costs shift preemption timing, and with it
    /// restarts and context switches), but the per-thread sequence of
    /// observable completions must be identical — the paper's equivalence
    /// claim, made executable.
    pub fn user_visible(&self) -> BTreeMap<ThreadId, Vec<UserVisible>> {
        let mut out: BTreeMap<ThreadId, Vec<UserVisible>> = BTreeMap::new();
        for rec in self.merged() {
            let (thread, ev) = match rec.event {
                TraceEvent::SyscallExit { thread, code, .. } => {
                    (thread, UserVisible::Syscall { code })
                }
                TraceEvent::Mark { thread, value } => (thread, UserVisible::Mark(value)),
                TraceEvent::Halt { thread } => (thread, UserVisible::Halt),
                _ => continue,
            };
            out.entry(thread).or_default().push(ev);
        }
        out
    }
}

/// One event of the user-visible projection (see
/// [`Tracer::user_visible`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UserVisible {
    /// A system call completed with this result code in `eax`.
    Syscall {
        /// The delivered result code.
        code: u32,
    },
    /// The thread logged this value via `sys_trace`.
    Mark(u32),
    /// The thread halted.
    Halt,
}

// ----------------------------------------------------------------------
// Histogram.
// ----------------------------------------------------------------------

/// Number of linear sub-buckets per power of two (log-linear layout).
const SUB: u64 = 32;
/// Values below `2 * SUB` get exact unit buckets.
const LINEAR_LIMIT: u64 = 2 * SUB;

/// A log-linear histogram of `u64` samples (cycle latencies).
///
/// Count, sum, min and max are exact, so means and maxima match the raw
/// data bit for bit; percentiles are bucket upper bounds with ≤ ~3%
/// relative error (32 sub-buckets per power of two). This replaces the
/// unbounded `Vec<Cycles>` the latency probe previously accumulated:
/// constant memory regardless of run length.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    /// Bucket counts, grown on demand.
    buckets: Vec<u64>,
}

fn bucket_index(v: u64) -> usize {
    if v < LINEAR_LIMIT {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros() as u64; // >= 6
        let sub = (v >> (exp - 5)) & (SUB - 1);
        (LINEAR_LIMIT + (exp - 6) * SUB + sub) as usize
    }
}

/// Largest value mapping to the bucket at `index`.
fn bucket_upper(index: usize) -> u64 {
    let i = index as u64;
    if i < LINEAR_LIMIT {
        i
    } else {
        let exp = 6 + (i - LINEAR_LIMIT) / SUB;
        let sub = (i - LINEAR_LIMIT) % SUB;
        let base = 1u64 << exp;
        let step = 1u64 << (exp - 5);
        base + (sub + 1) * step - 1
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        let idx = bucket_index(v);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
        self.min = if self.count == 1 { v } else { self.min.min(v) };
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact maximum sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact minimum sample (0 when empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Exact arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at or below which `p` percent of samples fall
    /// (bucket upper bound; exact max for `p = 100`). 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= rank {
                return bucket_upper(i).min(self.max).max(self.min);
            }
        }
        self.max
    }
}

// --- krec snapshot support ------------------------------------------------

use crate::krec::{snap_codec, Snap, SnapError, SnapReader, SnapWriter};

snap_codec! {
    enum TraceEvent as "TraceEvent" {
        0 => SyscallEnter { thread, sys, class },
        1 => SyscallRestart { thread, sys, class },
        2 => SyscallExit { thread, code, class },
        3 => IpcSend { thread, bytes },
        4 => IpcReceive { thread, window },
        5 => IpcTransfer { thread, bytes },
        6 => IpcMessage { thread },
        7 => SoftFault { thread, addr, remedy },
        8 => HardFault { thread, offset },
        9 => HardFaultDone { thread, remedy },
        10 => Rollback { thread, cycles },
        11 => CtxSwitch { thread, space_switch },
        12 => UserPreempt { thread },
        13 => KernelPreempt { thread },
        14 => Block { thread },
        15 => Wake { thread },
        16 => Halt { thread },
        17 => Mark { thread, value },
        18 => FaultInjected { thread, kind, site },
    }
}

snap_codec! {
    struct TraceRecord { at, cpu, seq, event }
}

impl Snap for TraceRing {
    fn snap(&self, w: &mut SnapWriter) {
        self.buf.snap(w);
        w.usize(self.cap);
        w.u64(self.dropped);
        w.u64(self.next_seq);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let buf: VecDeque<TraceRecord> = Snap::restore(r)?;
        let cap = r.usize()?;
        if buf.len() > cap {
            return Err(SnapError::Invalid("trace ring over capacity"));
        }
        Ok(TraceRing {
            buf,
            cap,
            dropped: r.u64()?,
            next_seq: r.u64()?,
        })
    }
}

snap_codec! {
    struct Tracer { enabled, rings, pending_rollback }
}

snap_codec! {
    struct Histogram { count, sum, min, max, buckets }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u32) -> TraceEvent {
        TraceEvent::SyscallEnter {
            thread: ThreadId(t),
            sys: 1,
            class: None,
        }
    }

    #[test]
    fn ring_overflow_drops_oldest_with_explicit_counter() {
        let mut tr = Tracer::new(true, 4, 1);
        for i in 0..10u64 {
            tr.emit(0, i, ev(i as u32));
        }
        let ring = tr.ring(0).unwrap();
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.dropped, 6);
        assert_eq!(tr.dropped_total(), 6);
        assert_eq!(ring.total_recorded(), 10);
        // The oldest were dropped: remaining sequence numbers are 6..10,
        // and timestamps match.
        let seqs: Vec<u64> = ring.records().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        let ats: Vec<Cycles> = ring.records().map(|r| r.at).collect();
        assert_eq!(ats, vec![6, 7, 8, 9]);
    }

    #[test]
    fn disabled_tracer_allocates_nothing() {
        let tr = Tracer::new(false, 1 << 16, 4);
        assert!(!tr.enabled);
        assert_eq!(tr.allocated_capacity(), 0);
        assert!(tr.is_empty());
        assert_eq!(tr.dropped_total(), 0);
        assert!(tr.merged().is_empty());
    }

    #[test]
    fn merged_orders_across_cpus() {
        let mut tr = Tracer::new(true, 16, 2);
        tr.emit(0, 100, ev(0));
        tr.emit(1, 50, ev(1));
        tr.emit(0, 50, ev(2));
        let order: Vec<(Cycles, u32)> = tr.merged().iter().map(|r| (r.at, r.cpu)).collect();
        assert_eq!(order, vec![(50, 0), (50, 1), (100, 0)]);
    }

    #[test]
    fn user_visible_projection_keeps_per_thread_order() {
        let mut tr = Tracer::new(true, 64, 1);
        let t0 = ThreadId(0);
        let t1 = ThreadId(1);
        tr.emit(
            0,
            1,
            TraceEvent::SyscallExit {
                thread: t0,
                code: 0,
                class: None,
            },
        );
        tr.emit(
            0,
            2,
            TraceEvent::CtxSwitch {
                thread: t1,
                space_switch: true,
            },
        );
        tr.emit(
            0,
            3,
            TraceEvent::Mark {
                thread: t1,
                value: 7,
            },
        );
        tr.emit(0, 4, TraceEvent::Halt { thread: t0 });
        let uv = tr.user_visible();
        assert_eq!(
            uv[&t0],
            vec![UserVisible::Syscall { code: 0 }, UserVisible::Halt]
        );
        assert_eq!(uv[&t1], vec![UserVisible::Mark(7)]);
    }

    #[test]
    fn histogram_exact_summaries() {
        let mut h = Histogram::new();
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.mean(), 0.0);
        for v in [200u64, 400, 600] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 1200);
        assert_eq!(h.min(), 200);
        assert_eq!(h.max(), 600);
        assert!((h.mean() - 400.0).abs() < 1e-9);
        assert_eq!(h.percentile(100.0), 600);
    }

    #[test]
    fn histogram_percentiles_within_bucket_error() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for (p, exact) in [(50.0, 5_000u64), (95.0, 9_500), (99.0, 9_900)] {
            let got = h.percentile(p);
            assert!(got >= exact, "p{p}: {got} < exact {exact}");
            let err = (got - exact) as f64 / exact as f64;
            assert!(err <= 0.04, "p{p}: {got} vs {exact}, err {err}");
        }
        // Percentiles are monotone and bounded by the exact max.
        assert!(h.percentile(50.0) <= h.percentile(95.0));
        assert!(h.percentile(95.0) <= h.percentile(99.0));
        assert!(h.percentile(99.0) <= h.max());
    }

    #[test]
    fn histogram_small_values_exact() {
        let mut h = Histogram::new();
        for v in 1..=LINEAR_LIMIT {
            h.record(v);
        }
        // Unit buckets below the log-linear region: percentiles are exact.
        assert_eq!(h.percentile(50.0), LINEAR_LIMIT / 2);
        assert_eq!(h.percentile(100.0), LINEAR_LIMIT);
    }

    #[test]
    fn bucket_upper_bounds_contain_their_values() {
        for v in [0u64, 1, 63, 64, 65, 1000, 4096, 1 << 20, u64::MAX >> 1] {
            let idx = bucket_index(v);
            assert!(bucket_upper(idx) >= v, "upper({idx}) < {v}");
            if idx > 0 {
                assert!(
                    bucket_upper(idx - 1) < v,
                    "bucket {idx} not minimal for {v}"
                );
            }
        }
    }
}
