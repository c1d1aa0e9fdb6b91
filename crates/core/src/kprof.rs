//! `kprof`: the span-based cycle-attribution profiler.
//!
//! Every simulated cycle the kernel spends is attributed to a node of a
//! small phase tree — user execution, idle, and the kernel phases
//! (entry/exit preamble, dispatch, IPC copy, memory fill, fault IPC,
//! scheduling, locking) — with restart/rollback re-execution split out as
//! a leaf under whichever phase re-ran. Attribution is driven from the
//! *simulated* clock (never host time), so profiles are bit-deterministic,
//! and the hooks touch only profiler state: with `kprof` enabled, every
//! simulated quantity — cycle charges, traces, stats — is unchanged (the
//! zero-perturbation golden-digest test enforces this). Disabled, each
//! hook is a single predictable branch and nothing is allocated beyond
//! the empty struct.
//!
//! The kernel keeps a phase *stack* while it works; the current path is
//! packed into a `u32` (4 bits per level), so entering/leaving a phase
//! and attributing a charge are a few integer ops — no strings, no
//! allocation on the hot path. Self-cycles per path live in a `BTreeMap`
//! keyed by packed path, which also makes every report deterministic.
//!
//! `kprof` additionally feeds the §5.3 preemptibility axis: a
//! **preemption-latency histogram** of event-raised → next-dispatch
//! cycles, recorded for every thread a timer event wakes (the Table 6
//! probe generalized to all timer-driven wakeups).

use std::collections::BTreeMap;

use fluke_arch::cost::Cycles;

use crate::trace::Histogram;

/// A kernel phase (one level of the attribution tree).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum Phase {
    /// Kernel entry preamble (trap save, model-dependent).
    Entry = 1,
    /// Kernel exit path (result delivery, latched-preemption check).
    Exit = 2,
    /// System-call dispatch: the handler body.
    Dispatch = 3,
    /// The IPC transfer pump's byte-copy work.
    IpcCopy = 4,
    /// Soft-fault resolution: the mapping-hierarchy walk that fills a
    /// page-table entry.
    MemFill = 5,
    /// Converting a hard fault into exception IPC to the keeper.
    FaultIpc = 6,
    /// Context/space switch work in the scheduler.
    Sched = 7,
    /// Kernel lock overhead: big-lock waits, mutex acquire/release, and
    /// the Full-preemption locking surcharge.
    Lock = 8,
    /// Restart/rollback overhead: re-execution of preamble work after an
    /// atomic call rolled back to its register continuation (a leaf under
    /// whichever phase re-ran).
    Restart = 9,
}

impl Phase {
    /// Phase name as used in collapsed-stack lines (snake_case).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Entry => "entry",
            Phase::Exit => "exit",
            Phase::Dispatch => "dispatch",
            Phase::IpcCopy => "ipc_copy",
            Phase::MemFill => "mem_fill",
            Phase::FaultIpc => "fault_ipc",
            Phase::Sched => "sched",
            Phase::Lock => "lock",
            Phase::Restart => "restart",
        }
    }

    fn from_nibble(n: u32) -> Option<Phase> {
        Some(match n {
            1 => Phase::Entry,
            2 => Phase::Exit,
            3 => Phase::Dispatch,
            4 => Phase::IpcCopy,
            5 => Phase::MemFill,
            6 => Phase::FaultIpc,
            7 => Phase::Sched,
            8 => Phase::Lock,
            9 => Phase::Restart,
            _ => return None,
        })
    }
}

/// Maximum phase-stack depth a packed `u32` path can hold.
const MAX_DEPTH: u32 = 8;

/// Decode a packed path into its phases, root first.
fn unpack(code: u32) -> Vec<Phase> {
    let mut out = Vec::new();
    let mut c = code;
    while c != 0 {
        out.push(Phase::from_nibble(c & 0xf).expect("valid packed phase"));
        c >>= 4;
    }
    out
}

/// Render a packed path as a collapsed-stack frame string
/// (`kernel;dispatch;ipc_copy`).
pub fn path_name(code: u32) -> String {
    let mut s = String::from("kernel");
    for p in unpack(code) {
        s.push(';');
        s.push_str(p.name());
    }
    s
}

/// The profiler state held by the kernel. All methods are no-ops when
/// disabled (one branch); when enabled they mutate only this struct.
#[derive(Debug, Clone, Default)]
pub struct Kprof {
    /// Whether attribution is active (set from `Config::kprof`).
    pub enabled: bool,
    /// Maintain the phase stack even when attribution is off, so `kspan`
    /// can label per-request charges by phase path without full `kprof`.
    track_paths: bool,
    /// Current phase-stack depth.
    depth: u32,
    /// Packed current path (4 bits per level; 0 = kernel root).
    code: u32,
    /// Set while inside a `klock_section`, routing its charge to `Lock`.
    in_lock: bool,
    /// Self-cycles of user-mode execution.
    user: u64,
    /// Self-cycles of idle waiting.
    idle: u64,
    /// Self-cycles per kernel path (packed path → cycles; 0 = kernel
    /// root's own work, e.g. native-thread bodies).
    kernel: BTreeMap<u32, u64>,
    /// Event-raised → next-dispatch latency, for every timer-woken thread.
    preempt_latency: Histogram,
}

impl Kprof {
    /// A profiler in the given state; allocates nothing until cycles are
    /// attributed.
    pub fn new(enabled: bool) -> Kprof {
        Kprof {
            enabled,
            ..Kprof::default()
        }
    }

    /// Keep the phase stack maintained even with attribution disabled
    /// (host-side only; simulated quantities are untouched either way).
    pub(crate) fn enable_path_tracking(&mut self) {
        self.track_paths = true;
    }

    /// The packed code of the current phase path, with the `Restart`
    /// leaf appended while rollback re-execution is active — exactly the
    /// path [`Kprof::attr_kernel`] would charge.
    #[inline]
    pub(crate) fn current_code(&self, rollback: bool) -> u32 {
        if rollback {
            self.code | (Phase::Restart as u32) << (4 * self.depth)
        } else {
            self.code
        }
    }

    /// Push a phase onto the attribution stack.
    #[inline]
    pub(crate) fn enter(&mut self, p: Phase) {
        if !(self.enabled || self.track_paths) {
            return;
        }
        debug_assert!(self.depth < MAX_DEPTH, "kprof phase stack overflow");
        self.code |= (p as u32) << (4 * self.depth);
        self.depth += 1;
    }

    /// Pop the current phase.
    #[inline]
    pub(crate) fn exit(&mut self) {
        if !(self.enabled || self.track_paths) {
            return;
        }
        debug_assert!(self.depth > 0, "kprof phase stack underflow");
        self.depth -= 1;
        self.code &= !(0xf << (4 * self.depth));
    }

    /// Route the next `attr_kernel` charges to the `Lock` bucket
    /// (`klock_section` acquire/release cost).
    #[inline]
    pub(crate) fn lock_begin(&mut self) {
        if self.enabled {
            self.in_lock = true;
        }
    }

    /// End the `Lock` routing started by [`Kprof::lock_begin`].
    #[inline]
    pub(crate) fn lock_end(&mut self) {
        if self.enabled {
            self.in_lock = false;
        }
    }

    /// Attribute a kernel charge: `c` base cycles to the current path
    /// (with a `Restart` leaf while rollback re-execution is active) and
    /// `lock_extra` surcharge cycles (the Full-preemption locking model)
    /// to the top-level `Lock` bucket.
    #[inline]
    pub(crate) fn attr_kernel(&mut self, c: Cycles, rollback: bool, lock_extra: Cycles) {
        if !self.enabled {
            return;
        }
        let lock_code = Phase::Lock as u32;
        if self.in_lock {
            *self.kernel.entry(lock_code).or_insert(0) += c + lock_extra;
            return;
        }
        let code = if rollback {
            self.code | (Phase::Restart as u32) << (4 * self.depth)
        } else {
            self.code
        };
        *self.kernel.entry(code).or_insert(0) += c;
        if lock_extra > 0 {
            *self.kernel.entry(lock_code).or_insert(0) += lock_extra;
        }
    }

    /// Attribute user-mode execution cycles.
    #[inline]
    pub(crate) fn attr_user(&mut self, c: Cycles) {
        if self.enabled {
            self.user += c;
        }
    }

    /// Attribute idle cycles.
    #[inline]
    pub(crate) fn attr_idle(&mut self, c: Cycles) {
        if self.enabled {
            self.idle += c;
        }
    }

    /// Attribute big-kernel-lock wait cycles to the `Lock` bucket.
    #[inline]
    pub(crate) fn attr_lock(&mut self, c: Cycles) {
        if self.enabled {
            *self.kernel.entry(Phase::Lock as u32).or_insert(0) += c;
        }
    }

    /// Record one event-raised → dispatch latency observation.
    #[inline]
    pub(crate) fn record_latency(&mut self, cycles: Cycles) {
        if self.enabled {
            self.preempt_latency.record(cycles);
        }
    }

    /// The preemption-latency histogram (event-raised → next-dispatch
    /// cycles for every timer-woken thread; the §5.3 axis).
    pub fn preempt_latency(&self) -> &Histogram {
        &self.preempt_latency
    }

    /// User-mode self cycles.
    pub fn user_cycles(&self) -> u64 {
        self.user
    }

    /// Idle self cycles.
    pub fn idle_cycles(&self) -> u64 {
        self.idle
    }

    /// Total kernel cycles across all kernel paths.
    pub fn kernel_cycles(&self) -> u64 {
        self.kernel.values().sum()
    }

    /// Total attributed cycles: user + idle + kernel. With `kprof` on for
    /// a whole run this equals the sum of all CPUs' clocks exactly (the
    /// sum-exactness invariant; asserted by the bench tests).
    pub fn total(&self) -> u64 {
        self.user + self.idle + self.kernel_cycles()
    }

    /// Self-cycles attributed to one exact kernel path (root-first), e.g.
    /// `&[Phase::Dispatch, Phase::IpcCopy]`. `&[]` is the kernel root.
    pub fn self_cycles(&self, path: &[Phase]) -> u64 {
        let mut code = 0u32;
        for (i, p) in path.iter().enumerate() {
            code |= (*p as u32) << (4 * i);
        }
        self.kernel.get(&code).copied().unwrap_or(0)
    }

    /// The flat profile: (collapsed path, self cycles) for every node with
    /// attributed cycles — `user` and `idle` first, then kernel paths in
    /// deterministic packed-code order.
    pub fn flat(&self) -> Vec<(String, u64)> {
        let mut out = Vec::with_capacity(self.kernel.len() + 2);
        if self.user > 0 {
            out.push(("user".to_string(), self.user));
        }
        if self.idle > 0 {
            out.push(("idle".to_string(), self.idle));
        }
        for (&code, &c) in &self.kernel {
            out.push((path_name(code), c));
        }
        out
    }

    /// Collapsed-stack flamegraph lines (`path cycles`), one per node —
    /// feed to any FlameGraph implementation.
    pub fn collapsed(&self) -> Vec<String> {
        self.flat()
            .into_iter()
            .map(|(p, c)| format!("{p} {c}"))
            .collect()
    }

    /// Inclusive cycles of a packed path: its self cycles plus every
    /// descendant's.
    fn inclusive(&self, code: u32, depth: u32) -> u64 {
        let mask = ((1u64 << (4 * depth.min(MAX_DEPTH))) - 1) as u32;
        self.kernel
            .iter()
            .filter(|(&k, _)| k & mask == code)
            .map(|(_, &c)| c)
            .sum()
    }

    /// The call-tree report: one indented line per node with inclusive
    /// ("total") and self cycles and the share of all attributed cycles.
    pub fn tree_report(&self) -> String {
        let total = self.total().max(1);
        let mut out = String::new();
        let pct = |c: u64| 100.0 * c as f64 / total as f64;
        out.push_str(&format!(
            "{:<40} {:>14} {:>14} {:>6}\n",
            "phase", "total", "self", "%"
        ));
        out.push_str(&format!(
            "{:<40} {:>14} {:>14} {:>6.1}\n",
            "user",
            self.user,
            self.user,
            pct(self.user)
        ));
        out.push_str(&format!(
            "{:<40} {:>14} {:>14} {:>6.1}\n",
            "idle",
            self.idle,
            self.idle,
            pct(self.idle)
        ));
        let kt = self.kernel_cycles();
        out.push_str(&format!(
            "{:<40} {:>14} {:>14} {:>6.1}\n",
            "kernel",
            kt,
            self.kernel.get(&0).copied().unwrap_or(0),
            pct(kt)
        ));
        // Children in depth-first order: the BTreeMap's packed-code order
        // is not DFS, so walk explicitly.
        self.tree_children(0, 0, 1, &mut out, total);
        out
    }

    fn tree_children(&self, code: u32, depth: u32, indent: usize, out: &mut String, total: u64) {
        // Candidate child phases at this depth, in Phase order.
        for n in 1..=9u32 {
            let child = code | n << (4 * depth);
            let inc = self.inclusive(child, depth + 1);
            if inc == 0 {
                continue;
            }
            let slf = self.kernel.get(&child).copied().unwrap_or(0);
            let name = format!(
                "{}{}",
                "  ".repeat(indent),
                Phase::from_nibble(n).expect("n in range").name()
            );
            out.push_str(&format!(
                "{:<40} {:>14} {:>14} {:>6.1}\n",
                name,
                inc,
                slf,
                100.0 * inc as f64 / total as f64
            ));
            if depth + 1 < MAX_DEPTH {
                self.tree_children(child, depth + 1, indent + 1, out, total);
            }
        }
    }
}

// --- krec snapshot support ------------------------------------------------

use crate::krec::snap_codec;

snap_codec! {
    struct Kprof { enabled, track_paths, depth, code, in_lock, user, idle, kernel, preempt_latency }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_attributes_nothing() {
        let mut k = Kprof::new(false);
        k.enter(Phase::Dispatch);
        k.attr_kernel(100, false, 0);
        k.attr_user(50);
        k.attr_idle(25);
        k.record_latency(10);
        k.exit();
        assert_eq!(k.total(), 0);
        assert!(k.preempt_latency().is_empty());
        assert!(k.flat().is_empty());
    }

    #[test]
    fn paths_pack_and_render() {
        let mut k = Kprof::new(true);
        k.attr_kernel(5, false, 0); // kernel root self
        k.enter(Phase::Dispatch);
        k.attr_kernel(10, false, 0);
        k.enter(Phase::IpcCopy);
        k.attr_kernel(20, false, 0);
        k.exit();
        k.exit();
        assert_eq!(k.self_cycles(&[]), 5);
        assert_eq!(k.self_cycles(&[Phase::Dispatch]), 10);
        assert_eq!(k.self_cycles(&[Phase::Dispatch, Phase::IpcCopy]), 20);
        let lines = k.collapsed();
        assert!(lines.contains(&"kernel 5".to_string()));
        assert!(lines.contains(&"kernel;dispatch 10".to_string()));
        assert!(lines.contains(&"kernel;dispatch;ipc_copy 20".to_string()));
        assert_eq!(k.total(), 35);
    }

    #[test]
    fn rollback_charges_land_under_restart_leaf() {
        let mut k = Kprof::new(true);
        k.enter(Phase::Dispatch);
        k.attr_kernel(10, true, 0);
        k.attr_kernel(30, false, 0);
        k.exit();
        assert_eq!(k.self_cycles(&[Phase::Dispatch, Phase::Restart]), 10);
        assert_eq!(k.self_cycles(&[Phase::Dispatch]), 30);
    }

    #[test]
    fn lock_surcharge_and_sections_land_under_lock() {
        let mut k = Kprof::new(true);
        k.enter(Phase::Dispatch);
        k.attr_kernel(100, false, 40); // FP surcharge
        k.lock_begin();
        k.attr_kernel(7, false, 2); // klock_section charge (+ its surcharge)
        k.lock_end();
        k.exit();
        k.attr_lock(11); // big-lock wait
        assert_eq!(k.self_cycles(&[Phase::Dispatch]), 100);
        assert_eq!(k.self_cycles(&[Phase::Lock]), 40 + 9 + 11);
        assert_eq!(k.total(), 160);
    }

    #[test]
    fn tree_report_totals_include_children() {
        let mut k = Kprof::new(true);
        k.attr_user(1000);
        k.enter(Phase::Dispatch);
        k.attr_kernel(10, false, 0);
        k.enter(Phase::MemFill);
        k.attr_kernel(90, false, 0);
        k.exit();
        k.exit();
        let rep = k.tree_report();
        // dispatch's inclusive total is 100 (10 self + 90 mem_fill).
        let dispatch_line = rep
            .lines()
            .find(|l| l.trim_start().starts_with("dispatch"))
            .expect("dispatch line");
        assert!(dispatch_line.contains("100"), "{rep}");
        assert!(rep.lines().any(|l| l.trim_start().starts_with("mem_fill")));
    }

    #[test]
    fn latency_histogram_records_when_enabled() {
        let mut k = Kprof::new(true);
        k.record_latency(123);
        k.record_latency(456);
        assert_eq!(k.preempt_latency().count(), 2);
        assert_eq!(k.preempt_latency().max(), 456);
    }
}
