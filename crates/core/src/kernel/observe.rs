//! The observer spine: every fact the kernel reports to an observer is
//! one [`KEvent`], stated once through [`Kernel::emit`].
//!
//! `emit`'s single `match` is the only code that updates `Stats`,
//! `kprof`, `kspan`, the `ktrace` [`crate::trace::Tracer`] and
//! `flowcheck` for an event. It borrows those five observer fields
//! mutably and everything else — clocks, threads, spaces, the audit
//! snapshot — read-only, so an observer cannot change simulated state:
//! zero perturbation holds by construction, not per hook.
//!
//! Placement rule: each `emit` sits where the site's `ktrace` event
//! belongs, so the trace order is the order of the emits. Where another
//! observer needs an earlier instant (kspan's runnable edge before a
//! run-queue lock advanced the clock), the event carries that time.

use fluke_api::abi::ARG_COUNT;
use fluke_api::{ErrorCode, Sys};
use fluke_arch::cost::Cycles;
use fluke_arch::Reg;

use crate::ids::ThreadId;
use crate::kfault::KfaultKind;
use crate::kprof::Phase;
use crate::kspan::Seg;
use crate::kstat::{FaultKind, FaultRecord, FaultSide};
use crate::thread::WaitReason;
use crate::trace::TraceEvent;

use super::{Kernel, LockKey};

/// One kernel fact, as observers see it. Times not carried in the event
/// are the acting CPU's clock at the `emit`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum KEvent {
    // --- Clock advances -------------------------------------------------
    /// `charge`: `base` cycles of kernel work plus the full-preemption
    /// locking surcharge `lock_extra`, both already on the clock.
    Charge { base: Cycles, lock_extra: Cycles },
    /// Push a kprof phase around the charges that follow.
    Enter(Phase),
    /// Pop the phase pushed by the matching [`KEvent::Enter`].
    Leave,
    /// A full-preemption `klock_section` costing this many cycles opens:
    /// its charge goes to kprof's `Lock` bucket.
    KlockBegin(Cycles),
    /// The `klock_section` charge is done.
    KlockEnd,
    /// Fixed fine-grained lock acquire/release cost.
    LockCost(Cycles),
    /// A kernel-lock wait ended: `key` is `None` for the big lock.
    LockWait {
        key: Option<LockKey>,
        cycles: Cycles,
    },
    /// A parked CPU was kicked after this many idle cycles.
    Idle(Cycles),
    /// A TLB shootdown: `remotes` CPUs each paid an ack (`acks` in
    /// total, on their own clocks); the sender pays `sends` next.
    Shootdown {
        remotes: u64,
        acks: Cycles,
        sends: Cycles,
    },
    /// `thread` ran `cycles` in user mode.
    User { thread: ThreadId, cycles: Cycles },
    /// New work began: the rollback window, if any, closes.
    Progress,

    // --- Transitions ----------------------------------------------------
    /// Kernel entry by system call (`restarting` re-enters a blocked or
    /// preempted call from its register continuation).
    SyscallEnter { thread: ThreadId, restarting: bool },
    /// `thread`'s call completes with `code`; emitted while `eax` still
    /// names the entrypoint. `in_place` completions (of a blocked thread)
    /// also end its request.
    SyscallExit {
        thread: ThreadId,
        code: ErrorCode,
        in_place: bool,
    },
    /// The exit path of a running thread's call is charged: its request
    /// ends.
    Returned { thread: ThreadId },
    /// `thread` was dispatched onto the acting CPU.
    CtxSwitch {
        thread: ThreadId,
        space_switch: bool,
    },
    /// A dispatch consumed a timer-wake mark raised at `raised_at`
    /// (0: none).
    WakeLatency { raised_at: Cycles },
    /// The current thread blocked for `reason` at a clean restart point.
    Block {
        thread: ThreadId,
        reason: WaitReason,
    },
    /// A blocked thread's wait changed in place to `reason`.
    Reblock {
        thread: ThreadId,
        reason: WaitReason,
    },
    /// A blocked thread became runnable at `at`.
    Wake { thread: ThreadId, at: Cycles },
    /// A timer woke a sleeper at `at` (not traced).
    TimerWake { thread: ThreadId, at: Cycles },
    /// The current thread was preempted in the kernel, runnable from `at`.
    KernelPreempt { thread: ThreadId, at: Cycles },
    /// The current thread was preempted in user mode, runnable from `at`.
    UserPreempt { thread: ThreadId, at: Cycles },
    /// `thread` halted.
    Halt { thread: ThreadId },
    /// `thread` had new state installed: its open request ends unrecorded.
    Abort { thread: ThreadId },

    // --- IPC ------------------------------------------------------------
    /// `thread` starts a send stage.
    IpcSend { thread: ThreadId },
    /// `thread` starts a receive stage.
    IpcReceive { thread: ThreadId },
    /// One copy chunk of `bytes` moved for `thread`'s transfer.
    IpcTransfer { thread: ThreadId, bytes: u32 },
    /// A whole message was delivered.
    IpcMessage { thread: ThreadId },
    /// A message moved from `from`'s request to `to`'s.
    Flow { from: ThreadId, to: ThreadId },

    // --- Faults and marks -----------------------------------------------
    /// A soft fault at `addr` was resolved inline at cost `remedy`.
    SoftFault {
        thread: ThreadId,
        addr: u32,
        side: FaultSide,
        remedy: Cycles,
        during_ipc: bool,
    },
    /// A hard fault raised at `at` blocked `thread` on its pager.
    HardFault {
        thread: ThreadId,
        offset: u32,
        side: FaultSide,
        during_ipc: bool,
        at: Cycles,
    },
    /// The pager answered fault record `record`, raised at `raised_at`.
    HardFaultDone {
        thread: ThreadId,
        record: usize,
        raised_at: Cycles,
    },
    /// A `kfault` perturbation of `kind` fired at `site`.
    FaultInjected {
        kind: KfaultKind,
        thread: ThreadId,
        site: u64,
    },
    /// `thread` logged `value` through `sys_trace`.
    Mark { thread: ThreadId, value: u32 },
}

impl Kernel {
    /// State one kernel fact to every observer. With all observers off
    /// this is the `Stats` update plus one branch per disabled observer.
    #[inline(always)]
    pub(crate) fn emit(&mut self, ev: KEvent) {
        // Simulated state is read first and only read: the observers are
        // the sole mutable borrows.
        let (cpu, now, cur) = (self.active, self.now(), self.cur_cpu().current);
        let (rollback, rollback_rec) = (self.rollback_active, self.dispatch_rollback);
        let audited = self.audit.as_ref().map(|a| (a.t, a.sys));
        let Kernel {
            stats,
            kprof,
            kspan,
            trace,
            flowcheck,
            threads,
            spaces,
            ..
        } = self;
        let (threads, spaces) = (&*threads, &*spaces);
        let reg = |t: ThreadId, r: Reg| threads.get(t.0).map(|th| th.regs.get(r));
        match ev {
            KEvent::Charge { base, lock_extra } => {
                let c = base + lock_extra;
                stats.klock_cycles += lock_extra;
                stats.kernel_cycles += c;
                if kprof.enabled {
                    kprof.attr_kernel(base, rollback, lock_extra);
                }
                if let (true, Some(t)) = (kspan.enabled, cur) {
                    let path = kprof.current_code(rollback);
                    kspan.on_charge(t, path, base, lock_extra);
                }
                if rollback {
                    stats.rollback_cycles += c;
                    if trace.enabled {
                        trace.pending_rollback += c;
                    }
                    if let Some(rec) = rollback_rec {
                        stats.fault_records[rec].rollback_cycles += c;
                    }
                }
            }
            KEvent::Enter(p) => kprof.enter(p),
            KEvent::Leave => kprof.exit(),
            KEvent::KlockBegin(c) => {
                stats.klock_cycles += c;
                kprof.lock_section(true);
            }
            KEvent::KlockEnd => kprof.lock_section(false),
            KEvent::LockCost(c) => {
                stats.klock_cycles += c;
                stats.kernel_cycles += c;
                kprof.attr_lock(c);
            }
            KEvent::LockWait { key, cycles } => {
                stats.klock_cycles += cycles;
                stats.klock_wait_cycles += cycles;
                stats.kernel_cycles += cycles;
                kprof.attr_lock(cycles);
                // Run-queue waits have their own first-class counters and
                // stay out of kspan's per-object contention.
                if let Some(LockKey::RunQueue(_)) = key {
                    stats.runq_wait_cycles += cycles;
                    stats.runq_waits += 1;
                } else if kspan.enabled {
                    kspan.on_lock_wait(cur, key.map_or("klock", LockKey::class), cycles);
                }
            }
            KEvent::Idle(c) => {
                stats.idle_cycles += c;
                kprof.attr_idle(c);
            }
            KEvent::Shootdown {
                remotes,
                acks,
                sends,
            } => {
                stats.kernel_cycles += acks;
                if kprof.enabled {
                    kprof.attr_kernel(acks, false, 0);
                }
                stats.tlb_shootdown_ipis += remotes;
                stats.tlb_shootdown_cycles += sends + acks;
            }
            KEvent::User { thread, cycles } => {
                stats.user_cycles += cycles;
                kprof.attr_user(cycles);
                if kspan.enabled {
                    kspan.on_user(thread, cycles);
                }
            }
            KEvent::Progress => {
                if trace.enabled && trace.pending_rollback > 0 {
                    let cycles = std::mem::take(&mut trace.pending_rollback);
                    if let Some(thread) = cur {
                        trace.emit(cpu, now, TraceEvent::Rollback { thread, cycles });
                    }
                }
            }
            KEvent::SyscallEnter { thread, restarting } => {
                if flowcheck.on {
                    flowcheck.on_entry(threads, thread, restarting);
                }
                stats.restarts += restarting as u64;
                let sys = || reg(thread, Reg::Eax).expect("entering thread");
                if kspan.enabled {
                    // A restarted entrypoint continues the open request;
                    // `on_enter` only opens a span when none is active.
                    let name = Sys::from_u32(sys()).map_or("invalid", |s| s.name());
                    kspan.on_enter(thread, name, now);
                }
                if trace.enabled {
                    let sys = sys();
                    let class = Sys::from_u32(sys).map(|s| s.class());
                    let ev = if restarting {
                        TraceEvent::SyscallRestart { thread, sys, class }
                    } else {
                        TraceEvent::SyscallEnter { thread, sys, class }
                    };
                    trace.emit(cpu, now, ev);
                }
            }
            KEvent::SyscallExit {
                thread,
                code,
                in_place,
            } => {
                if in_place && kspan.enabled {
                    kspan.on_close(thread, now);
                }
                if flowcheck.on {
                    flowcheck.on_exit(threads, spaces, thread, code);
                }
                // A thread gone from the arena completes untraced.
                if trace.enabled {
                    if let Some(sys) = reg(thread, Reg::Eax) {
                        let class = Sys::from_u32(sys).map(|s| s.class());
                        let code = code as u32;
                        let ev = TraceEvent::SyscallExit {
                            thread,
                            code,
                            class,
                        };
                        trace.emit(cpu, now, ev);
                    }
                }
            }
            KEvent::Returned { thread } => {
                if kspan.enabled {
                    kspan.on_close(thread, now);
                }
            }
            KEvent::CtxSwitch {
                thread,
                space_switch,
            } => {
                stats.space_switches += space_switch as u64;
                stats.ctx_switches += 1;
                let ev = TraceEvent::CtxSwitch {
                    thread,
                    space_switch,
                };
                trace.emit(cpu, now, ev);
                // On-CPU starts here so the switch charge lands in the
                // dispatched request's on-CPU bucket, mirroring kprof.
                kspan.on_seg(thread, Seg::OnCpu, now);
            }
            KEvent::WakeLatency { raised_at } => {
                if kprof.enabled && raised_at > 0 {
                    kprof.record_latency(now.saturating_sub(raised_at));
                }
            }
            KEvent::Block { thread, reason } => {
                kspan.on_seg(thread, Seg::Blocked(reason), now);
                trace.emit(cpu, now, TraceEvent::Block { thread });
                if flowcheck.on {
                    flowcheck.on_block(thread, audited);
                }
            }
            KEvent::Reblock { thread, reason } => kspan.on_seg(thread, Seg::Blocked(reason), now),
            KEvent::Wake { thread, at } => {
                kspan.on_seg(thread, Seg::Runnable, at);
                trace.emit(cpu, now, TraceEvent::Wake { thread });
            }
            KEvent::TimerWake { thread, at } => kspan.on_seg(thread, Seg::Runnable, at),
            KEvent::KernelPreempt { thread, at } => {
                kspan.on_seg(thread, Seg::Runnable, at);
                stats.kernel_preemptions += 1;
                trace.emit(cpu, now, TraceEvent::KernelPreempt { thread });
                if flowcheck.on {
                    flowcheck.on_block(thread, audited);
                }
            }
            KEvent::UserPreempt { thread, at } => {
                kspan.on_seg(thread, Seg::Runnable, at);
                stats.user_preemptions += 1;
                trace.emit(cpu, now, TraceEvent::UserPreempt { thread });
            }
            KEvent::Halt { thread } => {
                kspan.on_abort(thread);
                trace.emit(cpu, now, TraceEvent::Halt { thread });
            }
            KEvent::Abort { thread } => kspan.on_abort(thread),
            KEvent::IpcSend { thread } => {
                if trace.enabled {
                    let bytes = reg(thread, ARG_COUNT).expect("sending thread");
                    trace.emit(cpu, now, TraceEvent::IpcSend { thread, bytes });
                }
            }
            KEvent::IpcReceive { thread } => {
                if trace.enabled {
                    let window = reg(thread, ARG_COUNT).expect("receiving thread");
                    trace.emit(cpu, now, TraceEvent::IpcReceive { thread, window });
                }
            }
            KEvent::IpcTransfer { thread, bytes } => {
                stats.ipc_bytes += bytes as u64;
                trace.emit(cpu, now, TraceEvent::IpcTransfer { thread, bytes });
            }
            KEvent::IpcMessage { thread } => {
                stats.ipc_messages += 1;
                trace.emit(cpu, now, TraceEvent::IpcMessage { thread });
            }
            KEvent::Flow { from, to } => {
                if kspan.enabled {
                    kspan.stitch(from, to, now);
                }
            }
            KEvent::SoftFault {
                thread,
                addr,
                side,
                remedy,
                during_ipc,
            } => {
                stats.soft_faults += 1;
                stats.fault_records.push(FaultRecord {
                    side,
                    kind: FaultKind::Soft,
                    remedy_cycles: remedy,
                    rollback_cycles: 0,
                    during_ipc,
                    at: now,
                });
                trace.emit(
                    cpu,
                    now,
                    TraceEvent::SoftFault {
                        thread,
                        addr,
                        remedy,
                    },
                );
            }
            KEvent::HardFault {
                thread,
                offset,
                side,
                during_ipc,
                at,
            } => {
                stats.hard_faults += 1;
                stats.fault_records.push(FaultRecord {
                    side,
                    kind: FaultKind::Hard,
                    remedy_cycles: 0, // finalized when the keeper replies
                    rollback_cycles: 0,
                    during_ipc,
                    at,
                });
                trace.emit(cpu, now, TraceEvent::HardFault { thread, offset });
            }
            KEvent::HardFaultDone {
                thread,
                record,
                raised_at,
            } => {
                let remedy = now.saturating_sub(raised_at);
                if let Some(rec) = stats.fault_records.get_mut(record) {
                    if rec.remedy_cycles == 0 {
                        rec.remedy_cycles = remedy;
                    }
                }
                trace.emit(cpu, now, TraceEvent::HardFaultDone { thread, remedy });
            }
            KEvent::FaultInjected { kind, thread, site } => {
                stats.faults_injected[kind.index()] += 1;
                if kind == KfaultKind::ExtractRestore {
                    // The victim keeps its open span across the round
                    // trip; it just waits to run again.
                    kspan.on_seg(thread, Seg::Runnable, now);
                }
                let kind = kind.index() as u32;
                trace.emit(cpu, now, TraceEvent::FaultInjected { thread, kind, site });
            }
            KEvent::Mark { thread, value } => {
                stats.trace_log.push(value);
                trace.emit(cpu, now, TraceEvent::Mark { thread, value });
            }
        }
    }
}
