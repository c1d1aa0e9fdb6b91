//! Thread control blocks.
//!
//! The TCB holds the thread's user-visible registers (its complete
//! continuation, per the atomic API), its scheduling state, and its IPC
//! connection end. There is deliberately **no** saved kernel context: in
//! the interrupt model none exists, and in the process model the retained
//! kernel stack never contains state that matters across a block — the
//! registers are always written back first. This shared representation is
//! what lets one kernel source serve both execution models.

use std::sync::Arc;

use fluke_api::Sys;
use fluke_arch::cost::Cycles;
use fluke_arch::{Program, ProgramId, UserRegs};

use crate::ids::{ConnId, ObjId, SpaceId, ThreadId};
use crate::kstat::Stats;
use crate::waitq::WaitQueue;

/// Default scheduling priority for ordinary threads.
pub const DEFAULT_PRIORITY: u32 = 8;
/// Number of priority levels (0 = lowest).
pub const PRIORITY_LEVELS: u32 = 32;

/// Why a thread is blocked. This is kernel *bookkeeping*, not thread state:
/// every blocked thread's registers independently encode the call that will
/// re-establish the wait if the thread is rolled back, restored or migrated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitReason {
    /// Queued on a mutex.
    Mutex(ObjId),
    /// Queued on a condition variable.
    Cond(ObjId),
    /// Server waiting for a connection on a port.
    PortWait(ObjId),
    /// Server waiting for a connection on a portset.
    PsetWait(ObjId),
    /// Client waiting for a server to accept its connection.
    IpcConnect(ObjId),
    /// IPC sender waiting for the receiver to provide a window.
    IpcSend(ConnId),
    /// IPC receiver waiting for the sender to provide data.
    IpcReceive(ConnId),
    /// One-way sender waiting for a receiver on a port.
    OnewaySend(ObjId),
    /// One-way receiver waiting for a sender on a port.
    OnewayReceive(ObjId),
    /// Waiting for a user-level pager to service a hard page fault.
    PagerReply(ConnId),
    /// Waiting for another thread to halt (`thread_wait`).
    Join(ThreadId),
    /// Sleeping until interrupted or woken (`thread_sleep`).
    Sleep,
    /// Waiting for a space to run out of threads (`space_wait_threads`).
    SpaceIdle(SpaceId),
    /// Donated the CPU to another thread (`sched_donate`).
    Donate(ThreadId),
}

/// Critical-path class of a wait: which `kspan` decomposition bucket
/// cycles spent blocked for a [`WaitReason`] belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitClass {
    /// Lock wait: mutex and condition-variable queues.
    Lock,
    /// Blocked on IPC: connections, ports, portsets, pager replies.
    Ipc,
    /// CPU donated away (`sched_donate`) — runnable-wait, not blocking.
    CpuDonate,
    /// Other blocking: sleep, join, space-idle.
    Other,
}

impl WaitReason {
    /// The `kspan` critical-path bucket for cycles spent in this wait.
    pub fn wait_class(self) -> WaitClass {
        match self {
            WaitReason::Mutex(_) | WaitReason::Cond(_) => WaitClass::Lock,
            WaitReason::PortWait(_)
            | WaitReason::PsetWait(_)
            | WaitReason::IpcConnect(_)
            | WaitReason::IpcSend(_)
            | WaitReason::IpcReceive(_)
            | WaitReason::OnewaySend(_)
            | WaitReason::OnewayReceive(_)
            | WaitReason::PagerReply(_) => WaitClass::Ipc,
            WaitReason::Donate(_) => WaitClass::CpuDonate,
            WaitReason::Join(_) | WaitReason::Sleep | WaitReason::SpaceIdle(_) => WaitClass::Other,
        }
    }

    /// The specific object this wait contends on, as a stable
    /// `(kind, index)` pair for `kernel.contention.*` attribution
    /// (`None` for plain sleeps, which wait on nothing).
    pub fn contended_object(self) -> Option<(&'static str, u32)> {
        match self {
            WaitReason::Mutex(o) => Some(("mutex", o.0)),
            WaitReason::Cond(o) => Some(("cond", o.0)),
            WaitReason::PortWait(o)
            | WaitReason::OnewaySend(o)
            | WaitReason::OnewayReceive(o)
            | WaitReason::IpcConnect(o) => Some(("port", o.0)),
            WaitReason::PsetWait(o) => Some(("pset", o.0)),
            WaitReason::IpcSend(c) | WaitReason::IpcReceive(c) | WaitReason::PagerReply(c) => {
                Some(("conn", c.0))
            }
            WaitReason::Join(t) | WaitReason::Donate(t) => Some(("thread", t.0)),
            WaitReason::SpaceIdle(s) => Some(("space", s.0)),
            WaitReason::Sleep => None,
        }
    }
}

/// A thread's run state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunState {
    /// Created but not yet started (or explicitly stopped).
    Stopped,
    /// On a ready queue.
    Ready,
    /// Executing on the given CPU.
    Running(usize),
    /// Blocked for the given reason.
    Blocked(WaitReason),
    /// Exited.
    Halted,
}

/// What a native (in-kernel) thread body does when dispatched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NativeAction {
    /// Charge `work` cycles, then block until explicitly woken.
    BlockUntilWoken {
        /// Simulated cycles of work performed this activation.
        work: Cycles,
    },
    /// Charge `work` cycles, then halt.
    Halt {
        /// Simulated cycles of work performed this activation.
        work: Cycles,
    },
}

/// Body of a kernel-internal thread (e.g. the Table 6 latency probe).
///
/// Native threads stand in for the paper's "high-priority kernel thread";
/// they are scheduling entities but have no exportable user state.
pub trait NativeBody: std::fmt::Debug {
    /// Invoked when the scheduler dispatches the thread. `woken_at` is the
    /// simulated time the thread was made runnable; `now` the dispatch time.
    fn on_dispatch(&mut self, woken_at: Cycles, now: Cycles, stats: &mut Stats) -> NativeAction;
}

/// What a thread executes.
pub enum Body {
    /// An ordinary user-mode thread running a program image.
    User,
    /// A kernel-internal native thread.
    Native(Box<dyn NativeBody>),
}

impl std::fmt::Debug for Body {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Body::User => write!(f, "User"),
            Body::Native(_) => write!(f, "Native"),
        }
    }
}

/// The IPC role of a connection end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IpcRole {
    /// Client side (initiated the connection).
    Client,
    /// Server side (accepted from a port).
    Server,
}

/// A thread's IPC connection end, kept in the TCB (paper §4.3: "The IPC
/// connection state itself is stored as part of the current thread's
/// control block").
#[derive(Debug, Clone, Copy, Default)]
pub struct IpcEnd {
    /// The live connection, if any.
    pub conn: Option<ConnId>,
    /// This thread's role on that connection.
    pub role: Option<IpcRole>,
}

/// A thread control block.
#[derive(Debug)]
pub struct Thread {
    /// This thread's id.
    pub id: ThreadId,
    /// Its object-table entry (None for loader-created native threads).
    pub obj: Option<ObjId>,
    /// The space the thread executes in.
    pub space: Option<SpaceId>,
    /// The handle by which the space was last named in a state frame
    /// (exported verbatim in `ThreadStateFrame::space_token`).
    pub space_token: u32,
    /// The program image (user threads).
    pub program: Option<ProgramId>,
    /// Cached program text (kept in sync with `program`).
    pub text: Option<Arc<Program>>,
    /// The user-visible register file — the thread's entire continuation.
    pub regs: UserRegs,
    /// Scheduling priority (higher runs first).
    pub priority: u32,
    /// Home processor for the fine-grained multiprocessor scheduler:
    /// the CPU whose ready queue this thread is enqueued on. Assigned
    /// round-robin at creation, re-pinned to the CPU the thread last ran
    /// on at every dispatch (and to the thief on a successful steal).
    /// Always 0 on a uniprocessor.
    pub home_cpu: usize,
    /// Run state.
    pub state: RunState,
    /// User or native body.
    pub body: Body,
    /// IPC connection end.
    pub ipc: IpcEnd,
    /// The syscall the thread is in the middle of (blocked or preempted),
    /// for restart/rollback accounting. `None` when running user code.
    pub inflight: Option<Sys>,
    /// Set when the thread was preempted *inside* the kernel in the process
    /// model: its kernel stack is retained, so the next dispatch skips
    /// entry/preamble charges instead of restarting from scratch.
    pub kstack_retained: bool,
    /// Pending `thread_interrupt` not yet consumed.
    pub interrupted: bool,
    /// Set when the thread's current blocking operation was alerted by its
    /// IPC peer.
    pub ipc_alerted: bool,
    /// A disconnect/teardown hit this thread between its unblocking and its
    /// next dispatch; the pending error is delivered by the next IPC
    /// entrypoint.
    pub ipc_error: Option<fluke_api::ErrorCode>,
    /// Simulated time the thread was last made runnable (for latency and
    /// the native probe).
    pub woken_at: Cycles,
    /// Simulated time of the last *timer event* that made the thread
    /// runnable, pending consumption by the next dispatch (the `kprof`
    /// preemption-latency probe). Written unconditionally on timer wakes
    /// and cleared at dispatch, so enabling `kprof` changes nothing
    /// simulated; 0 means no event pending.
    pub wake_pending: Cycles,
    /// Index into `Stats::fault_records` of the fault this thread is
    /// currently having remedied (for Table 3 attribution).
    pub open_fault: Option<usize>,
    /// Accumulated user-mode cycles (per-thread accounting).
    pub user_cycles: Cycles,
    /// Threads blocked in `thread_wait` on this thread.
    pub joiners: WaitQueue<ThreadId>,
    /// Threads blocked in `sched_donate` with this thread as donee (they
    /// wake when it halts). Explicit bookkeeping so the halt path never
    /// scans the thread arena.
    pub donors: WaitQueue<ThreadId>,
}

impl Thread {
    /// Create a stopped user thread with zeroed registers.
    pub fn new_user(id: ThreadId) -> Self {
        Thread {
            id,
            obj: None,
            space: None,
            space_token: 0,
            program: None,
            text: None,
            regs: UserRegs::new(),
            priority: DEFAULT_PRIORITY,
            home_cpu: 0,
            state: RunState::Stopped,
            body: Body::User,
            ipc: IpcEnd::default(),
            inflight: None,
            kstack_retained: false,
            interrupted: false,
            ipc_alerted: false,
            ipc_error: None,
            woken_at: 0,
            wake_pending: 0,
            open_fault: None,
            user_cycles: 0,
            joiners: WaitQueue::new(),
            donors: WaitQueue::new(),
        }
    }

    /// Create a native (kernel-internal) thread.
    pub fn new_native(id: ThreadId, priority: u32, body: Box<dyn NativeBody>) -> Self {
        let mut t = Self::new_user(id);
        t.priority = priority;
        t.body = Body::Native(body);
        t
    }

    /// Whether the thread can be placed on a ready queue.
    pub fn is_ready(&self) -> bool {
        matches!(self.state, RunState::Ready)
    }

    /// Whether the thread has exited.
    pub fn is_halted(&self) -> bool {
        matches!(self.state, RunState::Halted)
    }

    /// Whether the thread is blocked.
    pub fn is_blocked(&self) -> bool {
        matches!(self.state, RunState::Blocked(_))
    }
}

// --- krec snapshot support ------------------------------------------------

use crate::krec::snap_codec;

snap_codec! {
    enum IpcRole as "IpcRole" {
        0 => Client,
        1 => Server,
    }
}

snap_codec! {
    struct IpcEnd { conn, role }
}

snap_codec! {
    enum WaitReason as "WaitReason" {
        0 => Mutex(o),
        1 => Cond(o),
        2 => PortWait(o),
        3 => PsetWait(o),
        4 => IpcConnect(o),
        5 => IpcSend(c),
        6 => IpcReceive(c),
        7 => OnewaySend(o),
        8 => OnewayReceive(o),
        9 => PagerReply(c),
        10 => Join(t),
        11 => Sleep,
        12 => SpaceIdle(s),
        13 => Donate(t),
    }
}

snap_codec! {
    enum RunState as "RunState" {
        0 => Stopped,
        1 => Ready,
        2 => Running(cpu),
        3 => Blocked(reason),
        4 => Halted,
    }
}

// Native bodies hold arbitrary host closures and cannot be serialized;
// snapshotting a kernel with a live native thread is a `NativeBody` error.
// The cached `text` Arc is derived from `program` and re-resolved against
// the kernel's program table after the whole kernel body is decoded.
snap_codec! {
    struct Thread {
        id,
        obj,
        space,
        space_token,
        program,
        text = None,
        regs,
        priority,
        home_cpu,
        state,
        body = Body::User,
        ipc,
        inflight,
        kstack_retained,
        interrupted,
        ipc_alerted,
        ipc_error,
        woken_at,
        wake_pending,
        open_fault,
        user_cycles,
        joiners,
        donors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_user_thread_is_stopped_and_clean() {
        let t = Thread::new_user(ThreadId(1));
        assert_eq!(t.state, RunState::Stopped);
        assert_eq!(t.priority, DEFAULT_PRIORITY);
        assert!(t.inflight.is_none());
        assert!(!t.is_ready());
        assert!(!t.is_halted());
        assert!(!t.is_blocked());
    }

    #[derive(Debug)]
    struct Probe;
    impl NativeBody for Probe {
        fn on_dispatch(&mut self, _w: Cycles, _n: Cycles, _s: &mut Stats) -> NativeAction {
            NativeAction::BlockUntilWoken { work: 10 }
        }
    }

    #[test]
    fn native_thread_carries_priority_and_body() {
        let t = Thread::new_native(ThreadId(2), 20, Box::new(Probe));
        assert_eq!(t.priority, 20);
        assert!(matches!(t.body, Body::Native(_)));
    }

    #[test]
    fn run_state_predicates() {
        let mut t = Thread::new_user(ThreadId(0));
        t.state = RunState::Blocked(WaitReason::Sleep);
        assert!(t.is_blocked());
        t.state = RunState::Halted;
        assert!(t.is_halted());
        t.state = RunState::Ready;
        assert!(t.is_ready());
    }
}
