#![warn(missing_docs)]
//! The Fluke kernel reproduction: a purely atomic (fully interruptible and
//! restartable) kernel API over nine primitive object types, implemented by
//! a single kernel source configurable between the **process** and
//! **interrupt** execution models and three preemption styles — the five
//! configurations of the paper's Table 4.
//!
//! # Quick start
//!
//! ```
//! use fluke_arch::{Assembler, Reg, UserRegs};
//! use fluke_api::Sys;
//! use fluke_core::{Config, Kernel, RunExit};
//!
//! // A program that calls thread_self and halts.
//! let mut a = Assembler::new("hello");
//! a.movi(Reg::Eax, Sys::ThreadSelf.num());
//! a.syscall();
//! a.halt();
//!
//! let mut k = Kernel::new(Config::process_np());
//! let prog = k.register_program(a.finish());
//! let space = k.create_space();
//! let t = k.spawn_thread(space, prog, UserRegs::new(), 8);
//! assert_eq!(k.run(None), RunExit::AllHalted);
//! assert!(k.thread_halted(t));
//! ```

pub mod config;
pub mod conn;
pub mod events;
pub mod flowcheck;
pub mod ids;
pub mod kernel;
pub mod kfault;
pub mod kfuzz;
pub mod kprof;
pub mod krec;
pub mod kspan;
pub mod kstat;
pub mod object;
pub mod oracle;
pub mod phys;
pub mod sched;
pub mod space;
pub mod thread;
pub mod tlb;
pub mod trace;
pub mod waitq;

pub use config::{Config, ExecModel, Preemption, TraceConfig, PP_CHUNK_BYTES};
pub use flowcheck::{Flowcheck, Violation, ViolationKind};
pub use ids::{ConnId, ObjId, SpaceId, ThreadId};
pub use kernel::{block_audit_hits, Kernel, MemAccessError, MemRun, RunExit};
pub use kfault::{Kfault, KfaultConfig, KfaultKind};
pub use kprof::{Kprof, Phase};
pub use krec::{
    trace_suffix_digest, Divergence, Krec, KrecConfig, Recording, ReplayError, Replayer, RunWindow,
    Snap, SnapError, SnapReader, SnapWriter, Snapshot,
};
pub use kspan::{FlowEdge, Kspan, ObjectContention, RequestRecord, USER_FRAME};
pub use kstat::{
    FaultKind, FaultRecord, FaultSide, KstatEntry, KstatRegistry, KstatValue, MemGauges,
    PerSysCounts, Stats,
};
pub use thread::{NativeAction, NativeBody, RunState, WaitReason};
pub use tlb::TlbStats;
pub use trace::{Histogram, TraceEvent, TraceRecord, TraceRing, Tracer, UserVisible};
pub use waitq::{WaitQueue, WaitqStats};
