//! The user-visible oracle shared by every differential harness.
//!
//! The paper's claim is that the execution model and preemption style are
//! invisible to user code. An [`Outcome`] is everything user code can
//! observe of a finished run: the [`user_visible`] trace projection
//! (syscall results, marks, halts), the final registers of the threads a
//! harness chooses, and an FNV-1a digest over the memory regions it
//! chooses. The differential fuzzers, the `kfault` sweep and the `krec`
//! sweep all compare runs through [`capture`], so "same outcome" means the
//! same thing everywhere.
//!
//! [`user_visible`]: crate::trace::Tracer::user_visible

use std::collections::BTreeMap;

use fluke_arch::Reg;

use crate::ids::{SpaceId, ThreadId};
use crate::kernel::{Kernel, MemAccessError};
use crate::krec::{fnv64, FNV_OFFSET};
use crate::trace::UserVisible;

/// Everything a user program can observe of a finished run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Per-thread user-visible event sequences (syscall results, marks,
    /// halts).
    pub uv: BTreeMap<ThreadId, Vec<UserVisible>>,
    /// Each chosen thread with its chosen registers' final values.
    pub regs: Vec<(ThreadId, Vec<u32>)>,
    /// FNV-1a-64 over the chosen memory regions, in order.
    pub mem: u64,
}

/// Project the outcome of a finished run: the user-visible trace, the
/// final `regs` of each of `threads`, and a digest over `regions`
/// (`(space, base, len)` each). Tracing must have been armed for the run.
pub fn capture(
    k: &mut Kernel,
    threads: &[ThreadId],
    regs: &[Reg],
    regions: &[(SpaceId, u32, u32)],
) -> Result<Outcome, MemAccessError> {
    let mut mem = FNV_OFFSET;
    for &(space, base, len) in regions {
        mem = fnv64(mem, &k.try_read_mem(space, base, len)?);
    }
    Ok(Outcome {
        uv: k.trace.user_visible(),
        regs: threads
            .iter()
            .map(|&t| {
                let r = k.thread_regs(t);
                (t, regs.iter().map(|&g| r.get(g)).collect())
            })
            .collect(),
        mem,
    })
}

impl Outcome {
    /// Whether every chosen thread ran to its halt.
    pub fn halted(&self) -> bool {
        self.regs.iter().all(|(t, _)| {
            self.uv
                .get(t)
                .is_some_and(|ev| ev.contains(&UserVisible::Halt))
        })
    }

    /// Describe the first component in which `got` differs from `self`
    /// (the expected outcome).
    pub fn diff(&self, got: &Outcome) -> String {
        if self.mem != got.mem {
            return format!(
                "memory digest {:#018x} != golden {:#018x}",
                got.mem, self.mem
            );
        }
        if self.regs != got.regs {
            return format!("final registers {:x?} != golden {:x?}", got.regs, self.regs);
        }
        if self.uv != got.uv {
            for (t, w) in &self.uv {
                match got.uv.get(t) {
                    None => return format!("thread {} missing from user-visible trace", t.0),
                    Some(g) if g != w => {
                        let i = w.iter().zip(g.iter()).position(|(a, b)| a != b);
                        return format!(
                            "thread {} user-visible events diverge at index {:?} \
                             (golden len {}, got len {})",
                            t.0,
                            i,
                            w.len(),
                            g.len()
                        );
                    }
                    _ => {}
                }
            }
            return "extra threads in user-visible trace".to_string();
        }
        "outcomes equal (spurious diff)".to_string()
    }
}
