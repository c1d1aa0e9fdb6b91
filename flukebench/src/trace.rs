//! Benchmark-side tracing: spans recorded around the benchmark's own calls
//! into each layer's public functions, with the kernel's deterministic
//! counters and the host allocator's counters read at the boundaries.
//! Spans stay in memory and are written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use fluke_api::{SYSCALLS, SYSCALL_COUNT};
use fluke_core::Kernel;

use crate::heap::Heap;

/// Kernel counters cheap enough to read around every `Kernel::run` slice:
/// direct `Stats` fields (`Stats::kstat()` builds a whole registry, so it
/// is read only at pass boundaries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counters {
    /// Simulated time (`Kernel::now`).
    pub cycles: u64,
    /// `kernel.syscall.count`.
    pub syscalls: u64,
    /// `kernel.ipc.messages`.
    pub ipc_messages: u64,
    /// `kernel.ipc.bytes`.
    pub ipc_bytes: u64,
    /// `kernel.sched.ctx_switches`.
    pub ctx_switches: u64,
    /// `kernel.fault.hard`.
    pub hard_faults: u64,
    /// `kernel.cycles.user`.
    pub user_cycles: u64,
    /// `kernel.syscall.<entrypoint>.count`, indexed by `Sys::num`.
    pub per_sys: [u64; SYSCALL_COUNT],
}

impl Counters {
    /// Read the counters of `k`.
    pub fn read(k: &Kernel) -> Counters {
        let s = &k.stats;
        let mut per_sys = [0; SYSCALL_COUNT];
        for d in SYSCALLS {
            per_sys[d.sys.num() as usize] = s.per_sys.get(d.sys);
        }
        Counters {
            cycles: k.now(),
            syscalls: s.syscalls,
            ipc_messages: s.ipc_messages,
            ipc_bytes: s.ipc_bytes,
            ctx_switches: s.ctx_switches,
            hard_faults: s.hard_faults,
            user_cycles: s.user_cycles,
            per_sys,
        }
    }
}

/// What a span's interval did to the counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Delta {
    /// Simulated cycles advanced.
    pub cycles: u64,
    /// System calls dispatched.
    pub syscalls: u64,
    /// IPC messages completed.
    pub ipc_messages: u64,
    /// IPC bytes copied.
    pub ipc_bytes: u64,
    /// Context switches.
    pub ctx_switches: u64,
    /// Hard faults.
    pub hard_faults: u64,
    /// Simulated user-mode cycles.
    pub user_cycles: u64,
    /// The entrypoint dispatched most often in the interval, if any.
    pub top_sys: Option<&'static str>,
}

impl Delta {
    /// The change from `a` to `b`.
    pub fn between(a: &Counters, b: &Counters) -> Delta {
        let top = SYSCALLS
            .iter()
            .map(|d| {
                let i = d.sys.num() as usize;
                (b.per_sys[i] - a.per_sys[i], d.sys.name())
            })
            .filter(|&(n, _)| n > 0)
            .max_by_key(|&(n, _)| n)
            .map(|(_, name)| name);
        Delta {
            cycles: b.cycles - a.cycles,
            syscalls: b.syscalls - a.syscalls,
            ipc_messages: b.ipc_messages - a.ipc_messages,
            ipc_bytes: b.ipc_bytes - a.ipc_bytes,
            ctx_switches: b.ctx_switches - a.ctx_switches,
            hard_faults: b.hard_faults - a.hard_faults,
            user_cycles: b.user_cycles - a.user_cycles,
            top_sys: top,
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary the span wraps (`run.slice`, `snap.encode`, ...).
    pub name: &'static str,
    /// Pass the span belongs to.
    pub pass: u32,
    /// Index of the enclosing span.
    pub parent: Option<u32>,
    /// Host nanoseconds since the recorder started.
    pub start_ns: u64,
    /// Host nanoseconds since the recorder started (0 while open).
    pub end_ns: u64,
    /// Allocator counts inside the span.
    pub heap: Heap,
    /// Kernel counter changes inside the span (slices only).
    pub delta: Option<Delta>,
}

impl Span {
    /// Host duration.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The in-memory span store.
pub struct Recorder {
    epoch: Instant,
    /// Every span recorded so far, in start order.
    pub spans: Vec<Span>,
    open: Vec<u32>,
    heap_at_open: Vec<Heap>,
    /// Pass id stamped on new spans.
    pub pass: u32,
}

impl Recorder {
    /// An empty recorder; its clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            heap_at_open: Vec::new(),
            pass: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            pass: self.pass,
            parent: self.open.last().copied(),
            start_ns: 0,
            end_ns: 0,
            heap: Heap::default(),
            delta: None,
        });
        self.open.push(id);
        self.heap_at_open.push(Heap::default());
        // Read the clocks last, so the recorder's own work stays outside.
        let heap = Heap::now();
        let t = self.now_ns();
        *self.heap_at_open.last_mut().expect("just pushed") = heap;
        self.spans[id as usize].start_ns = t;
    }

    /// Close the innermost open span; returns its host duration.
    pub fn end(&mut self) -> u64 {
        // Read the clocks first, so the recorder's own work stays outside.
        let t = self.now_ns();
        let heap = Heap::now();
        let id = self.open.pop().expect("end without begin") as usize;
        let at_open = self.heap_at_open.pop().expect("end without begin");
        let s = &mut self.spans[id];
        s.end_ns = t;
        s.heap = heap.since(at_open);
        s.ns()
    }

    /// Attach counter changes to the most recently closed span.
    pub fn set_delta(&mut self, d: Delta) {
        let s = self.spans.last_mut().expect("a closed span");
        s.delta = Some(d);
    }

    /// Self time per span name: each span's duration minus the time its
    /// direct children cover. Returns name → (count, total ns, self ns).
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.ns();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.ns();
            e.2 += s.ns().saturating_sub(c);
        }
        out
    }

    /// Write every span as one tab-separated line.
    pub fn write(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(
            out,
            "id\tparent\tpass\tname\tstart_ns\tend_ns\theap_allocs\theap_bytes\t\
             sim_cycles\tsyscalls\tipc_messages\tipc_bytes\tctx_switches\thard_faults\t\
             user_cycles\ttop_sys"
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            write!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.pass, s.name, s.start_ns, s.end_ns, s.heap.allocs, s.heap.bytes
            )?;
            match &s.delta {
                Some(d) => writeln!(
                    out,
                    "\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                    d.cycles,
                    d.syscalls,
                    d.ipc_messages,
                    d.ipc_bytes,
                    d.ctx_switches,
                    d.hard_faults,
                    d.user_cycles,
                    d.top_sys.unwrap_or("-")
                )?,
                None => writeln!(out, "\t-\t-\t-\t-\t-\t-\t-\t-")?,
            }
        }
        Ok(())
    }
}
