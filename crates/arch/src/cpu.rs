//! The simulated CPU: executes user-mode instructions and reports traps.
//!
//! The CPU is mechanism only: it advances a thread's [`UserRegs`] over its
//! [`Program`], charging cycles, until it traps or reaches a deadline (the
//! next timer event, set by the kernel). Interrupt delivery, scheduling and
//! fault handling are kernel policy in `fluke-core`.

use crate::cost::{CostModel, Cycles};
use crate::isa::{Cond, Instr};
use crate::mem::{MemFault, UserMem};
use crate::program::Program;
use crate::regs::{Reg, UserRegs, FLAG_LT, FLAG_ZF};
use crate::trap::Trap;

/// Maximum bytes a string instruction moves per [`Cpu::step`]. Like real
/// hardware, string instructions are interruptible *between* chunks: the
/// registers always hold exact partial progress and `eip` stays at the
/// instruction until the count reaches zero.
pub const REP_CHUNK: u32 = 1024;

/// Why [`Cpu::run_user`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The thread trapped; `eip` points at the trapping instruction.
    Trapped(Trap),
    /// The deadline passed with the thread still running user code.
    DeadlineReached,
}

/// A simulated processor: an id plus a local cycle clock.
#[derive(Debug, Clone)]
pub struct Cpu {
    /// Processor number (0-based).
    pub id: usize,
    /// Local clock in simulated cycles.
    pub now: Cycles,
}

impl Cpu {
    /// Create CPU `id` with its clock at zero.
    pub fn new(id: usize) -> Self {
        Cpu { id, now: 0 }
    }

    /// Execute exactly one instruction (or one chunk of a string
    /// instruction), charging cycles to the CPU clock.
    ///
    /// Returns the trap, if any. On a trap — including a page fault halfway
    /// through a string instruction — `eip` still points at the instruction
    /// and the registers hold exact partial progress, so resolving the
    /// condition and re-running resumes correctly.
    pub fn step<M: UserMem + ?Sized>(
        &mut self,
        regs: &mut UserRegs,
        prog: &Program,
        mem: &mut M,
        cost: &CostModel,
    ) -> Option<Trap> {
        exec(&mut self.now, &mut RegFile::of(regs), prog, mem, cost)
    }

    /// Run user code until it traps or its clock passes `deadline`.
    ///
    /// The deadline is checked before each instruction, and an instruction
    /// once started is charged in full. So the clock can pass `deadline` by
    /// up to one instruction's charge: `n` for `Compute(n)`, and
    /// `user_instr + REP_CHUNK * user_string_byte_per` for one string
    /// chunk. On [`StepOutcome::DeadlineReached`] the clock is at least
    /// `deadline` (unchanged if it already was on entry). A trap may also
    /// end past `deadline` by its instruction's charge.
    ///
    /// The loop keeps the clock and the registers in locals and writes
    /// both back to `self.now` and `*regs` on every exit, so each exit
    /// leaves exactly the state of calling [`Cpu::step`] while the clock
    /// is below `deadline`.
    pub fn run_user<M: UserMem + ?Sized>(
        &mut self,
        regs: &mut UserRegs,
        prog: &Program,
        mem: &mut M,
        cost: &CostModel,
        deadline: Cycles,
    ) -> StepOutcome {
        let mut now = self.now;
        let (mut gpr, mut eip, mut eflags) = (regs.gpr, regs.eip, regs.eflags);
        let out = loop {
            if now >= deadline {
                break StepOutcome::DeadlineReached;
            }
            // A fresh view per instruction: no borrow of the locals lives
            // across iterations, so `eip` and `eflags` stay in registers.
            let mut r = RegFile {
                gpr: &mut gpr,
                eip: &mut eip,
                eflags: &mut eflags,
            };
            if let Some(trap) = exec(&mut now, &mut r, prog, mem, cost) {
                break StepOutcome::Trapped(trap);
            }
        };
        self.now = now;
        (regs.gpr, regs.eip, regs.eflags) = (gpr, eip, eflags);
        out
    }
}

/// The registers as [`exec`] sees them: [`UserRegs`] minus the
/// pseudo-registers, which the CPU never touches, with `eip` and `eflags`
/// held apart from the general registers. An array indexed by a run-time
/// register number stays in memory; held apart, the other two can live in
/// host registers across [`Cpu::run_user`]'s loop.
struct RegFile<'a> {
    gpr: &'a mut [u32; 8],
    eip: &'a mut u32,
    eflags: &'a mut u32,
}

impl<'a> RegFile<'a> {
    #[inline(always)]
    fn of(regs: &'a mut UserRegs) -> Self {
        RegFile {
            gpr: &mut regs.gpr,
            eip: &mut regs.eip,
            eflags: &mut regs.eflags,
        }
    }

    #[inline(always)]
    fn get(&self, r: Reg) -> u32 {
        self.gpr[r.index()]
    }

    #[inline(always)]
    fn set(&mut self, r: Reg, v: u32) {
        self.gpr[r.index()] = v;
    }

    #[inline(always)]
    fn flag(&self, flag: u32) -> bool {
        *self.eflags & flag != 0
    }

    #[inline(always)]
    fn set_flag(&mut self, flag: u32, on: bool) {
        if on {
            *self.eflags |= flag;
        } else {
            *self.eflags &= !flag;
        }
    }
}

/// The ISA's semantics: execute the instruction at `eip` (one chunk of a
/// string instruction), charging `now`. Both [`Cpu::step`] and
/// [`Cpu::run_user`] go through here; inlining it into `run_user`'s loop
/// lets the clock and registers live in locals across instructions.
#[inline(always)]
fn exec<M: UserMem + ?Sized>(
    now: &mut Cycles,
    regs: &mut RegFile<'_>,
    prog: &Program,
    mem: &mut M,
    cost: &CostModel,
) -> Option<Trap> {
    let Some(instr) = prog.fetch(*regs.eip) else {
        *now += cost.user_instr;
        return Some(Trap::Illegal);
    };
    // Every instruction is charged before it touches memory; a fault
    // leaves `eip` at the instruction.
    *now += match instr {
        Instr::Compute(n) => n as Cycles,
        _ => cost.user_instr,
    };
    let alu = |regs: &mut RegFile<'_>, d: Reg, v: u32| {
        regs.set(d, v);
        *regs.eip += 1;
        None
    };
    let trap_on = |r: Result<(), MemFault>| match r {
        Ok(()) => None,
        Err(f) => Some(Trap::PageFault(f)),
    };
    match instr {
        Instr::MovI(d, v) => alu(regs, d, v),
        Instr::Mov(d, s) => alu(regs, d, regs.get(s)),
        Instr::Add(d, s) => alu(regs, d, regs.get(d).wrapping_add(regs.get(s))),
        Instr::AddI(d, i) => alu(regs, d, regs.get(d).wrapping_add(i)),
        Instr::Sub(d, s) => alu(regs, d, regs.get(d).wrapping_sub(regs.get(s))),
        Instr::SubI(d, i) => alu(regs, d, regs.get(d).wrapping_sub(i)),
        Instr::Mul(d, s) => alu(regs, d, regs.get(d).wrapping_mul(regs.get(s))),
        Instr::Xor(d, s) => alu(regs, d, regs.get(d) ^ regs.get(s)),
        Instr::AndI(d, i) => alu(regs, d, regs.get(d) & i),
        Instr::ShrI(d, i) => alu(regs, d, regs.get(d) >> (i & 31)),
        Instr::ShlI(d, i) => alu(regs, d, regs.get(d) << (i & 31)),
        Instr::Cmp(l, r) => compare(regs, regs.get(l), regs.get(r)),
        Instr::CmpI(l, i) => compare(regs, regs.get(l), i),
        Instr::Jmp(c, target) => {
            let taken = match c {
                Cond::Always => true,
                Cond::Eq => regs.flag(FLAG_ZF),
                Cond::Ne => !regs.flag(FLAG_ZF),
                Cond::Lt => regs.flag(FLAG_LT),
                Cond::Ge => !regs.flag(FLAG_LT),
            };
            *regs.eip = if taken { target } else { *regs.eip + 1 };
            None
        }
        Instr::Load(d, b, off) => {
            let addr = regs.get(b).wrapping_add(off as u32);
            trap_on(mem.read_u32(addr).map(|v| {
                regs.set(d, v);
                *regs.eip += 1;
            }))
        }
        Instr::Store(b, off, s) => {
            let addr = regs.get(b).wrapping_add(off as u32);
            trap_on(mem.write_u32(addr, regs.get(s)).map(|()| *regs.eip += 1))
        }
        Instr::LoadB(d, b, off) => {
            let addr = regs.get(b).wrapping_add(off as u32);
            trap_on(mem.read_u8(addr).map(|v| {
                regs.set(d, v as u32);
                *regs.eip += 1;
            }))
        }
        Instr::StoreB(b, off, s) => {
            let addr = regs.get(b).wrapping_add(off as u32);
            trap_on(
                mem.write_u8(addr, regs.get(s) as u8)
                    .map(|()| *regs.eip += 1),
            )
        }
        Instr::Push(s) => {
            let sp = regs.get(Reg::Esp).wrapping_sub(4);
            trap_on(mem.write_u32(sp, regs.get(s)).map(|()| {
                regs.set(Reg::Esp, sp);
                *regs.eip += 1;
            }))
        }
        Instr::Pop(d) => {
            let sp = regs.get(Reg::Esp);
            trap_on(mem.read_u32(sp).map(|v| {
                regs.set(d, v);
                regs.set(Reg::Esp, sp.wrapping_add(4));
                *regs.eip += 1;
            }))
        }
        Instr::RepMovsB => {
            // Bulk page-run copy, semantically identical to the old byte
            // loop: cycles charged per completed byte, registers advanced
            // by exactly the bytes completed, fault aborts with eip
            // unchanged.
            let mut count = regs.get(Reg::Ecx);
            let mut src = regs.get(Reg::Esi);
            let mut dst = regs.get(Reg::Edi);
            let mut remaining = count.min(REP_CHUNK);
            let mut buf = [0u8; REP_CHUNK as usize];
            let mut fault = None;
            while remaining > 0 && fault.is_none() {
                // A byte-wise ascending copy with dst inside (src, src+n)
                // replicates the source with period d = dst - src; block
                // copies of at most d bytes reproduce that exactly.
                // Backward/non-overlap needs no clamp.
                let d = dst.wrapping_sub(src);
                let block = if d > 0 && d < remaining { d } else { remaining };
                let (rdone, rfault) = match mem.read_bytes(src, &mut buf[..block as usize]) {
                    Ok(()) => (block, None),
                    Err(e) => (e.done, Some(e.fault)),
                };
                // Bytes read before a read fault are still written —
                // byte-wise order writes byte j before reading byte j+1.
                // A write fault precedes the read fault, since write j
                // happens before read k for j < k.
                let done;
                (done, fault) = match mem.write_bytes(dst, &buf[..rdone as usize]) {
                    Ok(()) => (rdone, rfault),
                    Err(e) => (e.done, Some(e.fault)),
                };
                src = src.wrapping_add(done);
                dst = dst.wrapping_add(done);
                count -= done;
                remaining -= done;
                *now += cost.user_string_byte_per * done as Cycles;
            }
            regs.set(Reg::Esi, src);
            string_end(regs, dst, count, fault)
        }
        Instr::RepStosB => {
            let val = regs.get(Reg::Eax) as u8;
            let count = regs.get(Reg::Ecx);
            let dst = regs.get(Reg::Edi);
            let chunk = count.min(REP_CHUNK);
            let buf = [val; REP_CHUNK as usize];
            let (done, fault) = match mem.write_bytes(dst, &buf[..chunk as usize]) {
                Ok(()) => (chunk, None),
                Err(e) => (e.done, Some(e.fault)),
            };
            *now += cost.user_string_byte_per * done as Cycles;
            string_end(regs, dst.wrapping_add(done), count - done, fault)
        }
        // `eip` stays at the trap instruction; the kernel advances it on
        // completion or leaves it for a restart.
        Instr::Syscall => Some(Trap::Syscall),
        Instr::Halt => Some(Trap::Halt),
        Instr::Compute(_) | Instr::Nop => {
            *regs.eip += 1;
            None
        }
    }
}

/// Set `ZF`/`LT` from an unsigned comparison and retire.
#[inline(always)]
fn compare(regs: &mut RegFile<'_>, l: u32, r: u32) -> Option<Trap> {
    regs.set_flag(FLAG_ZF, l == r);
    regs.set_flag(FLAG_LT, l < r);
    *regs.eip += 1;
    None
}

/// Commit a string chunk's `edi`/`ecx` progress; retire once the count
/// reaches zero, unless the chunk faulted.
#[inline(always)]
fn string_end(
    regs: &mut RegFile<'_>,
    dst: u32,
    count: u32,
    fault: Option<MemFault>,
) -> Option<Trap> {
    regs.set(Reg::Edi, dst);
    regs.set(Reg::Ecx, count);
    if let Some(f) = fault {
        return Some(Trap::PageFault(f));
    }
    if count == 0 {
        *regs.eip += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;
    use crate::mem::FlatMem;

    fn run_to_halt(prog: &Program, mem: &mut FlatMem) -> (UserRegs, Cycles) {
        let mut cpu = Cpu::new(0);
        let mut regs = UserRegs::new();
        let cost = CostModel::default();
        loop {
            match cpu.step(&mut regs, prog, mem, &cost) {
                None => continue,
                Some(Trap::Halt) => return (regs, cpu.now),
                Some(t) => panic!("unexpected trap {t:?} at eip={}", regs.eip),
            }
        }
    }

    #[test]
    fn arithmetic_and_branches() {
        // Sum 1..=5 into ebx.
        let mut a = Assembler::new("sum");
        a.movi(Reg::Ecx, 5);
        a.xor(Reg::Ebx, Reg::Ebx);
        a.label("loop");
        a.add(Reg::Ebx, Reg::Ecx);
        a.subi(Reg::Ecx, 1);
        a.cmpi(Reg::Ecx, 0);
        a.jcc(Cond::Ne, "loop");
        a.halt();
        let p = a.finish();
        let mut mem = FlatMem::new(0);
        let (regs, _) = run_to_halt(&p, &mut mem);
        assert_eq!(regs.get(Reg::Ebx), 15);
    }

    #[test]
    fn loads_stores_and_stack() {
        let mut a = Assembler::new("mem");
        a.movi(Reg::Esp, 64);
        a.movi(Reg::Eax, 0x1234);
        a.emit(Instr::Push(Reg::Eax));
        a.movi(Reg::Eax, 0);
        a.emit(Instr::Pop(Reg::Ebx));
        a.movi(Reg::Edx, 0xff);
        a.storeb(Reg::Esp, -8, Reg::Edx);
        a.loadb(Reg::Ecx, Reg::Esp, -8);
        a.halt();
        let p = a.finish();
        let mut mem = FlatMem::new(64);
        let (regs, _) = run_to_halt(&p, &mut mem);
        assert_eq!(regs.get(Reg::Ebx), 0x1234);
        assert_eq!(regs.get(Reg::Ecx), 0xff);
        assert_eq!(regs.get(Reg::Esp), 64);
    }

    #[test]
    fn rep_movs_copies_and_advances_registers() {
        let mut a = Assembler::new("copy");
        a.movi(Reg::Esi, 0);
        a.movi(Reg::Edi, 100);
        a.movi(Reg::Ecx, 50);
        a.emit(Instr::RepMovsB);
        a.halt();
        let p = a.finish();
        let mut mem = FlatMem::new(256);
        for i in 0..50 {
            mem.write_u8(i, i as u8).unwrap();
        }
        let (regs, _) = run_to_halt(&p, &mut mem);
        assert_eq!(regs.get(Reg::Ecx), 0);
        assert_eq!(regs.get(Reg::Esi), 50);
        assert_eq!(regs.get(Reg::Edi), 150);
        for i in 0..50u32 {
            assert_eq!(mem.read_u8(100 + i).unwrap(), i as u8);
        }
    }

    #[test]
    fn rep_movs_fault_preserves_partial_progress() {
        // Destination runs off the end of memory halfway through: the fault
        // must leave the registers at the exact partial-progress point, and
        // eip still at the string instruction.
        let mut a = Assembler::new("copyfault");
        a.movi(Reg::Esi, 0);
        a.movi(Reg::Edi, 120);
        a.movi(Reg::Ecx, 16);
        a.emit(Instr::RepMovsB);
        a.halt();
        let p = a.finish();
        let mut mem = FlatMem::new(128); // dst bytes 120..136, faults at 128
        let mut cpu = Cpu::new(0);
        let mut regs = UserRegs::new();
        let cost = CostModel::default();
        let trap = loop {
            if let Some(t) = cpu.step(&mut regs, &p, &mut mem, &cost) {
                break t;
            }
        };
        match trap {
            Trap::PageFault(f) => assert_eq!(f.addr, 128),
            t => panic!("expected page fault, got {t:?}"),
        }
        assert_eq!(regs.get(Reg::Ecx), 8, "8 bytes remain");
        assert_eq!(regs.get(Reg::Esi), 8);
        assert_eq!(regs.get(Reg::Edi), 128);
        // eip still at the RepMovsB instruction (index 3).
        assert_eq!(regs.eip, 3);
    }

    #[test]
    fn rep_movs_resumes_after_fault_resolution() {
        // Simulate the kernel resolving the fault by growing memory, then
        // re-running: the copy must complete with correct bytes.
        let mut a = Assembler::new("copyresume");
        a.movi(Reg::Esi, 0);
        a.movi(Reg::Edi, 120);
        a.movi(Reg::Ecx, 16);
        a.emit(Instr::RepMovsB);
        a.halt();
        let p = a.finish();
        let mut small = FlatMem::new(128);
        for i in 0..16 {
            small.write_u8(i, 0x40 + i as u8).unwrap();
        }
        let mut cpu = Cpu::new(0);
        let mut regs = UserRegs::new();
        let cost = CostModel::default();
        // Run to the fault.
        loop {
            if let Some(t) = cpu.step(&mut regs, &p, &mut small, &cost) {
                assert!(matches!(t, Trap::PageFault(_)));
                break;
            }
        }
        // "Resolve" the fault: bigger memory with same contents.
        let mut big = FlatMem::new(256);
        for i in 0..128u32 {
            let b = small.read_u8(i).unwrap();
            big.write_u8(i, b).unwrap();
        }
        // Resume: same regs, eip unchanged.
        loop {
            match cpu.step(&mut regs, &p, &mut big, &cost) {
                None => continue,
                Some(Trap::Halt) => break,
                Some(t) => panic!("unexpected {t:?}"),
            }
        }
        for i in 0..16u32 {
            assert_eq!(big.read_u8(120 + i).unwrap(), 0x40 + i as u8);
        }
    }

    #[test]
    fn rep_stos_fills_memory() {
        let mut a = Assembler::new("fill");
        a.movi(Reg::Eax, 0xaa);
        a.movi(Reg::Edi, 10);
        a.movi(Reg::Ecx, 20);
        a.emit(Instr::RepStosB);
        a.halt();
        let p = a.finish();
        let mut mem = FlatMem::new(64);
        let (regs, _) = run_to_halt(&p, &mut mem);
        assert_eq!(regs.get(Reg::Ecx), 0);
        for i in 10..30 {
            assert_eq!(mem.read_u8(i).unwrap(), 0xaa);
        }
        assert_eq!(mem.read_u8(9).unwrap(), 0);
        assert_eq!(mem.read_u8(30).unwrap(), 0);
    }

    #[test]
    fn large_rep_movs_chunks_but_completes() {
        let n = 3 * REP_CHUNK + 17;
        let mut a = Assembler::new("bigcopy");
        a.movi(Reg::Esi, 0);
        a.movi(Reg::Edi, n);
        a.movi(Reg::Ecx, n);
        a.emit(Instr::RepMovsB);
        a.halt();
        let p = a.finish();
        let mut mem = FlatMem::new(2 * n as usize + 16);
        mem.write_u8(n - 1, 7).unwrap();
        let (regs, _) = run_to_halt(&p, &mut mem);
        assert_eq!(regs.get(Reg::Ecx), 0);
        assert_eq!(mem.read_u8(2 * n - 1).unwrap(), 7);
    }

    #[test]
    fn rep_movs_forward_overlap_replicates_pattern() {
        // dst = src + 3 inside the source range: x86 byte-wise semantics
        // replicate the first 3 bytes with period 3. The block fast path
        // must reproduce this exactly.
        let mut a = Assembler::new("overlap");
        a.movi(Reg::Esi, 10);
        a.movi(Reg::Edi, 13);
        a.movi(Reg::Ecx, 12);
        a.emit(Instr::RepMovsB);
        a.halt();
        let p = a.finish();
        let mut mem = FlatMem::new(64);
        for (i, b) in [1u8, 2, 3].iter().enumerate() {
            mem.write_u8(10 + i as u32, *b).unwrap();
        }
        let (regs, _) = run_to_halt(&p, &mut mem);
        assert_eq!(regs.get(Reg::Ecx), 0);
        for i in 0..12u32 {
            assert_eq!(
                mem.read_u8(13 + i).unwrap(),
                [1, 2, 3][(i % 3) as usize],
                "byte {i}"
            );
        }
    }

    #[test]
    fn rep_movs_backward_overlap_copies_cleanly() {
        // dst = src - 4 with count 12: ascending byte-wise copy never
        // clobbers an unread source byte, so the result is a plain copy.
        let mut a = Assembler::new("backoverlap");
        a.movi(Reg::Esi, 20);
        a.movi(Reg::Edi, 16);
        a.movi(Reg::Ecx, 12);
        a.emit(Instr::RepMovsB);
        a.halt();
        let p = a.finish();
        let mut mem = FlatMem::new(64);
        let data: Vec<u8> = (0..12).map(|i| 0x30 + i as u8).collect();
        for (i, b) in data.iter().enumerate() {
            mem.write_u8(20 + i as u32, *b).unwrap();
        }
        let (_, _) = run_to_halt(&p, &mut mem);
        for (i, b) in data.iter().enumerate() {
            assert_eq!(mem.read_u8(16 + i as u32).unwrap(), *b, "byte {i}");
        }
    }

    #[test]
    fn rep_movs_cycle_charge_matches_byte_count() {
        // The bulk rewrite must charge exactly the per-byte cost model:
        // one user_instr per step plus user_string_byte_per per byte.
        let n = REP_CHUNK + 100; // two steps
        let mut a = Assembler::new("cycles");
        a.movi(Reg::Esi, 0);
        a.movi(Reg::Edi, n);
        a.movi(Reg::Ecx, n);
        a.emit(Instr::RepMovsB);
        a.halt();
        let p = a.finish();
        let mut mem = FlatMem::new(2 * n as usize);
        let (_, cycles) = run_to_halt(&p, &mut mem);
        let cost = CostModel::default();
        let expect = 3 * cost.user_instr          // three movi
            + 2 * cost.user_instr                 // two RepMovsB steps
            + n as Cycles * cost.user_string_byte_per
            + cost.user_instr; // halt
        assert_eq!(cycles, expect);
    }

    #[test]
    fn syscall_leaves_eip_at_trap_instruction() {
        let mut a = Assembler::new("sys");
        a.movi(Reg::Eax, 42);
        a.syscall();
        a.halt();
        let p = a.finish();
        let mut mem = FlatMem::new(0);
        let mut cpu = Cpu::new(0);
        let mut regs = UserRegs::new();
        let cost = CostModel::default();
        assert_eq!(cpu.step(&mut regs, &p, &mut mem, &cost), None);
        assert_eq!(
            cpu.step(&mut regs, &p, &mut mem, &cost),
            Some(Trap::Syscall)
        );
        assert_eq!(regs.eip, 1, "eip still at the syscall instruction");
        // Kernel-style restart: re-stepping re-traps.
        assert_eq!(
            cpu.step(&mut regs, &p, &mut mem, &cost),
            Some(Trap::Syscall)
        );
        // Kernel-style completion: advance eip, next step halts.
        regs.eip += 1;
        assert_eq!(cpu.step(&mut regs, &p, &mut mem, &cost), Some(Trap::Halt));
    }

    #[test]
    fn compute_charges_cycles() {
        let mut a = Assembler::new("c");
        a.compute(500);
        a.halt();
        let p = a.finish();
        let mut mem = FlatMem::new(0);
        let (_, cycles) = run_to_halt(&p, &mut mem);
        let cost = CostModel::default();
        assert_eq!(cycles, 500 + cost.user_instr);
    }

    #[test]
    fn running_off_program_end_is_illegal() {
        let p = Program::new("empty", vec![Instr::Nop]);
        let mut mem = FlatMem::new(0);
        let mut cpu = Cpu::new(0);
        let mut regs = UserRegs::new();
        let cost = CostModel::default();
        assert_eq!(cpu.step(&mut regs, &p, &mut mem, &cost), None);
        assert_eq!(
            cpu.step(&mut regs, &p, &mut mem, &cost),
            Some(Trap::Illegal)
        );
    }

    #[test]
    fn push_fault_leaves_esp_unchanged() {
        // A push into unmapped stack memory must not commit the esp
        // decrement: the instruction restarts whole after the fault.
        let mut a = Assembler::new("pushfault");
        a.movi(Reg::Esp, 2); // next push writes at addr -2 → wraps → fault
        a.emit(Instr::Push(Reg::Eax));
        a.halt();
        let p = a.finish();
        let mut mem = FlatMem::new(16);
        let mut cpu = Cpu::new(0);
        let mut regs = UserRegs::new();
        let cost = CostModel::default();
        cpu.step(&mut regs, &p, &mut mem, &cost);
        let t = cpu.step(&mut regs, &p, &mut mem, &cost);
        assert!(matches!(t, Some(Trap::PageFault(_))));
        assert_eq!(regs.get(Reg::Esp), 2, "esp must not move on a fault");
        assert_eq!(regs.eip, 1, "eip still at the push");
    }

    #[test]
    fn pop_fault_leaves_esp_unchanged() {
        let mut a = Assembler::new("popfault");
        a.movi(Reg::Esp, 1000); // beyond the 16-byte memory
        a.emit(Instr::Pop(Reg::Ebx));
        a.halt();
        let p = a.finish();
        let mut mem = FlatMem::new(16);
        let mut cpu = Cpu::new(0);
        let mut regs = UserRegs::new();
        let cost = CostModel::default();
        cpu.step(&mut regs, &p, &mut mem, &cost);
        let t = cpu.step(&mut regs, &p, &mut mem, &cost);
        assert!(matches!(t, Some(Trap::PageFault(_))));
        assert_eq!(regs.get(Reg::Esp), 1000);
        assert_eq!(regs.get(Reg::Ebx), 0, "pop target untouched on fault");
    }

    #[test]
    fn branch_conditions_cover_all_flag_states() {
        // (lhs, rhs) → which of Eq/Ne/Lt/Ge should branch.
        for (l, r, eq, lt) in [
            (5u32, 5u32, true, false),
            (3, 9, false, true),
            (9, 3, false, false),
        ] {
            let mut a = Assembler::new("flags");
            a.movi(Reg::Ebx, l);
            a.movi(Reg::Ecx, r);
            a.cmp(Reg::Ebx, Reg::Ecx);
            a.movi(Reg::Edx, 0);
            a.jcc(Cond::Eq, "eq");
            a.jmp("after_eq");
            a.label("eq");
            a.addi(Reg::Edx, 1);
            a.label("after_eq");
            a.cmp(Reg::Ebx, Reg::Ecx);
            a.jcc(Cond::Lt, "lt");
            a.jmp("end");
            a.label("lt");
            a.addi(Reg::Edx, 2);
            a.label("end");
            a.halt();
            let p = a.finish();
            let mut mem = FlatMem::new(0);
            let (regs, _) = run_to_halt(&p, &mut mem);
            let expect = (eq as u32) + 2 * (lt as u32);
            assert_eq!(regs.get(Reg::Edx), expect, "lhs={l} rhs={r}");
        }
    }

    /// Run `p` to `run_user`'s first exit over a fresh `mem_size`-byte
    /// memory, starting from registers whose flags and pseudo-registers
    /// are set. Checks that the written-back clock, registers and memory
    /// equal [`Cpu::step`] run while the clock is below `deadline`.
    fn first_exit(
        p: &Program,
        mem_size: usize,
        deadline: Cycles,
    ) -> (StepOutcome, Cycles, UserRegs) {
        let cost = CostModel::default();
        let mut start = UserRegs::new();
        start.eflags = FLAG_LT;
        start.pr = [0xdead, 0xbeef];
        let (mut cpu, mut regs, mut mem) = (Cpu::new(0), start, FlatMem::new(mem_size));
        let out = cpu.run_user(&mut regs, p, &mut mem, &cost, deadline);
        let (mut rcpu, mut rregs, mut rmem) = (Cpu::new(0), start, FlatMem::new(mem_size));
        let rout = loop {
            if rcpu.now >= deadline {
                break StepOutcome::DeadlineReached;
            }
            if let Some(t) = rcpu.step(&mut rregs, p, &mut rmem, &cost) {
                break StepOutcome::Trapped(t);
            }
        };
        assert_eq!((out, cpu.now, regs), (rout, rcpu.now, rregs));
        assert_eq!(mem.bytes(), rmem.bytes());
        assert_eq!(regs.pr, start.pr);
        (out, cpu.now, regs)
    }

    #[test]
    fn run_user_honors_deadline() {
        let mut a = Assembler::new("count");
        a.label("top");
        a.addi(Reg::Ebx, 1);
        a.cmpi(Reg::Ebx, 0);
        a.jcc(Cond::Ne, "top");
        let p = a.finish();
        let (out, now, regs) = first_exit(&p, 0, 1001);
        assert_eq!(out, StepOutcome::DeadlineReached);
        // 2 cycles per instruction: 501 instructions start below 1001,
        // the last a taken branch. The compare cleared the entry LT flag.
        assert_eq!(now, 1002);
        assert_eq!((regs.get(Reg::Ebx), regs.eip, regs.eflags), (167, 0, 0));
    }

    #[test]
    fn run_user_overshoots_deadline_by_one_charge() {
        let mut a = Assembler::new("long");
        a.compute(5000);
        a.halt();
        let p = a.finish();
        let (out, now, regs) = first_exit(&p, 0, 10);
        assert_eq!(out, StepOutcome::DeadlineReached);
        assert_eq!((now, regs.eip), (5000, 1));
        // A deadline already reached runs nothing.
        let mut cpu = Cpu::new(0);
        cpu.now = 50;
        let mut regs = UserRegs::new();
        let out = cpu.run_user(
            &mut regs,
            &p,
            &mut FlatMem::new(0),
            &CostModel::default(),
            10,
        );
        assert_eq!(
            (out, cpu.now, regs),
            (StepOutcome::DeadlineReached, 50, UserRegs::new())
        );
    }

    #[test]
    fn run_user_writes_back_partial_string_progress_on_fault() {
        // Two full chunks copy; the third faults at the end of memory
        // after 928 bytes.
        let mut a = Assembler::new("copyfault");
        a.movi(Reg::Esi, 0);
        a.movi(Reg::Edi, 2048);
        a.movi(Reg::Ecx, 3000);
        a.emit(Instr::RepMovsB);
        a.halt();
        let p = a.finish();
        let (out, now, regs) = first_exit(&p, 4000, Cycles::MAX);
        let fault = MemFault {
            addr: 4000,
            kind: crate::mem::AccessKind::Write,
        };
        assert_eq!(out, StepOutcome::Trapped(Trap::PageFault(fault)));
        assert_eq!(regs.get(Reg::Esi), 1952);
        assert_eq!(regs.get(Reg::Edi), 4000);
        assert_eq!(regs.get(Reg::Ecx), 1048);
        assert_eq!(regs.eip, 3, "eip still at the string instruction");
        assert_eq!(now, 3 * 2 + 2 * 2 + 1952);
    }

    #[test]
    fn run_user_writes_back_at_syscall() {
        let mut a = Assembler::new("sys");
        a.movi(Reg::Eax, 42);
        a.syscall();
        a.halt();
        let p = a.finish();
        let (out, now, regs) = first_exit(&p, 0, Cycles::MAX);
        assert_eq!(out, StepOutcome::Trapped(Trap::Syscall));
        assert_eq!((now, regs.eip, regs.get(Reg::Eax)), (4, 1, 42));
    }

    #[test]
    fn run_user_writes_back_at_halt() {
        let mut a = Assembler::new("halt");
        a.movi(Reg::Edx, 7);
        a.compute(100);
        a.halt();
        let p = a.finish();
        let (out, now, regs) = first_exit(&p, 0, Cycles::MAX);
        assert_eq!(out, StepOutcome::Trapped(Trap::Halt));
        assert_eq!((now, regs.eip, regs.get(Reg::Edx)), (104, 2, 7));
    }

    #[test]
    fn run_user_writes_back_when_running_off_the_end() {
        let p = Program::new("short", vec![Instr::MovI(Reg::Esi, 9), Instr::Nop]);
        let (out, now, regs) = first_exit(&p, 0, Cycles::MAX);
        assert_eq!(out, StepOutcome::Trapped(Trap::Illegal));
        assert_eq!((now, regs.eip, regs.get(Reg::Esi)), (6, 2, 9));
    }
}
