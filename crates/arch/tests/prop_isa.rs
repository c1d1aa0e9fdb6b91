//! Property tests of the ISA's restartability invariants.
//!
//! The container builds offline, so instead of an external property-test
//! framework these quantify over inputs drawn from a small deterministic
//! PRNG — same laws, reproducible cases.

use fluke_arch::cpu::REP_CHUNK;
use fluke_arch::mem::FlatMem;
use fluke_arch::{
    Assembler, Cond, CostModel, Cpu, Cycles, Instr, Program, Reg, StepOutcome, Trap, UserMem,
    UserRegs,
};

/// Deterministic splitmix64 generator for test-case synthesis.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn next_u32(&mut self) -> u32 {
        self.next_u64() as u32
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: u32, hi: u32) -> u32 {
        lo + self.next_u32() % (hi - lo)
    }
}

/// A straight-line arithmetic program and a pure-Rust oracle of it.
fn arith_program(ops: &[(u8, u8, u32)]) -> (Program, [u32; 8]) {
    let mut a = Assembler::new("prop");
    let mut model = [0u32; 8];
    for &(op, reg, imm) in ops {
        let r = Reg::ALL[(reg % 8) as usize];
        let i = r.index();
        match op % 5 {
            0 => {
                a.movi(r, imm);
                model[i] = imm;
            }
            1 => {
                a.addi(r, imm);
                model[i] = model[i].wrapping_add(imm);
            }
            2 => {
                a.subi(r, imm);
                model[i] = model[i].wrapping_sub(imm);
            }
            3 => {
                a.emit(Instr::ShlI(r, imm & 31));
                model[i] <<= imm & 31;
            }
            4 => {
                a.emit(Instr::AndI(r, imm));
                model[i] &= imm;
            }
            _ => unreachable!(),
        }
    }
    a.halt();
    (a.finish(), model)
}

fn random_ops(rng: &mut Rng, max_len: u32) -> Vec<(u8, u8, u32)> {
    let len = rng.range(1, max_len);
    (0..len)
        .map(|_| (rng.range(0, 5) as u8, rng.range(0, 8) as u8, rng.next_u32()))
        .collect()
}

/// The CPU agrees with a straight-line oracle on every register.
#[test]
fn arithmetic_matches_oracle() {
    let mut rng = Rng(0xA11C_E5ED);
    for case in 0..64 {
        let ops = random_ops(&mut rng, 40);
        let (prog, model) = arith_program(&ops);
        let mut cpu = Cpu::new(0);
        let mut regs = UserRegs::new();
        let mut mem = FlatMem::new(0);
        let cost = CostModel::default();
        loop {
            match cpu.step(&mut regs, &prog, &mut mem, &cost) {
                None => continue,
                Some(Trap::Halt) => break,
                Some(t) => panic!("unexpected trap {t:?}"),
            }
        }
        assert_eq!(regs.gpr, model, "case {case}: {ops:?}");
    }
}

/// RepMovsB interrupted by an arbitrary fault boundary and resumed
/// copies every byte exactly once (the restartable-instruction law).
#[test]
fn rep_movs_resume_is_exact() {
    let mut rng = Rng(0xC0FF_EE00);
    for case in 0..64 {
        let len = rng.range(1, 6000);
        let src_off = rng.range(0, 64);
        let dst_gap = rng.range(1, 64);
        let cut = rng.range(0, 6000);

        let src = src_off;
        let dst = src_off + len + dst_gap;
        let total = dst + len;
        let mut a = Assembler::new("copy");
        a.movi(Reg::Esi, src);
        a.movi(Reg::Edi, dst);
        a.movi(Reg::Ecx, len);
        a.emit(Instr::RepMovsB);
        a.halt();
        let prog = a.finish();

        // First run against a memory truncated at `dst + cut`: the copy
        // faults exactly at the first inaccessible destination byte (if
        // the cut lands inside the transfer).
        let cut = cut.min(len);
        let mut small = FlatMem::new((dst + cut) as usize);
        for i in 0..len.min(dst + cut) {
            if src + i < dst + cut {
                small.write_u8(src + i, (i % 251) as u8).unwrap();
            }
        }
        let mut cpu = Cpu::new(0);
        let mut regs = UserRegs::new();
        let cost = CostModel::default();
        let mut faulted = false;
        loop {
            match cpu.step(&mut regs, &prog, &mut small, &cost) {
                None => continue,
                Some(Trap::Halt) => break,
                Some(Trap::PageFault(f)) => {
                    faulted = true;
                    assert_eq!(f.addr, dst + cut, "case {case}: fault at the cut");
                    break;
                }
                Some(t) => panic!("unexpected trap {t:?}"),
            }
        }
        assert_eq!(faulted, cut < len, "case {case}");
        // "Resolve" the fault: same bytes, full memory; resume from the
        // exact same registers.
        let mut big = FlatMem::new(total as usize + 8);
        for i in 0..(dst + cut).min(total) {
            let b = small.read_u8(i).unwrap();
            big.write_u8(i, b).unwrap();
        }
        for i in 0..len {
            big.write_u8(src + i, (i % 251) as u8).unwrap();
        }
        loop {
            match cpu.step(&mut regs, &prog, &mut big, &cost) {
                None => continue,
                Some(Trap::Halt) => break,
                Some(t) => panic!("unexpected trap after resume {t:?}"),
            }
        }
        for i in 0..len {
            assert_eq!(
                big.read_u8(dst + i).unwrap(),
                (i % 251) as u8,
                "case {case}"
            );
        }
        assert_eq!(regs.get(Reg::Ecx), 0);
        assert_eq!(regs.get(Reg::Esi), src + len);
        assert_eq!(regs.get(Reg::Edi), dst + len);
    }
}

/// A counted loop assembled with symbolic labels runs its body exactly
/// `n` times for any n.
#[test]
fn counted_loops_iterate_exactly() {
    let mut rng = Rng(0x5EED_1009);
    for _ in 0..32 {
        let n = rng.range(1, 500);
        let mut a = Assembler::new("loop");
        a.movi(Reg::Ecx, n);
        a.xor(Reg::Ebx, Reg::Ebx);
        a.label("top");
        a.addi(Reg::Ebx, 1);
        a.subi(Reg::Ecx, 1);
        a.cmpi(Reg::Ecx, 0);
        a.jcc(Cond::Ne, "top");
        a.halt();
        let prog = a.finish();
        let mut cpu = Cpu::new(0);
        let mut regs = UserRegs::new();
        let mut mem = FlatMem::new(0);
        let cost = CostModel::default();
        loop {
            match cpu.step(&mut regs, &prog, &mut mem, &cost) {
                None => continue,
                Some(Trap::Halt) => break,
                Some(t) => panic!("unexpected {t:?}"),
            }
        }
        assert_eq!(regs.get(Reg::Ebx), n);
    }
}

/// The cycle clock is deterministic: running the same program twice
/// charges exactly the same cycles.
#[test]
fn simulation_is_deterministic() {
    let mut rng = Rng(0xDE7E_2017);
    for _ in 0..32 {
        let ops = random_ops(&mut rng, 30);
        let (prog, _) = arith_program(&ops);
        let run = || {
            let mut cpu = Cpu::new(0);
            let mut regs = UserRegs::new();
            let mut mem = FlatMem::new(0);
            let cost = CostModel::default();
            loop {
                match cpu.step(&mut regs, &prog, &mut mem, &cost) {
                    None => continue,
                    Some(Trap::Halt) => break,
                    Some(t) => panic!("unexpected {t:?}"),
                }
            }
            (cpu.now, regs)
        };
        assert_eq!(run(), run());
    }
}

/// Registers a generated instruction may write. `ebp` is left out: it
/// counts the bounded loops.
const DATA_REGS: [Reg; 7] = [
    Reg::Eax,
    Reg::Ebx,
    Reg::Ecx,
    Reg::Edx,
    Reg::Esi,
    Reg::Edi,
    Reg::Esp,
];

const CONDS: [Cond; 5] = [Cond::Always, Cond::Eq, Cond::Ne, Cond::Lt, Cond::Ge];

/// Largest `Compute(n)` generated: above a string chunk's charge, so it
/// sets the bound on how far `run_user` may pass a deadline.
const MAX_COMPUTE: u32 = 4000;

/// Largest `Compute(n)` generated: above a string chunk's charge, so it
/// sets the bound on how far `run_user` may pass a deadline.
/// An address in `[0, mem + 64)`: mostly mapped, sometimes in the
/// faulting tail past the end of memory.
fn addr(rng: &mut Rng, mem: u32) -> u32 {
    rng.range(0, mem + 64)
}

fn alu_op(a: &mut Assembler, rng: &mut Rng) {
    let d = DATA_REGS[rng.range(0, 7) as usize];
    let s = Reg::ALL[rng.range(0, 8) as usize];
    let i = rng.next_u32();
    let instr = match rng.range(0, 13) {
        0 => Instr::MovI(d, i),
        1 => Instr::Mov(d, s),
        2 => Instr::Add(d, s),
        3 => Instr::AddI(d, i),
        4 => Instr::Sub(d, s),
        5 => Instr::SubI(d, i),
        6 => Instr::Mul(d, s),
        7 => Instr::Xor(d, s),
        8 => Instr::AndI(d, i),
        9 => Instr::ShrI(d, i),
        10 => Instr::ShlI(d, i),
        11 => Instr::Cmp(d, s),
        _ => Instr::CmpI(d, i % 4),
    };
    a.emit(instr);
}

/// Emit one random instruction, or a short idiom around one (a
/// forward branch, or operand set-up for a memory or string access).
fn mixed_op(a: &mut Assembler, rng: &mut Rng, mem: u32, labels: &mut u32) {
    let d = DATA_REGS[rng.range(0, 7) as usize];
    let s = Reg::ALL[rng.range(0, 8) as usize];
    let off = rng.range(0, 8) as i32 - 4;
    match rng.range(0, 11) {
        0..=2 => alu_op(a, rng),
        3 => {
            let skip = format!("skip{labels}");
            *labels += 1;
            a.cmp(d, s);
            a.jcc(CONDS[rng.range(0, 5) as usize], &skip);
            for _ in 0..rng.range(1, 3) {
                alu_op(a, rng);
            }
            a.label(&skip);
        }
        4 => {
            let b = DATA_REGS[rng.range(0, 7) as usize];
            a.movi(b, addr(rng, mem));
            let instr = match rng.range(0, 4) {
                0 => Instr::Load(d, b, off),
                1 => Instr::Store(b, off, s),
                2 => Instr::LoadB(d, b, off),
                _ => Instr::StoreB(b, off, s),
            };
            a.emit(instr);
        }
        5 => {
            if rng.range(0, 2) == 0 {
                a.movi(Reg::Esp, addr(rng, mem));
            }
            a.emit(if rng.range(0, 2) == 0 {
                Instr::Push(s)
            } else {
                Instr::Pop(d)
            });
        }
        6 | 7 => {
            if rng.range(0, 2) == 0 {
                a.movi(Reg::Esi, addr(rng, mem));
                a.movi(Reg::Edi, addr(rng, mem));
                a.movi(Reg::Ecx, rng.range(0, 3 * REP_CHUNK + 100));
                a.emit(Instr::RepMovsB);
            } else {
                a.movi(Reg::Eax, rng.next_u32());
                a.movi(Reg::Edi, addr(rng, mem));
                a.movi(Reg::Ecx, rng.range(0, 3 * REP_CHUNK + 100));
                a.emit(Instr::RepStosB);
            }
        }
        8 => {
            a.compute(rng.range(0, MAX_COMPUTE));
        }
        9 => {
            a.syscall();
        }
        _ => {
            a.emit(Instr::Nop);
        }
    }
}

/// A random program of straight-line and looped segments. Loops count
/// down `ebp` from at most 4 and branches inside them only go forward,
/// so every program ends. One in eight runs off its end instead of
/// halting.
fn mixed_program(rng: &mut Rng, mem: u32) -> Program {
    let mut a = Assembler::new("mixed");
    let mut labels = 0;
    for _ in 0..rng.range(1, 8) {
        let top = format!("top{labels}");
        labels += 1;
        let looped = rng.range(0, 2) == 0;
        if looped {
            a.movi(Reg::Ebp, rng.range(1, 5));
            a.label(&top);
        }
        for _ in 0..rng.range(1, 10) {
            mixed_op(&mut a, rng, mem, &mut labels);
        }
        if looped {
            a.subi(Reg::Ebp, 1);
            a.cmpi(Reg::Ebp, 0);
            a.jcc(Cond::Ne, &top);
        }
    }
    if rng.range(0, 8) != 0 {
        a.halt();
    }
    a.finish()
}

/// One simulated thread: a CPU, its registers and its memory.
#[derive(Clone)]
struct Machine {
    cpu: Cpu,
    regs: UserRegs,
    mem: FlatMem,
}

impl Machine {
    /// What the kernel would do at a trap, reduced to a fixed rule: a
    /// syscall completes with a result in `eax` and pseudo-register
    /// updates; a fault is "resolved" by skipping the instruction.
    /// Returns false when the thread is finished.
    fn resolve(&mut self, trap: Trap) -> bool {
        let r = &mut self.regs;
        match trap {
            Trap::Syscall => {
                r.set(Reg::Eax, r.get(Reg::Eax).wrapping_mul(3) ^ 1);
                r.pr[0] = r.pr[0].wrapping_add(1);
                r.pr[1] ^= r.eip;
            }
            Trap::PageFault(f) => r.pr[1] = f.addr,
            Trap::Halt | Trap::Illegal => return false,
        }
        r.eip += 1;
        true
    }
}

/// The reference for `run_user`: `step` while the clock is below
/// `deadline`.
fn step_to(m: &mut Machine, prog: &Program, cost: &CostModel, deadline: Cycles) -> StepOutcome {
    while m.cpu.now < deadline {
        if let Some(t) = m.cpu.step(&mut m.regs, prog, &mut m.mem, cost) {
            return StepOutcome::Trapped(t);
        }
    }
    StepOutcome::DeadlineReached
}

/// `run_user` over random mixed programs, re-entered at random deadlines,
/// agrees with single-stepping at every exit: same outcome, clock, full
/// register file and memory bytes, through both a concrete `FlatMem` and
/// a `dyn UserMem`. Some deadlines fall between the chunks of a string
/// instruction, and no deadline is overshot by more than one
/// instruction's charge.
#[test]
fn run_user_matches_single_stepping() {
    let cost = CostModel::default();
    let max_charge = (MAX_COMPUTE as Cycles)
        .max(cost.user_instr + REP_CHUNK as Cycles * cost.user_string_byte_per);
    let mut rng = Rng(0x15A_100B);
    let (mut exits, mut mid_string) = (0u32, 0u32);
    for case in 0..300 {
        let mem_size = rng.range(1024, 6000);
        let prog = mixed_program(&mut rng, mem_size);
        let mut init = FlatMem::new(mem_size as usize);
        let bytes: Vec<u8> = (0..mem_size).map(|_| rng.next_u32() as u8).collect();
        init.write_bytes(0, &bytes).unwrap();
        let mut regs = UserRegs::new();
        regs.eflags = rng.range(0, 4);
        regs.pr = [rng.next_u32(), rng.next_u32()];
        let start = Machine {
            cpu: Cpu::new(0),
            regs,
            mem: init,
        };
        let (mut stepped, mut flat, mut dynamic) = (start.clone(), start.clone(), start);
        for round in 0.. {
            assert!(round < 10_000, "case {case}: program did not finish");
            let from = stepped.cpu.now;
            let deadline = match rng.range(0, 16) {
                0 => Cycles::MAX,
                1 => from,
                _ => from + rng.range(1, 3000) as Cycles,
            };
            let want = step_to(&mut stepped, &prog, &cost, deadline);
            let got = flat
                .cpu
                .run_user(&mut flat.regs, &prog, &mut flat.mem, &cost, deadline);
            let dyn_mem: &mut dyn UserMem = &mut dynamic.mem;
            let got_dyn = dynamic
                .cpu
                .run_user(&mut dynamic.regs, &prog, dyn_mem, &cost, deadline);
            for (what, m, out) in [("FlatMem", &flat, got), ("dyn UserMem", &dynamic, got_dyn)] {
                let at = format!("case {case} round {round} via {what}");
                assert_eq!(out, want, "{at}: outcome");
                assert_eq!(m.cpu.now, stepped.cpu.now, "{at}: clock");
                assert_eq!(m.regs, stepped.regs, "{at}: registers");
                assert!(m.mem.bytes() == stepped.mem.bytes(), "{at}: memory");
            }
            exits += 1;
            let now = stepped.cpu.now;
            match want {
                StepOutcome::DeadlineReached => {
                    assert!(now >= deadline, "case {case}: stopped early");
                    if from < deadline {
                        assert!(now < deadline + max_charge, "case {case}: overshoot");
                    }
                    // A string instruction started but not finished: its
                    // `ecx` is below the count its set-up loaded.
                    let eip = stepped.regs.eip;
                    let ecx = stepped.regs.get(Reg::Ecx);
                    if let (
                        Some(Instr::RepMovsB | Instr::RepStosB),
                        Some(Instr::MovI(Reg::Ecx, n)),
                    ) = (prog.fetch(eip), prog.fetch(eip.wrapping_sub(1)))
                    {
                        mid_string += (ecx > 0 && ecx < n) as u32;
                    }
                }
                StepOutcome::Trapped(t) => {
                    let more = stepped.resolve(t);
                    assert_eq!(flat.resolve(t), more);
                    assert_eq!(dynamic.resolve(t), more);
                    if !more {
                        break;
                    }
                }
            }
        }
    }
    assert!(exits > 1000, "only {exits} exits");
    assert!(
        mid_string >= 20,
        "only {mid_string} deadlines fell inside a string instruction"
    );
}
