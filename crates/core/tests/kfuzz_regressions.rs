//! Minimized regression pins for kernel bugs surfaced by the `kfuzz`
//! grammar (see `DESIGN.md` §19).
//!
//! Each test is a minimized syscall-sequence program over the kfuzz
//! argument pools, executed through the same harness the fuzzer uses
//! ([`fluke_core::kfuzz::run_program`], flowcheck armed). Before the
//! fixes, every one of these programs panicked the kernel with an
//! arithmetic overflow/underflow in a debug build; now each asserts the
//! graceful error path, bit-identical outcomes across all four
//! comparable configurations, and zero flow-graph violations.

use fluke_api::{ErrorCode, Sys};
use fluke_core::kfuzz::{
    differential_configs, run_program, Exec, FuzzOp, FuzzProgram, BUF_POOL, COUNT_POOL,
    HANDLE_POOL, VAL_POOL,
};

fn op(sys: Sys, h: u8, c: u8, v: u8, b: u8) -> FuzzOp {
    FuzzOp {
        sys: sys.num() as u8,
        h,
        c,
        v,
        b,
    }
}

fn hidx(val: u32) -> u8 {
    HANDLE_POOL.iter().position(|&x| x == val).expect("in pool") as u8
}
fn cidx(val: u32) -> u8 {
    COUNT_POOL.iter().position(|&x| x == val).expect("in pool") as u8
}
fn vidx(val: u32) -> u8 {
    VAL_POOL.iter().position(|&x| x == val).expect("in pool") as u8
}
fn bidx(val: u32) -> u8 {
    BUF_POOL.iter().position(|&x| x == val).expect("in pool") as u8
}

const SLOT0: u32 = fluke_core::kfuzz::FUZZ_MEM_BASE;
const SLOT1: u32 = fluke_core::kfuzz::FUZZ_MEM_BASE + 0x20;
const TOP_WORD: u32 = fluke_core::kfuzz::FUZZ_TOP_BASE + 0xffc;

/// Run under all four comparable configurations; assert the outcomes
/// are bit-identical, the program ran to its halt everywhere, and the
/// flow checker saw nothing illegal. Returns the first config's run.
fn run_all(prog: &FuzzProgram) -> Exec {
    let mut execs: Vec<Exec> = differential_configs()
        .into_iter()
        .map(|cfg| run_program(cfg, prog))
        .collect();
    for e in &execs {
        assert!(e.outcome.halted(), "program failed to halt");
        assert!(
            e.violations.is_empty(),
            "flow violations: {:?}",
            e.violations
        );
    }
    let first = execs.remove(0);
    for e in &execs {
        assert_eq!(e.outcome, first.outcome, "outcome diverged across configs");
    }
    first
}

/// The per-syscall result codes of the single fuzz thread, in order.
fn codes(e: &Exec) -> Vec<u32> {
    let uv = e.outcome.uv.values().next().expect("one thread");
    uv.iter()
        .filter_map(|v| match v {
            fluke_core::trace::UserVisible::Syscall { code } => Some(*code),
            _ => None,
        })
        .collect()
}

/// `*_get_state` with the destination buffer flush against the top of
/// the address space: `buf + i*4` overflowed u32 while marshalling any
/// multi-word frame (Region's is 3 words). Now rejected up front.
#[test]
fn get_state_buffer_wrapping_address_space_is_rejected() {
    let prog = FuzzProgram {
        ops: vec![
            op(
                Sys::RegionCreate,
                hidx(SLOT0),
                cidx(0x1000),
                vidx(4),
                bidx(0),
            ),
            op(
                Sys::RegionGetState,
                hidx(SLOT0),
                cidx(32),
                0,
                bidx(TOP_WORD),
            ),
        ],
    };
    let e = run_all(&prog);
    assert_eq!(
        codes(&e),
        vec![ErrorCode::Success as u32, ErrorCode::InvalidArg as u32]
    );
}

/// `*_set_state` with the source buffer flush against the top of the
/// address space: `buf + i*4` overflowed u32 while reading the frame
/// words. Now rejected up front.
#[test]
fn set_state_buffer_wrapping_address_space_is_rejected() {
    let prog = FuzzProgram {
        ops: vec![
            op(
                Sys::RegionCreate,
                hidx(SLOT0),
                cidx(0x1000),
                vidx(4),
                bidx(0),
            ),
            op(Sys::RegionSetState, hidx(SLOT0), cidx(4), 0, bidx(TOP_WORD)),
        ],
    };
    let e = run_all(&prog);
    assert_eq!(
        codes(&e),
        vec![ErrorCode::Success as u32, ErrorCode::InvalidArg as u32]
    );
}

/// `region_create` accepted a window whose last byte lies past
/// `u32::MAX`; the first `region_protect` then overflowed computing
/// `base + size - 1`. Wrapped windows are now rejected at creation.
#[test]
fn wrapped_region_window_is_rejected_at_create() {
    let prog = FuzzProgram {
        ops: vec![
            op(
                Sys::RegionCreate,
                hidx(SLOT0),
                cidx(0x1000),
                vidx(0xffff_fff0),
                bidx(0),
            ),
            op(Sys::RegionProtect, hidx(SLOT0), 0, vidx(0), 0),
        ],
    };
    let e = run_all(&prog);
    assert_eq!(
        codes(&e),
        vec![
            ErrorCode::InvalidArg as u32,
            ErrorCode::InvalidHandle as u32
        ]
    );
}

/// `mapping_create` accepted the same wrapped geometry;
/// `mapping_protect` then overflowed walking the page range. Rejected
/// at creation now (the region token arrives via `esi`, naming the
/// region created at slot 0).
#[test]
fn wrapped_mapping_window_is_rejected_at_create() {
    let prog = FuzzProgram {
        ops: vec![
            op(
                Sys::RegionCreate,
                hidx(SLOT0),
                cidx(0x1000),
                vidx(4),
                bidx(0),
            ),
            op(
                Sys::MappingCreate,
                hidx(SLOT1),
                cidx(0x1000),
                vidx(0xffff_fff0),
                bidx(SLOT0),
            ),
            op(Sys::MappingProtect, hidx(SLOT1), 0, vidx(0), 0),
        ],
    };
    let e = run_all(&prog);
    assert_eq!(
        codes(&e),
        vec![
            ErrorCode::Success as u32,
            ErrorCode::InvalidArg as u32,
            ErrorCode::InvalidHandle as u32
        ]
    );
}

/// `region_set_state` installed a frame with `size == 0` (any zeroed
/// buffer decodes to one), after which `region_protect` *underflowed*
/// computing `base + size - 1`. Geometry is now validated at install,
/// and the original region stays intact.
#[test]
fn zero_size_region_frame_is_rejected_at_install() {
    let prog = FuzzProgram {
        ops: vec![
            op(
                Sys::RegionCreate,
                hidx(SLOT0),
                cidx(0x1000),
                vidx(4),
                bidx(0),
            ),
            op(
                Sys::RegionSetState,
                hidx(SLOT0),
                cidx(32),
                0,
                bidx(fluke_core::kfuzz::FUZZ_MEM_BASE + 0x2000),
            ),
            op(Sys::RegionProtect, hidx(SLOT0), 0, vidx(0), 0),
        ],
    };
    let e = run_all(&prog);
    assert_eq!(
        codes(&e),
        vec![
            ErrorCode::Success as u32,
            ErrorCode::InvalidArg as u32,
            ErrorCode::Success as u32
        ]
    );
}

/// `region_populate` computed `base + offset` (and `start + len - 1`)
/// unchecked; with a wrapped region both overflowed. The wrapped region
/// is now impossible to create, and populate itself rejects any
/// arithmetic that would wrap.
#[test]
fn populate_on_wrapped_region_cannot_overflow() {
    let prog = FuzzProgram {
        ops: vec![
            op(
                Sys::RegionCreate,
                hidx(SLOT0),
                cidx(0x1000),
                vidx(0xffff_fff0),
                bidx(0),
            ),
            op(Sys::RegionPopulate, hidx(SLOT0), cidx(0x400), vidx(1), 0),
        ],
    };
    let e = run_all(&prog);
    assert_eq!(
        codes(&e),
        vec![
            ErrorCode::InvalidArg as u32,
            ErrorCode::InvalidHandle as u32
        ]
    );
}

/// The happy paths the fixes must not damage: a valid region is still
/// created, populated, protected, exported, and re-imported.
#[test]
fn valid_region_lifecycle_still_works() {
    let prog = FuzzProgram {
        ops: vec![
            op(
                Sys::RegionCreate,
                hidx(SLOT0),
                cidx(0x1000),
                vidx(4),
                bidx(0),
            ),
            op(Sys::RegionPopulate, hidx(SLOT0), cidx(0x400), vidx(1), 0),
            op(Sys::RegionProtect, hidx(SLOT0), 0, vidx(0), 0),
            op(
                Sys::RegionGetState,
                hidx(SLOT0),
                cidx(32),
                0,
                bidx(fluke_core::kfuzz::FUZZ_MEM_BASE + 0x2000),
            ),
            op(
                Sys::RegionSetState,
                hidx(SLOT0),
                cidx(3),
                0,
                bidx(fluke_core::kfuzz::FUZZ_MEM_BASE + 0x2000),
            ),
        ],
    };
    let e = run_all(&prog);
    assert_eq!(codes(&e), vec![ErrorCode::Success as u32; 5]);
}
