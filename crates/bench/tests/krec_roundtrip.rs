//! Snapshot round-trip property tests: `snapshot → restore → snapshot` is
//! byte-identical for kernels paused in rich mid-flight states — arena
//! holes and destroyed-handle tombstones, mid-IPC transfers, non-empty
//! wait queues — and restored kernels re-execute to bit-identical digests.
//!
//! Randomization is a seeded LCG (deterministic in CI, varied shapes): it
//! picks run-slice lengths and snapshot points, so the states captured are
//! not hand-chosen quiescent ones.
//!
//! The decode-error table feeds a real snapshot's truncations and
//! corruptions to `Kernel::restore_from` and checks each comes back as the
//! right structured `SnapError`, never a panic.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::PathBuf;

use fluke_api::Sys;
use fluke_arch::Assembler;
use fluke_bench::kfault_sweep::SweepWorkload;
use fluke_bench::krec_sweep::{KrecWorkload, ALL_WORKLOADS};
use fluke_core::krec::{fnv64, Snap, SnapError, SnapWriter, FNV_OFFSET, SNAP_VERSION};
use fluke_core::{Config, Kernel, KrecConfig, Replayer, Snapshot};
use fluke_user::proc::ChildProc;
use fluke_user::FlukeAsm;

/// Restore a snapshot and prove the re-encode is byte-identical and the
/// hash-only digest agrees with the trailer.
fn assert_roundtrip(s: &Snapshot, what: &str) {
    let k =
        Kernel::restore_from(&s.bytes).unwrap_or_else(|e| panic!("{what}: restore failed: {e}"));
    let again = k
        .snapshot_bytes()
        .unwrap_or_else(|e| panic!("{what}: re-encode failed: {e}"));
    assert_eq!(
        again, s.bytes,
        "{what}: snapshot→restore→snapshot not byte-identical"
    );
    assert_eq!(
        k.state_digest().unwrap(),
        s.digest(),
        "{what}: hash-only digest disagrees with trailer"
    );
}

/// Mid-IPC, multi-stage, restartable states: snapshots taken every few
/// dispatch sites across the echo workload under all four comparable
/// configurations round-trip byte-identically.
#[test]
fn echo_site_snapshots_roundtrip() {
    for cfg in fluke_bench::kfault_sweep::sweep_configs() {
        let armed = cfg
            .clone()
            .with_krec(KrecConfig::every_sites(3).with_ring(4096));
        let (_, _, _, mut k) = SweepWorkload::IpcEcho
            .run_kernel(&armed, None)
            .unwrap_or_else(|e| panic!("{}: {e}", cfg.label));
        let rec = k.take_recording().expect("recorder armed");
        assert!(
            rec.snapshots.len() >= 3,
            "{}: expected several site snapshots, got {}",
            cfg.label,
            rec.snapshots.len()
        );
        for (i, s) in rec.snapshots.iter().enumerate() {
            assert_roundtrip(s, &format!("{} echo snapshot {i}", cfg.label));
        }
    }
}

/// The checkpoint workload destroys a thread mid-run (arena tombstone) and
/// drives blocked-on-mutex states; its snapshots round-trip too.
#[test]
fn checkpoint_site_snapshots_roundtrip() {
    let cfg = Config::interrupt_pp();
    let armed = cfg
        .clone()
        .with_krec(KrecConfig::every_sites(40).with_ring(4096));
    let (_, _, _, mut k) = SweepWorkload::Checkpoint
        .run_kernel(&armed, None)
        .unwrap_or_else(|e| panic!("{e}"));
    let rec = k.take_recording().expect("recorder armed");
    assert!(!rec.snapshots.is_empty());
    for (i, s) in rec.snapshots.iter().enumerate() {
        assert_roundtrip(s, &format!("checkpoint snapshot {i}"));
    }
}

/// LCG-randomized pause points over a contended-mutex workload: three
/// threads fight over one mutex (non-empty wait queues), a fourth is
/// destroyed after halting (thread tombstone), and a destroyed mutex
/// leaves an object-table hole. Manual snapshots at ~20 random cycle
/// points all round-trip.
#[test]
fn randomized_pause_points_roundtrip() {
    let mut lcg = 0x2545_f491_4f6c_dd1du64;
    let mut rand = move |m: u64| {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (lcg >> 33) % m
    };
    for cfg in [Config::process_pp(), Config::interrupt_np()] {
        let mut k = Kernel::new(
            cfg.clone()
                .with_tracing(1 << 12)
                .with_krec(KrecConfig::manual().with_ring(64)),
        );
        let mut p = ChildProc::with_mem(&mut k, 0x0030_0000, 0x4000);
        let h_mutex = p.alloc_obj();
        let h_short = p.alloc_obj();
        let h_victim = p.alloc_obj();

        // Founder: create both objects, destroy one (object tombstone),
        // then join the contention loop.
        let mut a = Assembler::new("rt-founder");
        a.sys_h(Sys::MutexCreate, h_mutex);
        a.sys_h(Sys::MutexCreate, h_short);
        a.sys_h(Sys::MutexDestroy, h_short);
        for _ in 0..8 {
            a.mutex_lock(h_mutex);
            a.compute(400);
            a.mutex_unlock(h_mutex);
        }
        a.halt();
        let founder = p.start(&mut k, a.finish(), 8);
        // Let the founder create the mutex before contenders arrive.
        k.run(Some(k.now() + 20_000));

        let mut contenders = vec![founder];
        for i in 0..2 {
            let mut a = Assembler::new("rt-contender");
            for _ in 0..8 {
                a.mutex_lock(h_mutex);
                a.compute(300 + i * 50);
                a.mutex_unlock(h_mutex);
            }
            a.halt();
            contenders.push(p.start(&mut k, a.finish(), 8));
        }
        // Victim halts immediately; the reaper destroys it (thread
        // tombstone in the arena).
        let mut a = Assembler::new("rt-victim");
        a.halt();
        let victim = p.start(&mut k, a.finish(), 8);
        k.loader_thread_object(p.space, h_victim, victim);
        let mut a = Assembler::new("rt-reaper");
        a.sys_h(Sys::ThreadDestroy, h_victim);
        a.halt();
        contenders.push(p.start(&mut k, a.finish(), 8));

        for i in 0..20 {
            let slice = 2_000 + rand(60_000);
            k.run(Some(k.now() + slice));
            k.snapshot_now()
                .unwrap_or_else(|e| panic!("{} pause {i}: snapshot failed: {e}", cfg.label));
        }
        let _ = contenders;
        let rec = k.take_recording().expect("recorder armed");
        assert_eq!(rec.snapshots.len(), 20);
        for (i, s) in rec.snapshots.iter().enumerate() {
            assert_roundtrip(s, &format!("{} pause {i}", cfg.label));
        }
    }
}

/// The batched-submission workload snapshots kernels with submit rings in
/// flight (descriptor cursors, port queues mid-drain); those round-trip
/// byte-identically too.
#[test]
fn submit_ring_snapshots_roundtrip() {
    for cfg in [Config::process_np(), Config::interrupt_pp()] {
        let armed = cfg
            .clone()
            .with_krec(KrecConfig::every_sites(5).with_ring(4096));
        let (_, mut k) = KrecWorkload::Server
            .run(&armed)
            .unwrap_or_else(|e| panic!("{}: {e}", cfg.label));
        let rec = k.take_recording().expect("recorder armed");
        assert!(
            !rec.snapshots.is_empty(),
            "{}: no submit-ring snapshots",
            cfg.label
        );
        for (i, s) in rec.snapshots.iter().enumerate() {
            assert_roundtrip(s, &format!("{} submit-ring snapshot {i}", cfg.label));
        }
    }
}

/// Restored kernels don't just re-encode identically — they *re-execute*
/// identically: replaying every echo snapshot to its epoch end verifies
/// each recorded window's end digest, cycle, and exit reason.
#[test]
fn echo_snapshots_replay_to_identical_digests() {
    for cfg in [Config::process_np(), Config::interrupt_pp()] {
        let armed = cfg
            .clone()
            .with_krec(KrecConfig::every_sites(11).with_ring(4096));
        let (_, _, _, mut k) = SweepWorkload::IpcEcho
            .run_kernel(&armed, None)
            .unwrap_or_else(|e| panic!("{}: {e}", cfg.label));
        let final_digest = k.state_digest().unwrap();
        let rec = k.take_recording().expect("recorder armed");
        for i in 0..rec.snapshots.len() {
            let mut rp = Replayer::start(&rec, i)
                .unwrap_or_else(|e| panic!("{} snapshot {i}: {e}", cfg.label));
            rp.run_to_epoch_end()
                .unwrap_or_else(|e| panic!("{} snapshot {i}: {e}", cfg.label));
            if rp.epoch_end() == rec.windows.len() {
                // Epoch reaches the end of the recording: the replayed
                // kernel must be bit-identical to the original's end state.
                assert_eq!(
                    rp.kernel.state_digest().unwrap(),
                    final_digest,
                    "{} snapshot {i}: end state diverged",
                    cfg.label
                );
            }
        }
    }
}

fn snapshot_golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("snapshot_digests.txt")
}

/// The snapshot bytes themselves are pinned across commits: every snapshot
/// the krec sweep takes (three workloads, four configs, its default
/// stride of 5 sites) must keep its blessed length and trailer digest. A
/// codec refactor that reorders, drops or re-encodes any field changes a
/// digest here even when the round trip still closes.
///
/// To re-bless after an intentional format change (which must also bump
/// `SNAP_VERSION`):
///
/// ```text
/// FLUKE_BLESS=1 cargo test -p fluke-bench --test krec_roundtrip snapshot_bytes
/// ```
#[test]
fn snapshot_bytes_match_blessed_digests() {
    let mut current = String::new();
    for w in ALL_WORKLOADS {
        for cfg in fluke_bench::kfault_sweep::sweep_configs() {
            let armed = cfg
                .clone()
                .with_krec(KrecConfig::every_sites(5).with_ring(4096));
            let (_, mut k) = w
                .run(&armed)
                .unwrap_or_else(|e| panic!("{} {}: {e}", w.label(), cfg.label));
            let rec = k.take_recording().expect("recorder armed");
            for (i, s) in rec.snapshots.iter().enumerate() {
                writeln!(
                    current,
                    "{} {} {i} {} 0x{:016x}",
                    w.label(),
                    cfg.label.replace(' ', "_"),
                    s.bytes.len(),
                    s.digest()
                )
                .unwrap();
            }
        }
    }

    if std::env::var("FLUKE_BLESS").is_ok() {
        let text = format!(
            "# Blessed snapshot images from the krec sweep (stride 5).\n\
             # workload  config  index  length  trailer_fnv1a64\n{current}"
        );
        std::fs::write(snapshot_golden_path(), text).unwrap();
        return;
    }

    let golden = std::fs::read_to_string(snapshot_golden_path())
        .expect("golden file missing; run with FLUKE_BLESS=1 to create it");
    let want: Vec<&str> = golden
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .collect();
    let got: Vec<&str> = current.lines().collect();
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w, "snapshot image diverged from blessed golden");
    }
    assert_eq!(got.len(), want.len(), "snapshot count changed");
}

/// Append a freshly computed digest trailer to a snapshot stream, so a
/// corruption reaches the decoder instead of stopping at the digest check.
fn reseal(mut stream: Vec<u8>) -> Vec<u8> {
    let d = fnv64(FNV_OFFSET, &stream);
    stream.extend_from_slice(&d.to_le_bytes());
    stream
}

/// One real echo snapshot rich in enum-typed state: two CPUs (fine-grained
/// lock keys), kspan armed (open span segments), taken mid-IPC at dispatch
/// site 2 (client ends, IPC roles, blocked threads), plus one host-scheduled
/// wake so the event queue is not empty.
fn echo_image() -> Vec<u8> {
    let cfg = Config::interrupt_pp().with_cpus(2).with_kspan();
    let armed = cfg.with_krec(KrecConfig::every_sites(1).with_ring(4096));
    let (_, _, _, mut k) = SweepWorkload::IpcEcho.run_kernel(&armed, None).unwrap();
    let rec = k.take_recording().expect("recorder armed");
    let mut k = Kernel::restore_from(&rec.snapshots[2].bytes).unwrap();
    let t = k.debug_threads()[0].0;
    k.wake_at(t, k.now() + 1_000_000);
    k.snapshot_bytes().unwrap()
}

/// Every decode-error path of `restore_from` on a real snapshot returns a
/// structured error: truncations, bad magic, an unsupported version, a
/// corrupted body, and out-of-range tags of the generated enum codecs.
#[test]
fn snapshot_decode_errors_are_structured() {
    let img = echo_image();
    let body = &img[..img.len() - 8];

    for n in 0..img.len() {
        assert!(Kernel::restore_from(&img[..n]).is_err(), "truncation {n}");
    }

    let mut bad = img.clone();
    bad[0] ^= 0xff;
    assert_eq!(Kernel::restore_from(&bad).err(), Some(SnapError::BadMagic));

    let mut v2 = body.to_vec();
    v2[4..8].copy_from_slice(&2u32.to_le_bytes());
    assert_ne!(SNAP_VERSION, 2);
    assert_eq!(
        Kernel::restore_from(&reseal(v2)).err(),
        Some(SnapError::BadVersion(2))
    );

    let mut flipped = img.clone();
    flipped[img.len() / 2] ^= 0x01;
    assert!(matches!(
        Kernel::restore_from(&flipped),
        Err(SnapError::BadDigest { .. })
    ));

    // Truncate the body after every byte, set that last byte to 0xff and
    // reseal (from a running digest of the prefix): the decoder must fail
    // cleanly at every cut, and where the byte is an enum tag it must name
    // the enum.
    let mut tags = BTreeSet::new();
    let mut prefix = fnv64(FNV_OFFSET, &body[..8]);
    for n in 8..body.len() {
        let mut cut = body[..=n].to_vec();
        cut[n] = 0xff;
        cut.extend_from_slice(&fnv64(prefix, &[0xff]).to_le_bytes());
        prefix = fnv64(prefix, &body[n..=n]);
        match Kernel::restore_from(&cut) {
            Ok(_) => panic!("truncated body at {n} decoded"),
            Err(SnapError::BadTag { what, tag: 0xff }) => {
                tags.insert(what);
            }
            Err(_) => {}
        }
    }
    // At least one generated enum codec per file that declares one; the
    // `what` names are the ones the hand-written codecs used.
    for what in [
        "execmodel",  // krec.rs
        "instr",      // krec.rs
        "ObjData",    // object.rs
        "TraceEvent", // trace.rs
        "RunState",   // thread.rs
        "WaitReason", // thread.rs
        "IpcRole",    // thread.rs
        "ClientEnd",  // conn.rs
        "Seg",        // kspan.rs
        "eventkind",  // events.rs
        "lockkey",    // kernel/snapshot.rs
    ] {
        assert!(tags.contains(what), "no BadTag for {what}: got {tags:?}");
    }

    // kstat.rs: the echo takes no faults, so corrupt the fault-side tag
    // of the checkpoint workload's fault record, found by its encoding.
    let (_, _, _, k) = SweepWorkload::Checkpoint
        .run_kernel(&Config::interrupt_pp(), None)
        .unwrap();
    let img = k.snapshot_bytes().unwrap();
    let mut w = SnapWriter::new();
    k.stats.fault_records[0].snap(&mut w);
    let rec = w.finish();
    let rec = &rec[..rec.len() - 8];
    let at = img
        .windows(rec.len())
        .position(|win| win == rec)
        .expect("fault record in snapshot");
    let mut bad = img[..img.len() - 8].to_vec();
    bad[at] = 0xff;
    assert_eq!(
        Kernel::restore_from(&reseal(bad)).err(),
        Some(SnapError::BadTag {
            what: "FaultSide",
            tag: 0xff
        })
    );
}
