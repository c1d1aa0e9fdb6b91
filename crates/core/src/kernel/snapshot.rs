//! Whole-kernel snapshot encode/decode and the `krec` recorder hooks.
//!
//! Lives inside the `kernel` module so it can serialize the module-private
//! pieces ([`CpuSlot`], [`LockKey`]). The byte format and the `snap_codec!`
//! macro are in [`crate::krec`], and each subsystem declares its codec next
//! to its type; this file owns the *body layout*: every kernel field in
//! declaration order, bracketed by the `"FKSN"` magic, the format version,
//! and the FNV-1a digest trailer.
//!
//! Two states are intentionally outside the contract and rejected up front:
//! host-native thread bodies (Rust closures cannot round-trip bytes) and the
//! debug atomicity auditor's scratch state. The recorder itself
//! ([`crate::krec::Krec`]) is host-side bookkeeping and is never encoded, so
//! a recording kernel and its restored twin produce equal digests.

use fluke_arch::program::ProgramId;

use crate::krec::{
    fnv64, snap_codec, Krec, Recording, SnapError, SnapReader, SnapWriter, Snapshot, FNV_OFFSET,
    SNAP_MAGIC, SNAP_VERSION,
};
use crate::thread::Body;

use super::{CpuSlot, Kernel, LockKey};

/// One contiguous resident-memory run: `(vaddr, bytes, writable)`
/// (debugger view, see [`Kernel::debug_space_map`]).
pub type MemRun = (u32, u32, bool);

snap_codec! {
    enum LockKey as "lockkey" {
        0 => Sched,
        1 => RunQueue(i),
        2 => Handles(i),
        3 => Space(i),
        4 => Conn(i),
    }
}

snap_codec! {
    struct CpuSlot { cpu, current, resched, slice_end, last_space, parked }
}

// The body layout: every kernel field, in struct declaration order.
// `audit` (unsupported) and `krec` and `flowcheck` (host-side) are not
// stored; program text held by threads is re-resolved by `restore_from`.
snap_codec! {
    fields Kernel(encode_body, decode_body) {
        cfg,
        cost,
        cpus,
        active,
        kernel_free_at,
        locks,
        threads,
        spaces,
        objects,
        conns,
        programs,
        phys,
        ready,
        runqs,
        events,
        stats,
        trace,
        kprof,
        kspan,
        kfault,
        dispatch_rollback,
        rollback_active,
        dispatch_suppress,
        audit = None,
        krec = None,
        flowcheck = crate::flowcheck::Flowcheck::default(),
    }
}

impl Kernel {
    /// Reject states outside the snapshot contract before encoding.
    fn snap_precheck(&self) -> Result<(), SnapError> {
        if self.audit.is_some() {
            return Err(SnapError::AuditActive);
        }
        if self
            .threads
            .iter()
            .any(|(_, t)| matches!(t.body, Body::Native(_)))
        {
            return Err(SnapError::NativeBody);
        }
        Ok(())
    }

    /// Serialize the complete kernel state into a versioned, digest-stamped
    /// image. Fails (never panics) if the kernel holds state outside the
    /// snapshot contract (native thread bodies, armed auditor).
    pub fn snapshot_bytes(&self) -> Result<Vec<u8>, SnapError> {
        self.snap_precheck()?;
        let mut w = SnapWriter::new();
        w.raw(&SNAP_MAGIC);
        w.u32(SNAP_VERSION);
        self.encode_body(&mut w);
        Ok(w.finish())
    }

    /// The state digest: the FNV-1a-64 a [`Kernel::snapshot_bytes`] image
    /// would carry in its trailer, computed without materializing the bytes.
    pub fn state_digest(&self) -> Result<u64, SnapError> {
        self.snap_precheck()?;
        let mut w = SnapWriter::hash_only();
        w.raw(&SNAP_MAGIC);
        w.u32(SNAP_VERSION);
        self.encode_body(&mut w);
        Ok(w.digest())
    }

    /// Rebuild a kernel from a snapshot image: verify magic, version and
    /// digest trailer, decode every field, rebuild derived indices, and
    /// re-resolve each thread's program text from its [`ProgramId`].
    pub fn restore_from(bytes: &[u8]) -> Result<Kernel, SnapError> {
        if bytes.len() < SNAP_MAGIC.len() + 4 + 8 {
            return Err(SnapError::Truncated);
        }
        if bytes[..SNAP_MAGIC.len()] != SNAP_MAGIC {
            return Err(SnapError::BadMagic);
        }
        let (stream, trailer) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(SnapReader::new(trailer).take_array()?);
        let computed = fnv64(FNV_OFFSET, stream);
        if stored != computed {
            return Err(SnapError::BadDigest { stored, computed });
        }
        let mut r = SnapReader::new(&stream[SNAP_MAGIC.len()..]);
        let version = r.u32()?;
        if version != SNAP_VERSION {
            return Err(SnapError::BadVersion(version));
        }
        let mut k = Kernel::decode_body(&mut r)?;
        r.expect_end()?;
        if k.active >= k.cpus.len() || k.cpus.len() != k.cfg.num_cpus {
            return Err(SnapError::Invalid("cpu slot count"));
        }
        // Program text is interned by id, not serialized per thread:
        // re-resolve each thread's `text` the way `spawn_thread` does.
        let bindings: Vec<(u32, ProgramId)> = k
            .threads
            .iter()
            .filter_map(|(i, t)| t.program.map(|p| (i, p)))
            .collect();
        for (i, pid) in bindings {
            let text = k
                .program(pid)
                .ok_or(SnapError::Invalid("thread references unregistered program"))?;
            if let Some(t) = k.threads.get_mut(i) {
                t.text = Some(text);
            }
        }
        Ok(k)
    }

    /// The armed recorder, if any.
    pub fn krec(&self) -> Option<&Krec> {
        self.krec.as_ref()
    }

    // ------------------------------------------------------------------
    // Debugger views (read-only enumeration for `kdb` and friends).
    // ------------------------------------------------------------------

    /// Every live thread id, with its program name (debugger view).
    pub fn debug_threads(&self) -> Vec<(crate::ids::ThreadId, String)> {
        self.threads
            .iter()
            .map(|(_, t)| {
                let name = t
                    .text
                    .as_ref()
                    .map(|p| p.name().to_string())
                    .unwrap_or_else(|| "<native>".to_string());
                (t.id, name)
            })
            .collect()
    }

    /// The earliest per-CPU clock. Trace records strictly before this
    /// horizon are final; records at or past it may still be joined by
    /// more as execution continues (debugger view).
    pub fn debug_cycle_horizon(&self) -> u64 {
        self.cpus.iter().map(|c| c.cpu.now).min().unwrap_or(0)
    }

    /// Every live space id (debugger view).
    pub fn debug_spaces(&self) -> Vec<crate::ids::SpaceId> {
        self.spaces.iter().map(|(_, s)| s.id).collect()
    }

    /// A space's resident memory as contiguous `(vaddr, bytes, writable)`
    /// runs, plus its imported mapping-object count (debugger view).
    pub fn debug_space_map(&self, s: crate::ids::SpaceId) -> Option<(Vec<MemRun>, usize)> {
        use fluke_api::abi::PAGE_SIZE;
        let sp = self.spaces.get(s.0)?;
        let mut vpns: Vec<(u32, bool)> = sp.pages_iter().map(|(&v, p)| (v, p.writable)).collect();
        vpns.sort_unstable();
        let mut runs: Vec<(u32, u32, bool)> = Vec::new();
        for (vpn, w) in vpns {
            match runs.last_mut() {
                Some((base, len, rw)) if *rw == w && *base + *len == vpn * PAGE_SIZE => {
                    *len += PAGE_SIZE;
                }
                _ => runs.push((vpn * PAGE_SIZE, PAGE_SIZE, w)),
            }
        }
        Some((runs, sp.mappings().len()))
    }

    /// Take a manual snapshot into the recorder's ring (between `run`
    /// calls). Returns the snapshot's state digest.
    pub fn snapshot_now(&mut self) -> Result<u64, SnapError> {
        if self.krec.is_none() {
            return Err(SnapError::RecorderOff);
        }
        let bytes = self.snapshot_bytes()?;
        let at_cycle = self.cpus.iter().map(|c| c.cpu.now).max().unwrap_or(0);
        let kr = self.krec.as_mut().expect("checked above");
        let snap = Snapshot {
            at_cycle,
            window_index: kr.windows.len(),
            site: kr.sites_seen,
            mid_run: false,
            bytes,
        };
        let digest = snap.digest();
        kr.push_snapshot(snap);
        Ok(digest)
    }

    /// Detach the recorder and hand back everything it captured. The kernel
    /// keeps running (un-recorded) afterwards.
    pub fn take_recording(&mut self) -> Option<Recording> {
        self.krec.take().map(|k| Recording {
            snapshots: k.snapshots.into_iter().collect(),
            windows: k.windows,
        })
    }

    /// Recorder hook at a user-thread dispatch boundary (the same site
    /// enumeration `kfault` sweeps). Observes simulated state but never
    /// mutates it — arming `krec` is zero-perturbation by construction.
    ///
    /// A kernel whose state has drifted outside the snapshot contract (a
    /// native-bodied thread was spawned after arming) skips the capture;
    /// pure-ISA workloads — the only ones worth recording — never hit this.
    pub(crate) fn krec_tick(&mut self, cur: crate::ids::ThreadId) {
        let Some(kr) = self.krec.as_ref() else { return };
        if !matches!(self.threads.get(cur.0).map(|t| &t.body), Some(Body::User)) {
            return;
        }
        let site = kr.sites_seen;
        let now = self.cpus.iter().map(|c| c.cpu.now).max().unwrap_or(0);
        let mut due = false;
        if let Some(n) = kr.cfg.every_sites {
            if site % n == 0 {
                due = true;
            }
        }
        if kr.cfg.at_site == Some(site) {
            due = true;
        }
        let cycle_mark = kr.cfg.every_cycles.zip(kr.next_cycle_due);
        let kr = self.krec.as_mut().expect("checked above");
        kr.sites_seen += 1;
        if let Some((n, mark)) = cycle_mark {
            if now >= mark {
                due = true;
                let mut next = mark;
                while next <= now {
                    next += n;
                }
                kr.next_cycle_due = Some(next);
            }
        }
        if !due {
            return;
        }
        let Ok(bytes) = self.snapshot_bytes() else {
            return;
        };
        let kr = self.krec.as_mut().expect("checked above");
        kr.push_snapshot(Snapshot {
            at_cycle: now,
            window_index: kr.windows.len(),
            site,
            mid_run: true,
            bytes,
        });
    }
}
