//! The kernel object table.
//!
//! Kernel objects live *in application memory*: an object is created at a
//! virtual address in the caller's space, and that address is its handle
//! (paper §4.3). Internally the kernel keys objects by their **physical**
//! location `(frame, offset)`, so any space that maps the underlying page
//! can name the same object through its own virtual address — which is how
//! a manager operates on the objects of its children.

use std::collections::{HashMap, VecDeque};

use fluke_api::ObjType;

use crate::ids::{ConnId, ObjId, SpaceId, ThreadId};
use crate::phys::FrameId;
use crate::thread::WaitReason;
use crate::waitq::WaitQueue;

/// A one-way message buffered in the kernel on a port, queued by the
/// batched-submission path (`ipc_submit`; bounded — see
/// [`fluke_api::abi::PORT_BUF_MSGS`]). `pos` tracks delivery progress into
/// a receiver so a fault mid-delivery resumes where it left off.
#[derive(Debug)]
pub struct BufferedMsg {
    /// The message payload, captured at submit time.
    pub bytes: Vec<u8>,
    /// Bytes already delivered to the receiving thread.
    pub pos: usize,
}

/// Type-specific object payload.
///
/// The `Port` variant dominates the size (wait queues plus the buffered
/// submission queue); objects are stored behind the table's own
/// indirection, so boxing the large variant would only add a pointer
/// chase on the hottest IPC paths.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub enum ObjData {
    /// Mutex: lock flag plus the queue of blocked lockers. The queue is
    /// kernel bookkeeping, not exportable state: each waiter's registers
    /// independently say "about to call `mutex_lock`".
    Mutex {
        /// Whether the mutex is held.
        locked: bool,
        /// Blocked lockers, FIFO.
        waiters: WaitQueue<ThreadId>,
    },
    /// Condition variable: the queue of waiters.
    Cond {
        /// Blocked waiters, FIFO.
        waiters: WaitQueue<ThreadId>,
    },
    /// Mapping: imports `size` bytes of `region` (at `offset`) into `space`
    /// at `base`.
    Mapping {
        /// Destination space.
        space: SpaceId,
        /// Destination base address.
        base: u32,
        /// Length in bytes.
        size: u32,
        /// Source region object.
        region: ObjId,
        /// Offset into the source region.
        offset: u32,
        /// The region handle as named at creation (for state export).
        region_token: u32,
        /// Whether stores through this mapping are permitted.
        writable: bool,
    },
    /// Region: exports `[base, base+size)` of its owner space.
    Region {
        /// Owning (exporting) space.
        owner: SpaceId,
        /// Base address in the owner space.
        base: u32,
        /// Length in bytes.
        size: u32,
        /// Keeper port: hard faults on imported copies of this memory
        /// become exception IPC to this port.
        keeper: Option<ObjId>,
        /// The keeper-port handle as named at creation (for state export
        /// and fault messages).
        keeper_token: u32,
        /// The region's own handle at creation, included in fault messages
        /// so the keeper can identify it.
        self_token: u32,
    },
    /// Port: server-side IPC endpoint.
    Port {
        /// Portset this port belongs to, if any.
        pset: Option<ObjId>,
        /// The pset handle as named when joined (for state export).
        pset_token: u32,
        /// Connections awaiting a server.
        connect_q: WaitQueue<ConnId>,
        /// Threads blocked in `port_wait`-style calls on this port.
        server_q: WaitQueue<ThreadId>,
        /// Pending one-way senders blocked on this port.
        oneway_senders: WaitQueue<ThreadId>,
        /// Threads blocked waiting for a one-way message on this port.
        oneway_receivers: WaitQueue<ThreadId>,
        /// Bounded ring of kernel-buffered one-way messages queued by the
        /// batched-submission path. Always empty unless `ipc_submit` is
        /// used, so pre-existing programs never observe it.
        buffered: VecDeque<BufferedMsg>,
    },
    /// Portset: a group of ports a server waits on together.
    Pset {
        /// Member ports.
        members: Vec<ObjId>,
        /// Threads blocked in `pset_wait`-style calls.
        server_q: WaitQueue<ThreadId>,
    },
    /// Space object (payload lives in the space arena).
    Space(SpaceId),
    /// Thread object (payload lives in the thread arena).
    Thread(ThreadId),
    /// Reference: a cross-process handle on another object.
    Ref {
        /// The referenced object.
        target: Option<ObjId>,
        /// The target handle as named when pointed (for state export).
        target_token: u32,
    },
}

impl ObjData {
    /// The queue in this object that a thread blocked for `reason` sits
    /// on, if any.
    pub(crate) fn wait_queue(&mut self, reason: WaitReason) -> Option<&mut WaitQueue<ThreadId>> {
        Some(match (self, reason) {
            (ObjData::Mutex { waiters, .. }, WaitReason::Mutex(_)) => waiters,
            (ObjData::Cond { waiters }, WaitReason::Cond(_)) => waiters,
            (ObjData::Port { server_q: q, .. }, WaitReason::PortWait(_)) => q,
            (ObjData::Pset { server_q: q, .. }, WaitReason::PsetWait(_)) => q,
            (
                ObjData::Port {
                    oneway_senders: q, ..
                },
                WaitReason::OnewaySend(_),
            ) => q,
            (
                ObjData::Port {
                    oneway_receivers: q,
                    ..
                },
                WaitReason::OnewayReceive(_),
            ) => q,
            _ => return None,
        })
    }

    /// Fresh payload for a newly created object of type `ty`.
    /// `Mapping`, `Region`, `Space` and `Thread` carry parameters and are
    /// constructed explicitly by their create handlers.
    pub fn new_simple(ty: ObjType) -> Option<ObjData> {
        Some(match ty {
            ObjType::Mutex => ObjData::Mutex {
                locked: false,
                waiters: WaitQueue::new(),
            },
            ObjType::Cond => ObjData::Cond {
                waiters: WaitQueue::new(),
            },
            ObjType::Port => ObjData::Port {
                pset: None,
                pset_token: 0,
                connect_q: WaitQueue::new(),
                server_q: WaitQueue::new(),
                oneway_senders: WaitQueue::new(),
                oneway_receivers: WaitQueue::new(),
                buffered: VecDeque::new(),
            },
            ObjType::Portset => ObjData::Pset {
                members: Vec::new(),
                server_q: WaitQueue::new(),
            },
            ObjType::Reference => ObjData::Ref {
                target: None,
                target_token: 0,
            },
            _ => return None,
        })
    }

    /// The object type of this payload.
    pub fn ty(&self) -> ObjType {
        match self {
            ObjData::Mutex { .. } => ObjType::Mutex,
            ObjData::Cond { .. } => ObjType::Cond,
            ObjData::Mapping { .. } => ObjType::Mapping,
            ObjData::Region { .. } => ObjType::Region,
            ObjData::Port { .. } => ObjType::Port,
            ObjData::Pset { .. } => ObjType::Portset,
            ObjData::Space(_) => ObjType::Space,
            ObjData::Thread(_) => ObjType::Thread,
            ObjData::Ref { .. } => ObjType::Reference,
        }
    }
}

/// A kernel object: its physical location (identity) plus payload.
#[derive(Debug)]
pub struct Object {
    /// Physical location: the object's identity across spaces.
    pub loc: (FrameId, u32),
    /// Type-specific payload.
    pub data: ObjData,
}

impl Object {
    /// The object's type.
    pub fn ty(&self) -> ObjType {
        self.data.ty()
    }
}

/// The object table: arena of objects plus the physical-location index.
#[derive(Debug, Default)]
pub struct ObjectTable {
    objects: crate::ids::Arena<Object>,
    by_loc: HashMap<(FrameId, u32), ObjId>,
}

impl ObjectTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert an object at physical location `loc`.
    ///
    /// Returns `None` if an object already exists there.
    pub fn insert(&mut self, loc: (FrameId, u32), data: ObjData) -> Option<ObjId> {
        if self.by_loc.contains_key(&loc) {
            return None;
        }
        let id = ObjId(self.objects.insert(Object { loc, data }));
        self.by_loc.insert(loc, id);
        Some(id)
    }

    /// Look up the object at a physical location.
    pub fn at_loc(&self, loc: (FrameId, u32)) -> Option<ObjId> {
        self.by_loc.get(&loc).copied()
    }

    /// Get an object.
    pub fn get(&self, id: ObjId) -> Option<&Object> {
        self.objects.get(id.0)
    }

    /// Get an object mutably.
    pub fn get_mut(&mut self, id: ObjId) -> Option<&mut Object> {
        self.objects.get_mut(id.0)
    }

    /// Remove an object.
    pub fn remove(&mut self, id: ObjId) -> Option<Object> {
        let obj = self.objects.remove(id.0)?;
        self.by_loc.remove(&obj.loc);
        Some(obj)
    }

    /// Move an object to a new physical location (the `*_move` "rename"
    /// operation). Fails if the destination is occupied.
    pub fn relocate(&mut self, id: ObjId, new_loc: (FrameId, u32)) -> bool {
        if self.by_loc.contains_key(&new_loc) {
            return false;
        }
        let Some(obj) = self.objects.get_mut(id.0) else {
            return false;
        };
        let old = obj.loc;
        obj.loc = new_loc;
        self.by_loc.remove(&old);
        self.by_loc.insert(new_loc, id);
        true
    }

    /// Iterate over live objects.
    pub fn iter(&self) -> impl Iterator<Item = (ObjId, &Object)> {
        self.objects.iter().map(|(i, o)| (ObjId(i), o))
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }
}

// --- krec snapshot support ------------------------------------------------

use crate::krec::{snap_codec, Snap, SnapError, SnapReader, SnapWriter};

impl Snap for BufferedMsg {
    fn snap(&self, w: &mut SnapWriter) {
        self.bytes.snap(w);
        w.usize(self.pos);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let bytes: Vec<u8> = Snap::restore(r)?;
        let pos = r.usize()?;
        if pos > bytes.len() {
            return Err(SnapError::Invalid("buffered message position"));
        }
        Ok(BufferedMsg { bytes, pos })
    }
}

snap_codec! {
    enum ObjData as "ObjData" {
        0 => Mutex { locked, waiters },
        1 => Cond { waiters },
        2 => Mapping { space, base, size, region, offset, region_token, writable },
        3 => Region { owner, base, size, keeper, keeper_token, self_token },
        4 => Port {
            pset,
            pset_token,
            connect_q,
            server_q,
            oneway_senders,
            oneway_receivers,
            buffered
        },
        5 => Pset { members, server_q },
        6 => Space(s),
        7 => Thread(t),
        8 => Ref { target, target_token },
    }
}

snap_codec! {
    struct Object { loc, data }
}

// The by-location index is derived state, rebuilt on restore so the
// encoding is canonical regardless of hash-map iteration order.
impl Snap for ObjectTable {
    fn snap(&self, w: &mut SnapWriter) {
        self.objects.snap(w);
    }
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let objects: crate::ids::Arena<Object> = Snap::restore(r)?;
        let mut by_loc = HashMap::new();
        for (i, o) in objects.iter() {
            if by_loc.insert(o.loc, ObjId(i)).is_some() {
                return Err(SnapError::Invalid("duplicate object location"));
            }
        }
        Ok(ObjectTable { objects, by_loc })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_lookup_remove() {
        let mut t = ObjectTable::new();
        let id = t
            .insert((1, 64), ObjData::new_simple(ObjType::Mutex).unwrap())
            .unwrap();
        assert_eq!(t.at_loc((1, 64)), Some(id));
        assert_eq!(t.get(id).unwrap().ty(), ObjType::Mutex);
        // Same location rejected.
        assert!(t
            .insert((1, 64), ObjData::new_simple(ObjType::Cond).unwrap())
            .is_none());
        let obj = t.remove(id).unwrap();
        assert_eq!(obj.loc, (1, 64));
        assert_eq!(t.at_loc((1, 64)), None);
    }

    #[test]
    fn relocate_rekeys() {
        let mut t = ObjectTable::new();
        let id = t
            .insert((2, 0), ObjData::new_simple(ObjType::Port).unwrap())
            .unwrap();
        let other = t
            .insert((2, 32), ObjData::new_simple(ObjType::Cond).unwrap())
            .unwrap();
        // Occupied destination fails.
        assert!(!t.relocate(id, (2, 32)));
        assert!(t.relocate(id, (3, 128)));
        assert_eq!(t.at_loc((2, 0)), None);
        assert_eq!(t.at_loc((3, 128)), Some(id));
        assert_eq!(t.at_loc((2, 32)), Some(other));
    }

    #[test]
    fn simple_payloads_only_for_simple_types() {
        assert!(ObjData::new_simple(ObjType::Mutex).is_some());
        assert!(ObjData::new_simple(ObjType::Reference).is_some());
        assert!(ObjData::new_simple(ObjType::Thread).is_none());
        assert!(ObjData::new_simple(ObjType::Space).is_none());
        assert!(ObjData::new_simple(ObjType::Region).is_none());
        assert!(ObjData::new_simple(ObjType::Mapping).is_none());
    }

    #[test]
    fn payload_types_report_correctly() {
        for ty in [
            ObjType::Mutex,
            ObjType::Cond,
            ObjType::Port,
            ObjType::Portset,
            ObjType::Reference,
        ] {
            assert_eq!(ObjData::new_simple(ty).unwrap().ty(), ty);
        }
        assert_eq!(ObjData::Space(SpaceId(0)).ty(), ObjType::Space);
        assert_eq!(ObjData::Thread(ThreadId(0)).ty(), ObjType::Thread);
    }
}
