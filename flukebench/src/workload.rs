//! The three workloads: how each is built, run and checked.
//!
//! Every pass boots a fresh kernel (cold TLBs, unpopulated pages) and
//! drives it to completion in fixed slices of simulated cycles, one host
//! thread throughout. Simulated CPUs are not host threads.

use fluke_api::abi::{ARG_COUNT, ARG_HANDLE, ARG_RBUF, ARG_SBUF, ARG_VAL};
use fluke_api::{ObjType, Sys};
use fluke_arch::cost::Cycles;
use fluke_arch::{Assembler, Cond, Instr, Reg};
use fluke_core::{Config, Kernel, RunExit, ThreadId};
use fluke_user::proc::ChildProc;
use fluke_user::FlukeAsm;
use fluke_workloads::{flukeperf, latency, memtest, FlukeperfParams};

/// Simulated cycles per `Kernel::run` call, as `try_run_workload` slices.
pub const SLICE: Cycles = 50_000;

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// flukeperf + the Table 6 1 ms latency probe, Process PP, 1 CPU.
    Flukeperf,
    /// memtest over 16 MB of demand-paged memory, Interrupt PP, 1 CPU.
    Memtest,
    /// The 10,240-connection consolidated server, Process PP, 8 CPUs.
    Server,
}

/// Workload size: the paper's, or a reduced one for the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// Paper-scale inputs (what the benchmark measures).
    Paper,
    /// Small inputs with the same shape, for the smoke test.
    Smoke,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::Flukeperf, Workload::Memtest, Workload::Server];

    /// The name used on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Flukeperf => "flukeperf",
            Workload::Memtest => "memtest",
            Workload::Server => "server",
        }
    }

    /// Parse a command-line workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Kernel configuration. `kprof` arms the cycle profiler (traced runs).
    pub fn config(self, kprof: bool) -> Config {
        let cfg = match self {
            Workload::Flukeperf => Config::process_pp(),
            Workload::Memtest => Config::interrupt_pp(),
            Workload::Server => Config::process_pp().with_cpus(8).with_kspan(),
        };
        if kprof {
            cfg.with_kprof()
        } else {
            cfg
        }
    }

    /// Safety budget of simulated cycles; exhausting it is a failure.
    pub fn budget(self) -> Cycles {
        match self {
            Workload::Flukeperf => 8_000_000_000,
            Workload::Memtest => 50_000_000_000,
            Workload::Server => 200_000_000_000,
        }
    }

    /// Whether the finished kernel can be snapshotted. flukeperf's latency
    /// probe is a native-bodied thread, which snapshots refuse, so its
    /// checkpoint is taken of the kernel as built, before the probe.
    pub fn checkpoint_after_run(self) -> bool {
        self != Workload::Flukeperf
    }

    /// Build the workload on a fresh kernel (`Kernel::new` included).
    pub fn build(self, size: Size, seed: u64, kprof: bool) -> Built {
        let cfg = self.config(kprof);
        match self {
            Workload::Flukeperf => {
                let p = flukeperf_params(size);
                let expect = Expect::Flukeperf {
                    ipc_bytes: 2 * 64 * p.small_rpcs as u64
                        + p.medium_sends as u64 * p.medium_size as u64
                        + p.big_sends as u64 * p.big_size as u64,
                };
                let run = flukeperf::build(cfg, &p);
                Built {
                    kernel: run.kernel,
                    mains: run.main_threads,
                    expect,
                }
            }
            Workload::Memtest => {
                let mb = match size {
                    Size::Paper => 16,
                    Size::Smoke => 1,
                };
                let run = memtest::build(cfg, mb);
                let expect = Expect::Memtest {
                    hard_faults: mb as u64 * 256,
                };
                Built {
                    kernel: run.kernel,
                    mains: run.main_threads,
                    expect,
                }
            }
            Workload::Server => {
                let conns = match size {
                    Size::Paper => 10_240,
                    Size::Smoke => 256,
                };
                build_server(cfg, conns, seed)
            }
        }
    }
}

fn flukeperf_params(size: Size) -> FlukeperfParams {
    match size {
        Size::Paper => FlukeperfParams::paper(),
        Size::Smoke => {
            // Keep the latency-bounding phases (a 1.5 MB send, the
            // region_search sweeps) so the probe sees the paper's shape.
            let mut p = FlukeperfParams::quick();
            p.big_sends = 2;
            p.big_size = 1_536 << 10;
            p.searches = 10;
            p.search_pages = 300;
            p.medium_sends = 40;
            p
        }
    }
}

/// What a finished pass must show.
#[derive(Debug, Clone, Copy)]
pub enum Expect {
    /// IPC bytes the parameters send.
    Flukeperf {
        /// Small RPCs both ways, plus every medium and large send.
        ipc_bytes: u64,
    },
    /// One hard fault per 4 KB page scanned.
    Memtest {
        /// Pages in the scanned window.
        hard_faults: u64,
    },
    /// Every client request completes, once.
    Server {
        /// Connections × rounds.
        requests: u64,
    },
}

/// A kernel with a workload loaded and ready to run.
pub struct Built {
    /// The booted kernel.
    pub kernel: Kernel,
    /// Threads whose halt ends the run.
    pub mains: Vec<ThreadId>,
    /// The outputs the finished run must show.
    pub expect: Expect,
}

/// Why a run did not finish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunFailure {
    /// The safety budget elapsed first.
    Timeout,
    /// The kernel ran out of work with main threads unfinished.
    Wedged(RunExit),
}

impl Built {
    /// Final set-up step after any pre-run checkpoint: flukeperf installs
    /// the Table 6 probe, a 1 ms periodic high-priority kernel thread.
    pub fn arm(&mut self) {
        if let Expect::Flukeperf { .. } = self.expect {
            latency::install_probe(&mut self.kernel, 1);
        }
    }

    /// Drive `Kernel::run` in [`SLICE`]-cycle slices until every main
    /// thread halts. `on_slice` is called around each `Kernel::run` call:
    /// with `false` just before it and `true` just after. Returns the
    /// number of `Kernel::run` calls.
    pub fn run(
        &mut self,
        budget: Cycles,
        mut on_slice: impl FnMut(&Kernel, bool),
    ) -> (u64, Result<(), RunFailure>) {
        let k = &mut self.kernel;
        let deadline = k.now() + budget;
        let mut calls = 0;
        loop {
            let limit = (k.now() + SLICE).min(deadline);
            on_slice(k, false);
            let exit = k.run(Some(limit));
            on_slice(k, true);
            calls += 1;
            if self.mains.iter().all(|&t| k.thread_halted(t)) {
                return (calls, Ok(()));
            }
            match exit {
                RunExit::TimeLimit if k.now() >= deadline => {
                    return (calls, Err(RunFailure::Timeout))
                }
                RunExit::TimeLimit => {}
                RunExit::AllHalted | RunExit::Deadlock => {
                    return (calls, Err(RunFailure::Wedged(exit)))
                }
            }
        }
    }
}

/// The client-RPC class kspan records server requests under.
pub fn rpc_class() -> &'static str {
    Sys::IpcClientConnectSendOverReceive.name()
}

// ---------------------------------------------------------------------------
// The consolidated server (the `scale` tier of `server_consolidation`).
// ---------------------------------------------------------------------------

/// Request/response payload bytes.
const LEN: u32 = 64;
/// Frontend→backend routing notification bytes.
const FWD_LEN: u32 = 16;
/// Backend shards (worker pools).
const SHARDS: usize = 4;
/// Threads per shard.
const WORKERS: usize = 4;
/// Frontend spaces the connections are consolidated onto.
const FRONTENDS: usize = 2;
/// Server threads per frontend space, all waiting on one portset.
const FE_THREADS: usize = 2;
/// Client threads driving the connections.
const CLIENTS: usize = 4;
/// Rounds over the connection range.
const ROUNDS: u32 = 1;
/// Hot-key skew: five of eight requests route to shard 0.
const SKEW: [u8; 8] = [0, 0, 0, 0, 0, 1, 2, 3];

/// splitmix64: a tiny deterministic generator for seed-derived inputs.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher-Yates shuffle.
    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// Per-client inputs derived from the seed: the shard key of each of the
/// client's request slots and the connection each slot names. Seed 0 is
/// `server_consolidation`'s key table, with churn on the tail eighth of
/// each client's connections. Any other seed shuffles the keys within
/// every block of eight (still five of eight on shard 0) and rotates the
/// client's sweep by a seed-chosen offset, which picks the connections
/// that sit in the churned tail. Rotating keeps the sweep sequential, so
/// every seed has the same memory locality.
fn client_inputs(seed: u64, client: usize, cpc: usize) -> (Vec<u8>, Vec<usize>) {
    let base = client * cpc;
    let mut keys: Vec<u8> = (0..cpc).map(|j| SKEW[(base + j) % SKEW.len()]).collect();
    let mut offset = 0;
    if seed != 0 {
        let mut rng = Mix(seed ^ (client as u64).wrapping_mul(0x2545_f491_4f6c_dd1d));
        for block in keys.chunks_mut(SKEW.len()) {
            rng.shuffle(block);
        }
        offset = (rng.next() % cpc as u64) as usize;
    }
    (keys, (0..cpc).map(|j| base + (j + offset) % cpc).collect())
}

/// `conns` connection ports across [`FRONTENDS`] frontend spaces (every
/// port a member of its frontend's portset), [`SHARDS`] backend worker
/// pools, and [`CLIENTS`] client threads each sweeping its slice of the
/// connections once with connect-send-over-receive RPCs. The program
/// text is `server_consolidation::run_server`'s; only the seed-derived
/// key tables and slot→connection map differ.
fn build_server(cfg: Config, conns: usize, seed: u64) -> Built {
    assert_eq!(
        conns % (FRONTENDS * CLIENTS * 8),
        0,
        "conns must split evenly"
    );
    let mut k = Kernel::new(cfg);

    // Backend: one space per shard, workers parked on the shard port.
    let mut shard_ports = Vec::new();
    for s in 0..SHARDS {
        let space = ChildProc::with_mem(&mut k, 0x6000_0000 + (s as u32) * 0x0100_0000, 0x4000);
        let h_port = space.mem_base + 0x3000;
        shard_ports.push(k.loader_create(space.space, h_port, ObjType::Port));
        for w in 0..WORKERS {
            let wbuf = space.mem_base + 0x1000 + (w as u32) * 0x100;
            let mut a = Assembler::new("shard-worker");
            a.label("drain");
            a.movi(ARG_HANDLE, h_port);
            a.movi(ARG_RBUF, wbuf);
            a.movi(ARG_COUNT, FWD_LEN);
            a.sys(Sys::IpcWaitReceiveOneway);
            a.jmp("drain");
            space.start(&mut k, a.finish(), 10);
        }
    }

    // Frontends: a portset over their share of the connection ports, and
    // references to every shard port; each request is routed to its
    // shard with a one-way send, then acknowledged.
    let cpf = conns / FRONTENDS;
    let mut conn_ports = Vec::new();
    for f in 0..FRONTENDS {
        let space = ChildProc::with_mem(
            &mut k,
            0x4000_0000 + (f as u32) * 0x0100_0000,
            0x1_0000 + 32 * cpf.next_power_of_two().max(128) as u32,
        );
        let h_pset = space.mem_base + 0x2000;
        let h_shard0 = space.mem_base + 0x2020;
        let pset = k.loader_create(space.space, h_pset, ObjType::Portset);
        for (s, &port) in shard_ports.iter().enumerate() {
            k.loader_ref(space.space, h_shard0 + 32 * s as u32, port);
        }
        for i in 0..cpf {
            let h = space.mem_base + 0x1_0000 + 32 * i as u32;
            let port = k.loader_create(space.space, h, ObjType::Port);
            k.loader_join_pset(port, pset);
            conn_ports.push(port);
        }
        for t in 0..FE_THREADS {
            let fbuf = space.mem_base + 0x1000 + (t as u32) * 0x200;
            let mut a = Assembler::new("frontend");
            a.server_wait_receive(h_pset, fbuf, LEN);
            a.label("serve");
            a.movi(Reg::Ebp, fbuf);
            a.loadb(Reg::Eax, Reg::Ebp, 0);
            a.mov(ARG_HANDLE, Reg::Eax);
            a.emit(Instr::ShlI(ARG_HANDLE, 5));
            a.addi(ARG_HANDLE, h_shard0);
            a.movi(ARG_SBUF, fbuf);
            a.movi(ARG_COUNT, FWD_LEN);
            a.sys(Sys::IpcSendOneway);
            a.server_ack_send_wait_receive(h_pset, fbuf, LEN, fbuf, LEN);
            a.jmp("serve");
            space.start(&mut k, a.finish(), 9);
        }
    }

    // Clients: references to their connection slice, a key table, and a
    // loop that RPCs every slot, churning a scratch port on the tail
    // eighth of the slots.
    let cpc = conns / CLIENTS;
    let churn_start = (cpc - cpc / 8) as u32;
    let mut mains = Vec::new();
    for c in 0..CLIENTS {
        let space = ChildProc::with_mem(
            &mut k,
            0x1000_0000 + (c as u32) * 0x0100_0000,
            0x1_0000 + 32 * cpc.next_power_of_two().max(128) as u32,
        );
        let keytab = space.mem_base + 0x1000;
        let sbuf = space.mem_base + 0x3000;
        let rbuf = space.mem_base + 0x3800;
        let h_scratch = space.mem_base + 0x4000;
        let h_ref0 = space.mem_base + 0x1_0000;
        let (keys, slots) = client_inputs(seed, c, cpc);
        k.write_mem(space.space, keytab, &keys);
        k.write_mem(space.space, sbuf, &[0x42; LEN as usize]);
        for (j, &conn) in slots.iter().enumerate() {
            k.loader_ref(space.space, h_ref0 + 32 * j as u32, conn_ports[conn]);
        }

        let mut a = Assembler::new("client");
        a.movi(Reg::Esp, ROUNDS);
        a.label("round");
        a.movi(Reg::Ebp, 0);
        a.label("conn");
        a.mov(ARG_VAL, Reg::Ebp);
        a.addi(ARG_VAL, keytab);
        a.loadb(Reg::Eax, ARG_VAL, 0);
        a.movi(ARG_SBUF, sbuf);
        a.storeb(ARG_SBUF, 0, Reg::Eax);
        a.mov(ARG_HANDLE, Reg::Ebp);
        a.emit(Instr::ShlI(ARG_HANDLE, 5));
        a.addi(ARG_HANDLE, h_ref0);
        a.movi(ARG_COUNT, LEN);
        a.movi(ARG_RBUF, rbuf);
        a.movi(ARG_VAL, LEN);
        a.sys(Sys::IpcClientConnectSendOverReceive);
        a.cmpi(Reg::Ebp, churn_start);
        a.jcc(Cond::Lt, "next");
        a.sys_h(Sys::PortCreate, h_scratch);
        a.sys_h(Sys::PortDestroy, h_scratch);
        a.label("next");
        a.addi(Reg::Ebp, 1);
        a.cmpi(Reg::Ebp, cpc as u32);
        a.jcc(Cond::Ne, "conn");
        a.subi(Reg::Esp, 1);
        a.cmpi(Reg::Esp, 0);
        a.jcc(Cond::Ne, "round");
        a.halt();
        mains.push(space.start(&mut k, a.finish(), 8));
    }

    Built {
        kernel: k,
        mains,
        expect: Expect::Server {
            requests: conns as u64 * ROUNDS as u64,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_is_the_reference_key_table() {
        let (keys, slots) = client_inputs(0, 1, 16);
        let want: Vec<u8> = (16..32).map(|i| SKEW[i % 8]).collect();
        assert_eq!(keys, want);
        assert_eq!(slots, (16..32).collect::<Vec<_>>());
    }

    #[test]
    fn other_seeds_keep_the_skew_and_rotate_the_slice() {
        let (keys, slots) = client_inputs(7, 2, 64);
        for block in keys.chunks(8) {
            assert_eq!(block.iter().filter(|&&k| k == 0).count(), 5);
        }
        let first = slots[0];
        assert_ne!(first, 128, "seed 7 rotates client 2's sweep");
        let rotated: Vec<usize> = (0..64).map(|j| 128 + (first - 128 + j) % 64).collect();
        assert_eq!(slots, rotated);
    }
}
