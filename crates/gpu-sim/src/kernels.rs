//! Canonical kernels from the paper, as reusable builders.
//!
//! * [`null_kernel`] / [`sleep_kernel`] — Fig. 3's launch-overhead probes.
//! * [`chain_kernel`] — Fig. 19's dependent-chain shape (Wong's method).
//! * [`sync_chain`] — a chain of synchronization instructions with clock
//!   reads around it, the workhorse of Tables II and Figs. 4–8.
//! * [`coalesced_partial_chain`] — partial coalesced groups (Table II's
//!   "Coalesced(1–31)" row).
//! * [`warp_probe`] — Fig. 17's 32-arm divergent barrier probe.
//! * [`stream_kernel`] — Fig. 10's grid-stride bandwidth loop.

use crate::isa::{Instr, Kernel, KernelBuilder, Operand, ShflKind, ShflMode, Special};
use crate::system::LaunchKind;
use Operand::{Imm, Param, Reg, Sp};

/// Which synchronization instruction a chain exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncOp {
    /// Tile-group sync of the given width.
    Tile(u32),
    /// Coalesced-group sync (converged full warp unless threads diverge).
    Coalesced,
    /// Shuffle-down through a tile group (implies synchronization).
    ShflTile,
    /// Shuffle-down through a coalesced group.
    ShflCoalesced,
    /// Block barrier (`__syncthreads`).
    Block,
    /// Grid barrier (cooperative launch required).
    Grid,
    /// Multi-grid barrier (multi-device cooperative launch required).
    MultiGrid,
}

impl SyncOp {
    /// The launch API a chain of this op runs under (§IV): `grid.sync()`
    /// needs a cooperative launch and `multi_grid.sync()` a multi-device
    /// one; every other op runs in a traditional launch.
    pub fn launch_kind(self) -> LaunchKind {
        match self {
            SyncOp::Grid => LaunchKind::Cooperative,
            SyncOp::MultiGrid => LaunchKind::CooperativeMultiDevice,
            _ => LaunchKind::Traditional,
        }
    }

    fn emit(self, b: &mut KernelBuilder, scratch: crate::isa::Reg) {
        match self {
            SyncOp::Tile(width) => {
                b.push(Instr::SyncTile { width });
            }
            SyncOp::Coalesced => {
                b.push(Instr::SyncCoalesced);
            }
            SyncOp::ShflTile => {
                b.push(Instr::Shfl {
                    dst: scratch,
                    val: Reg(scratch),
                    kind: ShflKind::Tile,
                    mode: ShflMode::Down(1),
                    width: 32,
                });
            }
            SyncOp::ShflCoalesced => {
                b.push(Instr::Shfl {
                    dst: scratch,
                    val: Reg(scratch),
                    kind: ShflKind::Coalesced,
                    mode: ShflMode::Down(1),
                    width: 32,
                });
            }
            SyncOp::Block => {
                b.bar_sync();
            }
            SyncOp::Grid => {
                b.grid_sync();
            }
            SyncOp::MultiGrid => {
                b.multi_grid_sync();
            }
        }
    }
}

/// An empty kernel (every thread exits immediately).
pub fn null_kernel() -> Kernel {
    let mut b = KernelBuilder::new("null");
    b.exit();
    b.build(0)
}

/// Fig. 3: a kernel whose execution latency is controlled by `nanosleep`.
pub fn sleep_kernel(ns: u64) -> Kernel {
    let mut b = KernelBuilder::new("sleep");
    b.push(Instr::Nanosleep(Imm(ns)));
    b.exit();
    b.build(0)
}

/// Fig. 19 / Wong's method: `repeats` dependent steps emitted by `emit`,
/// bracketed by clock reads. Each thread stores its elapsed cycles to
/// `param(0)[global_tid]`.
pub fn chain_kernel(
    name: &str,
    repeats: usize,
    emit: impl Fn(&mut KernelBuilder, crate::isa::Reg),
) -> Kernel {
    let mut b = KernelBuilder::new(name);
    let acc = b.reg();
    let t0 = b.reg();
    let t1 = b.reg();
    b.mov(acc, crate::isa::fimm(1.0));
    b.read_clock(t0);
    for _ in 0..repeats {
        emit(&mut b, acc);
    }
    b.read_clock(t1);
    b.isub(t1, Reg(t1), Reg(t0));
    b.push(Instr::StGlobal {
        buf: Param(0),
        idx: Sp(Special::GlobalTid),
        val: Reg(t1),
    });
    b.exit();
    b.build(0)
}

/// Dependent chain of FP32 adds — the reference instruction both of the
/// paper's measurement methods must agree on (§IX-D).
pub fn fadd32_chain(repeats: usize) -> Kernel {
    chain_kernel("fadd32-chain", repeats, |b, acc| {
        b.fadd32(acc, Reg(acc), crate::isa::fimm(1.0));
    })
}

/// A chain of `repeats` synchronization ops with clock reads around it.
/// Elapsed cycles stored to `param(0)[global_tid]`.
pub fn sync_chain(op: SyncOp, repeats: usize) -> Kernel {
    chain_kernel(&format!("sync-chain-{op:?}"), repeats, |b, acc| {
        op.emit(b, acc);
    })
}

/// A chain of `repeats` synchronization ops with no timing reads — used for
/// throughput sweeps where the host measures kernel duration.
pub fn sync_throughput(op: SyncOp, repeats: usize) -> Kernel {
    let mut b = KernelBuilder::new(&format!("sync-thr-{op:?}"));
    let acc = b.reg();
    b.mov(acc, crate::isa::fimm(1.0));
    for _ in 0..repeats {
        op.emit(&mut b, acc);
    }
    b.exit();
    b.build(0)
}

/// Table II "Coalesced(1–31)": lanes below `k` form a partial coalesced
/// group and sync `repeats` times; the rest exit immediately. Lane 0 stores
/// its elapsed cycles to `param(0)[0]`.
pub fn coalesced_partial_chain(k: u32, repeats: usize) -> Kernel {
    assert!((1..=32).contains(&k));
    let mut b = KernelBuilder::new("coalesced-partial");
    let c = b.reg();
    let t0 = b.reg();
    let t1 = b.reg();
    b.cmp_lt(c, Sp(Special::LaneId), Imm(k as u64));
    b.bra_ifz(Reg(c), "out");
    b.read_clock(t0);
    for _ in 0..repeats {
        b.push(Instr::SyncCoalesced);
    }
    b.read_clock(t1);
    b.isub(t1, Reg(t1), Reg(t0));
    b.push(Instr::StGlobal {
        buf: Param(0),
        idx: Sp(Special::LaneId),
        val: Reg(t1),
    });
    b.label("out");
    b.exit();
    b.build(0)
}

/// Throughput variant of [`coalesced_partial_chain`]: lanes below `k` in
/// every warp sync `repeats` times, no clocks (host-timed sweeps).
pub fn coalesced_partial_throughput(k: u32, repeats: usize) -> Kernel {
    assert!((1..=32).contains(&k));
    let mut b = KernelBuilder::new("coalesced-partial-thr");
    let c = b.reg();
    b.cmp_lt(c, Sp(Special::LaneId), Imm(k as u64));
    b.bra_ifz(Reg(c), "out");
    for _ in 0..repeats {
        b.push(Instr::SyncCoalesced);
    }
    b.label("out");
    b.exit();
    b.build(0)
}

/// Fig. 17: every lane takes its own branch arm, records a start clock,
/// synchronizes the warp, records an end clock. Start clocks go to
/// `param(0)[lane]`, end clocks to `param(1)[lane]`.
///
/// On V100 the barrier blocks: end clocks cluster after the last arrival.
/// On P100 it does not: end clocks follow the start staircase (Fig. 18).
///
/// synccheck: the tile barriers sit inside lane-divergent branch arms *on
/// purpose* — the divergence is the quantity being measured. The resulting
/// `warp-barrier-divergence` warnings are suppressed by the audit's
/// `synccheck::ALLOWLIST` entry for this kernel, not by weakening the rule.
pub fn warp_probe() -> Kernel {
    let mut b = KernelBuilder::new("warp-probe");
    let c = b.reg();
    let t0 = b.reg();
    let t1 = b.reg();
    for lane in 0..31u32 {
        b.cmp_eq(c, Sp(Special::LaneId), Imm(lane as u64));
        b.bra_ifz(Reg(c), &format!("next{lane}"));
        b.read_clock(t0);
        b.push(Instr::SyncTile { width: 32 });
        b.read_clock(t1);
        b.bra("store");
        b.label(&format!("next{lane}"));
    }
    // Final else arm (lane 31).
    b.read_clock(t0);
    b.push(Instr::SyncTile { width: 32 });
    b.read_clock(t1);
    b.label("store");
    b.push(Instr::StGlobal {
        buf: Param(0),
        idx: Sp(Special::LaneId),
        val: Reg(t0),
    });
    b.push(Instr::StGlobal {
        buf: Param(1),
        idx: Sp(Special::LaneId),
        val: Reg(t1),
    });
    b.exit();
    b.build(0)
}

/// Fig. 10: the grid-stride streaming loop `while (i<n) {sum+=g[i]; i+=gs}`
/// over `param(0)` with `param(1)` elements, `flops` extra adds per element.
/// Each thread stores its partial sum to `param(2)[global_tid]`.
pub fn stream_kernel(flops: u8) -> Kernel {
    stream_kernel_eff(flops, 1000)
}

/// [`stream_kernel`] with an explicit streaming-efficiency (permille).
pub fn stream_kernel_eff(flops: u8, eff_permille: u16) -> Kernel {
    let mut b = KernelBuilder::new("stream");
    let acc = b.reg();
    let start = b.reg();
    let stride = b.reg();
    b.mov(acc, Imm(0));
    // start = gpu_rank * grid_threads + global_tid; stride = n_gpus * grid_threads
    let t = b.reg();
    b.imul(t, Sp(Special::GpuRank), Sp(Special::GridThreads));
    b.iadd(start, Reg(t), Sp(Special::GlobalTid));
    b.imul(stride, Sp(Special::NumGpus), Sp(Special::GridThreads));
    b.push(Instr::MemStream {
        acc,
        buf: Param(0),
        start: Reg(start),
        stride: Reg(stride),
        len: Param(1),
        flops,
        eff_permille,
    });
    b.push(Instr::StGlobal {
        buf: Param(2),
        idx: Sp(Special::GlobalTid),
        val: Reg(acc),
    });
    b.exit();
    b.build(0)
}

/// Table III: shared-memory streaming. `threads_live` threads of the block
/// each stream `per_thread_iters` words of shared memory (stride =
/// `threads_live`), then store their partials to `param(0)[tid]`.
pub fn smem_stream_kernel(shared_words: u32, threads_live: u32) -> Kernel {
    let mut b = KernelBuilder::new("smem-stream");
    let acc = b.reg();
    let c = b.reg();
    b.mov(acc, Imm(0));
    b.cmp_lt(c, Sp(Special::Tid), Imm(threads_live as u64));
    b.bra_ifz(Reg(c), "out");
    b.push(Instr::SmemStream {
        acc,
        start: Sp(Special::Tid),
        stride: Imm(threads_live as u64),
        len: Imm(shared_words as u64),
        // Fig. 10's micro-benchmark carries two imitation adds.
        flops: 2,
    });
    b.push(Instr::StGlobal {
        buf: Param(0),
        idx: Sp(Special::Tid),
        val: Reg(acc),
    });
    b.label("out");
    b.exit();
    b.build(shared_words)
}

// ---------------------------------------------------------------------------
// Atomics-built synchronization primitives (Stuart & Owens style)
// ---------------------------------------------------------------------------

/// Spin-lock mutex chain: thread 0 of each block acquires (CAS 0→1 spin)
/// and releases (exchange→0) the lock at `param(1)[0]`, `repeats` times,
/// bracketed by clock reads (Wong's method). Elapsed cycles go to
/// `param(0)[block_id]`; every other thread exits immediately.
///
/// synccheck: the CAS retry loop spins *on purpose* — a held lock is
/// transient, and the PR-5 watchdog still catches a holder that never
/// releases.
pub fn mutex_chain(repeats: usize) -> Kernel {
    let mut b = KernelBuilder::new("mutex-chain");
    let c = b.reg();
    let old = b.reg();
    let t0 = b.reg();
    let t1 = b.reg();
    b.cmp_eq(c, Sp(Special::Tid), Imm(0));
    b.bra_ifz(Reg(c), "out");
    b.read_clock(t0);
    for i in 0..repeats {
        b.label(&format!("acq{i}"));
        b.atomic_cas(Some(old), Param(1), Imm(0), Imm(0), Imm(1));
        // Non-zero old value: someone held the lock — retry.
        b.bra_if(Reg(old), &format!("acq{i}"));
        b.atomic_exch(None, Param(1), Imm(0), Imm(0));
    }
    b.read_clock(t1);
    b.isub(t1, Reg(t1), Reg(t0));
    b.push(Instr::StGlobal {
        buf: Param(0),
        idx: Sp(Special::BlockId),
        val: Reg(t1),
    });
    b.label("out");
    b.exit();
    b.build(0)
}

/// Ticket-based counting semaphore chain: thread 0 of each block acquires
/// one of `permits` permits (fetch-add a ticket at `param(1)[0]`, waiting
/// on the release counter `param(1)[1]` when oversubscribed) and releases
/// it, `repeats` times. Zero-initialized buffers need no host setup: the
/// ticket/release pair never resets. Elapsed cycles → `param(0)[block_id]`.
pub fn semaphore_chain(permits: u32, repeats: usize) -> Kernel {
    assert!(permits >= 1);
    let mut b = KernelBuilder::new("semaphore-chain");
    let c = b.reg();
    let my = b.reg();
    let need = b.reg();
    let t0 = b.reg();
    let t1 = b.reg();
    b.cmp_eq(c, Sp(Special::Tid), Imm(0));
    b.bra_ifz(Reg(c), "out");
    b.read_clock(t0);
    for i in 0..repeats {
        b.atomic_iadd(Some(my), Param(1), Imm(0), Imm(1));
        b.cmp_lt(c, Reg(my), Imm(permits as u64));
        b.bra_if(Reg(c), &format!("got{i}"));
        // Ticket `my` waits until `my + 1 - permits` releases happened.
        b.iadd(need, Reg(my), Imm(1));
        b.isub(need, Reg(need), Imm(permits as u64));
        b.wait_ge(Param(1), Imm(1), Reg(need));
        b.label(&format!("got{i}"));
        b.atomic_iadd(None, Param(1), Imm(1), Imm(1));
    }
    b.read_clock(t1);
    b.isub(t1, Reg(t1), Reg(t0));
    b.push(Instr::StGlobal {
        buf: Param(0),
        idx: Sp(Special::BlockId),
        val: Reg(t1),
    });
    b.label("out");
    b.exit();
    b.build(0)
}

/// Centralized sense-reversing spin-barrier chain across block
/// representatives (thread 0 of each block), the software replacement for
/// `grid.sync()` that needs no cooperative launch. The "sense" is the
/// monotone round number: round `r` arrives with a fetch-add on
/// `param(1)[0]` and spins until the counter reaches `r * grid_dim`, so no
/// round ever races a reset of the previous one (the reason sense-reversing
/// barriers flip their sense bit). `repeats` rounds are bracketed by clock
/// reads; elapsed cycles → `param(0)[block_id]`.
pub fn spin_barrier_chain(repeats: usize) -> Kernel {
    assert!(repeats >= 1);
    let mut b = KernelBuilder::new("spin-barrier-chain");
    let c = b.reg();
    let r = b.reg();
    let tgt = b.reg();
    let t0 = b.reg();
    let t1 = b.reg();
    b.cmp_eq(c, Sp(Special::Tid), Imm(0));
    b.bra_ifz(Reg(c), "out");
    b.mov(r, Imm(0));
    b.read_clock(t0);
    b.label("round");
    b.iadd(r, Reg(r), Imm(1));
    b.atomic_iadd(None, Param(1), Imm(0), Imm(1));
    b.imul(tgt, Reg(r), Sp(Special::GridDim));
    b.wait_ge(Param(1), Imm(0), Reg(tgt));
    b.cmp_lt(c, Reg(r), Imm(repeats as u64));
    b.bra_if(Reg(c), "round");
    b.read_clock(t1);
    b.isub(t1, Reg(t1), Reg(t0));
    b.push(Instr::StGlobal {
        buf: Param(0),
        idx: Sp(Special::BlockId),
        val: Reg(t1),
    });
    b.label("out");
    b.exit();
    b.build(0)
}

/// Tile-ready flag handoff: blocks 0 and 1 ping-pong through two flag
/// cells (`param(1)[0]`, `param(1)[1]`) for `repeats` rounds — block 0
/// signals the ping cell with the round number and waits on the pong cell;
/// block 1 mirrors it. One round is therefore two signal→wait handoffs, the
/// producer/consumer edge of a tile-granularity pipeline in isolation.
/// Elapsed cycles → `param(0)[block_id]`. Launch with exactly 2 blocks.
pub fn flag_pingpong_chain(repeats: usize) -> Kernel {
    assert!(repeats >= 1);
    let mut b = KernelBuilder::new("flag-pingpong");
    let c = b.reg();
    let r = b.reg();
    let t0 = b.reg();
    let t1 = b.reg();
    b.cmp_eq(c, Sp(Special::Tid), Imm(0));
    b.bra_ifz(Reg(c), "out");
    b.mov(r, Imm(0));
    b.read_clock(t0);
    b.label("round");
    b.iadd(r, Reg(r), Imm(1));
    b.cmp_eq(c, Sp(Special::BlockId), Imm(0));
    b.bra_ifz(Reg(c), "peer");
    b.signal(Param(1), Imm(0), Reg(r));
    b.wait_ge(Param(1), Imm(1), Reg(r));
    b.bra("next");
    b.label("peer");
    b.wait_ge(Param(1), Imm(0), Reg(r));
    b.signal(Param(1), Imm(1), Reg(r));
    b.label("next");
    b.cmp_lt(c, Reg(r), Imm(repeats as u64));
    b.bra_if(Reg(c), "round");
    b.read_clock(t1);
    b.isub(t1, Reg(t1), Reg(t0));
    b.push(Instr::StGlobal {
        buf: Param(0),
        idx: Sp(Special::BlockId),
        val: Reg(t1),
    });
    b.label("out");
    b.exit();
    b.build(0)
}

// ---------------------------------------------------------------------------
// Bug corpus (Wu et al. taxonomy): seeded buggy kernels and their clean
// twins, scored by `synccheck::corpus`. Convention: `param0` is a result
// buffer, `param1` a zeroed cells buffer (data + flag words). Buggy/clean
// status and launch shapes live in the corpus table, not here.
// ---------------------------------------------------------------------------

/// Restrict the body to thread 0 of each block: other threads jump to a
/// trailing `done` label the caller must emit (`b.label("done"); b.exit()`).
fn only_thread0(b: &mut KernelBuilder) {
    let c = b.reg();
    b.cmp_lt(c, Sp(Special::Tid), Imm(1));
    b.bra_ifz(Reg(c), "done");
}

/// Buggy: half the block skips a `bar.sync` (Wu et al.'s barrier-divergence
/// deadlock class; the corpus twin of the synccheck fixture).
pub fn bug_bd_divergent_barrier() -> Kernel {
    let mut b = KernelBuilder::new("bug-bd-divergent-barrier");
    let c = b.reg();
    b.cmp_lt(c, Sp(Special::Tid), Imm(16));
    b.bra_ifz(Reg(c), "out");
    b.bar_sync();
    b.label("out");
    b.exit();
    b.build(0)
}

/// Buggy: a `bar.sync` inside a loop whose trip count depends on `%tid` —
/// threads leave the loop at different iterations, stranding the barrier.
pub fn bug_bd_barrier_divergent_loop() -> Kernel {
    let mut b = KernelBuilder::new("bug-bd-barrier-divergent-loop");
    let i = b.reg();
    let c = b.reg();
    b.mov(i, Imm(0));
    b.label("loop");
    b.bar_sync();
    b.iadd(i, Reg(i), Imm(1));
    b.cmp_lt(c, Reg(i), Sp(Special::Tid));
    b.bra_if(Reg(c), "loop");
    b.exit();
    b.build(0)
}

/// Buggy: a grid barrier only block 0 executes — every other block of the
/// cooperative launch never arrives.
pub fn bug_bd_grid_sync_divergent() -> Kernel {
    let mut b = KernelBuilder::new("bug-bd-grid-sync-divergent");
    let c = b.reg();
    b.cmp_eq(c, Sp(Special::BlockId), Imm(0));
    b.bra_ifz(Reg(c), "skip");
    b.grid_sync();
    b.label("skip");
    b.exit();
    b.build(0)
}

/// Clean twin: a barrier inside a loop with a *uniform* trip count — every
/// thread crosses it the same number of times.
pub fn clean_bd_uniform_loop_barrier() -> Kernel {
    let mut b = KernelBuilder::new("clean-bd-uniform-loop-barrier");
    let i = b.reg();
    let c = b.reg();
    b.mov(i, Imm(0));
    b.label("loop");
    b.bar_sync();
    b.iadd(i, Reg(i), Imm(1));
    b.cmp_lt(c, Reg(i), Imm(3));
    b.bra_if(Reg(c), "loop");
    b.exit();
    b.build(0)
}

/// Clean twin: a block barrier under a block-uniform condition (`%bid`) —
/// whole blocks skip it together, which is legal.
pub fn clean_bd_block_uniform_barrier() -> Kernel {
    let mut b = KernelBuilder::new("clean-bd-block-uniform-barrier");
    let c = b.reg();
    b.cmp_eq(c, Sp(Special::BlockId), Imm(0));
    b.bra_ifz(Reg(c), "out");
    b.bar_sync();
    b.label("out");
    b.exit();
    b.build(0)
}

/// Buggy: a producer hands a data word to another block through a plain
/// flag store — no release/acquire anywhere, so nothing orders the data
/// store against the consumer's loads (missing-fence visibility class).
pub fn bug_mf_plain_flag_handoff() -> Kernel {
    let mut b = KernelBuilder::new("bug-mf-plain-flag-handoff");
    let f = b.reg();
    let d = b.reg();
    only_thread0(&mut b);
    let c = b.reg();
    b.cmp_eq(c, Sp(Special::BlockId), Imm(0));
    b.bra_ifz(Reg(c), "consumer");
    b.push(Instr::StGlobal {
        buf: Param(1),
        idx: Imm(0),
        val: Imm(42),
    });
    b.push(Instr::StGlobal {
        buf: Param(1),
        idx: Imm(1),
        val: Imm(1),
    });
    b.bra("done");
    b.label("consumer");
    b.label("spin");
    b.push(Instr::LdGlobal {
        dst: f,
        buf: Param(1),
        idx: Imm(1),
    });
    b.bra_ifz(Reg(f), "spin");
    b.push(Instr::LdGlobal {
        dst: d,
        buf: Param(1),
        idx: Imm(0),
    });
    b.push(Instr::StGlobal {
        buf: Param(0),
        idx: Imm(0),
        val: Reg(d),
    });
    b.label("done");
    b.exit();
    b.build(0)
}

/// Buggy: the consumer reads the data word without waiting at all; the
/// producer's (deliberately slow) store lands after the read.
pub fn bug_mf_read_no_wait() -> Kernel {
    let mut b = KernelBuilder::new("bug-mf-read-no-wait");
    let d = b.reg();
    only_thread0(&mut b);
    let c = b.reg();
    b.cmp_eq(c, Sp(Special::BlockId), Imm(0));
    b.bra_ifz(Reg(c), "consumer");
    b.push(Instr::Nanosleep(Imm(1_000)));
    b.push(Instr::StGlobal {
        buf: Param(1),
        idx: Imm(0),
        val: Imm(42),
    });
    b.signal(Param(1), Imm(1), Imm(1));
    b.bra("done");
    b.label("consumer");
    b.push(Instr::LdGlobal {
        dst: d,
        buf: Param(1),
        idx: Imm(0),
    });
    b.push(Instr::StGlobal {
        buf: Param(0),
        idx: Imm(0),
        val: Reg(d),
    });
    b.label("done");
    b.exit();
    b.build(0)
}

/// Buggy: block 0 broadcasts four words that every other block reads with
/// no synchronization in between.
pub fn bug_mf_broadcast_no_sync() -> Kernel {
    let mut b = KernelBuilder::new("bug-mf-broadcast-no-sync");
    let d = b.reg();
    let acc = b.reg();
    only_thread0(&mut b);
    let c = b.reg();
    b.cmp_eq(c, Sp(Special::BlockId), Imm(0));
    b.bra_ifz(Reg(c), "reader");
    for i in 0..4u64 {
        b.push(Instr::StGlobal {
            buf: Param(1),
            idx: Imm(i),
            val: Imm(i + 1),
        });
    }
    b.bra("done");
    b.label("reader");
    b.mov(acc, Imm(0));
    for i in 0..4u64 {
        b.push(Instr::LdGlobal {
            dst: d,
            buf: Param(1),
            idx: Imm(i),
        });
        b.iadd(acc, Reg(acc), Reg(d));
    }
    b.push(Instr::StGlobal {
        buf: Param(0),
        idx: Sp(Special::BlockId),
        val: Reg(acc),
    });
    b.label("done");
    b.exit();
    b.build(0)
}

/// Clean twin: the same handoff done right — store, `signal` (release),
/// `wait.ge` (acquire), load. The epoch rules must not flag it.
pub fn clean_mf_signal_handoff() -> Kernel {
    let mut b = KernelBuilder::new("clean-mf-signal-handoff");
    let d = b.reg();
    only_thread0(&mut b);
    let c = b.reg();
    b.cmp_eq(c, Sp(Special::BlockId), Imm(0));
    b.bra_ifz(Reg(c), "consumer");
    b.push(Instr::StGlobal {
        buf: Param(1),
        idx: Imm(0),
        val: Imm(42),
    });
    b.signal(Param(1), Imm(1), Imm(1));
    b.bra("done");
    b.label("consumer");
    b.wait_ge(Param(1), Imm(1), Imm(1));
    b.push(Instr::LdGlobal {
        dst: d,
        buf: Param(1),
        idx: Imm(0),
    });
    b.push(Instr::StGlobal {
        buf: Param(0),
        idx: Imm(0),
        val: Reg(d),
    });
    b.label("done");
    b.exit();
    b.build(0)
}

/// Buggy: every block does a plain load/add/store on the same counter word
/// — the classic lost-update race through global memory.
pub fn bug_cbr_rmw_counter() -> Kernel {
    let mut b = KernelBuilder::new("bug-cbr-rmw-counter");
    let v = b.reg();
    only_thread0(&mut b);
    b.push(Instr::LdGlobal {
        dst: v,
        buf: Param(1),
        idx: Imm(0),
    });
    b.iadd(v, Reg(v), Imm(1));
    b.push(Instr::StGlobal {
        buf: Param(1),
        idx: Imm(0),
        val: Reg(v),
    });
    b.label("done");
    b.exit();
    b.build(0)
}

/// Buggy: every block plain-stores its id to the same word (WAW race).
pub fn bug_cbr_waw_broadcast() -> Kernel {
    let mut b = KernelBuilder::new("bug-cbr-waw-broadcast");
    only_thread0(&mut b);
    b.push(Instr::StGlobal {
        buf: Param(1),
        idx: Imm(0),
        val: Sp(Special::BlockId),
    });
    b.label("done");
    b.exit();
    b.build(0)
}

/// Buggy: all threads of all blocks store to `cells[tid & 3]` — strided
/// writes that collide both within and across blocks.
pub fn bug_cbr_strided_overlap() -> Kernel {
    let mut b = KernelBuilder::new("bug-cbr-strided-overlap");
    let t = b.reg();
    b.mov(t, Sp(Special::Tid));
    b.push(Instr::IAnd(t, Reg(t), Imm(3)));
    b.push(Instr::StGlobal {
        buf: Param(1),
        idx: Reg(t),
        val: Sp(Special::GlobalTid),
    });
    b.exit();
    b.build(0)
}

/// Clean twin: the same per-block accumulation through `atom.add` — atomics
/// are the synchronization, not the race.
pub fn clean_cbr_atomic_counter() -> Kernel {
    let mut b = KernelBuilder::new("clean-cbr-atomic-counter");
    only_thread0(&mut b);
    b.atomic_iadd(None, Param(1), Imm(0), Imm(1));
    b.label("done");
    b.exit();
    b.build(0)
}

/// Clean twin: each block writes its own slot — disjoint, race-free.
pub fn clean_cbr_disjoint_slots() -> Kernel {
    let mut b = KernelBuilder::new("clean-cbr-disjoint-slots");
    only_thread0(&mut b);
    b.push(Instr::StGlobal {
        buf: Param(1),
        idx: Sp(Special::BlockId),
        val: Sp(Special::BlockId),
    });
    b.label("done");
    b.exit();
    b.build(0)
}

/// Buggy: a one-shot spin barrier whose arrival counter is plain-reset by
/// *every* participant after the wait — the ABA/flag-reuse class: the
/// counter returns to 0 while peers may still be polling it, and the racy
/// resets are a cross-block WAW pile-up.
pub fn bug_aba_barrier_reset() -> Kernel {
    let mut b = KernelBuilder::new("bug-aba-barrier-reset");
    only_thread0(&mut b);
    b.atomic_iadd(None, Param(1), Imm(0), Imm(1));
    b.wait_ge(Param(1), Imm(0), Sp(Special::GridDim));
    // Sleep long enough that every peer's wait has been satisfied, so the
    // run terminates deterministically and the racy resets still collide.
    b.push(Instr::Nanosleep(Imm(50_000)));
    b.push(Instr::StGlobal {
        buf: Param(1),
        idx: Imm(0),
        val: Imm(0),
    });
    b.label("done");
    b.exit();
    b.build(0)
}

/// Buggy: a test-and-set "lock" built from plain loads and stores — the
/// load/store pair is not atomic, so two blocks can both observe 0 and both
/// enter (Wu et al.'s atomicity-violation class).
pub fn bug_aba_plain_lock() -> Kernel {
    let mut b = KernelBuilder::new("bug-aba-plain-lock");
    let f = b.reg();
    let v = b.reg();
    only_thread0(&mut b);
    b.label("retry");
    b.push(Instr::LdGlobal {
        dst: f,
        buf: Param(1),
        idx: Imm(0),
    });
    b.bra_if(Reg(f), "retry");
    b.push(Instr::StGlobal {
        buf: Param(1),
        idx: Imm(0),
        val: Imm(1),
    });
    b.push(Instr::LdGlobal {
        dst: v,
        buf: Param(1),
        idx: Imm(1),
    });
    b.iadd(v, Reg(v), Imm(1));
    b.push(Instr::StGlobal {
        buf: Param(1),
        idx: Imm(1),
        val: Reg(v),
    });
    b.push(Instr::StGlobal {
        buf: Param(1),
        idx: Imm(0),
        val: Imm(0),
    });
    b.label("done");
    b.exit();
    b.build(0)
}

/// Clean twin: the same critical-section increment under a real CAS mutex —
/// the winning CAS and the releasing exchange advance the epoch, so the
/// protected plain accesses never conflict.
pub fn clean_aba_cas_lock() -> Kernel {
    let mut b = KernelBuilder::new("clean-aba-cas-lock");
    let old = b.reg();
    let v = b.reg();
    only_thread0(&mut b);
    b.label("acq");
    b.atomic_cas(Some(old), Param(1), Imm(0), Imm(0), Imm(1));
    b.bra_if(Reg(old), "acq");
    b.push(Instr::LdGlobal {
        dst: v,
        buf: Param(1),
        idx: Imm(1),
    });
    b.iadd(v, Reg(v), Imm(1));
    b.push(Instr::StGlobal {
        buf: Param(1),
        idx: Imm(1),
        val: Reg(v),
    });
    b.atomic_exch(None, Param(1), Imm(0), Imm(0));
    b.label("done");
    b.exit();
    b.build(0)
}

/// Buggy: the mutex is acquired and never released — the next contender
/// spins on the CAS forever (unreleased-lock class).
pub fn bug_lm_lock_leak() -> Kernel {
    let mut b = KernelBuilder::new("bug-lm-lock-leak");
    let old = b.reg();
    only_thread0(&mut b);
    b.label("acq");
    b.atomic_cas(Some(old), Param(1), Imm(0), Imm(0), Imm(1));
    b.bra_if(Reg(old), "acq");
    b.push(Instr::StGlobal {
        buf: Param(1),
        idx: Imm(1),
        val: Sp(Special::BlockId),
    });
    // Exit while still holding the mutex: never joins the skip path, so the
    // held lockset survives to this exit edge.
    b.exit();
    b.label("done");
    b.exit();
    b.build(0)
}

/// Buggy: the mutex is released twice — after the first unlock a second
/// owner can hold it, and the second unlock hands it to a third.
pub fn bug_lm_double_unlock() -> Kernel {
    let mut b = KernelBuilder::new("bug-lm-double-unlock");
    let old = b.reg();
    only_thread0(&mut b);
    b.label("acq");
    b.atomic_cas(Some(old), Param(1), Imm(0), Imm(0), Imm(1));
    b.bra_if(Reg(old), "acq");
    b.push(Instr::StGlobal {
        buf: Param(1),
        idx: Imm(1),
        val: Sp(Special::BlockId),
    });
    b.atomic_exch(None, Param(1), Imm(0), Imm(0));
    b.atomic_exch(None, Param(1), Imm(0), Imm(0));
    b.label("done");
    b.exit();
    b.build(0)
}

/// Buggy: only block 0's path releases the mutex; every other block exits
/// still holding it.
pub fn bug_lm_leak_one_path() -> Kernel {
    let mut b = KernelBuilder::new("bug-lm-leak-one-path");
    let old = b.reg();
    only_thread0(&mut b);
    let c = b.reg();
    b.label("acq");
    b.atomic_cas(Some(old), Param(1), Imm(0), Imm(0), Imm(1));
    b.bra_if(Reg(old), "acq");
    b.push(Instr::StGlobal {
        buf: Param(1),
        idx: Imm(1),
        val: Sp(Special::BlockId),
    });
    b.cmp_eq(c, Sp(Special::BlockId), Imm(0));
    b.bra_ifz(Reg(c), "leak");
    b.atomic_exch(None, Param(1), Imm(0), Imm(0));
    b.label("done");
    b.exit();
    b.label("leak");
    b.exit();
    b.build(0)
}

/// Buggy: one site writes the shared word under the mutex, another writes
/// it with no lock at all — the Eraser inconsistent-lockset condition.
pub fn bug_lm_inconsistent_lockset() -> Kernel {
    let mut b = KernelBuilder::new("bug-lm-inconsistent-lockset");
    let old = b.reg();
    only_thread0(&mut b);
    let c = b.reg();
    b.cmp_eq(c, Sp(Special::BlockId), Imm(0));
    b.bra_ifz(Reg(c), "unlocked");
    b.label("acq");
    b.atomic_cas(Some(old), Param(1), Imm(0), Imm(0), Imm(1));
    b.bra_if(Reg(old), "acq");
    b.push(Instr::StGlobal {
        buf: Param(1),
        idx: Imm(1),
        val: Imm(1),
    });
    b.atomic_exch(None, Param(1), Imm(0), Imm(0));
    b.bra("done");
    b.label("unlocked");
    b.push(Instr::StGlobal {
        buf: Param(1),
        idx: Imm(1),
        val: Imm(2),
    });
    b.label("done");
    b.exit();
    b.build(0)
}

/// Clean twin: both paths write the shared word under the mutex and both
/// release it — consistent locksets, balanced acquire/release.
pub fn clean_lm_conditional_release() -> Kernel {
    let mut b = KernelBuilder::new("clean-lm-conditional-release");
    let old = b.reg();
    only_thread0(&mut b);
    let c = b.reg();
    b.label("acq");
    b.atomic_cas(Some(old), Param(1), Imm(0), Imm(0), Imm(1));
    b.bra_if(Reg(old), "acq");
    b.cmp_eq(c, Sp(Special::BlockId), Imm(0));
    b.bra_ifz(Reg(c), "other");
    b.push(Instr::StGlobal {
        buf: Param(1),
        idx: Imm(1),
        val: Imm(1),
    });
    b.atomic_exch(None, Param(1), Imm(0), Imm(0));
    b.bra("done");
    b.label("other");
    b.push(Instr::StGlobal {
        buf: Param(1),
        idx: Imm(1),
        val: Imm(2),
    });
    b.atomic_exch(None, Param(1), Imm(0), Imm(0));
    b.label("done");
    b.exit();
    b.build(0)
}

/// Buggy: the producer signals readiness *before* writing the data word
/// (signal-before-init): the consumer's load races the late store.
pub fn bug_sbi_signal_before_store() -> Kernel {
    let mut b = KernelBuilder::new("bug-sbi-signal-before-store");
    let d = b.reg();
    only_thread0(&mut b);
    let c = b.reg();
    b.cmp_eq(c, Sp(Special::BlockId), Imm(0));
    b.bra_ifz(Reg(c), "consumer");
    b.signal(Param(1), Imm(1), Imm(1));
    b.push(Instr::Nanosleep(Imm(10_000)));
    b.push(Instr::StGlobal {
        buf: Param(1),
        idx: Imm(0),
        val: Imm(42),
    });
    b.bra("done");
    b.label("consumer");
    b.wait_ge(Param(1), Imm(1), Imm(1));
    b.push(Instr::LdGlobal {
        dst: d,
        buf: Param(1),
        idx: Imm(0),
    });
    b.push(Instr::StGlobal {
        buf: Param(0),
        idx: Imm(0),
        val: Reg(d),
    });
    b.label("done");
    b.exit();
    b.build(0)
}

/// Buggy: the producer initializes one of two words, signals, then fills in
/// the second — the consumer races only on the late half.
pub fn bug_sbi_partial_init() -> Kernel {
    let mut b = KernelBuilder::new("bug-sbi-partial-init");
    let d0 = b.reg();
    let d1 = b.reg();
    only_thread0(&mut b);
    let c = b.reg();
    b.cmp_eq(c, Sp(Special::BlockId), Imm(0));
    b.bra_ifz(Reg(c), "consumer");
    b.push(Instr::StGlobal {
        buf: Param(1),
        idx: Imm(0),
        val: Imm(1),
    });
    b.signal(Param(1), Imm(2), Imm(1));
    b.push(Instr::Nanosleep(Imm(10_000)));
    b.push(Instr::StGlobal {
        buf: Param(1),
        idx: Imm(1),
        val: Imm(2),
    });
    b.bra("done");
    b.label("consumer");
    b.wait_ge(Param(1), Imm(2), Imm(1));
    b.push(Instr::LdGlobal {
        dst: d0,
        buf: Param(1),
        idx: Imm(0),
    });
    b.push(Instr::LdGlobal {
        dst: d1,
        buf: Param(1),
        idx: Imm(1),
    });
    b.iadd(d0, Reg(d0), Reg(d1));
    b.push(Instr::StGlobal {
        buf: Param(0),
        idx: Imm(0),
        val: Reg(d0),
    });
    b.label("done");
    b.exit();
    b.build(0)
}

/// Clean twin: both data words are stored before the signal.
pub fn clean_sbi_store_then_signal() -> Kernel {
    let mut b = KernelBuilder::new("clean-sbi-store-then-signal");
    let d0 = b.reg();
    let d1 = b.reg();
    only_thread0(&mut b);
    let c = b.reg();
    b.cmp_eq(c, Sp(Special::BlockId), Imm(0));
    b.bra_ifz(Reg(c), "consumer");
    b.push(Instr::StGlobal {
        buf: Param(1),
        idx: Imm(0),
        val: Imm(1),
    });
    b.push(Instr::StGlobal {
        buf: Param(1),
        idx: Imm(1),
        val: Imm(2),
    });
    b.signal(Param(1), Imm(2), Imm(1));
    b.bra("done");
    b.label("consumer");
    b.wait_ge(Param(1), Imm(2), Imm(1));
    b.push(Instr::LdGlobal {
        dst: d0,
        buf: Param(1),
        idx: Imm(0),
    });
    b.push(Instr::LdGlobal {
        dst: d1,
        buf: Param(1),
        idx: Imm(1),
    });
    b.iadd(d0, Reg(d0), Reg(d1));
    b.push(Instr::StGlobal {
        buf: Param(0),
        idx: Imm(0),
        val: Reg(d0),
    });
    b.label("done");
    b.exit();
    b.build(0)
}

/// Buggy: the consumer waits on cell 0 but the producer signals cell 1 —
/// the lost-signal livelock only the watchdog can prove.
pub fn bug_lv_lost_signal() -> Kernel {
    let mut b = KernelBuilder::new("bug-lv-lost-signal");
    only_thread0(&mut b);
    let c = b.reg();
    b.cmp_eq(c, Sp(Special::BlockId), Imm(0));
    b.bra_ifz(Reg(c), "producer");
    b.wait_ge(Param(1), Imm(0), Imm(1));
    b.bra("done");
    b.label("producer");
    b.signal(Param(1), Imm(1), Imm(1));
    b.label("done");
    b.exit();
    b.build(0)
}

/// Buggy: block 0 waits on a flag block 1 only signals after its own wait
/// on a flag block 0 only signals after *its* wait — a circular spin.
pub fn bug_lv_circular_wait() -> Kernel {
    let mut b = KernelBuilder::new("bug-lv-circular-wait");
    only_thread0(&mut b);
    let c = b.reg();
    b.cmp_eq(c, Sp(Special::BlockId), Imm(0));
    b.bra_ifz(Reg(c), "peer");
    b.wait_ge(Param(1), Imm(0), Imm(1));
    b.signal(Param(1), Imm(1), Imm(1));
    b.bra("done");
    b.label("peer");
    b.wait_ge(Param(1), Imm(1), Imm(1));
    b.signal(Param(1), Imm(0), Imm(1));
    b.label("done");
    b.exit();
    b.build(0)
}

/// Buggy: every block arrives once but the wait target is `griddim + 1` —
/// one signal short, forever.
pub fn bug_lv_insufficient_signal() -> Kernel {
    let mut b = KernelBuilder::new("bug-lv-insufficient-signal");
    let t = b.reg();
    only_thread0(&mut b);
    b.atomic_iadd(None, Param(1), Imm(0), Imm(1));
    b.mov(t, Sp(Special::GridDim));
    b.iadd(t, Reg(t), Imm(1));
    b.wait_ge(Param(1), Imm(0), Reg(t));
    b.label("done");
    b.exit();
    b.build(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_produce_programs() {
        assert_eq!(null_kernel().program.len(), 1);
        assert!(sleep_kernel(1000).program.len() >= 2);
        assert_eq!(sync_chain(SyncOp::Tile(32), 10).name, "sync-chain-Tile(32)");
        assert!(fadd32_chain(256).program.len() > 256);
        assert!(warp_probe().program.len() > 64);
    }

    #[test]
    #[should_panic]
    fn partial_chain_rejects_zero_group() {
        let _ = coalesced_partial_chain(0, 4);
    }

    /// The atomics-built primitives must run to completion on the engine
    /// with correct final sync-cell state and populated timers.
    #[test]
    fn sync_primitives_run_and_converge() {
        use crate::{GpuSystem, GridLaunch, RunOptions};
        let run = |k: Kernel, blocks: u32, cells: u64| {
            let mut arch = gpu_arch::GpuArch::v100();
            arch.num_sms = 4;
            let mut sys = GpuSystem::single(arch);
            let out = sys.alloc(0, blocks as u64);
            let sync = sys.alloc(0, cells);
            let l = GridLaunch::single(k, blocks, 32, vec![out.0 as u64, sync.0 as u64]);
            sys.execute(&l, &RunOptions::new()).expect("primitive runs");
            let timers: Vec<u64> = (0..blocks as u64)
                .map(|i| sys.buffer(out).load(i).unwrap())
                .collect();
            let state: Vec<u64> = (0..cells)
                .map(|i| sys.buffer(sync).load(i).unwrap())
                .collect();
            (timers, state)
        };

        let (timers, state) = run(mutex_chain(8), 4, 1);
        assert!(timers.iter().all(|&t| t > 0), "{timers:?}");
        assert_eq!(state[0], 0, "lock must end released");

        let (timers, state) = run(semaphore_chain(2, 8), 4, 2);
        assert!(timers.iter().all(|&t| t > 0), "{timers:?}");
        assert_eq!(state, vec![32, 32], "4 blocks x 8 acquire/release pairs");

        let (timers, state) = run(spin_barrier_chain(4), 4, 1);
        assert!(timers.iter().all(|&t| t > 0), "{timers:?}");
        assert_eq!(state[0], 16, "4 blocks x 4 rounds of arrivals");

        let (timers, state) = run(flag_pingpong_chain(8), 2, 2);
        assert!(timers.iter().all(|&t| t > 0), "{timers:?}");
        assert_eq!(state, vec![8, 8], "both flags end at the round count");
    }
}
