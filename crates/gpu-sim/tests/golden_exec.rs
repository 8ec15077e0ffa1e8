//! Golden snapshots of the engine's observable output.
//!
//! Each line pins the `ExecReport` `{duration, instrs_executed, warps_run}`
//! plus digests of every output buffer, the instruction trace and the
//! syncprof report (or of the error, for a launch that must fail). The first
//! nine cases are canonical sync chains spanning every barrier scope (tile /
//! block / grid / multi-grid), both calibrated architectures, and 1-SM as
//! well as full-chip grids. The 8-GPU multi-grid chain keeps 5,120 warps'
//! wakes pending in the event queue at once, and its memory digest holds
//! every thread's elapsed cycles, so it pins the order of each wake in a
//! deep queue. The rest reach the warp paths those never do:
//! divergent branches and their reconvergence, partial exits, tail warps,
//! block waves that recycle register files, spin loops under the armed
//! watchdog and profiler, and a watchdog report naming stuck PCs. The last
//! six pin the dense-buffer data path on non-zero initial words: a 2-GPU
//! `MemCombine` pull whose `dst` is also source `a` and whose `b` sits on
//! the peer, a one-warp `MemCombine` whose lanes' ranges overlap, one whose
//! buffers differ across the warp, a `MemStream` over a dense buffer, loads
//! and stores whose buffer differs across the warp, and a warp-uniform load
//! that runs past the buffer's end. The last five mix registers that hold one
//! value per warp with per-lane ones: a uniform counted loop around a
//! per-lane accumulator, a uniform load added to `Tid`, a uniform value that
//! a shuffle reads, a 48-thread multi-grid chain with a tail warp, and
//! `GpuRank * WarpId` arithmetic on two GPUs. The next four pin global
//! accesses by consecutive indices and a near miss: a store by `GlobalTid`
//! into a buffer five words short of the grid, a load through a register
//! column holding `GlobalTid + 7`, the same load through the reversed
//! column `31 − LaneId`, and a warp split at lane 16 whose halves store by
//! `LaneId` from different PCs. The last four pin the L2 atomic unit's lane
//! loop: two warps whose lanes run every read-modify-write atomic on a
//! buffer and word that differ across the warp, an `AtomicIAdd` and a
//! `Signal` by `GlobalTid` into a buffer five words short of the grid (a
//! load fault and a store fault), and a profiled `WaitGe` on per-lane flags
//! that are already set. The last three pin barrier releases that reach the
//! event queue as one run of wakes: a traced grid chain on a 2-SM V100 whose
//! eight blocks' 16-warp wake trains interleave, a profiled 3-GPU
//! multi-grid chain of 48-thread blocks (two-warp trains whose second warp
//! has 16 lanes; the ranks' identical trains tie at every wake), and a
//! 4-GPU multi-grid chain under a 10 µs watchdog that completes only
//! because a release marks its lanes' progress when the barrier resolves,
//! not when they wake.
//!
//! Any engine refactor — event queue, warp state layout, scheduling fast
//! paths — must leave every line byte-identical: these numbers are the
//! contract that performance work does not change observable simulation
//! results. If a change is *supposed* to alter timing (a calibration
//! update), rerun with
//! `UPDATE=1 cargo test -p gpu-sim --test golden_exec -- --nocapture`
//! and paste the printed block below.

use gpu_arch::GpuArch;
use gpu_node::NodeTopology;
use gpu_sim::isa::{Instr, KernelBuilder, Operand::*, ShflKind, ShflMode, Special};
use gpu_sim::kernels::{self, SyncOp};
use gpu_sim::{fimm, BufId, Buffer, GpuSystem, GridLaunch, Kernel, LaunchKind, RunOptions};
use sim_core::Ps;
use std::sync::Arc;

const GOLDEN: &str = "\
v100-1sm-tile-chain: duration=719531 instrs=70 warps=1 mem=4615ee820e3a4ee5 trace=669b18c6d2d9c95b profile=669b18c6d2d9c95b
v100-full-block-chain: duration=486181 instrs=14080 warps=640 mem=136a58ef3383c325 trace=669b18c6d2d9c95b profile=669b18c6d2d9c95b
v100-full-grid-chain: duration=6599493 instrs=6400 warps=640 mem=d23e8c6b75034565 trace=669b18c6d2d9c95b profile=669b18c6d2d9c95b
v100-dgx1-mgrid-x2-chain: duration=27133489 instrs=1280 warps=128 mem=d56e1f4004dfc325 trace=669b18c6d2d9c95b profile=669b18c6d2d9c95b
v100-dgx1-mgrid-x8-chain: duration=97394793 instrs=51200 warps=5120 mem=52a40db38e251e65 trace=7d2ccb9f74c0b976 profile=669b18c6d2d9c95b
p100-1sm-tile-chain: duration=168206 instrs=70 warps=1 mem=78de57f38c4c9b25 trace=669b18c6d2d9c95b profile=669b18c6d2d9c95b
p100-full-block-chain: duration=3938617 instrs=9856 warps=448 mem=645da4fc335fc325 trace=669b18c6d2d9c95b profile=669b18c6d2d9c95b
p100-full-grid-chain: duration=7686160 instrs=4480 warps=448 mem=622c2125989ec825 trace=669b18c6d2d9c95b profile=669b18c6d2d9c95b
p100-pair-mgrid-x2-chain: duration=30884332 instrs=320 warps=32 mem=42f25c89e507ea25 trace=669b18c6d2d9c95b profile=669b18c6d2d9c95b
v100-warp-probe: duration=10423830 instrs=192 warps=1 mem=8ca19585ec2d7783 trace=30177d782e196c25 profile=669b18c6d2d9c95b
p100-warp-probe: duration=5851996 instrs=192 warps=1 mem=e2b26dc78d4f953a trace=7a65b7fd7f4d3491 profile=669b18c6d2d9c95b
v100-warp-probe-profiled: duration=10423830 instrs=192 warps=1 mem=8ca19585ec2d7783 trace=669b18c6d2d9c95b profile=2aa79e43929c6c53
v100-diverge-reconverge: duration=168454 instrs=246 warps=6 mem=7857241057c2cd25 trace=05b925a9e0940313 profile=669b18c6d2d9c95b
v100-coalesced-partial-13: duration=918437 instrs=32 warps=2 mem=47c1c94d273c451e trace=f99d53b41c5703da profile=669b18c6d2d9c95b
v100-coalesced-partial-16x64: duration=5523625 instrs=72 warps=1 mem=3c81e69cb37177a5 trace=151ae5ac197b4994 profile=669b18c6d2d9c95b
v100-tail-warp-block-chain: duration=116775 instrs=60 warps=6 mem=89da7e66ab289925 trace=669b18c6d2d9c95b profile=93922761b9217137
v100-tail-warp-shfl-chain: duration=104480 instrs=20 warps=2 mem=68feb5e3c1f5d8a5 trace=669b18c6d2d9c95b profile=669b18c6d2d9c95b
v100-wave-fadd-chain: duration=1623849 instrs=8800 warps=400 mem=f22ffd10fc199925 trace=669b18c6d2d9c95b profile=669b18c6d2d9c95b
v100-smem-stream-40-live: duration=102440 instrs=24 warps=4 mem=7da144b97d054b25 trace=669b18c6d2d9c95b profile=669b18c6d2d9c95b
v100-mutex-chain-watchdog: duration=17510211 instrs=172 warps=8 mem=7cce356f9daa717e trace=669b18c6d2d9c95b profile=669b18c6d2d9c95b
v100-mutex-chain-8-watchdog-profiled: duration=48897093 instrs=654 warps=12 mem=2f37b23a5a4c022b trace=669b18c6d2d9c95b profile=206d5ac405db9a10
v100-spin-barrier-watchdog: duration=5354120 instrs=208 warps=8 mem=461901e66283be55 trace=669b18c6d2d9c95b profile=2ec7efb41bd53b40
v100-flag-pingpong: duration=8439789 instrs=66 warps=2 mem=56e13ec3db4605a1 trace=66b0b168f3950fac profile=669b18c6d2d9c95b
v100-split-livelock: error=Watchdog fddaf615b7b88613
v100-dgx1-mgrid-x2-combine-pull: duration=3068292 instrs=288 warps=16 mem=e5eac5433d8e281f trace=669b18c6d2d9c95b profile=669b18c6d2d9c95b
v100-combine-overlapping-lanes: duration=364210 instrs=2 warps=1 mem=76e02d657f11cdef trace=669b18c6d2d9c95b profile=669b18c6d2d9c95b
v100-combine-lane-buffers: duration=373357 instrs=5 warps=1 mem=4734d2b01a80a478 trace=669b18c6d2d9c95b profile=669b18c6d2d9c95b
v100-dense-memstream: duration=356808 instrs=16 warps=4 mem=d68683b5f09c05bd trace=669b18c6d2d9c95b profile=669b18c6d2d9c95b
v100-ldst-lane-buffers: duration=350611 instrs=14 warps=2 mem=f8841d2345e4d52d trace=669b18c6d2d9c95b profile=669b18c6d2d9c95b
v100-uniform-load-past-end: error=MemoryFault 7a8b45c215ec4b1e
v100-uniform-loop-lane-acc: duration=101379 instrs=204 warps=6 mem=d489f69e932b8d3a trace=c1b9d420b4d22f94 profile=669b18c6d2d9c95b
v100-uniform-load-plus-tid: duration=345275 instrs=20 warps=4 mem=f98521e619741b25 trace=1610a1272461a990 profile=669b18c6d2d9c95b
v100-shfl-reads-uniform: duration=38932 instrs=36 warps=4 mem=52f0b13c27a45825 trace=62ba039d6e63b276 profile=669b18c6d2d9c95b
v100-dgx1-mgrid-x2-tail-48: duration=24803680 instrs=160 warps=16 mem=f7f1737f2614b285 trace=5729f1971e524cf0 profile=669b18c6d2d9c95b
v100-dgx1-x2-rank-warp: duration=19056 instrs=126 warps=18 mem=6d3988e3ff475c25 trace=ecbe88b1d69739a3 profile=669b18c6d2d9c95b
v100-store-gtid-5-short: error=MemoryFault e972f2b6bf259a15
v100-load-col-gtid-plus-7: duration=342226 instrs=16 warps=4 mem=7f6b078fe31fa482 trace=669b18c6d2d9c95b profile=669b18c6d2d9c95b
v100-load-col-reversed: duration=342226 instrs=16 warps=4 mem=e70d5cfe1dd47a02 trace=669b18c6d2d9c95b profile=669b18c6d2d9c95b
v100-split-halves-store: duration=46495 instrs=14 warps=2 mem=cdc05adad64aca25 trace=1fff11c385dc0b95 profile=669b18c6d2d9c95b
v100-lane-atomics: duration=4525042 instrs=28 warps=2 mem=4b4ab357af1a0c01 trace=51f6cc4b3f06b688 profile=669b18c6d2d9c95b
v100-iadd-gtid-5-short: error=MemoryFault 10805bbeb43cdbc0
v100-signal-gtid-5-short: error=MemoryFault 6a24f4a951bf80e8
v100-wait-lane-flags-profiled: duration=1430369 instrs=8 warps=4 mem=daae756b97d6bf25 trace=669b18c6d2d9c95b profile=972b66864b22b789
v100-2sm-grid-8x512-traced: duration=6645829 instrs=1280 warps=128 mem=afb4da4f31ca88a5 trace=f80df6be70beba99 profile=669b18c6d2d9c95b
v100-dgx1-mgrid-x3-tail-48-profiled: duration=25682450 instrs=360 warps=36 mem=fec3c7184b950e25 trace=669b18c6d2d9c95b profile=a5241757631a0354
v100-dgx1-mgrid-x4-watchdog: duration=26345953 instrs=320 warps=32 mem=286b67b2b5188fe5 trace=669b18c6d2d9c95b profile=669b18c6d2d9c95b
";

/// FNV-1a over a byte string: a stable digest for long artifacts.
fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn sms(mut arch: GpuArch, n: u32) -> GpuArch {
    arch.num_sms = n;
    arch
}

struct Case {
    name: &'static str,
    arch: GpuArch,
    topology: NodeTopology,
    devices: Vec<usize>,
    kind: LaunchKind,
    kernel: Kernel,
    grid_dim: u32,
    block_dim: u32,
    /// Words of each buffer, allocated on every device in `devices`; a
    /// device's buffer ids are its kernel params.
    bufs: Vec<u64>,
    /// Word `i` of buffer `id` before the launch, as `init(id, i)`; buffers
    /// start zeroed without one.
    init: Option<fn(u32, u64) -> u64>,
    opts: RunOptions,
}

/// A `reps`-long chain of `op` with one output word per thread, launched
/// with the kind its barrier scope needs.
fn chain(
    name: &'static str,
    arch: GpuArch,
    topology: NodeTopology,
    devices: Vec<usize>,
    (op, reps): (SyncOp, usize),
    grid_dim: u32,
    block_dim: u32,
) -> Case {
    let kind = match op {
        SyncOp::Grid => LaunchKind::Cooperative,
        SyncOp::MultiGrid => LaunchKind::CooperativeMultiDevice,
        _ => LaunchKind::Traditional,
    };
    Case {
        name,
        arch,
        topology,
        devices,
        kind,
        kernel: kernels::sync_chain(op, reps),
        grid_dim,
        block_dim,
        bufs: vec![grid_dim as u64 * block_dim as u64],
        init: None,
        opts: RunOptions::new(),
    }
}

/// A traditional launch of `kernel` on the only device of a one-GPU node.
fn single(
    name: &'static str,
    arch: GpuArch,
    kernel: Kernel,
    grid_dim: u32,
    block_dim: u32,
    bufs: Vec<u64>,
    opts: RunOptions,
) -> Case {
    Case {
        name,
        arch,
        topology: NodeTopology::single(),
        devices: vec![0],
        kind: LaunchKind::Traditional,
        kernel,
        grid_dim,
        block_dim,
        bufs,
        init: None,
        opts,
    }
}

/// Odd lanes add 3, even lanes add 5, then the warp reconverges and runs a
/// uniform 8-trip counted loop: converged → diverged → reconverged stepping.
fn diverge_reconverge() -> Kernel {
    let mut b = KernelBuilder::new("diverge-reconverge");
    let x = b.reg();
    let c = b.reg();
    let i = b.reg();
    b.mov(x, Sp(Special::Tid));
    b.push(Instr::IAnd(c, Sp(Special::LaneId), Imm(1)));
    b.bra_ifz(Reg(c), "even");
    b.iadd(x, Reg(x), Imm(3));
    b.bra("join");
    b.label("even");
    b.iadd(x, Reg(x), Imm(5));
    b.label("join");
    b.mov(i, Imm(0));
    b.label("loop");
    b.iadd(x, Reg(x), Reg(i));
    b.iadd(i, Reg(i), Imm(1));
    b.cmp_lt(c, Reg(i), Imm(8));
    b.bra_if(Reg(c), "loop");
    b.push(Instr::StGlobal {
        buf: Param(0),
        idx: Sp(Special::GlobalTid),
        val: Reg(x),
    });
    b.exit();
    b.build(0)
}

/// Lanes below 16 wait on a flag nobody signals; the rest park at a
/// full-warp tile barrier that never completes. The watchdog report names
/// each stuck warp's PC.
fn split_livelock() -> Kernel {
    let mut b = KernelBuilder::new("split-livelock");
    let c = b.reg();
    b.cmp_lt(c, Sp(Special::LaneId), Imm(16));
    b.bra_ifz(Reg(c), "tile");
    b.wait_ge(Param(0), Imm(0), Imm(1));
    b.exit();
    b.label("tile");
    b.push(Instr::SyncTile { width: 32 });
    b.exit();
    b.build(0)
}

/// Every rank adds each rank's vector into its own scratch with grid-stride
/// starts: the allreduce pull shape. Each device holds `[scratch, vector]`,
/// so rank r's vector is buffer 2r + 1; `dst` is also source `a`, and `b`
/// sits on the peer device for every other rank.
fn combine_pull(len: u64) -> Kernel {
    let mut b = KernelBuilder::new("combine-pull");
    let r = b.reg();
    let c = b.reg();
    let peer = b.reg();
    b.mov(r, Imm(0));
    b.label("peers");
    b.cmp_lt(c, Reg(r), Sp(Special::NumGpus));
    b.bra_ifz(Reg(c), "out");
    b.imul(peer, Reg(r), Imm(2));
    b.iadd(peer, Reg(peer), Imm(1));
    b.push(Instr::MemCombine {
        dst: Param(0),
        a: Param(0),
        b: Reg(peer),
        start: Sp(Special::GlobalTid),
        stride: Sp(Special::GridThreads),
        len: Imm(len),
    });
    b.iadd(r, Reg(r), Imm(1));
    b.bra("peers");
    b.label("out");
    b.exit();
    b.build(0)
}

/// `dst = dst + src` from `start = LaneId`, `stride = 1`: each lane's range
/// overlaps the next lane's, so word i gains src[i] once per lane ≤ i, in
/// lane order.
fn combine_overlapping_lanes(len: u64) -> Kernel {
    let mut b = KernelBuilder::new("combine-overlap");
    b.push(Instr::MemCombine {
        dst: Param(0),
        a: Param(0),
        b: Param(1),
        start: Sp(Special::LaneId),
        stride: Imm(1),
        len: Imm(len),
    });
    b.exit();
    b.build(0)
}

/// Even lanes set buffer 0 from buffer 1, odd lanes buffer 1 from buffer 0,
/// each adding buffer 2, from `start = LaneId` with `stride = 1`: every lane
/// reads what the lanes before it wrote.
fn combine_lane_buffers(len: u64) -> Kernel {
    let mut b = KernelBuilder::new("combine-lane-buffers");
    let odd = b.reg();
    let dst = b.reg();
    let src = b.reg();
    b.push(Instr::IAnd(odd, Sp(Special::LaneId), Imm(1)));
    b.iadd(dst, Param(0), Reg(odd));
    b.isub(src, Param(1), Reg(odd));
    b.push(Instr::MemCombine {
        dst: Reg(dst),
        a: Reg(src),
        b: Param(2),
        start: Sp(Special::LaneId),
        stride: Imm(1),
        len: Imm(len),
    });
    b.exit();
    b.build(0)
}

/// Grid-stride `MemStream` over a dense buffer; each thread stores its sum.
fn dense_stream(len: u64) -> Kernel {
    let mut b = KernelBuilder::new("dense-stream");
    let acc = b.reg();
    b.mov(acc, Imm(0));
    b.push(Instr::MemStream {
        acc,
        buf: Param(0),
        start: Sp(Special::GlobalTid),
        stride: Sp(Special::GridThreads),
        len: Imm(len),
        flops: 1,
        eff_permille: 1000,
    });
    b.push(Instr::StGlobal {
        buf: Param(1),
        idx: Sp(Special::GlobalTid),
        val: Reg(acc),
    });
    b.exit();
    b.build(0)
}

/// Even lanes load from buffer 0 and store to buffer 1, odd lanes the
/// reverse: the buffer operand is a register that differs across the warp.
fn lane_buffers() -> Kernel {
    let mut b = KernelBuilder::new("lane-buffers");
    let odd = b.reg();
    let from = b.reg();
    let to = b.reg();
    let x = b.reg();
    b.push(Instr::IAnd(odd, Sp(Special::LaneId), Imm(1)));
    b.iadd(from, Param(0), Reg(odd));
    b.isub(to, Param(1), Reg(odd));
    b.push(Instr::LdGlobal {
        dst: x,
        buf: Reg(from),
        idx: Sp(Special::Tid),
    });
    b.iadd(x, Reg(x), Sp(Special::Tid));
    b.push(Instr::StGlobal {
        buf: Reg(to),
        idx: Sp(Special::Tid),
        val: Reg(x),
    });
    b.exit();
    b.build(0)
}

/// A warp-uniform load whose lanes 12..31 index past the buffer's end: the
/// error names the first failing lane's index.
fn uniform_load_past_end() -> Kernel {
    let mut b = KernelBuilder::new("load-past-end");
    let i = b.reg();
    let x = b.reg();
    b.iadd(i, Sp(Special::Tid), Imm(20));
    b.push(Instr::LdGlobal {
        dst: x,
        buf: Param(0),
        idx: Reg(i),
    });
    b.exit();
    b.build(0)
}

/// A per-lane accumulator (`x`, seeded from `Tid`) around a 6-trip loop
/// whose counter and branch condition hold one value for the whole warp.
fn uniform_loop_lane_acc() -> Kernel {
    let mut b = KernelBuilder::new("uniform-loop-lane-acc");
    let x = b.reg();
    let i = b.reg();
    let c = b.reg();
    b.mov(x, Sp(Special::Tid));
    b.mov(i, Imm(0));
    b.label("loop");
    b.iadd(x, Reg(x), Reg(i));
    b.imul(x, Reg(x), Imm(3));
    b.iadd(i, Reg(i), Imm(1));
    b.cmp_lt(c, Reg(i), Imm(6));
    b.bra_if(Reg(c), "loop");
    b.push(Instr::StGlobal {
        buf: Param(0),
        idx: Sp(Special::GlobalTid),
        val: Reg(x),
    });
    b.exit();
    b.build(0)
}

/// A load whose buffer and index are the same for the whole warp, added to
/// `Tid` and stored per thread.
fn uniform_load_plus_tid() -> Kernel {
    let mut b = KernelBuilder::new("uniform-load-plus-tid");
    let i = b.reg();
    let x = b.reg();
    let y = b.reg();
    b.mov(i, Imm(2));
    b.push(Instr::LdGlobal {
        dst: x,
        buf: Param(0),
        idx: Reg(i),
    });
    b.iadd(y, Reg(x), Sp(Special::Tid));
    b.push(Instr::StGlobal {
        buf: Param(1),
        idx: Sp(Special::GlobalTid),
        val: Reg(y),
    });
    b.exit();
    b.build(0)
}

/// `r` holds one value per warp but a shuffle reads it; `s` derives from
/// `r`, and `k` from `BlockId` alone.
fn shfl_reads_uniform() -> Kernel {
    let mut b = KernelBuilder::new("shfl-reads-uniform");
    let r = b.reg();
    let q = b.reg();
    let s = b.reg();
    let k = b.reg();
    b.iadd(r, Sp(Special::WarpId), Imm(7));
    b.push(Instr::Shfl {
        dst: q,
        val: Reg(r),
        kind: ShflKind::Tile,
        mode: ShflMode::Idx(3),
        width: 8,
    });
    b.imul(s, Reg(r), Imm(100));
    b.mov(k, Sp(Special::BlockId));
    b.iadd(s, Reg(s), Reg(q));
    b.iadd(s, Reg(s), Reg(k));
    b.iadd(s, Reg(s), Sp(Special::LaneId));
    b.push(Instr::StGlobal {
        buf: Param(0),
        idx: Sp(Special::GlobalTid),
        val: Reg(s),
    });
    b.exit();
    b.build(0)
}

/// `GpuRank * WarpId + BlockId`, one value per warp, stored per thread and
/// scaled into a per-thread sum with `GlobalTid`.
fn rank_warp_arith() -> Kernel {
    let mut b = KernelBuilder::new("rank-warp-arith");
    let r = b.reg();
    let y = b.reg();
    b.imul(r, Sp(Special::GpuRank), Sp(Special::WarpId));
    b.iadd(r, Reg(r), Sp(Special::BlockId));
    b.push(Instr::StGlobal {
        buf: Param(0),
        idx: Sp(Special::GlobalTid),
        val: Reg(r),
    });
    b.imul(y, Reg(r), Imm(1000));
    b.iadd(y, Reg(y), Sp(Special::GlobalTid));
    b.push(Instr::StGlobal {
        buf: Param(1),
        idx: Sp(Special::GlobalTid),
        val: Reg(y),
    });
    b.exit();
    b.build(0)
}

/// Every thread stores `GlobalTid + 1` at `GlobalTid`.
fn store_gtid() -> Kernel {
    let mut b = KernelBuilder::new("store-gtid");
    let x = b.reg();
    b.iadd(x, Sp(Special::GlobalTid), Imm(1));
    b.push(Instr::StGlobal {
        buf: Param(0),
        idx: Sp(Special::GlobalTid),
        val: Reg(x),
    });
    b.exit();
    b.build(0)
}

/// Each thread loads buffer 0 at the index that `index` writes into a
/// register column, and stores the word to buffer 1 at `GlobalTid`.
fn load_through_column(index: fn(gpu_sim::isa::Reg) -> Instr) -> Kernel {
    let mut b = KernelBuilder::new("load-through-column");
    let i = b.reg();
    let x = b.reg();
    b.push(index(i));
    b.push(Instr::LdGlobal {
        dst: x,
        buf: Param(0),
        idx: Reg(i),
    });
    b.push(Instr::StGlobal {
        buf: Param(1),
        idx: Sp(Special::GlobalTid),
        val: Reg(x),
    });
    b.exit();
    b.build(0)
}

/// Lanes below 16 store `Tid + 100` at `LaneId`; the rest branch away and
/// store `Tid` at `LaneId` from another PC.
fn split_halves_store() -> Kernel {
    let mut b = KernelBuilder::new("split-halves-store");
    let c = b.reg();
    let x = b.reg();
    b.cmp_lt(c, Sp(Special::LaneId), Imm(16));
    b.bra_ifz(Reg(c), "high");
    b.iadd(x, Sp(Special::Tid), Imm(100));
    b.push(Instr::StGlobal {
        buf: Param(0),
        idx: Sp(Special::LaneId),
        val: Reg(x),
    });
    b.exit();
    b.label("high");
    b.push(Instr::StGlobal {
        buf: Param(0),
        idx: Sp(Special::LaneId),
        val: Sp(Special::Tid),
    });
    b.exit();
    b.build(0)
}

/// Each lane picks buffer `LaneId & 1` and word `LaneId >> 1` of it (read
/// from buffer 2, see [`pair_words`]), runs `AtomicFAdd`, `AtomicIAdd`,
/// `AtomicExch` and `AtomicCas` on that word, and stores the four old
/// values to buffers 3–6 at `GlobalTid`. The exchange writes
/// `LaneId + 100` and the CAS compares with that plus `LaneId & 1`, so only
/// even lanes can win it. Every warp of the block hits the same 32 words.
fn lane_atomics() -> Kernel {
    let mut b = KernelBuilder::new("lane-atomics");
    let odd = b.reg();
    let buf = b.reg();
    let word = b.reg();
    let x = b.reg();
    let cmp = b.reg();
    let olds = [b.reg(), b.reg(), b.reg(), b.reg()];
    b.push(Instr::IAnd(odd, Sp(Special::LaneId), Imm(1)));
    b.iadd(buf, Param(0), Reg(odd));
    b.push(Instr::LdGlobal {
        dst: word,
        buf: Param(2),
        idx: Sp(Special::LaneId),
    });
    b.push(Instr::AtomicFAdd {
        dst_old: Some(olds[0]),
        buf: Reg(buf),
        idx: Reg(word),
        val: fimm(0.25),
    });
    b.push(Instr::AtomicIAdd {
        dst_old: Some(olds[1]),
        buf: Reg(buf),
        idx: Reg(word),
        val: Sp(Special::GlobalTid),
    });
    b.iadd(x, Sp(Special::LaneId), Imm(100));
    b.push(Instr::AtomicExch {
        dst_old: Some(olds[2]),
        buf: Reg(buf),
        idx: Reg(word),
        val: Reg(x),
    });
    b.iadd(cmp, Reg(x), Reg(odd));
    b.push(Instr::AtomicCas {
        dst_old: Some(olds[3]),
        buf: Reg(buf),
        idx: Reg(word),
        cmp: Reg(cmp),
        val: Sp(Special::GlobalTid),
    });
    for (k, &old) in (3..).zip(&olds) {
        b.push(Instr::StGlobal {
            buf: Param(k),
            idx: Sp(Special::GlobalTid),
            val: Reg(old),
        });
    }
    b.exit();
    b.build(0)
}

/// One instruction, `instr`, then exit.
fn just(name: &str, instr: Instr) -> Kernel {
    let mut b = KernelBuilder::new(name);
    b.push(instr);
    b.exit();
    b.build(0)
}

/// Buffer 2 holds `i >> 1` at word `i` (the ISA has no shift); every other
/// buffer holds [`f64_words`].
fn pair_words(id: u32, i: u64) -> u64 {
    if id == 2 {
        i >> 1
    } else {
        f64_words(id, i)
    }
}

/// f64 words whose sums round differently in a different order.
fn f64_words(id: u32, i: u64) -> u64 {
    ((id + 1) as f64 * 0.3 + i as f64 * 0.1).to_bits()
}

fn int_words(id: u32, i: u64) -> u64 {
    id as u64 * 1000 + i
}

fn cases() -> Vec<Case> {
    let (v100, p100) = (GpuArch::v100(), GpuArch::p100());
    let one = NodeTopology::single;
    let new = RunOptions::new;
    let traced = || RunOptions::new().trace(4096);
    let watchdog = || RunOptions::new().watchdog(Ps(10_000_000));
    vec![
        chain(
            "v100-1sm-tile-chain",
            sms(v100.clone(), 1),
            one(),
            vec![0],
            (SyncOp::Tile(32), 64),
            1,
            32,
        ),
        chain(
            "v100-full-block-chain",
            v100.clone(),
            one(),
            vec![0],
            (SyncOp::Block, 16),
            80,
            256,
        ),
        chain(
            "v100-full-grid-chain",
            v100.clone(),
            one(),
            vec![0],
            (SyncOp::Grid, 4),
            80,
            256,
        ),
        chain(
            "v100-dgx1-mgrid-x2-chain",
            v100.clone(),
            NodeTopology::dgx1_v100(),
            vec![0, 1],
            (SyncOp::MultiGrid, 4),
            16,
            128,
        ),
        Case {
            opts: traced(),
            ..chain(
                "v100-dgx1-mgrid-x8-chain",
                v100.clone(),
                NodeTopology::dgx1_v100(),
                (0..8).collect(),
                (SyncOp::MultiGrid, 4),
                80,
                256,
            )
        },
        chain(
            "p100-1sm-tile-chain",
            sms(p100.clone(), 1),
            one(),
            vec![0],
            (SyncOp::Tile(32), 64),
            1,
            32,
        ),
        chain(
            "p100-full-block-chain",
            p100.clone(),
            one(),
            vec![0],
            (SyncOp::Block, 16),
            56,
            256,
        ),
        chain(
            "p100-full-grid-chain",
            p100.clone(),
            one(),
            vec![0],
            (SyncOp::Grid, 4),
            56,
            256,
        ),
        chain(
            "p100-pair-mgrid-x2-chain",
            p100.clone(),
            NodeTopology::p100_pair(),
            vec![0, 1],
            (SyncOp::MultiGrid, 4),
            8,
            64,
        ),
        single(
            "v100-warp-probe",
            sms(v100.clone(), 1),
            kernels::warp_probe(),
            1,
            32,
            vec![32, 32],
            traced(),
        ),
        single(
            "p100-warp-probe",
            sms(p100, 1),
            kernels::warp_probe(),
            1,
            32,
            vec![32, 32],
            traced(),
        ),
        single(
            "v100-warp-probe-profiled",
            sms(v100.clone(), 1),
            kernels::warp_probe(),
            1,
            32,
            vec![32, 32],
            new().profile(),
        ),
        single(
            "v100-diverge-reconverge",
            sms(v100.clone(), 2),
            diverge_reconverge(),
            3,
            64,
            vec![3 * 64],
            traced(),
        ),
        single(
            "v100-coalesced-partial-13",
            sms(v100.clone(), 1),
            kernels::coalesced_partial_chain(13, 8),
            1,
            64,
            vec![64],
            traced(),
        ),
        single(
            "v100-coalesced-partial-16x64",
            sms(v100.clone(), 1),
            kernels::coalesced_partial_chain(16, 64),
            1,
            32,
            vec![32],
            traced(),
        ),
        single(
            "v100-tail-warp-block-chain",
            sms(v100.clone(), 1),
            kernels::sync_chain(SyncOp::Block, 4),
            3,
            48,
            vec![3 * 48],
            new().profile(),
        ),
        single(
            "v100-tail-warp-shfl-chain",
            sms(v100.clone(), 1),
            kernels::sync_chain(SyncOp::ShflTile, 4),
            1,
            40,
            vec![40],
            new(),
        ),
        single(
            "v100-wave-fadd-chain",
            sms(v100.clone(), 2),
            kernels::fadd32_chain(16),
            200,
            64,
            vec![200 * 64],
            new(),
        ),
        single(
            "v100-smem-stream-40-live",
            sms(v100.clone(), 1),
            kernels::smem_stream_kernel(256, 40),
            2,
            64,
            vec![64],
            new(),
        ),
        single(
            "v100-mutex-chain-watchdog",
            sms(v100.clone(), 2),
            kernels::mutex_chain(4),
            4,
            64,
            vec![4, 1],
            watchdog(),
        ),
        single(
            "v100-mutex-chain-8-watchdog-profiled",
            sms(v100.clone(), 4),
            kernels::mutex_chain(8),
            6,
            64,
            vec![6, 1],
            watchdog().profile(),
        ),
        single(
            "v100-spin-barrier-watchdog",
            sms(v100.clone(), 4),
            kernels::spin_barrier_chain(3),
            8,
            32,
            vec![8, 1],
            watchdog().profile(),
        ),
        single(
            "v100-flag-pingpong",
            sms(v100.clone(), 2),
            kernels::flag_pingpong_chain(3),
            2,
            32,
            vec![2, 2],
            traced(),
        ),
        single(
            "v100-split-livelock",
            sms(v100.clone(), 1),
            split_livelock(),
            2,
            64,
            vec![1],
            watchdog(),
        ),
        Case {
            name: "v100-dgx1-mgrid-x2-combine-pull",
            arch: sms(v100.clone(), 2),
            topology: NodeTopology::dgx1_v100(),
            devices: vec![0, 1],
            kind: LaunchKind::CooperativeMultiDevice,
            kernel: combine_pull(1000),
            grid_dim: 4,
            block_dim: 64,
            bufs: vec![1000, 1000],
            init: Some(f64_words),
            opts: new(),
        },
        Case {
            init: Some(f64_words),
            ..single(
                "v100-combine-overlapping-lanes",
                sms(v100.clone(), 1),
                combine_overlapping_lanes(48),
                1,
                32,
                vec![48, 48],
                new(),
            )
        },
        Case {
            init: Some(f64_words),
            ..single(
                "v100-combine-lane-buffers",
                sms(v100.clone(), 1),
                combine_lane_buffers(48),
                1,
                32,
                vec![48, 48, 48],
                new(),
            )
        },
        Case {
            init: Some(f64_words),
            ..single(
                "v100-dense-memstream",
                sms(v100.clone(), 2),
                dense_stream(1000),
                2,
                64,
                vec![1000, 128],
                new(),
            )
        },
        Case {
            init: Some(int_words),
            ..single(
                "v100-ldst-lane-buffers",
                sms(v100.clone(), 1),
                lane_buffers(),
                1,
                64,
                vec![64, 64],
                new(),
            )
        },
        single(
            "v100-uniform-load-past-end",
            sms(v100.clone(), 1),
            uniform_load_past_end(),
            1,
            32,
            vec![32],
            new(),
        ),
        single(
            "v100-uniform-loop-lane-acc",
            sms(v100.clone(), 2),
            uniform_loop_lane_acc(),
            3,
            64,
            vec![3 * 64],
            traced(),
        ),
        Case {
            init: Some(int_words),
            ..single(
                "v100-uniform-load-plus-tid",
                sms(v100.clone(), 1),
                uniform_load_plus_tid(),
                2,
                64,
                vec![8, 2 * 64],
                traced(),
            )
        },
        single(
            "v100-shfl-reads-uniform",
            sms(v100.clone(), 2),
            shfl_reads_uniform(),
            2,
            64,
            vec![2 * 64],
            traced(),
        ),
        Case {
            opts: traced(),
            ..chain(
                "v100-dgx1-mgrid-x2-tail-48",
                sms(v100.clone(), 2),
                NodeTopology::dgx1_v100(),
                vec![0, 1],
                (SyncOp::MultiGrid, 4),
                4,
                48,
            )
        },
        Case {
            name: "v100-dgx1-x2-rank-warp",
            arch: sms(v100.clone(), 2),
            topology: NodeTopology::dgx1_v100(),
            devices: vec![0, 1],
            kind: LaunchKind::CooperativeMultiDevice,
            kernel: rank_warp_arith(),
            grid_dim: 3,
            block_dim: 96,
            bufs: vec![3 * 96, 3 * 96],
            init: None,
            opts: traced(),
        },
        single(
            "v100-store-gtid-5-short",
            sms(v100.clone(), 1),
            store_gtid(),
            2,
            64,
            vec![2 * 64 - 5],
            new(),
        ),
        Case {
            init: Some(int_words),
            ..single(
                "v100-load-col-gtid-plus-7",
                sms(v100.clone(), 1),
                load_through_column(|i| Instr::IAdd(i, Sp(Special::GlobalTid), Imm(7))),
                2,
                64,
                vec![2 * 64 + 7, 2 * 64],
                new(),
            )
        },
        Case {
            init: Some(int_words),
            ..single(
                "v100-load-col-reversed",
                sms(v100.clone(), 1),
                load_through_column(|i| Instr::ISub(i, Imm(31), Sp(Special::LaneId))),
                2,
                64,
                vec![2 * 64 + 7, 2 * 64],
                new(),
            )
        },
        single(
            "v100-split-halves-store",
            sms(v100.clone(), 1),
            split_halves_store(),
            1,
            64,
            vec![32],
            traced(),
        ),
        Case {
            init: Some(pair_words),
            ..single(
                "v100-lane-atomics",
                sms(v100.clone(), 1),
                lane_atomics(),
                1,
                64,
                vec![16, 16, 32, 64, 64, 64, 64],
                traced(),
            )
        },
        single(
            "v100-iadd-gtid-5-short",
            sms(v100.clone(), 1),
            just(
                "iadd-gtid",
                Instr::AtomicIAdd {
                    dst_old: None,
                    buf: Param(0),
                    idx: Sp(Special::GlobalTid),
                    val: Imm(1),
                },
            ),
            2,
            64,
            vec![2 * 64 - 5],
            new(),
        ),
        single(
            "v100-signal-gtid-5-short",
            sms(v100.clone(), 1),
            just(
                "signal-gtid",
                Instr::Signal {
                    buf: Param(0),
                    idx: Sp(Special::GlobalTid),
                    val: Imm(1),
                },
            ),
            2,
            64,
            vec![2 * 64 - 5],
            new(),
        ),
        Case {
            init: Some(int_words),
            ..single(
                "v100-wait-lane-flags-profiled",
                sms(v100.clone(), 1),
                just(
                    "wait-lane-flags",
                    Instr::WaitGe {
                        buf: Param(0),
                        idx: Sp(Special::GlobalTid),
                        target: Sp(Special::GlobalTid),
                    },
                ),
                2,
                64,
                vec![2 * 64],
                new().profile(),
            )
        },
        Case {
            opts: traced(),
            ..chain(
                "v100-2sm-grid-8x512-traced",
                sms(v100.clone(), 2),
                one(),
                vec![0],
                (SyncOp::Grid, 4),
                8,
                512,
            )
        },
        Case {
            opts: new().profile(),
            ..chain(
                "v100-dgx1-mgrid-x3-tail-48-profiled",
                sms(v100.clone(), 2),
                NodeTopology::dgx1_v100(),
                vec![0, 1, 2],
                (SyncOp::MultiGrid, 4),
                6,
                48,
            )
        },
        Case {
            opts: watchdog(),
            ..chain(
                "v100-dgx1-mgrid-x4-watchdog",
                sms(v100, 2),
                NodeTopology::dgx1_v100(),
                (0..4).collect(),
                (SyncOp::MultiGrid, 4),
                4,
                64,
            )
        },
    ]
}

/// A fresh system for `c` with its buffers allocated, and the launch.
fn prepare(c: &Case) -> (GpuSystem, GridLaunch, Vec<BufId>) {
    let mut sys = GpuSystem::new(c.arch.clone(), Arc::new(c.topology.clone()));
    let mut bufs = Vec::new();
    let params = c
        .devices
        .iter()
        .map(|&d| {
            c.bufs
                .iter()
                .map(|&words| {
                    let b = sys.alloc(d, words);
                    if let Some(init) = c.init {
                        for i in 0..words {
                            sys.buffer_mut(b).store(i, init(b.0, i)).unwrap();
                        }
                    }
                    bufs.push(b);
                    b.0 as u64
                })
                .collect()
        })
        .collect();
    let launch = GridLaunch::new(
        c.kernel.clone(),
        c.grid_dim,
        c.block_dim,
        c.kind,
        c.devices.clone(),
        params,
    );
    (sys, launch, bufs)
}

fn run_case(c: &Case) -> String {
    let (mut sys, launch, bufs) = prepare(c);
    match sys.execute(&launch, &c.opts) {
        Ok(arts) => {
            let mem: Vec<u8> = bufs
                .iter()
                .flat_map(|&b| sys.read_u64(b))
                .flat_map(u64::to_le_bytes)
                .collect();
            format!(
                "{}: duration={} instrs={} warps={} mem={:016x} trace={:016x} profile={:016x}\n",
                c.name,
                arts.report.duration.0,
                arts.report.instrs_executed,
                arts.report.warps_run,
                digest(&mem),
                digest(format!("{:?}", arts.trace).as_bytes()),
                digest(format!("{:?}", arts.profile).as_bytes()),
            )
        }
        Err(e) => {
            let text = format!("{e:?}");
            let kind = text.split([' ', '{', '(']).next().unwrap_or_default();
            format!(
                "{}: error={kind} {:016x}\n",
                c.name,
                digest(text.as_bytes())
            )
        }
    }
}

#[test]
fn golden_exec_reports_are_stable() {
    let actual: String = cases().iter().map(run_case).collect();
    if std::env::var_os("UPDATE").is_some() {
        println!("--- paste into GOLDEN ---\n{actual}--- end ---");
    }
    assert_eq!(
        actual, GOLDEN,
        "a snapshot drifted from GOLDEN; if the timing change is \
         intentional, rerun with UPDATE=1 and refresh GOLDEN"
    );
}

/// What one launch leaves behind: its `ExecReport` or the text of its
/// error, and every buffer, with the stores a failed launch made before it
/// failed.
type Outcome = (Result<(Ps, u64, u64), String>, Vec<Buffer>);

/// Run `launch` on `sys` under `opts`, and take `bufs` afterwards.
fn outcome(mut sys: GpuSystem, launch: &GridLaunch, bufs: &[BufId], opts: &RunOptions) -> Outcome {
    let report = match sys.execute(launch, opts) {
        Ok(arts) => Ok((
            arts.report.duration,
            arts.report.instrs_executed,
            arts.report.warps_run,
        )),
        Err(e) => Err(format!("{e:?}")),
    };
    let bufs = bufs.iter().map(|&b| sys.buffer(b).clone()).collect();
    (report, bufs)
}

/// The snapshots must not depend on instrumentation: a checked, traced and
/// profiled run of every case reports the same `ExecReport`, leaves the same
/// word in every buffer and fails with the same error text as the bare run.
/// The armed global racecheck keeps every `LdGlobal` and `StGlobal` on the
/// per-lane loop, so this also holds the coalesced path to that loop.
#[test]
fn golden_reports_insensitive_to_instrumentation() {
    for c in &cases() {
        let run = |opts: &RunOptions| {
            let (sys, launch, bufs) = prepare(c);
            outcome(sys, &launch, &bufs, opts)
        };
        let checked = c.opts.clone().check().trace(64).profile();
        assert_eq!(run(&c.opts), run(&checked), "{}", c.name);
    }
}

/// Seeded launches that load and store through generated index shapes, each
/// run bare and under `check()`. The armed racecheck keeps global accesses
/// on the per-lane loop, so the bare run's coalesced accesses must match it
/// in the report, every buffer word and the error text. Indices: the three
/// lane-affine specials, `GlobalTid + k`, `2·LaneId`, `k − LaneId` and a
/// column copied from `GlobalTid`. Groups: the full warp, a tail warp,
/// lanes below `k` and the even lanes. Buffers: an exact fit, one 1–40
/// words short, and synthetic buffers of 2^12 words (a store densifies them)
/// and of 2^22 + 1 (a store fails).
#[test]
fn coalesced_access_matches_the_per_lane_loop() {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut rng = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
        state >> 16
    };
    let mut failed = 0;
    for case in 0..320 {
        let (shape, group, fit) = (case % 7, case / 7 % 4, case / 28 % 4);
        let k = 1 + rng() % 31;
        let grid_dim = 1 + rng() as u32 % 3;
        let block_dim = if group == 1 { 48 } else { 64 };
        let threads = grid_dim as u64 * block_dim as u64;

        let mut b = KernelBuilder::new("index-shapes");
        let (c, i, x) = (b.reg(), b.reg(), b.reg());
        let (gtid, lane) = (Sp(Special::GlobalTid), Sp(Special::LaneId));
        let idx = match shape {
            0 => gtid,
            1 => Sp(Special::Tid),
            2 => lane,
            3 => {
                b.iadd(i, gtid, Imm(k));
                Reg(i)
            }
            4 => {
                b.imul(i, lane, Imm(2));
                Reg(i)
            }
            5 => {
                b.isub(i, Imm(k), lane);
                Reg(i)
            }
            _ => {
                b.mov(i, gtid);
                Reg(i)
            }
        };
        // The largest index any thread uses; `k − LaneId` wraps past every
        // buffer for lanes above `k`.
        let top = match shape {
            0 | 6 => threads - 1,
            1 => block_dim as u64 - 1,
            2 => 31,
            3 => threads - 1 + k,
            4 => 62,
            _ => k,
        };
        match group {
            2 => {
                b.cmp_lt(c, lane, Imm(k));
                b.bra_ifz(Reg(c), "out");
            }
            3 => {
                b.push(Instr::IAnd(c, lane, Imm(1)));
                b.bra_if(Reg(c), "out");
            }
            _ => {}
        }
        b.push(Instr::LdGlobal {
            dst: x,
            buf: Param(0),
            idx,
        });
        b.iadd(x, Reg(x), Sp(Special::Tid));
        b.push(Instr::StGlobal {
            buf: Param(1),
            idx,
            val: Reg(x),
        });
        b.label("out");
        b.exit();
        let kernel = b.build(0);

        let mut sys = GpuSystem::new(sms(GpuArch::v100(), 2), Arc::new(NodeTopology::single()));
        // A short buffer is the load's or the store's.
        let (short, shorted) = (1 + rng() % 40, rng() % 2);
        let bufs: Vec<BufId> = match fit {
            0 | 1 => (0..2)
                .map(|id| {
                    let cut = if fit == 1 && id == shorted { short } else { 0 };
                    let words = (top + 1).saturating_sub(cut);
                    let buf = sys.alloc(0, words);
                    for w in 0..words {
                        sys.buffer_mut(buf)
                            .store(w, int_words(id as u32, w) + 1)
                            .unwrap();
                    }
                    buf
                })
                .collect(),
            _ => {
                let words = if fit == 2 { 1 << 12 } else { (1 << 22) + 1 };
                (0..2)
                    .map(|id| sys.alloc_linear(0, id as f64, 0.5, words))
                    .collect()
            }
        };
        let params = bufs.iter().map(|b| b.0 as u64).collect();
        let launch = GridLaunch::single(kernel, grid_dim, block_dim, params);
        let bare = outcome(sys.clone(), &launch, &bufs, &RunOptions::new());
        let checked = outcome(sys, &launch, &bufs, &RunOptions::new().check());
        assert_eq!(
            bare, checked,
            "case {case}: shape {shape}, group {group}, fit {fit}, k {k}"
        );
        failed += bare.0.is_err() as u32;
    }
    // Both outcomes must be common, or the shapes test less than they name.
    assert!(
        (100..220).contains(&failed),
        "{failed} of 320 launches failed"
    );
}
