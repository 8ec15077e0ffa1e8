//! Fault injection and the progress watchdog, end to end: livelocks caught
//! at every barrier scope, killed blocks surfacing as ordered deadlocks,
//! seeded jitter staying byte-deterministic, and the zero-fault/unarmed
//! configuration leaving reports untouched.

use gpu_arch::GpuArch;
use gpu_node::NodeTopology;
use gpu_sim::isa::{Instr, KernelBuilder, Operand::*, Special};
use gpu_sim::kernels::{self, SyncOp};
use gpu_sim::{FaultPlan, GpuSystem, GridLaunch, RunOptions};
use sim_core::{Ps, SimError, StuckKind};

fn v100_small(sms: u32) -> GpuArch {
    let mut a = GpuArch::v100();
    a.num_sms = sms;
    a
}

/// 10 us of simulated time with no PC-watermark advance or retirement.
const BUDGET: Ps = Ps(10_000_000);

/// A multi-device launch over `devices`, mirroring the §VIII-B probes.
fn mgrid_launch(kernel: gpu_sim::Kernel, grid_dim: u32, block_dim: u32) -> GridLaunch {
    GridLaunch::multi(
        kernel,
        grid_dim,
        block_dim,
        vec![0, 1],
        vec![vec![], vec![]],
    )
}

// ---------- watchdog: livelocks at each barrier scope -------------------------

/// Spin loop: `label("spin"); bra("spin")` — the PC watermark never
/// advances, so only the watchdog can end the run.
fn spin_forever(b: &mut KernelBuilder) {
    b.label("spin");
    b.bra("spin");
}

/// A kernel whose only work is waiting on a flag cell nobody ever signals.
fn wait_forever() -> gpu_sim::Kernel {
    let mut b = KernelBuilder::new("wait-forever");
    b.wait_ge(Param(0), Imm(0), Imm(1));
    b.exit();
    b.build(0)
}

#[test]
fn watchdog_catches_unsignalled_flag_wait_of_a_lone_warp() {
    // A single lone warp: after launch the warp's own `WaitGe` retry is the
    // only queued event, so each poll is one pop, and the watchdog check at
    // that pop is the only one that can end the run.
    let mut sys = GpuSystem::single(v100_small(1));
    let flag = sys.alloc(0, 1);
    let r = sys.execute(
        &GridLaunch::single(wait_forever(), 1, 32, vec![flag.0 as u64]),
        &RunOptions::new().watchdog(BUDGET),
    );
    match r {
        Err(SimError::Watchdog {
            at,
            last_progress,
            stuck,
            ..
        }) => {
            assert!(at >= BUDGET, "{at}");
            assert!(last_progress < at);
            assert_eq!(stuck.len(), 1, "{stuck:?}");
            assert_eq!(stuck[0].waiting, StuckKind::Spinning);
            // The top of the spin is the WaitGe itself (pc 0).
            assert_eq!(stuck[0].pc, 0);
        }
        other => panic!("expected watchdog, got {other:?}"),
    }
}

#[test]
fn watchdog_catches_unsignalled_flag_wait_in_pop_loop() {
    // Several warps across several SMs all poll the dead flag, their retry
    // events interleaved in the queue: the watchdog must fire, and every
    // stuck warp must classify as spinning.
    let mut sys = GpuSystem::single(v100_small(2));
    let flag = sys.alloc(0, 1);
    let r = sys.execute(
        &GridLaunch::single(wait_forever(), 4, 64, vec![flag.0 as u64]),
        &RunOptions::new().watchdog(BUDGET),
    );
    match r {
        Err(SimError::Watchdog { at, stuck, .. }) => {
            assert!(at >= BUDGET, "{at}");
            // 4 blocks x 2 warps, sorted by (rank, sm, block, warp).
            assert_eq!(stuck.len(), 8, "{stuck:?}");
            assert!(stuck.iter().all(|s| s.waiting == StuckKind::Spinning));
            assert!(stuck.iter().all(|s| s.pc == 0));
            let sorted: Vec<_> = {
                let mut v = stuck.clone();
                v.sort();
                v
            };
            assert_eq!(stuck, sorted, "stuck warps must be reported sorted");
        }
        other => panic!("expected watchdog, got {other:?}"),
    }
}

#[test]
fn signalled_flag_wait_completes_without_watchdog() {
    // The same wait, but block 1 signals the flag: the waiters in block 0
    // proceed and the armed watchdog stays quiet.
    let mut b = KernelBuilder::new("signal-then-wait");
    let c = b.reg();
    b.cmp_eq(c, Sp(Special::BlockId), Imm(1));
    b.bra_ifz(Reg(c), "wait");
    b.signal(Param(0), Imm(0), Imm(1));
    b.exit();
    b.label("wait");
    b.wait_ge(Param(0), Imm(0), Imm(1));
    b.exit();
    let mut sys = GpuSystem::single(v100_small(2));
    let flag = sys.alloc(0, 1);
    sys.execute(
        &GridLaunch::single(b.build(0), 2, 32, vec![flag.0 as u64]),
        &RunOptions::new().watchdog(BUDGET),
    )
    .expect("signalled wait must complete");
    assert_eq!(sys.buffer(flag).load(0).unwrap(), 1);
}

#[test]
fn watchdog_catches_spin_against_a_half_warp_tile_barrier() {
    // Lanes >= 16 spin forever; lanes < 16 wait at a full-warp tile
    // barrier that can complete only when the spinners arrive.
    let mut b = KernelBuilder::new("tile-livelock");
    let c = b.reg();
    b.cmp_lt(c, Sp(Special::LaneId), Imm(16));
    b.bra_ifz(Reg(c), "spin");
    b.push(Instr::SyncTile { width: 32 });
    b.exit();
    spin_forever(&mut b);
    let r = GpuSystem::single(v100_small(1)).execute(
        &GridLaunch::single(b.build(0), 1, 32, vec![]),
        &RunOptions::new().watchdog(BUDGET),
    );
    match r {
        Err(SimError::Watchdog {
            at,
            last_progress,
            stuck,
            ..
        }) => {
            assert!(at >= BUDGET, "{at}");
            assert!(last_progress < at);
            assert!(!stuck.is_empty());
            // The one warp holds both halves; the waiting lanes registered
            // at the tile barrier (that wait dominates the classification),
            // while the spinning half keeps it from ever completing.
            assert_eq!(stuck[0].warp, 0);
            assert_eq!(stuck[0].waiting, StuckKind::TileBarrier);
        }
        other => panic!("expected watchdog, got {other:?}"),
    }
}

#[test]
fn watchdog_catches_spin_against_a_partial_block_barrier() {
    // Warp 1 spins forever; warp 0 waits at __syncthreads.
    let mut b = KernelBuilder::new("block-livelock");
    let c = b.reg();
    b.cmp_lt(c, Sp(Special::Tid), Imm(32));
    b.bra_ifz(Reg(c), "spin");
    b.bar_sync();
    b.exit();
    spin_forever(&mut b);
    let r = GpuSystem::single(v100_small(1)).execute(
        &GridLaunch::single(b.build(0), 1, 64, vec![]),
        &RunOptions::new().watchdog(BUDGET),
    );
    match r {
        Err(SimError::Watchdog { stuck, .. }) => {
            let kinds: Vec<StuckKind> = stuck.iter().map(|s| s.waiting).collect();
            assert!(kinds.contains(&StuckKind::BlockBarrier), "{stuck:?}");
            assert!(kinds.contains(&StuckKind::Spinning), "{stuck:?}");
            // Sorted by (rank, sm, block, warp): warp 0 first.
            assert_eq!(stuck[0].warp, 0);
            assert_eq!(stuck[1].warp, 1);
        }
        other => panic!("expected watchdog, got {other:?}"),
    }
}

#[test]
fn watchdog_catches_spin_against_a_subset_grid_barrier() {
    // Block 3 spins forever; blocks 0-2 wait at grid.sync().
    let mut b = KernelBuilder::new("grid-livelock");
    let c = b.reg();
    b.cmp_eq(c, Sp(Special::BlockId), Imm(3));
    b.bra_if(Reg(c), "spin");
    b.grid_sync();
    b.exit();
    spin_forever(&mut b);
    let r = GpuSystem::single(v100_small(4)).execute(
        &GridLaunch::single(b.build(0), 4, 32, vec![]).cooperative(),
        &RunOptions::new().watchdog(BUDGET),
    );
    match r {
        Err(SimError::Watchdog { stuck, .. }) => {
            assert_eq!(stuck.len(), 4);
            let grid_waiters = stuck
                .iter()
                .filter(|s| s.waiting == StuckKind::GridBarrier)
                .count();
            let spinners = stuck
                .iter()
                .filter(|s| s.waiting == StuckKind::Spinning)
                .count();
            assert_eq!((grid_waiters, spinners), (3, 1), "{stuck:?}");
            // Deterministic order: sorted by (rank, sm, block, warp).
            let mut sorted = stuck.clone();
            sorted.sort_unstable();
            assert_eq!(stuck, sorted);
        }
        other => panic!("expected watchdog, got {other:?}"),
    }
}

#[test]
fn watchdog_catches_spin_against_a_subset_multi_grid_barrier() {
    // Device rank 1 spins forever; rank 0 waits at multi_grid.sync().
    let mut b = KernelBuilder::new("mgrid-livelock");
    let c = b.reg();
    b.cmp_eq(c, Sp(Special::GpuRank), Imm(1));
    b.bra_if(Reg(c), "spin");
    b.multi_grid_sync();
    b.exit();
    spin_forever(&mut b);
    let r = GpuSystem::new(v100_small(2), NodeTopology::dgx1_v100()).execute(
        &mgrid_launch(b.build(0), 2, 32),
        &RunOptions::new().watchdog(BUDGET),
    );
    match r {
        Err(SimError::Watchdog { stuck, .. }) => {
            let waiting: Vec<u32> = stuck
                .iter()
                .filter(|s| s.waiting == StuckKind::MultiGridBarrier)
                .map(|s| s.rank)
                .collect();
            let spinning: Vec<u32> = stuck
                .iter()
                .filter(|s| s.waiting == StuckKind::Spinning)
                .map(|s| s.rank)
                .collect();
            assert_eq!(waiting, vec![0, 0], "{stuck:?}");
            assert_eq!(spinning, vec![1, 1], "{stuck:?}");
            // rank is the leading sort key.
            let ranks: Vec<u32> = stuck.iter().map(|s| s.rank).collect();
            assert_eq!(ranks, vec![0, 0, 1, 1]);
        }
        other => panic!("expected watchdog, got {other:?}"),
    }
}

#[test]
fn armed_watchdog_never_fires_on_healthy_barrier_waits() {
    // A real grid-sync chain parks warps at barriers for long stretches;
    // barrier releases count as progress, so the watchdog must stay quiet
    // even with a budget far below the total runtime.
    let mut sys = GpuSystem::single(v100_small(4));
    let l = GridLaunch::single(kernels::sync_throughput(SyncOp::Grid, 64), 4, 128, vec![])
        .cooperative();
    let plain = sys.execute(&l, &RunOptions::new()).unwrap().report;
    sys.reset();
    let watched = sys
        .execute(&l, &RunOptions::new().watchdog(Ps(plain.duration.0 / 8)))
        .unwrap()
        .report;
    assert_eq!(plain, watched);
}

// ---------- killed blocks -----------------------------------------------------

#[test]
fn killed_block_hangs_the_grid_barrier_as_an_ordered_deadlock() {
    let plan = FaultPlan::seeded(3).kill_block(0, 1);
    let mut sys = GpuSystem::single(v100_small(4));
    let l =
        GridLaunch::single(kernels::sync_throughput(SyncOp::Grid, 2), 4, 32, vec![]).cooperative();
    match sys.execute(&l, &RunOptions::new().faults(plan)) {
        Err(SimError::Deadlock { blocked, .. }) => {
            assert_eq!(blocked.len(), 4, "{blocked:?}");
            // Every block is reported: the killed one parked short of the
            // barrier, the other three waiting at it — in (rank, sm, block)
            // order, which on 4 SMs is block order.
            for (i, line) in blocked.iter().enumerate() {
                assert!(line.starts_with(&format!("block {i} ")), "{blocked:?}");
                assert!(line.contains("grid barrier"), "{blocked:?}");
            }
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn killed_block_hangs_the_multi_grid_barrier() {
    let plan = FaultPlan::seeded(3).kill_block(1, 0);
    let mut sys = GpuSystem::new(v100_small(2), NodeTopology::dgx1_v100());
    let l = mgrid_launch(kernels::sync_throughput(SyncOp::MultiGrid, 2), 1, 32);
    match sys.execute(&l, &RunOptions::new().faults(plan)) {
        Err(SimError::Deadlock { blocked, .. }) => {
            assert_eq!(blocked.len(), 2, "{blocked:?}");
            assert!(blocked[0].contains("device rank 0"), "{blocked:?}");
            assert!(blocked[1].contains("device rank 1"), "{blocked:?}");
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn killed_blocks_do_not_affect_block_level_barriers() {
    // The kill applies to grid/multi-grid arrival only; plain
    // __syncthreads kernels run to completion under the same plan.
    let plan = FaultPlan::seeded(3).kill_block(0, 0);
    let mut sys = GpuSystem::single(v100_small(2));
    let l = GridLaunch::single(kernels::sync_throughput(SyncOp::Block, 4), 2, 64, vec![]);
    sys.execute(&l, &RunOptions::new().faults(plan)).unwrap();
}

// ---------- determinism -------------------------------------------------------

fn faulted_report(plan: &FaultPlan) -> String {
    let mut sys = GpuSystem::single(v100_small(4));
    let l =
        GridLaunch::single(kernels::sync_throughput(SyncOp::Grid, 8), 4, 128, vec![]).cooperative();
    let arts = sys
        .execute(&l, &RunOptions::new().faults(plan.clone()))
        .unwrap();
    serde_json::to_string(&arts.report).unwrap()
}

#[test]
fn same_seed_gives_byte_identical_reports() {
    let plan = FaultPlan::seeded(7).stragglers(250, 4000);
    assert_eq!(faulted_report(&plan), faulted_report(&plan));
}

#[test]
fn different_seeds_straggle_different_warps() {
    let a = faulted_report(&FaultPlan::seeded(7).stragglers(250, 4000));
    let b = faulted_report(&FaultPlan::seeded(8).stragglers(250, 4000));
    assert_ne!(a, b, "two seeds produced identical perturbations");
}

#[test]
fn stragglers_actually_slow_the_run() {
    let mut sys = GpuSystem::single(v100_small(2));
    let l = GridLaunch::single(kernels::sync_throughput(SyncOp::Block, 8), 2, 256, vec![]);
    let healthy = sys.execute(&l, &RunOptions::new()).unwrap().report;
    sys.reset();
    let plan = FaultPlan::seeded(7).stragglers(500, 4000);
    let faulted = sys
        .execute(&l, &RunOptions::new().faults(plan))
        .unwrap()
        .report;
    assert!(
        faulted.duration > healthy.duration,
        "faulted {} <= healthy {}",
        faulted.duration,
        healthy.duration
    );
}

// ---------- zero-fault / unarmed identity -------------------------------------

#[test]
fn zero_plan_and_unarmed_watchdog_leave_the_report_untouched() {
    let run = |opts: &RunOptions| {
        let mut sys = GpuSystem::single(v100_small(4));
        let l = GridLaunch::single(kernels::sync_throughput(SyncOp::Grid, 8), 4, 128, vec![])
            .cooperative();
        serde_json::to_string(&sys.execute(&l, opts).unwrap().report).unwrap()
    };
    let plain = run(&RunOptions::new());
    // A zero plan (seed alone is not a fault) must not perturb anything.
    let zero = run(&RunOptions::new().faults(FaultPlan::seeded(42)));
    assert_eq!(plain, zero);
    // An armed-but-unexpired watchdog only observes; it must not perturb.
    let watched = run(&RunOptions::new().watchdog(Ps(u64::MAX / 2)));
    assert_eq!(plain, watched);
    // Both together, with profiling and checks like the golden runs use.
    let both = run(&RunOptions::new()
        .faults(FaultPlan::seeded(42))
        .watchdog(Ps(u64::MAX / 2)));
    assert_eq!(plain, both);
}

// ---------- link faults -------------------------------------------------------

#[test]
fn degraded_links_slow_multi_grid_sync_only() {
    let run = |plan: Option<FaultPlan>, op: SyncOp| {
        let mut sys = GpuSystem::new(v100_small(2), NodeTopology::dgx1_v100());
        let l = match op {
            SyncOp::MultiGrid => mgrid_launch(kernels::sync_throughput(op, 4), 2, 32),
            _ => GridLaunch::single(kernels::sync_throughput(op, 4), 2, 32, vec![]).cooperative(),
        };
        let mut opts = RunOptions::new();
        if let Some(p) = plan {
            opts = opts.faults(p);
        }
        sys.execute(&l, &opts).unwrap().report.duration
    };
    let plan = FaultPlan::seeded(7).degrade_links(4000, 1000);
    // Multi-grid crosses the links: 4x flag latency must show.
    let healthy = run(None, SyncOp::MultiGrid);
    let degraded = run(Some(plan.clone()), SyncOp::MultiGrid);
    assert!(degraded > healthy, "{degraded} <= {healthy}");
    // A single-device grid barrier never touches the links.
    assert_eq!(run(None, SyncOp::Grid), run(Some(plan), SyncOp::Grid));
}
