//! Paper §VIII-B as a runnable probe: what happens when only a *subset* of a
//! thread group calls the group's barrier? The simulator detects the hang
//! and reports exactly which entities are stuck — something the real
//! hardware could only express by freezing.
//!
//! ```text
//! cargo run --release --example deadlock_probe
//! ```

use gpu_sim::isa::{Instr, Operand::*, Special};
use syncmark::prelude::*;

fn outcome(label: &str, r: SimResult<gpu_sim::RunArtifacts>) {
    match r {
        Ok(arts) => println!("{label:<42} completes in {}", arts.report.duration),
        Err(SimError::Deadlock { at, blocked, .. }) => {
            println!("{label:<42} DEADLOCK at t={at}");
            for b in blocked.iter().take(3) {
                println!("{:<42}   blocked: {b}", "");
            }
            if blocked.len() > 3 {
                println!("{:<42}   ... and {} more", "", blocked.len() - 3);
            }
        }
        Err(SimError::Watchdog {
            at,
            last_progress,
            stuck,
            ..
        }) => {
            println!("{label:<42} LIVELOCK at t={at} (no progress since {last_progress})");
            for s in stuck.iter().take(3) {
                println!("{:<42}   stuck: {s}", "");
            }
            if stuck.len() > 3 {
                println!("{:<42}   ... and {} more", "", stuck.len() - 3);
            }
        }
        Err(e) => println!("{label:<42} error: {e}"),
    }
}

fn main() {
    let mut arch = GpuArch::v100();
    arch.num_sms = 4;

    // Warp level: half the lanes exit before the tile barrier.
    {
        let mut b = KernelBuilder::new("half-warp-syncs");
        let c = b.reg();
        b.cmp_lt(c, Sp(Special::LaneId), Imm(16));
        b.bra_ifz(Reg(c), "out");
        b.push(Instr::SyncTile { width: 32 });
        b.label("out");
        b.exit();
        let r = GpuSystem::single(arch.clone()).execute(
            &GridLaunch::single(b.build(0), 1, 32, vec![]),
            &RunOptions::new(),
        );
        outcome("warp: 16 of 32 lanes tile-sync", r);
    }

    // Block level: half the threads exit before __syncthreads.
    {
        let mut b = KernelBuilder::new("half-block-syncs");
        let c = b.reg();
        b.cmp_lt(c, Sp(Special::Tid), Imm(64));
        b.bra_ifz(Reg(c), "out");
        b.bar_sync();
        b.label("out");
        b.exit();
        let r = GpuSystem::single(arch.clone()).execute(
            &GridLaunch::single(b.build(0), 1, 128, vec![]),
            &RunOptions::new(),
        );
        outcome("block: 64 of 128 threads __syncthreads", r);
    }

    // Grid level: odd blocks skip grid.sync() — the paper's observed hang.
    {
        let mut b = KernelBuilder::new("half-grid-syncs");
        let c = b.reg();
        let bit = b.reg();
        b.push(Instr::IAnd(bit, Sp(Special::BlockId), Imm(1)));
        b.cmp_eq(c, Reg(bit), Imm(0));
        b.bra_ifz(Reg(c), "out");
        b.grid_sync();
        b.label("out");
        b.exit();
        let r = GpuSystem::single(arch.clone()).execute(
            &GridLaunch::single(b.build(0), 8, 32, vec![]).cooperative(),
            &RunOptions::new(),
        );
        outcome("grid: 4 of 8 blocks grid.sync", r);
    }

    // Multi-grid level: one GPU of two never reaches the barrier.
    {
        let mut b = KernelBuilder::new("one-gpu-syncs");
        let c = b.reg();
        b.cmp_eq(c, Sp(Special::GpuRank), Imm(0));
        b.bra_ifz(Reg(c), "out");
        b.multi_grid_sync();
        b.label("out");
        b.exit();
        let launch = GridLaunch::multi(b.build(0), 4, 32, vec![0, 1], vec![vec![], vec![]]);
        let r = GpuSystem::new(arch.clone(), NodeTopology::dgx1_v100())
            .execute(&launch, &RunOptions::new());
        outcome("multi-grid: 1 of 2 GPUs multi_grid.sync", r);
    }

    // Software spin barrier with a missing participant: the hardware-barrier
    // deadlock detector can never fire because the spinning blocks keep
    // executing (a *livelock*, not a queue drain). The progress watchdog
    // catches it instead: per-warp PC watermarks stop advancing, and after
    // the budget elapses the run returns a structured report of who is
    // spinning where.
    {
        let mut b = KernelBuilder::new("spin-barrier-missing-block");
        let c = b.reg();
        let v = b.reg();
        let target = b.reg();
        // The last block exits without arriving...
        b.iadd(target, Sp(Special::GridDim), Imm(0));
        b.push(Instr::I2F(target, Reg(target)));
        b.cmp_eq(c, Sp(Special::BlockId), Imm(3));
        b.bra_if(Reg(c), "out");
        // ...every other block's leader arrives and spins for full arrival.
        b.cmp_eq(c, Sp(Special::Tid), Imm(0));
        b.bra_ifz(Reg(c), "out");
        b.push(Instr::AtomicFAdd {
            dst_old: None,
            buf: Param(0),
            idx: Imm(0),
            val: gpu_sim::fimm(1.0),
        });
        b.label("spin");
        b.push(Instr::LdGlobal {
            dst: v,
            buf: Param(0),
            idx: Imm(0),
        });
        b.cmp_lt(c, Reg(v), Reg(target));
        b.bra_if(Reg(c), "spin");
        b.label("out");
        b.exit();
        let mut sys = GpuSystem::single(arch.clone());
        let counter = sys.alloc(0, 1);
        let launch = GridLaunch::single(b.build(0), 4, 32, vec![counter.0 as u64]);
        let r = sys.execute(
            &launch,
            // 10 us of simulated time without a single PC-watermark advance
            // or retirement anywhere in the grid trips the watchdog.
            &RunOptions::new().watchdog(Ps(10_000_000)),
        );
        outcome("spin barrier: 3 of 4 blocks arrive", r);
    }

    // And the API-level guard: grid.sync in a non-cooperative launch is
    // rejected before it can hang.
    {
        let mut b = KernelBuilder::new("uncooperative");
        b.grid_sync();
        b.exit();
        let r = GpuSystem::single(arch).execute(
            &GridLaunch::single(b.build(0), 8, 32, vec![]),
            &RunOptions::new(),
        );
        outcome("grid.sync under a traditional launch", r);
    }

    println!(
        "\npaper §VIII-B: warp/block subsets complete (exited threads are not\n\
         counted); grid and multi-grid subsets deadlock — \"current CUDA does\n\
         not support synchronizing sub-groups inside a grid group\"."
    );
}
