//! Second-wave engine tests: instruction semantics, divergence corners,
//! error paths, oversubscription, and multi-round barrier loops.

use gpu_arch::GpuArch;
use gpu_node::NodeTopology;
use gpu_sim::isa::{Instr, KernelBuilder, Operand::*, ShflKind, ShflMode, Special};
use gpu_sim::kernels::{self, SyncOp};
use gpu_sim::{fimm, GpuSystem, GridLaunch, Kernel, RunOptions};
use sim_core::SimError;

/// Test-local shim keeping the old `run(&launch)` result shape on top of the
/// unified [`GpuSystem::execute`] API.
trait RunShim {
    fn run_plain(&mut self, l: &GridLaunch) -> sim_core::SimResult<gpu_sim::ExecReport>;
}
impl RunShim for GpuSystem {
    fn run_plain(&mut self, l: &GridLaunch) -> sim_core::SimResult<gpu_sim::ExecReport> {
        self.execute(l, &RunOptions::new()).map(|a| a.report)
    }
}

fn v100(sms: u32) -> GpuArch {
    let mut a = GpuArch::v100();
    a.num_sms = sms;
    a
}

// ---------- instruction semantics ----------------------------------------------

#[test]
fn nanosleep_nanosecond_advances_exactly_1000_ps() {
    // The ISA documents `Nanosleep` in nanoseconds while the engine runs on
    // picosecond ticks: pin the conversion at both layers. Each extra sleep
    // nanosecond must lengthen the run by exactly 1000 Ps — the scheduling
    // overhead around the sleep is identical between the two launches.
    assert_eq!(sim_core::Ps::from_ns(1), sim_core::Ps(1_000));
    let dur = |ns: u64| {
        let mut sys = GpuSystem::single(v100(1));
        sys.run_plain(&GridLaunch::single(
            kernels::sleep_kernel(ns),
            1,
            32,
            vec![],
        ))
        .unwrap()
        .duration
    };
    let base = dur(1_000);
    assert_eq!(dur(1_001) - base, sim_core::Ps(1_000));
    assert_eq!(dur(2_000) - base, sim_core::Ps(1_000_000));
}

#[test]
fn shuffle_idx_broadcasts_a_lane() {
    let mut sys = GpuSystem::single(v100(1));
    let out = sys.alloc(0, 32);
    let mut b = KernelBuilder::new("shfl-idx");
    let r = b.reg();
    b.mov(r, Sp(Special::LaneId));
    b.push(Instr::Shfl {
        dst: r,
        val: Reg(r),
        kind: ShflKind::Tile,
        mode: ShflMode::Idx(7),
        width: 32,
    });
    b.push(Instr::StGlobal {
        buf: Param(0),
        idx: Sp(Special::LaneId),
        val: Reg(r),
    });
    b.exit();
    sys.run_plain(&GridLaunch::single(b.build(0), 1, 32, vec![out.0 as u64]))
        .unwrap();
    assert!(sys.read_u64(out).iter().all(|&v| v == 7));
}

#[test]
fn shuffle_idx_respects_tile_width() {
    // width 8: each 8-lane tile broadcasts its own lane (base + idx%8).
    let mut sys = GpuSystem::single(v100(1));
    let out = sys.alloc(0, 32);
    let mut b = KernelBuilder::new("shfl-idx-w8");
    let r = b.reg();
    b.mov(r, Sp(Special::LaneId));
    b.push(Instr::Shfl {
        dst: r,
        val: Reg(r),
        kind: ShflKind::Tile,
        mode: ShflMode::Idx(3),
        width: 8,
    });
    b.push(Instr::StGlobal {
        buf: Param(0),
        idx: Sp(Special::LaneId),
        val: Reg(r),
    });
    b.exit();
    sys.run_plain(&GridLaunch::single(b.build(0), 1, 32, vec![out.0 as u64]))
        .unwrap();
    let v = sys.read_u64(out);
    for lane in 0..32u64 {
        assert_eq!(v[lane as usize], lane / 8 * 8 + 3, "lane {lane}");
    }
}

/// A `Down` delta that overflows the lane index names a source lane out of
/// range, so every lane keeps its own value.
#[test]
fn shuffle_down_by_u32_max_is_the_identity() {
    let mut sys = GpuSystem::single(v100(1));
    let out = sys.alloc(0, 4);
    let mut b = KernelBuilder::new("shfl-down-max");
    let r = b.reg();
    b.mov(r, Sp(Special::LaneId));
    b.push(Instr::Shfl {
        dst: r,
        val: Reg(r),
        kind: ShflKind::Tile,
        mode: ShflMode::Down(u32::MAX),
        width: 32,
    });
    b.push(Instr::StGlobal {
        buf: Param(0),
        idx: Sp(Special::LaneId),
        val: Reg(r),
    });
    b.exit();
    sys.run_plain(&GridLaunch::single(b.build(0), 1, 4, vec![out.0 as u64]))
        .unwrap();
    assert_eq!(sys.read_u64(out), vec![0, 1, 2, 3]);
}

#[test]
fn predicated_store_skips_false_lanes() {
    let mut sys = GpuSystem::single(v100(1));
    let out = sys.alloc(0, 32);
    let mut b = KernelBuilder::new("pred-st");
    let c = b.reg();
    let v = b.reg();
    b.cmp_lt(c, Sp(Special::Tid), Imm(10));
    b.mov(v, Imm(5));
    // Store 5 to shared only where tid < 10, then copy shared to global.
    b.push(Instr::StShared {
        addr: Sp(Special::Tid),
        val: Reg(v),
        volatile: false,
        pred: Some(Reg(c)),
    });
    b.bar_sync();
    b.push(Instr::LdShared {
        dst: v,
        addr: Sp(Special::Tid),
        volatile: false,
    });
    b.push(Instr::StGlobal {
        buf: Param(0),
        idx: Sp(Special::Tid),
        val: Reg(v),
    });
    b.exit();
    sys.run_plain(&GridLaunch::single(b.build(32), 1, 32, vec![out.0 as u64]))
        .unwrap();
    let got = sys.read_u64(out);
    for (t, &g) in got.iter().enumerate().take(32) {
        assert_eq!(g, if t < 10 { 5 } else { 0 }, "tid {t}");
    }
}

#[test]
fn atomic_fadd_returns_old_values_in_order() {
    let mut sys = GpuSystem::single(v100(1));
    let cell = sys.alloc_f64(0, &[0.0]);
    let olds = sys.alloc(0, 32);
    let mut b = KernelBuilder::new("atomic-old");
    let o = b.reg();
    b.push(Instr::AtomicFAdd {
        dst_old: Some(o),
        buf: Param(0),
        idx: Imm(0),
        val: fimm(1.0),
    });
    b.push(Instr::StGlobal {
        buf: Param(1),
        idx: Sp(Special::Tid),
        val: Reg(o),
    });
    b.exit();
    sys.run_plain(&GridLaunch::single(
        b.build(0),
        1,
        32,
        vec![cell.0 as u64, olds.0 as u64],
    ))
    .unwrap();
    assert_eq!(sys.read_f64(cell)[0], 32.0);
    let mut olds: Vec<f64> = sys.read_f64(olds);
    olds.sort_by(f64::total_cmp);
    let expect: Vec<f64> = (0..32).map(|i| i as f64).collect();
    assert_eq!(olds, expect, "each lane must see a distinct old value");
}

#[test]
fn i2f_converts_integers() {
    let mut sys = GpuSystem::single(v100(1));
    let out = sys.alloc(0, 32);
    let mut b = KernelBuilder::new("i2f");
    let r = b.reg();
    b.push(Instr::I2F(r, Sp(Special::Tid)));
    b.fadd(r, Reg(r), fimm(0.5));
    b.push(Instr::StGlobal {
        buf: Param(0),
        idx: Sp(Special::Tid),
        val: Reg(r),
    });
    b.exit();
    sys.run_plain(&GridLaunch::single(b.build(0), 1, 32, vec![out.0 as u64]))
        .unwrap();
    let v = sys.read_f64(out);
    for (t, &x) in v.iter().enumerate().take(32) {
        assert_eq!(x, t as f64 + 0.5);
    }
}

#[test]
fn volatile_loads_see_volatile_stores_across_threads() {
    // Lane 0 volatile-stores; lane 1 reads it after a plain (non-barrier)
    // reconvergence — visible because volatile stores commit immediately.
    let mut sys = GpuSystem::single(v100(1));
    let out = sys.alloc(0, 32);
    let mut b = KernelBuilder::new("vol");
    let c = b.reg();
    let v = b.reg();
    b.cmp_eq(c, Sp(Special::LaneId), Imm(0));
    b.bra_ifz(Reg(c), "rd");
    b.mov(v, Imm(99));
    b.push(Instr::StShared {
        addr: Imm(0),
        val: Reg(v),
        volatile: true,
        pred: None,
    });
    b.label("rd");
    b.push(Instr::LdShared {
        dst: v,
        addr: Imm(0),
        volatile: true,
    });
    b.push(Instr::StGlobal {
        buf: Param(0),
        idx: Sp(Special::LaneId),
        val: Reg(v),
    });
    b.exit();
    sys.run_plain(&GridLaunch::single(b.build(4), 1, 32, vec![out.0 as u64]))
        .unwrap();
    // Lane 0 executes the store arm first (lowest PC group ordering), so by
    // the time the other lanes load, the value is committed.
    assert_eq!(sys.read_u64(out)[1], 99);
}

// ---------- configuration corners ------------------------------------------------

#[test]
fn partial_last_warp_runs_correctly() {
    // 70 threads: two full warps + one 6-lane warp.
    let mut sys = GpuSystem::single(v100(1));
    let out = sys.alloc(0, 70);
    let mut b = KernelBuilder::new("partial-warp");
    b.push(Instr::StGlobal {
        buf: Param(0),
        idx: Sp(Special::Tid),
        val: Sp(Special::Tid),
    });
    b.bar_sync();
    b.exit();
    let r = sys
        .run_plain(&GridLaunch::single(b.build(0), 1, 70, vec![out.0 as u64]))
        .unwrap();
    assert_eq!(r.warps_run, 3);
    assert_eq!(sys.read_u64(out), (0u64..70).collect::<Vec<_>>());
}

#[test]
fn grid_sync_loops_for_many_rounds() {
    // 20 rounds of grid sync across 2 blocks/SM: the barrier state machine
    // must reset cleanly between rounds.
    let mut sys = GpuSystem::single(v100(4));
    let out = sys.alloc(0, 8 * 32);
    let k = kernels::sync_chain(SyncOp::Grid, 20);
    let l = GridLaunch::single(k, 8, 32, vec![out.0 as u64]).cooperative();
    let rep = sys.run_plain(&l).unwrap();
    let per = sys.read_u64(out)[0] as f64 / 20.0;
    assert!(per > 500.0, "grid sync per round {per}");
    assert_eq!(rep.blocks_run, 8);
}

#[test]
fn oversubscribed_waves_preserve_semantics() {
    // 1000 blocks on 2 SMs: every block must still run exactly once.
    let mut sys = GpuSystem::single(v100(2));
    let out = sys.alloc(0, 1000);
    let mut b = KernelBuilder::new("wave");
    let o = b.reg();
    b.push(Instr::AtomicFAdd {
        dst_old: Some(o),
        buf: Param(0),
        idx: Sp(Special::BlockId),
        val: fimm(1.0),
    });
    b.exit();
    let l = GridLaunch::single(b.build(0), 1000, 32, vec![out.0 as u64]);
    let rep = sys.run_plain(&l).unwrap();
    assert_eq!(rep.blocks_run, 1000);
    assert!(sys.read_f64(out).iter().all(|&v| v == 32.0));
}

#[test]
fn nanosleep_takes_the_lanes_maximum() {
    let mut sys = GpuSystem::single(v100(1));
    let mut b = KernelBuilder::new("sleep-max");
    let ns = b.reg();
    // lane * 100 ns: the warp sleeps for the longest lane (3100 ns).
    b.imul(ns, Sp(Special::LaneId), Imm(100));
    b.push(Instr::Nanosleep(Reg(ns)));
    b.exit();
    let r = sys
        .run_plain(&GridLaunch::single(b.build(0), 1, 32, vec![]))
        .unwrap();
    assert!(
        (r.duration.as_ns() - 3100.0).abs() < 50.0,
        "duration {}",
        r.duration
    );
}

#[test]
fn nanosleep_past_the_timeline_fails_the_launch() {
    // After a 1 ns sleep, u64::MAX / 500 ns (about 2 * u64::MAX ps) cannot
    // be converted to ps, and u64::MAX / 1000 ns can but not added to the
    // issue time. u64::MAX / 1000 - 1 ns wakes a few ns short of u64::MAX
    // ps, too close for the clock read after it to add its latency. None of
    // these wakes leaves the rest of the kernel a representable timeline,
    // so the launch must fail rather than wake in the past or overflow later.
    let sleeps = |ns: &[u64], read_clock: bool| {
        let mut b = KernelBuilder::new("sleep-overflow");
        for &n in ns {
            b.push(Instr::Nanosleep(Imm(n)));
        }
        if read_clock {
            let r = b.reg();
            b.read_clock(r);
        }
        b.exit();
        b.build(0)
    };
    for kernel in [
        sleeps(&[1, u64::MAX / 500], false),
        sleeps(&[1, u64::MAX / 1000], false),
        sleeps(&[u64::MAX / 1000 - 1], true),
    ] {
        let mut sys = GpuSystem::single(v100(1));
        let e = sys.run_plain(&GridLaunch::single(kernel.clone(), 1, 32, vec![]));
        assert!(
            matches!(&e, Err(SimError::ProgramError(m)) if m.contains("nanosleep")),
            "{:?}: {e:?}",
            kernel.program.instrs
        );
    }
}

/// One thread streams `2^log2` words of a synthetic buffer, stride 1, at
/// full efficiency: the stream's byte count (8000 bytes per word before the
/// efficiency divide) passes `u64::MAX` at 2^52 words, and its completion
/// passes half the picosecond timeline at 2^53.
#[test]
fn memstream_past_the_timeline_fails_the_launch() {
    let stream = |log2: u32| {
        let n = 1u64 << log2;
        let mut sys = GpuSystem::single(v100(1));
        let data = sys.alloc_linear(0, 1.0, 0.0, n);
        let mut b = KernelBuilder::new("long-stream");
        let acc = b.reg();
        b.push(Instr::MemStream {
            acc,
            buf: Param(0),
            start: Imm(0),
            stride: Imm(1),
            len: Imm(n),
            flops: 0,
            eff_permille: 1000,
        });
        b.exit();
        sys.run_plain(&GridLaunch::single(b.build(0), 1, 1, vec![data.0 as u64]))
    };
    let base = stream(51).unwrap().duration;
    assert_eq!(base, sim_core::Ps(2_949_909_245_252_683_264));
    assert_eq!(stream(52).unwrap().duration, sim_core::Ps(2 * base.0));
    for log2 in [53, 60] {
        let e = stream(log2);
        assert!(
            matches!(&e, Err(SimError::ProgramError(m))
                if m.contains("long-stream") && m.contains("overflows the simulated clock")),
            "2^{log2} words: {e:?}"
        );
    }
}

#[test]
fn exit_in_divergent_branch_retires_lanes() {
    // Half the warp exits early; the other half keeps working.
    let mut sys = GpuSystem::single(v100(1));
    let out = sys.alloc(0, 32);
    let mut b = KernelBuilder::new("half-exit");
    let c = b.reg();
    b.cmp_lt(c, Sp(Special::LaneId), Imm(16));
    b.bra_if(Reg(c), "work");
    b.exit();
    b.label("work");
    b.push(Instr::StGlobal {
        buf: Param(0),
        idx: Sp(Special::LaneId),
        val: Imm(1),
    });
    b.exit();
    sys.run_plain(&GridLaunch::single(b.build(0), 1, 32, vec![out.0 as u64]))
        .unwrap();
    let v = sys.read_u64(out);
    for (lane, &x) in v.iter().enumerate().take(32) {
        assert_eq!(x, u64::from(lane < 16), "lane {lane}");
    }
}

// ---------- error paths -------------------------------------------------------------

#[test]
fn bad_buffer_id_faults() {
    let mut sys = GpuSystem::single(v100(1));
    let mut b = KernelBuilder::new("bad-buf");
    let r = b.reg();
    b.push(Instr::LdGlobal {
        dst: r,
        buf: Imm(999),
        idx: Imm(0),
    });
    b.exit();
    let e = sys.run_plain(&GridLaunch::single(b.build(0), 1, 32, vec![]));
    assert!(matches!(e, Err(SimError::MemoryFault(_))), "{e:?}");
}

#[test]
fn out_of_bounds_global_store_faults() {
    let mut sys = GpuSystem::single(v100(1));
    let buf = sys.alloc(0, 4);
    let mut b = KernelBuilder::new("oob");
    b.push(Instr::StGlobal {
        buf: Param(0),
        idx: Sp(Special::Tid), // tids 4..31 are out of bounds
        val: Imm(1),
    });
    b.exit();
    assert!(sys
        .run_plain(&GridLaunch::single(b.build(0), 1, 32, vec![buf.0 as u64]))
        .is_err());
}

/// A plain store and a `Signal` through the L2 unit fail at the same word
/// of a buffer five words short of the block, so only the kernel, pc and
/// instruction can tell their faults apart.
#[test]
fn memory_faults_name_their_instruction() {
    let fault = |name: &str, pc: u32, instr: Instr| {
        let mut sys = GpuSystem::single(v100(1));
        let buf = sys.alloc(0, 64 - 5);
        let mut b = KernelBuilder::new(name);
        let r = b.reg();
        for _ in 0..pc {
            b.mov(r, Imm(0));
        }
        b.push(instr);
        b.exit();
        match sys.run_plain(&GridLaunch::single(b.build(0), 1, 64, vec![buf.0 as u64])) {
            Err(SimError::MemoryFault(msg)) => msg,
            r => panic!("{name}: expected a memory fault, got {r:?}"),
        }
    };
    let store = fault(
        "store-gtid",
        0,
        Instr::StGlobal {
            buf: Param(0),
            idx: Sp(Special::GlobalTid),
            val: Imm(1),
        },
    );
    let signal = fault(
        "signal-gtid",
        1,
        Instr::Signal {
            buf: Param(0),
            idx: Sp(Special::GlobalTid),
            val: Imm(1),
        },
    );
    assert_ne!(store, signal);
    for (msg, name, pc, mnemonic) in [
        (&store, "store-gtid", 0, "st.global"),
        (&signal, "signal-gtid", 1, "signal"),
    ] {
        assert!(
            msg.starts_with(&format!("kernel {name:?} pc {pc} `{mnemonic}")),
            "{msg}"
        );
        assert!(msg.contains("(rank 0 block 0 warp 1)"), "{msg}");
        assert!(
            msg.ends_with("store at 59 beyond buffer of 59 words"),
            "{msg}"
        );
    }
}

#[test]
fn shared_memory_overflow_faults() {
    let mut sys = GpuSystem::single(v100(1));
    let mut b = KernelBuilder::new("smem-oob");
    b.push(Instr::LdShared {
        dst: 0,
        addr: Imm(100),
        volatile: false,
    });
    b.exit();
    // 4 words of shared memory, access at 100.
    assert!(sys
        .run_plain(&GridLaunch::single(b.build(4), 1, 32, vec![]))
        .is_err());
}

/// 2^29 words of shared memory is 2^32 bytes, one past the `u32` range. The
/// launch must fail validation instead of overflowing the byte count, which
/// panics in a debug build and, in release, wraps to 0 and lets the engine
/// try to allocate 16 GiB.
#[test]
fn shared_memory_past_the_u32_byte_range_is_rejected_at_launch() {
    let mut sys = GpuSystem::single(GpuArch::v100());
    let mut b = KernelBuilder::new("smem-4gib");
    b.exit();
    let e = sys.run_plain(&GridLaunch::single(b.build(1 << 29), 1, 32, vec![]));
    assert!(
        matches!(&e, Err(SimError::InvalidLaunch(m)) if m.contains("shared memory")),
        "{e:?}"
    );
}

/// A stride taken from the kernel near `u64::MAX` visits one element, like
/// any stride that steps past the end: the loops must not wrap back over
/// lower indices (release) or panic on the add (debug). Each case runs with
/// both strides and must read the same values and the same duration.
#[test]
fn strided_loops_do_not_wrap() {
    const VALS: [f64; 4] = [1.0, 2.0, 4.0, 8.0];
    let run = |kernel: Kernel| {
        let mut sys = GpuSystem::single(v100(1));
        let a = sys.alloc_f64(0, &VALS);
        let b = sys.alloc_f64(0, &[10.0, 20.0, 40.0, 80.0]);
        let out = sys.alloc(0, 4);
        let params = vec![a.0 as u64, b.0 as u64, out.0 as u64];
        let report = sys
            .run_plain(&GridLaunch::single(kernel, 1, 1, params))
            .unwrap();
        (sys.read_f64(out), report.duration)
    };
    let combine = |stride: u64| {
        let mut b = KernelBuilder::new("combine");
        b.push(Instr::MemCombine {
            dst: Param(2),
            a: Param(0),
            b: Param(1),
            start: Imm(2),
            stride: Imm(stride),
            len: Imm(4),
        });
        b.exit();
        run(b.build(0))
    };
    // Streams from index 1 and stores the sum to out[0].
    let stream = |stride: u64, shared: bool| {
        let mut b = KernelBuilder::new("stream");
        let acc = b.reg();
        b.mov(acc, Imm(0));
        if shared {
            for (i, v) in VALS.iter().enumerate() {
                b.push(Instr::StShared {
                    addr: Imm(i as u64),
                    val: fimm(*v),
                    volatile: true,
                    pred: None,
                });
            }
            b.push(Instr::SmemStream {
                acc,
                start: Imm(1),
                stride: Imm(stride),
                len: Imm(4),
                flops: 0,
            });
        } else {
            b.push(Instr::MemStream {
                acc,
                buf: Param(0),
                start: Imm(1),
                stride: Imm(stride),
                len: Imm(4),
                flops: 0,
                eff_permille: 1000,
            });
        }
        b.push(Instr::StGlobal {
            buf: Param(2),
            idx: Imm(0),
            val: Reg(acc),
        });
        b.exit();
        run(b.build(if shared { 4 } else { 0 }))
    };

    let (dst, dur) = combine(u64::MAX);
    assert_eq!(dst, vec![0.0, 0.0, 44.0, 0.0], "MemCombine");
    assert_eq!(dur, combine(4).1, "MemCombine charges one element");
    for shared in [false, true] {
        let (out, dur) = stream(u64::MAX, shared);
        assert_eq!(out[0], 2.0, "shared={shared}: one element, VALS[1]");
        assert_eq!(dur, stream(4, shared).1, "shared={shared}: one element");
    }
}

/// `kernel` on one warp must be rejected as an invalid launch, with or
/// without the static lint armed.
fn assert_rejected_at_launch(kernel: Kernel, checked: bool) {
    let mut sys = GpuSystem::single(v100(1));
    let opts = if checked {
        RunOptions::new().check()
    } else {
        RunOptions::new()
    };
    let e = sys.execute(&GridLaunch::single(kernel, 1, 32, vec![]), &opts);
    assert!(
        matches!(e, Err(SimError::InvalidLaunch(_))),
        "checked={checked}: {e:?}"
    );
}

fn zero_width_shuffle(mode: ShflMode) -> Kernel {
    let mut b = KernelBuilder::new("shfl-width-0");
    let r = b.reg();
    b.mov(r, Sp(Special::LaneId));
    b.push(Instr::Shfl {
        dst: r,
        val: Reg(r),
        kind: ShflKind::Tile,
        mode,
        width: 0,
    });
    b.exit();
    b.build(0)
}

#[test]
fn zero_width_shuffle_down_is_rejected_at_launch() {
    assert_rejected_at_launch(zero_width_shuffle(ShflMode::Down(1)), false);
}

#[test]
fn zero_width_shuffle_idx_is_rejected_at_launch() {
    assert_rejected_at_launch(zero_width_shuffle(ShflMode::Idx(0)), false);
}

/// Reads register 20 of a 16-register file.
fn reads_reg_20() -> Kernel {
    let mut b = KernelBuilder::new("reg-20");
    let r = b.reg();
    b.mov(r, Reg(20));
    b.exit();
    b.build(0)
}

#[test]
fn register_past_the_file_is_rejected_at_launch() {
    assert_rejected_at_launch(reads_reg_20(), false);
}

#[test]
fn register_past_the_file_is_rejected_before_the_lint() {
    assert_rejected_at_launch(reads_reg_20(), true);
}

#[test]
fn infinite_loop_hits_the_instruction_limit() {
    let mut sys = GpuSystem::single(v100(1)).with_instr_limit(10_000);
    let mut b = KernelBuilder::new("forever");
    b.label("x");
    b.bra("x");
    let e = sys.run_plain(&GridLaunch::single(b.build(0), 1, 32, vec![]));
    assert!(matches!(e, Err(SimError::InstrLimit { .. })), "{e:?}");
}

// ---------- multi-device corners ----------------------------------------------------

#[test]
fn remote_memstream_pays_the_link() {
    // Streaming a buffer that lives on another GPU is much slower than
    // streaming local memory.
    let arch = v100(2);
    let topo = NodeTopology::dgx1_v100();
    let n = 1_000_000u64;

    let run_with = |owner: usize| -> sim_core::Ps {
        let mut sys = GpuSystem::new(arch.clone(), topo.clone());
        let data = sys.alloc_linear(owner, 1.0, 0.0, n);
        // Enough warps that the local run is bandwidth-bound, not
        // latency-bound, so the link difference dominates.
        let out = sys.alloc(0, 64 * 256);
        let k = kernels::stream_kernel(0);
        // Kernel runs on device 0 either way.
        let l = GridLaunch::single(k, 64, 256, vec![data.0 as u64, n, out.0 as u64]);
        sys.run_plain(&l).unwrap().duration
    };
    let local = run_with(0);
    let remote = run_with(1);
    assert!(
        remote.as_us() > 5.0 * local.as_us(),
        "local {local}, remote {remote}"
    );
}

#[test]
fn multi_grid_rounds_alternate_cleanly() {
    // Multi-round multi-grid sync across 3 GPUs: per-round cost stays flat
    // (no state leaks between rounds).
    let mut sys = GpuSystem::new(v100(4), NodeTopology::dgx1_v100());
    let bufs: Vec<u64> = (0..3).map(|d| sys.alloc(d, 4 * 32).0 as u64).collect();
    let k = kernels::sync_chain(SyncOp::MultiGrid, 6);
    let l = GridLaunch::multi(
        k,
        4,
        32,
        vec![0, 1, 2],
        bufs.iter().map(|&b| vec![b]).collect(),
    );
    sys.run_plain(&l).unwrap();
    let per6 = sys.buffer(gpu_sim::BufId(bufs[0] as u32)).load(0).unwrap() as f64 / 6.0;

    let mut sys = GpuSystem::new(v100(4), NodeTopology::dgx1_v100());
    let bufs: Vec<u64> = (0..3).map(|d| sys.alloc(d, 4 * 32).0 as u64).collect();
    let k = kernels::sync_chain(SyncOp::MultiGrid, 2);
    let l = GridLaunch::multi(
        k,
        4,
        32,
        vec![0, 1, 2],
        bufs.iter().map(|&b| vec![b]).collect(),
    );
    sys.run_plain(&l).unwrap();
    let per2 = sys.buffer(gpu_sim::BufId(bufs[0] as u32)).load(0).unwrap() as f64 / 2.0;
    assert!(
        (per6 - per2).abs() / per2 < 0.25,
        "per-round drifted: {per2} vs {per6}"
    );
}

// ---------- execution tracing --------------------------------------------------------

#[test]
fn trace_records_executed_instructions_in_time_order() {
    let mut sys = GpuSystem::single(v100(1));
    let out = sys.alloc(0, 32);
    let mut b = KernelBuilder::new("traced");
    let r = b.reg();
    b.mov(r, Imm(7));
    b.iadd(r, Reg(r), Imm(1));
    b.push(Instr::StGlobal {
        buf: Param(0),
        idx: Sp(Special::Tid),
        val: Reg(r),
    });
    b.exit();
    let arts = sys
        .execute(
            &GridLaunch::single(b.build(0), 1, 32, vec![out.0 as u64]),
            &RunOptions::new().trace(100),
        )
        .unwrap();
    let (rep, trace) = (arts.report, arts.trace.unwrap());
    assert_eq!(rep.instrs_executed as usize, trace.len());
    assert_eq!(trace.len(), 4);
    for w in trace.windows(2) {
        assert!(w[1].at >= w[0].at, "trace out of order");
    }
    assert_eq!(trace[0].pc, 0);
    assert_eq!(
        trace[0].lanes,
        u32::MAX,
        "converged warp executes all lanes"
    );
    // The trace disassembles.
    let listing: Vec<String> = trace
        .iter()
        .map(|e| gpu_sim::instr_to_string(&e.instr))
        .collect();
    assert!(listing[0].starts_with("mov"), "{listing:?}");
    assert!(listing[3].starts_with("exit"), "{listing:?}");
}

#[test]
fn trace_capacity_is_respected() {
    let mut sys = GpuSystem::single(v100(1));
    let k = kernels::fadd32_chain(256);
    let out = sys.alloc(0, 32);
    let arts = sys
        .execute(
            &GridLaunch::single(k, 1, 32, vec![out.0 as u64]),
            &RunOptions::new().trace(16),
        )
        .unwrap();
    let (rep, trace) = (arts.report, arts.trace.unwrap());
    assert_eq!(trace.len(), 16);
    assert!(rep.instrs_executed > 16);
}

#[test]
fn trace_shows_divergent_lane_masks() {
    let mut sys = GpuSystem::single(v100(1));
    let mut b = KernelBuilder::new("div-trace");
    let c = b.reg();
    b.cmp_lt(c, Sp(Special::LaneId), Imm(16));
    b.bra_ifz(Reg(c), "other");
    b.iadd(c, Reg(c), Imm(0)); // taken arm
    b.exit();
    b.label("other");
    b.isub(c, Reg(c), Imm(0)); // fall-through arm
    b.exit();
    let trace = sys
        .execute(
            &GridLaunch::single(b.build(0), 1, 32, vec![]),
            &RunOptions::new().trace(100),
        )
        .unwrap()
        .trace
        .unwrap();
    let masks: Vec<u32> = trace.iter().map(|e| e.lanes).collect();
    assert!(
        masks.contains(&0x0000FFFF),
        "lower-half group missing: {masks:?}"
    );
    assert!(
        masks.contains(&0xFFFF0000),
        "upper-half group missing: {masks:?}"
    );
}
