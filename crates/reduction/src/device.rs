//! Single-GPU device-wide reduction (Fig. 15 / Table VI): four methods that
//! differ in how the two phases are synchronized.

use crate::block::{emit_block_reduce_tail, emit_summing, BLOCK_SMEM_WORDS};
use cuda_rt::HostSim;
use gpu_arch::GpuArch;
use gpu_sim::isa::{Instr, Kernel, KernelBuilder, Operand, Special};
use gpu_sim::{GpuSystem, GridLaunch, RunOptions};
use serde::Serialize;
use sim_core::SimResult;
use sync_micro::sweep::Sweep;
use Operand::{Imm, Param, Reg as R, Sp};

/// The synchronization strategy between the streaming phase and the final
/// reduction phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum DeviceReduceMethod {
    /// Two kernels in one stream — the launch is the barrier (Fig. 14).
    Implicit,
    /// One persistent cooperative kernel with `grid.sync()` (Fig. 13).
    GridSync,
    /// CUB-style baseline: per-block partials in kernel 1, second kernel
    /// finishes; slightly less ideal streaming pattern.
    CubLike,
    /// CUDA-SDK-sample-style baseline: same structure, different tuning.
    SdkLike,
    /// Extension beyond the paper: single kernel, block leaders finish with
    /// a global `atomicAdd` — no second kernel, no grid barrier.
    AtomicFinish,
}

impl DeviceReduceMethod {
    /// The four methods the paper compares (Fig. 15 / Table VI).
    pub const ALL: [DeviceReduceMethod; 4] = [
        DeviceReduceMethod::Implicit,
        DeviceReduceMethod::GridSync,
        DeviceReduceMethod::CubLike,
        DeviceReduceMethod::SdkLike,
    ];

    /// The paper's methods plus the atomic-finish extension.
    pub const ALL_EXTENDED: [DeviceReduceMethod; 5] = [
        DeviceReduceMethod::Implicit,
        DeviceReduceMethod::GridSync,
        DeviceReduceMethod::CubLike,
        DeviceReduceMethod::SdkLike,
        DeviceReduceMethod::AtomicFinish,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            DeviceReduceMethod::Implicit => "implicit",
            DeviceReduceMethod::GridSync => "grid sync",
            DeviceReduceMethod::CubLike => "CUB-like",
            DeviceReduceMethod::SdkLike => "SDK-sample-like",
            DeviceReduceMethod::AtomicFinish => "atomic finish",
        }
    }

    /// Streaming efficiency (permille of the tuned streaming bandwidth) the
    /// method's phase-1 access pattern achieves. Anchored to Table VI:
    /// implicit/grid-sync use the paper's own tuned kernel; CUB's fixed
    /// tile shape was less ideal on these parts (notably P100).
    fn eff_permille(&self, arch: &GpuArch) -> u16 {
        let pascal = arch.compute_capability.0 < 7;
        match self {
            DeviceReduceMethod::Implicit => 1000,
            DeviceReduceMethod::GridSync => 995,
            DeviceReduceMethod::CubLike => {
                if pascal {
                    918
                } else {
                    981
                }
            }
            DeviceReduceMethod::SdkLike => {
                if pascal {
                    997
                } else {
                    986
                }
            }
            DeviceReduceMethod::AtomicFinish => 1000,
        }
    }
}

/// Kernel 1 of the two-kernel methods: grid-stride partials, one value per
/// *thread* (implicit) — params: 0=input, 1=len, 2=partials out.
fn partial_per_thread_kernel(eff: u16) -> Kernel {
    let mut b = KernelBuilder::new("reduce-partial-thread");
    let acc = b.reg();
    let s1 = b.reg();
    let s2 = b.reg();
    b.mov(acc, Imm(0));
    emit_summing(&mut b, acc, s1, s2, Param(0), Param(1), 2, eff);
    b.push(Instr::StGlobal {
        buf: Param(2),
        idx: Sp(Special::GlobalTid),
        val: R(acc),
    });
    b.exit();
    b.build(0)
}

/// Kernel 1 of the baseline methods: one value per *block* — params as
/// above, output indexed by block id.
fn partial_per_block_kernel(eff: u16, name: &str) -> Kernel {
    let mut b = KernelBuilder::new(name);
    let acc = b.reg();
    let s1 = b.reg();
    let s2 = b.reg();
    let cond = b.reg();
    b.mov(acc, Imm(0));
    emit_summing(&mut b, acc, s1, s2, Param(0), Param(1), 2, eff);
    emit_block_reduce_tail(&mut b, acc, s1, cond);
    b.cmp_eq(cond, Sp(Special::Tid), Imm(0));
    b.bra_ifz(R(cond), "skip");
    b.push(Instr::StGlobal {
        buf: Param(2),
        idx: Sp(Special::BlockId),
        val: R(acc),
    });
    b.label("skip");
    b.exit();
    b.build(BLOCK_SMEM_WORDS)
}

/// The atomic-finish kernel: per-block partials end in one global atomic
/// add — params: 0=input, 1=len, 2=result (must be zeroed).
fn atomic_finish_kernel(eff: u16) -> Kernel {
    let mut b = KernelBuilder::new("reduce-atomic");
    let acc = b.reg();
    let s1 = b.reg();
    let s2 = b.reg();
    let cond = b.reg();
    b.mov(acc, Imm(0));
    emit_summing(&mut b, acc, s1, s2, Param(0), Param(1), 2, eff);
    emit_block_reduce_tail(&mut b, acc, s1, cond);
    b.cmp_eq(cond, Sp(Special::Tid), Imm(0));
    b.bra_ifz(R(cond), "skip");
    b.push(Instr::AtomicFAdd {
        dst_old: None,
        buf: Param(2),
        idx: Imm(0),
        val: R(acc),
    });
    b.label("skip");
    b.exit();
    b.build(BLOCK_SMEM_WORDS)
}

/// Kernel 2: one block reduces the partials — params: 0=partials, 1=count,
/// 2=result (one word).
fn finish_kernel() -> Kernel {
    let mut b = KernelBuilder::new("reduce-finish");
    let acc = b.reg();
    let s1 = b.reg();
    let s2 = b.reg();
    let cond = b.reg();
    b.mov(acc, Imm(0));
    // Single block: start=tid, stride=block_dim.
    b.push(Instr::MemStream {
        acc,
        buf: Param(0),
        start: Sp(Special::Tid),
        stride: Sp(Special::BlockDim),
        len: Param(1),
        flops: 0,
        eff_permille: 1000,
    });
    let _ = s2;
    emit_block_reduce_tail(&mut b, acc, s1, cond);
    b.cmp_eq(cond, Sp(Special::Tid), Imm(0));
    b.bra_ifz(R(cond), "skip");
    b.push(Instr::StGlobal {
        buf: Param(2),
        idx: Imm(0),
        val: R(acc),
    });
    b.label("skip");
    b.exit();
    b.build(BLOCK_SMEM_WORDS)
}

/// The persistent cooperative kernel (Fig. 13, single GPU): stream partials,
/// `grid.sync()`, block 0 finishes — params: 0=input, 1=len, 2=partials,
/// 3=result.
fn grid_sync_kernel(eff: u16) -> Kernel {
    let mut b = KernelBuilder::new("reduce-gridsync");
    let acc = b.reg();
    let s1 = b.reg();
    let s2 = b.reg();
    let cond = b.reg();
    b.mov(acc, Imm(0));
    emit_summing(&mut b, acc, s1, s2, Param(0), Param(1), 2, eff);
    b.push(Instr::StGlobal {
        buf: Param(2),
        idx: Sp(Special::GlobalTid),
        val: R(acc),
    });
    b.grid_sync();
    // Block 0 reduces every thread's partial.
    b.cmp_eq(cond, Sp(Special::BlockId), Imm(0));
    b.bra_ifz(R(cond), "out");
    b.mov(acc, Imm(0));
    b.push(Instr::MemStream {
        acc,
        buf: Param(2),
        start: Sp(Special::Tid),
        stride: Sp(Special::BlockDim),
        len: Sp(Special::GridThreads),
        flops: 0,
        eff_permille: 1000,
    });
    emit_block_reduce_tail(&mut b, acc, s1, cond);
    b.cmp_eq(cond, Sp(Special::Tid), Imm(0));
    b.bra_ifz(R(cond), "out");
    b.push(Instr::StGlobal {
        buf: Param(3),
        idx: Imm(0),
        val: R(acc),
    });
    b.label("out");
    b.exit();
    b.build(BLOCK_SMEM_WORDS)
}

/// One Fig. 15 sample.
#[derive(Debug, Clone, Serialize)]
pub struct DeviceReduceSample {
    pub method: String,
    pub size_mb: f64,
    pub latency_us: f64,
    pub bandwidth_gbs: f64,
    pub correct: bool,
}

/// Grid shape used for the streaming phase.
fn phase1_grid(arch: &GpuArch) -> (u32, u32) {
    (2 * arch.num_sms, 256)
}

/// Run one method over `n` f64 elements (synthetic linear input) and report
/// host-observed latency.
pub fn measure_device_reduce(
    arch: &GpuArch,
    method: DeviceReduceMethod,
    n: u64,
) -> SimResult<DeviceReduceSample> {
    let sys = GpuSystem::single(arch.clone());
    let mut h = HostSim::new(sys).without_jitter();
    let (a0, b0) = (0.5f64, 1e-7f64);
    let input = h.sys.alloc_linear(0, a0, b0, n);
    let expected = {
        let nf = n as f64;
        nf * a0 + b0 * nf * (nf - 1.0) / 2.0
    };
    let (grid, block) = phase1_grid(arch);
    let threads = (grid * block) as u64;
    let partials = h.sys.alloc(0, threads.max(grid as u64));
    let result = h.sys.alloc(0, 1);
    let eff = method.eff_permille(arch);

    let t0 = h.now(0);
    match method {
        DeviceReduceMethod::Implicit => {
            let k1 = partial_per_thread_kernel(eff);
            let k2 = finish_kernel();
            h.launch(
                0,
                &GridLaunch::single(k1, grid, block, vec![input.0 as u64, n, partials.0 as u64]),
                &RunOptions::new(),
            )?;
            h.launch(
                0,
                &GridLaunch::single(
                    k2,
                    1,
                    1024,
                    vec![partials.0 as u64, threads, result.0 as u64],
                ),
                &RunOptions::new(),
            )?;
            h.device_synchronize(0, 0);
        }
        DeviceReduceMethod::GridSync => {
            let k = grid_sync_kernel(eff);
            let max = arch.max_cooperative_blocks(block, BLOCK_SMEM_WORDS * 8);
            let grid = grid.min(max);
            let params = vec![input.0 as u64, n, partials.0 as u64, result.0 as u64];
            let launch = GridLaunch::single(k, grid, block, params).cooperative();
            h.launch(0, &launch, &RunOptions::new())?;
            h.device_synchronize(0, 0);
        }
        DeviceReduceMethod::AtomicFinish => {
            let k = atomic_finish_kernel(eff);
            h.launch(
                0,
                &GridLaunch::single(k, grid, block, vec![input.0 as u64, n, result.0 as u64]),
                &RunOptions::new(),
            )?;
            h.device_synchronize(0, 0);
        }
        DeviceReduceMethod::CubLike | DeviceReduceMethod::SdkLike => {
            let k1 = partial_per_block_kernel(eff, method.name());
            let k2 = finish_kernel();
            h.launch(
                0,
                &GridLaunch::single(k1, grid, block, vec![input.0 as u64, n, partials.0 as u64]),
                &RunOptions::new(),
            )?;
            h.launch(
                0,
                &GridLaunch::single(
                    k2,
                    1,
                    256,
                    vec![partials.0 as u64, grid as u64, result.0 as u64],
                ),
                &RunOptions::new(),
            )?;
            h.device_synchronize(0, 0);
        }
    }
    let latency_us = (h.now(0) - t0).as_us();
    let got = h.sys.read_f64(result)[0];
    let bytes = n as f64 * 8.0;
    Ok(DeviceReduceSample {
        method: method.name().to_string(),
        size_mb: bytes / 1e6,
        latency_us,
        bandwidth_gbs: bytes / 1e9 / (latency_us / 1e6),
        correct: (got - expected).abs() <= 1e-6 * expected.abs().max(1.0),
    })
}

/// Fig. 15: latency vs input size for every method, in (size, method)
/// order. Every point is an independent simulation, so the grid runs as one
/// sweep; the first error in input order comes back.
pub fn figure15(arch: &GpuArch, sizes_mb: &[f64]) -> SimResult<Vec<DeviceReduceSample>> {
    let points: Vec<(f64, DeviceReduceMethod)> = sizes_mb
        .iter()
        .flat_map(|&mb| DeviceReduceMethod::ALL.map(|m| (mb, m)))
        .collect();
    Sweep::new()
        .run(points, |(mb, m)| {
            measure_device_reduce(arch, m, (mb * 1e6 / 8.0) as u64)
        })
        .into_iter()
        .collect()
}

/// Table VI: bandwidth of each method at a large, bandwidth-bound size.
pub fn table6(arch: &GpuArch) -> SimResult<Vec<DeviceReduceSample>> {
    let n = (1e9 / 8.0) as u64; // 1 GB
    DeviceReduceMethod::ALL
        .iter()
        .map(|&m| measure_device_reduce(arch, m, n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_methods_compute_the_right_sum() {
        let mut arch = GpuArch::v100();
        arch.num_sms = 4;
        for m in DeviceReduceMethod::ALL_EXTENDED {
            let s = measure_device_reduce(&arch, m, 100_000).unwrap();
            assert!(s.correct, "{} computed a wrong sum", s.method);
        }
    }

    #[test]
    fn table6_bandwidths_match_paper() {
        let rows = table6(&GpuArch::v100()).unwrap();
        // Paper Table VI (V100): implicit 865.4, grid 855.6, CUB 849.4,
        // sample 853.0 GB/s.
        for (r, expect) in rows.iter().zip([865.4, 855.6, 849.4, 853.0]) {
            assert!(
                (r.bandwidth_gbs - expect).abs() / expect < 0.05,
                "V100 {}: {:.1} vs paper {expect}",
                r.method,
                r.bandwidth_gbs
            );
        }
        let rows = table6(&GpuArch::p100()).unwrap();
        for (r, expect) in rows.iter().zip([592.4, 590.9, 544.0, 590.7]) {
            assert!(
                (r.bandwidth_gbs - expect).abs() / expect < 0.05,
                "P100 {}: {:.1} vs paper {expect}",
                r.method,
                r.bandwidth_gbs
            );
        }
    }

    #[test]
    fn implicit_beats_grid_sync_slightly_everywhere() {
        // Fig. 15's observation: implicit always at least as fast, but not
        // decisively.
        let arch = GpuArch::v100();
        for mb in [0.1, 1.0, 100.0] {
            let n = (mb * 1e6 / 8.0) as u64;
            let imp = measure_device_reduce(&arch, DeviceReduceMethod::Implicit, n).unwrap();
            let gs = measure_device_reduce(&arch, DeviceReduceMethod::GridSync, n).unwrap();
            assert!(
                imp.latency_us <= gs.latency_us,
                "{mb} MB: implicit {} vs grid sync {}",
                imp.latency_us,
                gs.latency_us
            );
            assert!(
                gs.latency_us < 1.6 * imp.latency_us,
                "{mb} MB: difference should not be decisive ({} vs {})",
                imp.latency_us,
                gs.latency_us
            );
        }
    }

    #[test]
    fn latency_converges_to_bandwidth_line() {
        let arch = GpuArch::v100();
        let s =
            measure_device_reduce(&arch, DeviceReduceMethod::Implicit, (1e9 / 8.0) as u64).unwrap();
        // 1 GB at ~865 GB/s ≈ 1156 us.
        assert!(
            (s.latency_us - 1156.0).abs() / 1156.0 < 0.06,
            "{}",
            s.latency_us
        );
    }

    #[test]
    fn atomic_finish_has_the_lowest_small_size_floor() {
        // One kernel, no second launch, no grid barrier: the extension wins
        // at tiny sizes.
        let arch = GpuArch::v100();
        let atomic =
            measure_device_reduce(&arch, DeviceReduceMethod::AtomicFinish, 10_000).unwrap();
        for m in DeviceReduceMethod::ALL {
            let s = measure_device_reduce(&arch, m, 10_000).unwrap();
            assert!(
                atomic.latency_us <= s.latency_us + 0.5,
                "atomic {} vs {} {}",
                atomic.latency_us,
                s.method,
                s.latency_us
            );
        }
    }

    #[test]
    fn small_sizes_are_launch_bound() {
        let arch = GpuArch::v100();
        let s = measure_device_reduce(&arch, DeviceReduceMethod::Implicit, 1024).unwrap();
        // Two kernels + sync: tens of microseconds, not milliseconds.
        assert!(
            s.latency_us > 5.0 && s.latency_us < 40.0,
            "{}",
            s.latency_us
        );
    }
}
