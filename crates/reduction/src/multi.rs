//! Multi-GPU reduction (Fig. 16): the persistent multi-grid kernel of
//! Fig. 13 versus the CPU-side-barrier pattern of Fig. 14.

use crate::block::{emit_block_reduce_tail, BLOCK_SMEM_WORDS};
use cuda_rt::HostSim;
use gpu_arch::GpuArch;
use gpu_node::NodeTopology;
use gpu_sim::isa::{Instr, Kernel, KernelBuilder, Operand, Special};
use gpu_sim::{BufId, GpuSystem, GridLaunch, RunOptions};
use serde::Serialize;
use sim_core::SimResult;
use Operand::{Imm, Param, Reg as R, Sp};

/// How the GPUs synchronize.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum MultiGpuReduceMethod {
    /// One persistent kernel per GPU with `multi_grid.sync()` (Fig. 13).
    MultiGridSync,
    /// Host threads + `cudaDeviceSynchronize` + OpenMP barrier + peer copies
    /// (Fig. 14's `implicitMultiGPU`).
    CpuSideBarrier,
}

impl MultiGpuReduceMethod {
    pub fn name(&self) -> &'static str {
        match self {
            MultiGpuReduceMethod::MultiGridSync => "mgrid sync",
            MultiGpuReduceMethod::CpuSideBarrier => "CPU-side barrier",
        }
    }
}

/// The Fig. 13 persistent kernel. Per-device params:
/// 0=local input slice, 1=slice length, 2=local per-thread partials,
/// 3=gather buffer on GPU 0 (one slot per rank), 4=result on GPU 0.
fn mgrid_kernel(rounds: u32) -> Kernel {
    let mut b = KernelBuilder::new("reduce-mgrid");
    let acc = b.reg();
    let s1 = b.reg();
    let cond = b.reg();
    let round = b.reg();
    // The paper's Fig. 13 `while (step.not_finish())` loop: repeating the
    // phases inside one persistent kernel amortizes the multi-device launch
    // gate (paper §X).
    b.mov(round, Imm(0));
    b.label("round_top");
    // Phase 1: local grid-stride partials (each device owns its slice).
    b.mov(acc, Imm(0));
    b.push(Instr::MemStream {
        acc,
        buf: Param(0),
        start: Sp(Special::GlobalTid),
        stride: Sp(Special::GridThreads),
        len: Param(1),
        flops: 2,
        eff_permille: 1000,
    });
    b.push(Instr::StGlobal {
        buf: Param(2),
        idx: Sp(Special::GlobalTid),
        val: R(acc),
    });
    b.multi_grid_sync();
    // Phase 2: block 0 of each GPU reduces the local partials and stores one
    // value into GPU 0's gather buffer (a remote store for rank > 0).
    b.cmp_eq(cond, Sp(Special::BlockId), Imm(0));
    b.bra_ifz(R(cond), "phase2_done");
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
    b.bra_ifz(R(cond), "phase2_done");
    b.push(Instr::StGlobal {
        buf: Param(3),
        idx: Sp(Special::GpuRank),
        val: R(acc),
    });
    b.label("phase2_done");
    b.multi_grid_sync();
    b.iadd(round, R(round), Imm(1));
    b.cmp_lt(cond, R(round), Imm(rounds as u64));
    b.bra_if(R(cond), "round_top");
    // Phase 3: rank 0 / block 0 / thread 0 sums the per-GPU values.
    b.cmp_eq(cond, Sp(Special::GpuRank), Imm(0));
    b.bra_ifz(R(cond), "out");
    b.cmp_eq(cond, Sp(Special::BlockId), Imm(0));
    b.bra_ifz(R(cond), "out");
    b.cmp_eq(cond, Sp(Special::Tid), Imm(0));
    b.bra_ifz(R(cond), "out");
    b.mov(acc, Imm(0));
    b.push(Instr::MemStream {
        acc,
        buf: Param(3),
        start: Imm(0),
        stride: Imm(1),
        len: Sp(Special::NumGpus),
        flops: 0,
        eff_permille: 1000,
    });
    b.push(Instr::StGlobal {
        buf: Param(4),
        idx: Imm(0),
        val: R(acc),
    });
    b.label("out");
    b.exit();
    b.build(BLOCK_SMEM_WORDS)
}

/// Kernel 1 of the CPU-side method (per device): grid-stride partials
/// reduced to one value per block.
fn local_partial_kernel() -> Kernel {
    let mut b = KernelBuilder::new("reduce-local-partial");
    let acc = b.reg();
    let s1 = b.reg();
    let cond = b.reg();
    b.mov(acc, Imm(0));
    b.push(Instr::MemStream {
        acc,
        buf: Param(0),
        start: Sp(Special::GlobalTid),
        stride: Sp(Special::GridThreads),
        len: Param(1),
        flops: 2,
        eff_permille: 1000,
    });
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

/// Kernel 2 of the CPU-side method: one block reduces `count` values from a
/// buffer into a single word.
fn local_finish_kernel() -> Kernel {
    let mut b = KernelBuilder::new("reduce-local-finish");
    let acc = b.reg();
    let s1 = b.reg();
    let cond = b.reg();
    b.mov(acc, Imm(0));
    b.push(Instr::MemStream {
        acc,
        buf: Param(0),
        start: Sp(Special::Tid),
        stride: Sp(Special::BlockDim),
        len: Param(1),
        flops: 0,
        eff_permille: 1000,
    });
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

/// One Fig. 16 sample.
#[derive(Debug, Clone, Serialize)]
pub struct MultiGpuReduceSample {
    pub method: String,
    pub gpus: usize,
    pub total_gb: f64,
    pub latency_us: f64,
    pub throughput_gbs: f64,
    pub correct: bool,
}

fn phase1_grid(arch: &GpuArch) -> (u32, u32) {
    (2 * arch.num_sms, 256)
}

/// Reduction rounds per measurement — amortizes launch overhead as in the
/// paper's persistent-kernel argument (§X).
const ROUNDS: u32 = 4;

/// Run one multi-GPU reduction over `total_elems` f64 split evenly across
/// the first `n` GPUs of `topology`.
pub fn measure_multi_gpu_reduce(
    arch: &GpuArch,
    topology: &NodeTopology,
    method: MultiGpuReduceMethod,
    n: usize,
    total_elems: u64,
) -> SimResult<MultiGpuReduceSample> {
    assert!(n >= 1 && n <= topology.num_gpus);
    let sys = GpuSystem::new(arch.clone(), topology.clone());
    let nthreads = n;
    let mut h = HostSim::with_threads(sys, nthreads).without_jitter();
    let slice = total_elems / n as u64;
    let (a0, b0) = (0.25f64, 3e-8f64);
    let mut expected = 0.0f64;
    let slices: Vec<BufId> = (0..n)
        .map(|d| {
            let nf = slice as f64;
            expected += nf * a0 + b0 * nf * (nf - 1.0) / 2.0;
            h.sys.alloc_linear(d, a0, b0, slice)
        })
        .collect();
    let (grid, block) = phase1_grid(arch);
    let result = h.sys.alloc(0, 1);

    let latency_us = match method {
        MultiGpuReduceMethod::MultiGridSync => {
            // Cooperative multi-device launches must fit co-resident.
            let grid = grid.min(arch.max_cooperative_blocks(block, BLOCK_SMEM_WORDS * 8));
            let threads = (grid * block) as u64;
            let gather = h.sys.alloc(0, n as u64);
            let params: Vec<Vec<u64>> = (0..n)
                .map(|d| {
                    let partials = h.sys.alloc(d, threads);
                    vec![
                        slices[d].0 as u64,
                        slice,
                        partials.0 as u64,
                        gather.0 as u64,
                        result.0 as u64,
                    ]
                })
                .collect();
            let launch =
                GridLaunch::multi(mgrid_kernel(ROUNDS), grid, block, (0..n).collect(), params);
            let t0 = h.now(0);
            h.launch(0, &launch, &RunOptions::new())?;
            for d in 0..n {
                h.device_synchronize(0, d);
            }
            (h.now(0) - t0).as_us() / ROUNDS as f64
        }
        MultiGpuReduceMethod::CpuSideBarrier => {
            let gather = h.sys.alloc(0, n as u64);
            let block_partials: Vec<BufId> = (0..n).map(|d| h.sys.alloc(d, grid as u64)).collect();
            let scalars: Vec<BufId> = (0..n).map(|d| h.sys.alloc(d, 1)).collect();
            let threads: Vec<usize> = (0..n).collect();
            let t0 = h.now(0);
            for _ in 0..ROUNDS {
                for &t in &threads {
                    let l1 = GridLaunch::single(
                        local_partial_kernel(),
                        grid,
                        block,
                        vec![slices[t].0 as u64, slice, block_partials[t].0 as u64],
                    )
                    .on_device(t);
                    h.launch(t, &l1, &RunOptions::new())?;
                    let l2 = GridLaunch::single(
                        local_finish_kernel(),
                        1,
                        256,
                        vec![block_partials[t].0 as u64, grid as u64, scalars[t].0 as u64],
                    )
                    .on_device(t);
                    h.launch(t, &l2, &RunOptions::new())?;
                    h.device_synchronize(t, t);
                }
                h.omp_barrier(&threads);
                // Gather the per-GPU scalars to GPU 0.
                for &t in &threads {
                    h.memcpy_peer_at(t, gather, t as u64, scalars[t], 0, 1)?;
                }
                h.omp_barrier(&threads);
            }
            let lf = GridLaunch::single(
                local_finish_kernel(),
                1,
                32,
                vec![gather.0 as u64, n as u64, result.0 as u64],
            );
            h.launch(0, &lf, &RunOptions::new())?;
            h.device_synchronize(0, 0);
            (h.now(0) - t0).as_us() / ROUNDS as f64
        }
    };

    let got = h.sys.read_f64(result)[0];
    let bytes = total_elems as f64 * 8.0;
    Ok(MultiGpuReduceSample {
        method: method.name().to_string(),
        gpus: n,
        total_gb: bytes / 1e9,
        latency_us,
        throughput_gbs: bytes / 1e9 / (latency_us / 1e6),
        correct: (got - expected).abs() <= 1e-6 * expected.abs().max(1.0),
    })
}

/// Fig. 16: throughput of both methods across GPU counts (4 GB total).
pub fn figure16(
    arch: &GpuArch,
    topology: &NodeTopology,
    gpu_counts: &[usize],
) -> SimResult<Vec<MultiGpuReduceSample>> {
    let total = (8e9 / 8.0) as u64;
    let mut out = Vec::new();
    for &n in gpu_counts {
        out.push(measure_multi_gpu_reduce(
            arch,
            topology,
            MultiGpuReduceMethod::MultiGridSync,
            n,
            total,
        )?);
        out.push(measure_multi_gpu_reduce(
            arch,
            topology,
            MultiGpuReduceMethod::CpuSideBarrier,
            n,
            total,
        )?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_arch() -> GpuArch {
        let mut a = GpuArch::v100();
        a.num_sms = 8;
        a
    }

    #[test]
    fn both_methods_compute_the_right_sum() {
        let topo = NodeTopology::dgx1_v100();
        for m in [
            MultiGpuReduceMethod::MultiGridSync,
            MultiGpuReduceMethod::CpuSideBarrier,
        ] {
            let s = measure_multi_gpu_reduce(&small_arch(), &topo, m, 4, 1_000_000).unwrap();
            assert!(s.correct, "{} computed a wrong sum", s.method);
        }
    }

    #[test]
    fn throughput_scales_with_gpu_count() {
        let arch = GpuArch::v100();
        let topo = NodeTopology::dgx1_v100();
        let samples = figure16(&arch, &topo, &[1, 4, 8]).unwrap();
        let tput = |g: usize, m: &str| {
            samples
                .iter()
                .find(|s| s.gpus == g && s.method == m)
                .unwrap()
                .throughput_gbs
        };
        for m in ["mgrid sync", "CPU-side barrier"] {
            assert!(tput(4, m) > 3.0 * tput(1, m), "{m} 1->4 GPUs");
            assert!(tput(8, m) > 1.7 * tput(4, m), "{m} 4->8 GPUs");
        }
        // Paper Fig. 16: ~7000 GB/s at 8 GPUs (8 x 865 with small overheads).
        let t8 = tput(8, "CPU-side barrier");
        assert!((5_800.0..7_100.0).contains(&t8), "8-GPU throughput {t8}");
    }

    #[test]
    fn cpu_side_barrier_is_slightly_better() {
        // "Though it is hard to notice, an implicit barrier is always
        // slightly better than the multi-grid synchronization method."
        let arch = GpuArch::v100();
        let topo = NodeTopology::dgx1_v100();
        let samples = figure16(&arch, &topo, &[2, 8]).unwrap();
        for g in [2usize, 8] {
            let mg = samples
                .iter()
                .find(|s| s.gpus == g && s.method == "mgrid sync")
                .unwrap();
            let cpu = samples
                .iter()
                .find(|s| s.gpus == g && s.method == "CPU-side barrier")
                .unwrap();
            assert!(
                cpu.throughput_gbs >= mg.throughput_gbs,
                "{g} GPUs: cpu {} vs mgrid {}",
                cpu.throughput_gbs,
                mg.throughput_gbs
            );
            assert!(
                mg.throughput_gbs > 0.93 * cpu.throughput_gbs,
                "{g} GPUs: difference should be hard to notice ({} vs {})",
                mg.throughput_gbs,
                cpu.throughput_gbs
            );
        }
    }
}
