//! Allreduce across the node — the synchronization-heavy collective behind
//! the data-parallel deep-learning workloads the paper's introduction
//! motivates (Chainer-style frameworks driving GPUs with implicit barriers).
//!
//! Three algorithms over the same simulated fabric:
//! * **gather–broadcast** — everything funnels through GPU 0 (the naive
//!   CPU-orchestrated pattern);
//! * **ring** — the classic bandwidth-optimal 2(n−1)-step ring, host-driven
//!   with peer copies and OpenMP barriers between steps;
//! * **multi-grid kernel** — one persistent kernel per GPU: every device
//!   *pulls* its peers' vectors over NVLink/PCIe peer access and sums them,
//!   with `multi_grid.sync()` providing the ordering — the §VII-E
//!   programmability argument applied to a collective.

use cuda_rt::HostSim;
use gpu_arch::GpuArch;
use gpu_node::NodeTopology;
use gpu_sim::isa::{Instr, Kernel, KernelBuilder, Operand, Special};
use gpu_sim::{BufId, GpuSystem, GridLaunch, RunOptions};
use serde::Serialize;
use sim_core::SimResult;
use Operand::{Imm, Param, Reg as R, Sp};

/// The collective algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum AllReduceAlgo {
    GatherBroadcast,
    Ring,
    MultiGridKernel,
}

impl AllReduceAlgo {
    pub const ALL: [AllReduceAlgo; 3] = [
        AllReduceAlgo::GatherBroadcast,
        AllReduceAlgo::Ring,
        AllReduceAlgo::MultiGridKernel,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            AllReduceAlgo::GatherBroadcast => "gather-broadcast",
            AllReduceAlgo::Ring => "ring",
            AllReduceAlgo::MultiGridKernel => "multi-grid kernel",
        }
    }
}

/// One allreduce measurement.
#[derive(Debug, Clone, Serialize)]
pub struct AllReduceSample {
    pub algo: String,
    pub gpus: usize,
    pub elems: u64,
    pub latency_us: f64,
    /// Algorithm bandwidth: vector bytes / time (NCCL's "algbw").
    pub algbw_gbs: f64,
    pub correct: bool,
}

/// Elementwise `dst[i] = a[i] + b[i]` over `param(3)` elements, grid-stride.
/// Params: 0=dst, 1=a, 2=b, 3=len.
fn combine_kernel() -> Kernel {
    let mut b = KernelBuilder::new("allreduce-combine");
    b.push(Instr::MemCombine {
        dst: Param(0),
        a: Param(1),
        b: Param(2),
        start: Sp(Special::GlobalTid),
        stride: Sp(Special::GridThreads),
        len: Param(3),
    });
    b.exit();
    b.build(0)
}

fn phase_grid(arch: &GpuArch) -> (u32, u32) {
    (2 * arch.num_sms.min(40), 256)
}

/// Run one allreduce over `elems` f64 per GPU across the first `n` GPUs.
pub fn measure_allreduce(
    arch: &GpuArch,
    topology: &NodeTopology,
    algo: AllReduceAlgo,
    n: usize,
    elems: u64,
) -> SimResult<AllReduceSample> {
    assert!(n >= 1 && n <= topology.num_gpus);
    let sys = GpuSystem::new(arch.clone(), topology.clone());
    let mut h = HostSim::with_threads(sys, n).without_jitter();
    let (grid, block) = phase_grid(arch);

    // Each GPU's vector: v_r[i] = (r+1) * 0.5 + i * 1e-6.
    let vecs: Vec<BufId> = (0..n)
        .map(|d| {
            let vals: Vec<f64> = (0..elems)
                .map(|i| (d + 1) as f64 * 0.5 + i as f64 * 1e-6)
                .collect();
            h.sys.alloc_f64(d, &vals)
        })
        .collect();
    let expect = |i: u64| -> f64 {
        (1..=n).map(|r| r as f64 * 0.5).sum::<f64>() + n as f64 * i as f64 * 1e-6
    };

    let threads: Vec<usize> = (0..n).collect();
    let t0 = h.now(0);
    match algo {
        AllReduceAlgo::GatherBroadcast => {
            // Everyone ships its vector to GPU 0, GPU 0 sums serially, then
            // broadcasts the result back.
            let staging: Vec<BufId> = (0..n).map(|_| h.sys.alloc(0, elems)).collect();
            for &t in &threads[1..] {
                h.memcpy_peer(t, staging[t], vecs[t], elems)?;
            }
            h.omp_barrier(&threads);
            for &t in &threads[1..] {
                let l = GridLaunch::single(
                    combine_kernel(),
                    grid,
                    block,
                    vec![
                        vecs[0].0 as u64,
                        vecs[0].0 as u64,
                        staging[t].0 as u64,
                        elems,
                    ],
                );
                h.launch(0, &l, &RunOptions::new())?;
            }
            h.device_synchronize(0, 0);
            h.omp_barrier(&threads);
            for &t in &threads[1..] {
                h.memcpy_peer(t, vecs[t], vecs[0], elems)?;
            }
            h.omp_barrier(&threads);
        }
        AllReduceAlgo::Ring => {
            // Reduce-scatter then all-gather over chunks. Host-driven: in
            // each step every GPU sends one chunk to its successor (peer
            // copy into a staging chunk) and combines or adopts it.
            let chunk = elems.div_ceil(n as u64);
            let staging: Vec<BufId> = (0..n).map(|d| h.sys.alloc(d, chunk)).collect();
            let chunk_of = |c: usize| -> (u64, u64) {
                let off = c as u64 * chunk;
                (off, chunk.min(elems.saturating_sub(off)))
            };
            // Reduce-scatter: after n-1 steps, GPU r owns the full sum of
            // chunk (r+1) mod n.
            for step in 0..n - 1 {
                for &t in &threads {
                    let src_chunk = (t + n - step) % n;
                    let dst = (t + 1) % n;
                    let (off, len) = chunk_of(src_chunk);
                    if len > 0 {
                        h.memcpy_peer_at(t, staging[dst], 0, vecs[t], off, len)?;
                    }
                }
                h.omp_barrier(&threads);
                for &t in &threads {
                    // The chunk just received came from GPU t-1, which sent
                    // its (t-1-step) mod n chunk.
                    let my_chunk = (t + 2 * n - step - 1) % n;
                    let (off, len) = chunk_of(my_chunk);
                    if len > 0 {
                        // vecs[t][off..] += staging[t][0..len]
                        let l = GridLaunch::single(
                            combine_with_offset_kernel(),
                            grid,
                            block,
                            vec![vecs[t].0 as u64, staging[t].0 as u64, off, len],
                        )
                        .on_device(t);
                        h.launch(t, &l, &RunOptions::new())?;
                        h.device_synchronize(t, t);
                    }
                }
                h.omp_barrier(&threads);
            }
            // All-gather: n-1 steps of forwarding the completed chunk.
            for step in 0..n - 1 {
                for &t in &threads {
                    let send_chunk = (t + 1 + n - step) % n;
                    let dst = (t + 1) % n;
                    let (off, len) = chunk_of(send_chunk);
                    if len > 0 {
                        h.memcpy_peer_at(t, vecs[dst], off, vecs[t], off, len)?;
                    }
                }
                h.omp_barrier(&threads);
            }
        }
        AllReduceAlgo::MultiGridKernel => {
            // Peer table (buffer ids) + zeroed scratch per GPU; one
            // multi-device cooperative launch.
            let table = h.sys.alloc(0, n as u64);
            for (i, v) in vecs.iter().enumerate() {
                h.sys.buffer_mut(table).store(i as u64, v.0 as u64)?;
            }
            let scratch: Vec<BufId> = (0..n).map(|d| h.sys.alloc(d, elems)).collect();
            let grid = grid.min(arch.max_cooperative_blocks(block, 0));
            let params: Vec<Vec<u64>> = (0..n)
                .map(|d| {
                    vec![
                        vecs[d].0 as u64,
                        scratch[d].0 as u64,
                        table.0 as u64,
                        n as u64,
                        elems,
                    ]
                })
                .collect();
            let launch =
                GridLaunch::multi(mgrid_pull_kernel(), grid, block, (0..n).collect(), params);
            h.launch(0, &launch, &RunOptions::new())?;
            for d in 0..n {
                h.device_synchronize(0, d);
            }
        }
    }
    let latency_us = (h.now(0) - t0).as_us();

    // Verify: every GPU holds the elementwise sum at 7–8 sampled words.
    let mut correct = true;
    for &v in &vecs {
        for i in (0..elems).step_by((elems as usize / 7).max(1)) {
            let got = f64::from_bits(h.sys.buffer(v).load(i)?);
            let want = expect(i);
            if (got - want).abs() > 1e-6 * want.abs().max(1.0) {
                correct = false;
                break;
            }
        }
    }
    let bytes = elems as f64 * 8.0;
    Ok(AllReduceSample {
        algo: algo.name().to_string(),
        gpus: n,
        elems,
        latency_us,
        algbw_gbs: bytes / 1e9 / (latency_us / 1e6),
        correct,
    })
}

/// `dst[off+i] += src[i]` for i in [0, len), grid-stride.
/// Params: 0=dst, 1=src, 2=off, 3=len.
fn combine_with_offset_kernel() -> Kernel {
    let mut b = KernelBuilder::new("allreduce-combine-off");
    let i = b.reg();
    let c = b.reg();
    let x = b.reg();
    let y = b.reg();
    let di = b.reg();
    b.mov(i, Sp(Special::GlobalTid));
    b.label("loop");
    b.cmp_lt(c, R(i), Param(3));
    b.bra_ifz(R(c), "out");
    b.iadd(di, R(i), Param(2));
    b.push(Instr::LdGlobal {
        dst: x,
        buf: Param(0),
        idx: R(di),
    });
    b.push(Instr::LdGlobal {
        dst: y,
        buf: Param(1),
        idx: R(i),
    });
    b.fadd(x, R(x), R(y));
    b.push(Instr::StGlobal {
        buf: Param(0),
        idx: R(di),
        val: R(x),
    });
    b.iadd(i, R(i), Sp(Special::GridThreads));
    b.bra("loop");
    b.label("out");
    b.exit();
    b.build(0)
}

/// The multi-grid pull kernel: accumulate every rank's vector into zeroed
/// scratch, sync, copy scratch back into the own vector.
/// Params: 0 = own vector, 1 = zeroed scratch, 2 = peer table, 3 = n,
/// 4 = len.
fn mgrid_pull_kernel() -> Kernel {
    let mut b = KernelBuilder::new("allreduce-mgrid");
    let r = b.reg();
    let c = b.reg();
    let peer = b.reg();
    b.mov(r, Imm(0));
    b.label("peers");
    b.cmp_lt(c, R(r), Param(3));
    b.bra_ifz(R(c), "done_pull");
    b.push(Instr::LdGlobal {
        dst: peer,
        buf: Param(2),
        idx: R(r),
    });
    b.push(Instr::MemCombine {
        dst: Param(1),
        a: Param(1),
        b: R(peer),
        start: Sp(Special::GlobalTid),
        stride: Sp(Special::GridThreads),
        len: Param(4),
    });
    b.iadd(r, R(r), Imm(1));
    b.bra("peers");
    b.label("done_pull");
    b.multi_grid_sync();
    // `MemCombine` only adds two sources and no zeroed one is at hand (`own`
    // still holds this rank's input), so the sum is copied back word by word.
    let i = b.reg();
    let x = b.reg();
    b.mov(i, Sp(Special::GlobalTid));
    b.label("wb");
    b.cmp_lt(c, R(i), Param(4));
    b.bra_ifz(R(c), "out");
    b.push(Instr::LdGlobal {
        dst: x,
        buf: Param(1),
        idx: R(i),
    });
    b.push(Instr::StGlobal {
        buf: Param(0),
        idx: R(i),
        val: R(x),
    });
    b.iadd(i, R(i), Sp(Special::GridThreads));
    b.bra("wb");
    b.label("out");
    b.exit();
    b.build(0)
}

/// The Fig.-16-style series for allreduce: all three algorithms across GPU
/// counts.
pub fn allreduce_series(
    arch: &GpuArch,
    topology: &NodeTopology,
    gpu_counts: &[usize],
    elems: u64,
) -> SimResult<Vec<AllReduceSample>> {
    let mut out = Vec::new();
    for &n in gpu_counts {
        for algo in AllReduceAlgo::ALL {
            if n == 1 && algo == AllReduceAlgo::Ring {
                continue; // a 1-GPU ring is degenerate
            }
            out.push(measure_allreduce(arch, topology, algo, n, elems)?);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> GpuArch {
        let mut a = GpuArch::v100();
        a.num_sms = 4;
        a
    }

    #[test]
    fn all_algorithms_produce_the_sum_everywhere() {
        let topo = NodeTopology::dgx1_v100();
        for algo in AllReduceAlgo::ALL {
            for n in [2usize, 3, 4] {
                let s = measure_allreduce(&small(), &topo, algo, n, 4096).unwrap();
                assert!(s.correct, "{} wrong at {n} GPUs", s.algo);
            }
        }
    }

    #[test]
    fn ring_handles_uneven_chunks() {
        let topo = NodeTopology::dgx1_v100();
        // elems not divisible by n.
        let s = measure_allreduce(&small(), &topo, AllReduceAlgo::Ring, 3, 1000).unwrap();
        assert!(s.correct);
    }

    #[test]
    fn ring_beats_gather_broadcast_at_scale() {
        let arch = GpuArch::v100();
        let topo = NodeTopology::dgx1_v100();
        let n = 8;
        let elems = 2_000_000; // 16 MB vectors
        let gb = measure_allreduce(&arch, &topo, AllReduceAlgo::GatherBroadcast, n, elems).unwrap();
        let ring = measure_allreduce(&arch, &topo, AllReduceAlgo::Ring, n, elems).unwrap();
        assert!(gb.correct && ring.correct);
        assert!(
            ring.latency_us < gb.latency_us,
            "ring {} vs gather {}",
            ring.latency_us,
            gb.latency_us
        );
    }

    #[test]
    fn topology_decides_pull_vs_ring() {
        let arch = GpuArch::v100();
        let topo = NodeTopology::dgx1_v100();
        // Within an NVLink quad every pull rides its own link: the one-shot
        // multi-grid pull is competitive with (here: beats) the host-driven
        // ring and its per-step launch overhead.
        let pull4 =
            measure_allreduce(&arch, &topo, AllReduceAlgo::MultiGridKernel, 4, 500_000).unwrap();
        let ring4 = measure_allreduce(&arch, &topo, AllReduceAlgo::Ring, 4, 500_000).unwrap();
        assert!(pull4.correct && ring4.correct);
        assert!(pull4.latency_us < 1.5 * ring4.latency_us);
        // Across the quad boundary the far pulls share one PCIe ingress bus
        // per device: the ring pulls ahead.
        let pull8 =
            measure_allreduce(&arch, &topo, AllReduceAlgo::MultiGridKernel, 8, 500_000).unwrap();
        let ring8 = measure_allreduce(&arch, &topo, AllReduceAlgo::Ring, 8, 500_000).unwrap();
        assert!(pull8.correct && ring8.correct);
        assert!(
            ring8.latency_us < pull8.latency_us,
            "ring {} vs pull {}",
            ring8.latency_us,
            pull8.latency_us
        );
    }

    #[test]
    fn single_gpu_collapses_to_a_copy() {
        let topo = NodeTopology::dgx1_v100();
        let s =
            measure_allreduce(&small(), &topo, AllReduceAlgo::MultiGridKernel, 1, 10_000).unwrap();
        assert!(s.correct);
    }
}
