//! Workloads and the seeded inputs each one runs.
//!
//! Seed 0 is the paper's configuration, whose rendered artifacts must match
//! the committed `results/*.txt` byte for byte. Any other seed draws the same
//! number of points from the same parameter space (SM-count variants,
//! reduction sizes, allreduce length), with draws chosen so that the host
//! cost of a run stays close to the paper configuration's.

use gpu_arch::GpuArch;
use gpu_node::NodeTopology;
use sim_core::rng::SmallRng;

/// The seed whose inputs are the paper's configuration.
pub const PAPER_SEED: u64 = 0;

/// Barrier rounds per heat-map cell (`grid_sync`'s chain length).
pub const HEATMAP_REPS: usize = 4;
/// Chain length of Table II's latency rows.
pub const LAT_REPS: usize = 128;
/// Chain length of Table II's and Fig. 4's throughput cells.
pub const THR_REPS: usize = 48;
/// Chain length of Fig. 4's latency cells.
pub const BLOCK_LAT_REPS: usize = 32;
/// Fig. 9's sleep length for the launch-based barriers.
pub const FIG9_SLEEP_NS: u64 = 250_000;
/// Table VI's bandwidth-bound size, in f64 elements.
pub const TABLE6_ELEMS: u64 = (1e9 / 8.0) as u64;
/// Fig. 16's total reduction size, in f64 elements.
pub const FIG16_ELEMS: u64 = (8e9 / 8.0) as u64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figs. 4/5 and Table II: hundreds of short single-device launches.
    GridSweep,
    /// Figs. 8/9: few, long, unequal multi-device launches.
    MultigridNode,
    /// Figs. 15/16, Table VI and the allreduce extension.
    ReductionCase,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::GridSweep,
        Workload::MultigridNode,
        Workload::ReductionCase,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::GridSweep => "grid_sweep",
            Workload::MultigridNode => "multigrid_node",
            Workload::ReductionCase => "reduction_case",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Sweep workers the workload asks for; capped at the host's cores.
    pub fn workers(self) -> usize {
        let wanted = match self {
            Workload::GridSweep | Workload::MultigridNode => 2,
            Workload::ReductionCase => 1,
        };
        wanted.min(sync_micro::sweep::default_jobs())
    }
}

/// Every input one run of a workload needs. Only the fields of the plan's
/// workload are read.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    /// The two platforms (V100, P100); grid_sweep varies their SM counts.
    pub v100: GpuArch,
    pub p100: GpuArch,
    pub node: NodeTopology,
    pub fig8_counts: Vec<usize>,
    pub fig9_counts: Vec<usize>,
    /// Fig. 15 sizes in MB, per platform.
    pub fig15_sizes: [Vec<f64>; 2],
    pub fig16_counts: Vec<usize>,
    pub allreduce_counts: Vec<usize>,
    /// Allreduce vector length per GPU, in f64 elements.
    pub allreduce_elems: u64,
}

impl Plan {
    /// The inputs of `workload` for `seed`.
    pub fn new(workload: Workload, seed: u64) -> Plan {
        let mut plan = Plan::paper(workload, seed);
        if seed == PAPER_SEED {
            return plan;
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        match workload {
            Workload::GridSweep => {
                // Move a few SMs between the platforms: the fig5 heat maps'
                // total launch width, and so their cost, stays put.
                let d = rng.range_u64(0, 5) as u32;
                plan.v100.num_sms = 78 + d;
                plan.p100.num_sms = 58 - d;
            }
            Workload::MultigridNode => {
                // One SM more or fewer on the V100 moves every cell's launch
                // width, and so the host cost, by about 1%. Fig. 8 keeps the
                // paper's GPU counts: other sets with the same sum measured
                // 10-25% cheaper.
                plan.v100.num_sms = 79 + rng.range_u64(0, 3) as u32;
            }
            Workload::ReductionCase => {
                for sizes in &mut plan.fig15_sizes {
                    for mb in sizes.iter_mut() {
                        *mb *= rng.range_f64(0.95, 1.05);
                    }
                }
                plan.allreduce_elems =
                    (plan.allreduce_elems as f64 * rng.range_f64(0.98, 1.02)) as u64;
            }
        }
        plan
    }

    fn paper(workload: Workload, seed: u64) -> Plan {
        Plan {
            workload,
            seed,
            v100: GpuArch::v100(),
            p100: GpuArch::p100(),
            node: NodeTopology::dgx1_v100(),
            fig8_counts: vec![1, 2, 5, 6, 8],
            fig9_counts: (1..=8).collect(),
            fig15_sizes: [
                vec![0.1, 1.0, 10.0, 100.0, 1000.0, 10000.0],
                vec![0.1, 1.0, 10.0, 100.0, 1000.0],
            ],
            fig16_counts: (1..=8).collect(),
            allreduce_counts: vec![2, 4, 6, 8],
            allreduce_elems: 1_000_000,
        }
    }

    /// A cut-down plan (2-SM parts, few GPU counts, small reductions) for
    /// tests that compare runs rather than reproduce the paper.
    pub fn small(workload: Workload) -> Plan {
        let mut plan = Plan::paper(workload, 1);
        for arch in [&mut plan.v100, &mut plan.p100] {
            arch.num_sms = 2;
        }
        plan.fig8_counts = vec![1, 2];
        plan.fig9_counts = vec![1, 3];
        plan.fig15_sizes = [vec![0.01, 0.1], vec![0.01]];
        plan.fig16_counts = vec![1, 2];
        plan.allreduce_counts = vec![2];
        plan.allreduce_elems = 4096;
        plan
    }

    /// The platforms a workload renders, in artifact order.
    pub fn archs(&self) -> [&GpuArch; 2] {
        [&self.v100, &self.p100]
    }

    /// The artifacts this plan renders, each with the number of simulation
    /// points behind it (figure cells or reduction samples).
    pub fn artifacts(&self) -> Vec<(&'static str, usize)> {
        match self.workload {
            Workload::GridSweep => {
                let fig5 = self.archs().iter().map(|a| heatmap_cells(a).len()).sum();
                let table2 = self
                    .archs()
                    .iter()
                    .map(|a| 6 + 9 * throughput_configs(&one_sm(a)).len())
                    .sum();
                vec![("fig5", fig5), ("table2", table2), ("fig4", 2 * 7)]
            }
            Workload::MultigridNode => vec![
                (
                    "fig8",
                    self.fig8_counts.len() * heatmap_cells(&self.v100).len(),
                ),
                ("fig9", self.fig9_counts.len() * 5),
            ],
            Workload::ReductionCase => {
                let fig15 = self.fig15_sizes.iter().map(|s| 4 * s.len()).sum();
                let allreduce = self
                    .allreduce_counts
                    .iter()
                    .map(|&n| if n == 1 { 2 } else { 3 })
                    .sum();
                vec![
                    ("fig15", fig15),
                    ("table6", 2 * 4),
                    ("fig16", 2 * self.fig16_counts.len()),
                    ("allreduce", allreduce),
                ]
            }
        }
    }

    /// Simulation points in one run of the workload.
    pub fn points(&self) -> usize {
        self.artifacts().iter().map(|(_, n)| n).sum()
    }
}

/// A feasible cell of a (blocks/SM × threads/block) heat map: axis indices
/// plus launch geometry, in `grid_sync`'s plan order.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    pub i: usize,
    pub j: usize,
    pub bpsm: u32,
    pub tpb: u32,
}

/// The heat-map cells that fit co-resident on `arch`.
pub fn heatmap_cells(arch: &GpuArch) -> Vec<Cell> {
    use sync_micro::grid_sync::{BLOCKS_PER_SM, THREADS_PER_BLOCK};
    let mut cells = Vec::new();
    for (i, &bpsm) in BLOCKS_PER_SM.iter().enumerate() {
        for (j, &tpb) in THREADS_PER_BLOCK.iter().enumerate() {
            if bpsm <= arch.occupancy(tpb, 0).blocks_per_sm {
                cells.push(Cell { i, j, bpsm, tpb });
            }
        }
    }
    cells
}

/// Table II's (threads/block, blocks/SM) throughput scan.
pub fn throughput_configs(arch: &GpuArch) -> Vec<(u32, u32)> {
    let mut configs = Vec::new();
    for tpb in [32u32, 64, 128, 256, 512, 1024] {
        for bpsm in [1u32, 2, 4, 8, 16, 32, 64] {
            if tpb as u64 * bpsm as u64 <= 2 * arch.max_threads_per_sm as u64 {
                configs.push((tpb, bpsm));
            }
        }
    }
    configs
}

/// Fig. 4's launch shape for a warps/SM target.
pub fn block_sync_config(warps: u32) -> (u32, u32) {
    if warps <= 32 {
        (1, warps * 32)
    } else {
        (warps / 32, 1024)
    }
}

pub use sync_micro::measure::one_sm;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        for w in Workload::ALL {
            let a = Plan::new(w, 7);
            let b = Plan::new(w, 7);
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
            assert_eq!(a.points(), Plan::new(w, PAPER_SEED).points());
        }
    }
}
