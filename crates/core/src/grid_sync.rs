//! Figs. 5, 7, 8: grid / multi-grid synchronization latency heat maps over
//! (blocks per SM × threads per block).

use crate::measure::{cycles_to_us, sync_chain_run_in, Placement};
use crate::report::{fmt, TextTable};
use gpu_arch::GpuArch;
use gpu_sim::kernels::SyncOp;
use gpu_sim::{GpuSystem, ProfileReport, RunOptions};
use serde::Serialize;
use sim_core::SimResult;

pub const BLOCKS_PER_SM: [u32; 6] = [1, 2, 4, 8, 16, 32];
pub const THREADS_PER_BLOCK: [u32; 6] = [32, 64, 128, 256, 512, 1024];

/// A (blocks/SM × threads/block) latency heat map in microseconds; `None`
/// marks configurations that do not fit co-resident (blank cells in the
/// paper's figures).
#[derive(Debug, Clone, Serialize)]
pub struct HeatMap {
    pub title: String,
    pub blocks_per_sm: Vec<u32>,
    pub threads_per_block: Vec<u32>,
    /// `cells[i][j]`: `blocks_per_sm[i]` × `threads_per_block[j]` → µs.
    pub cells: Vec<Vec<Option<f64>>>,
}

impl HeatMap {
    pub fn cell(&self, blocks_per_sm: u32, threads_per_block: u32) -> Option<f64> {
        let i = self
            .blocks_per_sm
            .iter()
            .position(|&b| b == blocks_per_sm)?;
        let j = self
            .threads_per_block
            .iter()
            .position(|&t| t == threads_per_block)?;
        self.cells[i][j]
    }

    pub fn render(&self) -> TextTable {
        let mut headers = vec!["blk/SM \\ thr".to_string()];
        headers.extend(self.threads_per_block.iter().map(|t| t.to_string()));
        let mut t = TextTable {
            title: self.title.clone(),
            headers,
            rows: Vec::new(),
        };
        for (i, &b) in self.blocks_per_sm.iter().enumerate() {
            let mut row = vec![b.to_string()];
            for c in &self.cells[i] {
                row.push(c.map(fmt).unwrap_or_else(|| "".into()));
            }
            t.row(row);
        }
        t
    }
}

/// Number of barrier rounds per configuration (kept small — the chain is in
/// steady state after the first round).
pub(crate) const REPS: usize = 4;

/// One feasible heat-map cell: axis indices plus launch geometry.
/// Configurations that cannot co-reside (the blank cells of the paper's
/// figures) are never planned at all.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CellPlan {
    pub i: usize,
    pub j: usize,
    pub bpsm: u32,
    pub tpb: u32,
}

/// Plan the feasible cells of the (blocks/SM × threads/block) sweep.
pub(crate) fn plan_cells(arch: &GpuArch) -> Vec<CellPlan> {
    let mut plan = Vec::new();
    for (i, &bpsm) in BLOCKS_PER_SM.iter().enumerate() {
        for (j, &tpb) in THREADS_PER_BLOCK.iter().enumerate() {
            if bpsm <= arch.occupancy(tpb, 0).blocks_per_sm {
                plan.push(CellPlan { i, j, bpsm, tpb });
            }
        }
    }
    plan
}

/// Assemble measured cell values (same order as the plan) into the full
/// grid, leaving unplanned cells blank.
pub(crate) fn assemble_heatmap(title: &str, plan: &[CellPlan], values: Vec<f64>) -> HeatMap {
    let mut cells = vec![vec![None; THREADS_PER_BLOCK.len()]; BLOCKS_PER_SM.len()];
    for (c, v) in plan.iter().zip(values) {
        cells[c.i][c.j] = Some(v);
    }
    HeatMap {
        title: title.to_string(),
        blocks_per_sm: BLOCKS_PER_SM.to_vec(),
        threads_per_block: THREADS_PER_BLOCK.to_vec(),
        cells,
    }
}

/// Measure one heat map for `op` ∈ {Grid, MultiGrid} on `ngpus` devices.
/// The feasible cells run on the shared sweep pool (see [`crate::sweep`]);
/// results are assembled in plan order, so the map is identical to a serial
/// run at any worker count. Each worker builds one [`GpuSystem`] and reuses
/// it (reset between launches) across every cell it claims, so per-cell cost
/// is the simulation itself, not system construction.
pub fn sync_heatmap(
    arch: &GpuArch,
    placement: &Placement,
    op: SyncOp,
    title: &str,
) -> SimResult<HeatMap> {
    Ok(heatmap_with(arch, placement, op, title, &RunOptions::new())?.0)
}

/// [`sync_heatmap`] with syncprof armed on every cell. The per-cell
/// profiles are merged in plan order — slot-indexed like the cell values —
/// so the merged report's bytes are identical at any `--jobs` count.
pub fn sync_heatmap_profiled(
    arch: &GpuArch,
    placement: &Placement,
    op: SyncOp,
    title: &str,
) -> SimResult<(HeatMap, ProfileReport)> {
    let (map, profile) = heatmap_with(arch, placement, op, title, &RunOptions::new().profile())?;
    Ok((map, profile.expect("profiling was armed")))
}

/// Fig. 5: single-GPU grid synchronization latency.
pub fn figure5(arch: &GpuArch) -> SimResult<HeatMap> {
    Ok(figure5_with(arch, &RunOptions::new())?.0)
}

/// [`figure5`] with syncprof armed: the heat map plus the merged per-scope
/// stall attribution across every feasible cell.
pub fn figure5_profiled(arch: &GpuArch) -> SimResult<(HeatMap, ProfileReport)> {
    let (map, profile) = figure5_with(arch, &RunOptions::new().profile())?;
    Ok((map, profile.expect("profiling was armed")))
}

fn figure5_with(arch: &GpuArch, opts: &RunOptions) -> SimResult<(HeatMap, Option<ProfileReport>)> {
    heatmap_with(
        arch,
        &Placement::single(),
        SyncOp::Grid,
        &format!("Fig. 5: grid sync latency (us), {}", arch.name),
        opts,
    )
}

/// Run every feasible cell under `opts`; when profiling, merge the cell
/// profiles in plan order into one report.
fn heatmap_with(
    arch: &GpuArch,
    placement: &Placement,
    op: SyncOp,
    title: &str,
    opts: &RunOptions,
) -> SimResult<(HeatMap, Option<ProfileReport>)> {
    assert!(matches!(op, SyncOp::Grid | SyncOp::MultiGrid));
    let plan = plan_cells(arch);
    let cells = crate::sweep::Sweep::new()
        .init(|| GpuSystem::new(arch.clone(), placement.topology.clone()))
        .try_run(plan.clone(), |sys, c| {
            let (m, arts) = sync_chain_run_in(
                sys,
                &placement.devices,
                op,
                REPS,
                c.bpsm * arch.num_sms,
                c.tpb,
                opts,
            )?;
            Ok((cycles_to_us(arch, m.cycles_per_op), arts.profile))
        })?;
    let profile = opts.wants_profile().then(|| {
        ProfileReport::merged(
            arch.clock().ps_per_cycle(),
            cells.iter().flat_map(|(_, p)| p),
        )
    });
    let values = cells.into_iter().map(|(v, _)| v).collect();
    Ok((assemble_heatmap(title, &plan, values), profile))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v100_grid_sync_anchor_cells() {
        let hm = figure5(&GpuArch::v100()).unwrap();
        // Paper Fig. 5 (V100): corner anchors, ±30%.
        for (b, t, expect) in [
            (1u32, 32u32, 1.43f64),
            (1, 1024, 2.21),
            (2, 32, 1.81),
            (8, 32, 5.07),
            (32, 32, 19.29),
            (32, 64, 24.51),
        ] {
            let got = hm.cell(b, t).unwrap();
            assert!(
                (got - expect).abs() / expect < 0.30,
                "V100 ({b},{t}): {got:.2} vs paper {expect}"
            );
        }
    }

    #[test]
    fn p100_grid_sync_anchor_cells() {
        let hm = figure5(&GpuArch::p100()).unwrap();
        for (b, t, expect) in [
            (1u32, 32u32, 1.77f64),
            (1, 1024, 2.26),
            (32, 32, 31.69),
            (16, 128, 14.92),
        ] {
            let got = hm.cell(b, t).unwrap();
            assert!(
                (got - expect).abs() / expect < 0.30,
                "P100 ({b},{t}): {got:.2} vs paper {expect}"
            );
        }
    }

    #[test]
    fn infeasible_cells_are_blank() {
        let hm = figure5(&GpuArch::v100()).unwrap();
        // 1024-thread blocks fit only 2/SM; 512-thread only 4/SM.
        assert!(hm.cell(4, 1024).is_none());
        assert!(hm.cell(8, 512).is_none());
        assert!(hm.cell(2, 1024).is_some());
    }

    #[test]
    fn latency_depends_more_on_blocks_than_threads() {
        // The paper's headline conclusion for grid sync.
        let hm = figure5(&GpuArch::v100()).unwrap();
        let by_blocks = hm.cell(32, 32).unwrap() / hm.cell(1, 32).unwrap();
        let by_threads = hm.cell(1, 1024).unwrap() / hm.cell(1, 32).unwrap();
        assert!(
            by_blocks > 3.0 * by_threads,
            "blocks x{by_blocks:.1} vs threads x{by_threads:.1}"
        );
    }

    #[test]
    fn render_shape() {
        let hm = figure5(&GpuArch::v100()).unwrap();
        let t = hm.render();
        assert_eq!(t.rows.len(), 6);
        assert_eq!(t.headers.len(), 7);
    }
}
