//! The untraced run: each artifact from the library's figure-level entry
//! points, the calls `repro` makes, so a gain anywhere below them shows.

use crate::plan::{Plan, Workload};
use crate::render;
use crate::Artifacts;
use sim_core::SimResult;
use sync_micro::{block_sync, grid_sync, multi_gpu, multi_grid, warp_sync};

pub fn run(plan: &Plan) -> Artifacts {
    let mut out = Artifacts::new(plan);
    let archs = plan.archs();
    match plan.workload {
        Workload::GridSweep => {
            let maps: SimResult<Vec<_>> = archs.iter().map(|a| grid_sync::figure5(a)).collect();
            out.put("fig5", maps.map(|m| (render::fig5(&m), 0)));
            let rows: SimResult<Vec<_>> = archs.iter().map(|a| warp_sync::table2(a)).collect();
            out.put("table2", rows.map(|r| (render::table2(archs, &r), 0)));
            let points: SimResult<Vec<_>> = archs.iter().map(|a| block_sync::figure4(a)).collect();
            out.put("fig4", points.map(|p| (render::fig4(archs, &p), 0)));
        }
        Workload::MultigridNode => {
            let fig = multi_grid::multi_grid_figure(&plan.v100, &plan.node, &plan.fig8_counts);
            out.put("fig8", fig.map(|f| (render::fig8(&f), 0)));
            let pts = multi_gpu::figure9(&plan.v100, &plan.node, &plan.fig9_counts);
            out.put("fig9", pts.map(|p| (render::fig9(&p), 0)));
        }
        Workload::ReductionCase => {
            let samples: SimResult<Vec<_>> = archs
                .iter()
                .zip(&plan.fig15_sizes)
                .map(|(a, sizes)| reduction::figure15(a, sizes))
                .collect();
            out.put(
                "fig15",
                samples.map(|s| {
                    let wrong = s.iter().flatten().filter(|x| !x.correct).count();
                    (render::fig15(archs, &plan.fig15_sizes, &s), wrong)
                }),
            );
            let rows: SimResult<Vec<_>> = archs.iter().map(|a| reduction::table6(a)).collect();
            out.put(
                "table6",
                rows.map(|r| {
                    let wrong = r.iter().flatten().filter(|x| !x.correct).count();
                    (render::table6(archs, &r), wrong)
                }),
            );
            let samples = reduction::figure16(&plan.v100, &plan.node, &plan.fig16_counts);
            out.put(
                "fig16",
                samples.map(|s| {
                    let wrong = s.iter().filter(|x| !x.correct).count();
                    (render::fig16(&plan.fig16_counts, &s), wrong)
                }),
            );
            let samples = reduction::allreduce_series(
                &plan.v100,
                &plan.node,
                &plan.allreduce_counts,
                plan.allreduce_elems,
            );
            out.put(
                "allreduce",
                samples.map(|s| {
                    let wrong = s.iter().filter(|x| !x.correct).count();
                    (render::allreduce(&plan.allreduce_counts, &s), wrong)
                }),
            );
        }
    }
    out
}
