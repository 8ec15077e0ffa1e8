//! The traced run: the same artifacts as the untraced run, assembled one
//! level down from the public per-cell calls (`kernels::*`,
//! `GpuSystem::new/reset/alloc/execute`, `HostSim`,
//! `launch_overhead::measure_launch_path_with`, `reduction::measure_*`),
//! each cell run through `Sweep` and every call wrapped in a span.
//!
//! Each cell repeats what the library's measurement helper does, so the
//! rendered artifacts must equal the untraced run's byte for byte.

use crate::plan::{
    block_sync_config, heatmap_cells, one_sm, throughput_configs, Cell, Plan, Workload,
    BLOCK_LAT_REPS, FIG16_ELEMS, FIG9_SLEEP_NS, HEATMAP_REPS, LAT_REPS, TABLE6_ELEMS, THR_REPS,
};
use crate::render;
use crate::trace::{Layer, Tracer};
use crate::Artifacts;
use cuda_rt::HostSim;
use gpu_arch::GpuArch;
use gpu_node::NodeTopology;
use gpu_sim::kernels::{self, SyncOp};
use gpu_sim::{BufId, GpuSystem, GridLaunch, LaunchKind, RunOptions};
use reduction::{AllReduceAlgo, DeviceReduceMethod, MultiGpuReduceMethod};
use sim_core::SimResult;
use std::sync::Arc;
use sync_micro::block_sync::BlockSyncPoint;
use sync_micro::grid_sync::{HeatMap, BLOCKS_PER_SM, THREADS_PER_BLOCK};
use sync_micro::launch_overhead::measure_launch_path_with;
use sync_micro::measure::cycles_to_us;
use sync_micro::multi_gpu::MultiGpuPoint;
use sync_micro::multi_grid::MultiGridFigure;
use sync_micro::warp_sync::WarpSyncRow;

/// One traced run of `plan` on `workers` sweep workers.
pub fn run(tr: &Tracer, plan: &Plan, workers: usize) -> Artifacts {
    let mut out = Artifacts::new(plan);
    let cx = Cx { tr, workers };
    match plan.workload {
        Workload::GridSweep => {
            let archs = plan.archs();
            let maps: SimResult<Vec<HeatMap>> = archs.iter().map(|a| cx.fig5(a)).collect();
            out.put(
                "fig5",
                maps.map(|m| (tr.span(Layer::Render, || render::fig5(&m)), 0)),
            );
            let rows: SimResult<Vec<_>> = archs.iter().map(|a| cx.table2(a)).collect();
            out.put(
                "table2",
                rows.map(|r| (tr.span(Layer::Render, || render::table2(archs, &r)), 0)),
            );
            let pts: SimResult<Vec<_>> = archs.iter().map(|a| cx.fig4(a)).collect();
            out.put(
                "fig4",
                pts.map(|p| (tr.span(Layer::Render, || render::fig4(archs, &p)), 0)),
            );
        }
        Workload::MultigridNode => {
            let fig = cx.fig8(&plan.v100, &plan.node, &plan.fig8_counts);
            out.put(
                "fig8",
                fig.map(|f| (tr.span(Layer::Render, || render::fig8(&f)), 0)),
            );
            let pts = cx.fig9(&plan.v100, &plan.node, &plan.fig9_counts);
            out.put(
                "fig9",
                pts.map(|p| (tr.span(Layer::Render, || render::fig9(&p)), 0)),
            );
        }
        Workload::ReductionCase => cx.reductions(plan, &mut out),
    }
    out
}

/// The traced calls, with the sweep width they run at.
struct Cx<'a> {
    tr: &'a Tracer,
    workers: usize,
}

impl Cx<'_> {
    fn system(&self, arch: &GpuArch, topology: &Arc<NodeTopology>) -> GpuSystem {
        self.tr.span(Layer::System, || {
            GpuSystem::new(arch.clone(), topology.clone())
        })
    }

    fn alloc(&self, sys: &mut GpuSystem, device: usize, words: u64) -> BufId {
        self.tr.span(Layer::System, || sys.alloc(device, words))
    }

    /// `measure::sync_chain_run_in`: a clocked chain of `reps` sync ops on a
    /// reset system; cycles per op from lane 0 of block 0.
    fn chain(
        &self,
        sys: &mut GpuSystem,
        devices: &[usize],
        op: SyncOp,
        reps: usize,
        grid_dim: u32,
        block_dim: u32,
    ) -> SimResult<f64> {
        self.tr.span(Layer::System, || sys.reset());
        let kernel = self
            .tr
            .span(Layer::Kernels, || kernels::sync_chain(op, reps));
        let words = grid_dim as u64 * block_dim as u64;
        let params: Vec<Vec<u64>> = devices
            .iter()
            .map(|&d| vec![self.alloc(sys, d, words).0 as u64])
            .collect();
        let kind = match op {
            SyncOp::Grid => LaunchKind::Cooperative,
            SyncOp::MultiGrid => LaunchKind::CooperativeMultiDevice,
            _ => LaunchKind::Traditional,
        };
        let out = BufId(params[0][0] as u32);
        let launch = GridLaunch {
            kernel,
            grid_dim,
            block_dim,
            kind,
            devices: devices.to_vec(),
            params,
            checked: false,
        };
        self.tr.execute(sys, &launch)?;
        let cycles = sys.buffer(out).load(0).expect("lane 0 timer");
        Ok(cycles as f64 / reps as f64)
    }

    /// Per-SM throughput of an unclocked launch (warp-syncs/cycle/SM).
    fn throughput(
        &self,
        arch: &GpuArch,
        kernel: impl FnOnce() -> gpu_sim::Kernel,
        reps: usize,
        grid_dim: u32,
        block_dim: u32,
        alloc_words: Option<u64>,
    ) -> SimResult<f64> {
        let mut sys = self.system(arch, &Arc::new(NodeTopology::single()));
        let kernel = self.tr.span(Layer::Kernels, kernel);
        let params = match alloc_words {
            Some(words) => vec![self.alloc(&mut sys, 0, words).0 as u64],
            None => vec![],
        };
        let launch = GridLaunch::single(kernel, grid_dim, block_dim, params);
        let report = self.tr.execute(&mut sys, &launch)?.report;
        let cycles = arch.clock().to_cycles(report.duration);
        let warps = arch.warps_per_block(block_dim) as f64 * grid_dim as f64;
        Ok(warps * reps as f64 / cycles / arch.num_sms as f64)
    }

    /// `measure::sync_throughput_per_sm`.
    fn sync_throughput(&self, arch: &GpuArch, op: SyncOp, grid: u32, block: u32) -> SimResult<f64> {
        let words = grid as u64 * block as u64;
        self.throughput(
            arch,
            || kernels::sync_throughput(op, THR_REPS),
            THR_REPS,
            grid,
            block,
            Some(words),
        )
    }

    fn fig5(&self, arch: &GpuArch) -> SimResult<HeatMap> {
        let cells = heatmap_cells(arch);
        let single = Arc::new(NodeTopology::single());
        let values = self.tr.sweep(
            self.workers,
            cells.clone(),
            || self.system(arch, &single),
            |sys, c| {
                let grid = c.bpsm * arch.num_sms;
                let cyc = self.chain(sys, &[0], SyncOp::Grid, HEATMAP_REPS, grid, c.tpb)?;
                Ok(cycles_to_us(arch, cyc))
            },
        )?;
        Ok(heatmap(
            &format!("Fig. 5: grid sync latency (us), {}", arch.name),
            &cells,
            values,
        ))
    }

    fn table2(&self, arch: &GpuArch) -> SimResult<Vec<WarpSyncRow>> {
        #[derive(Clone, Copy)]
        enum Point {
            Lat(SyncOp),
            PartialLat,
            Thr(SyncOp, u32, u32),
            PartialThr(u32, u32, u32),
        }
        let a1 = one_sm(arch);
        let ops = [
            SyncOp::Tile(32),
            SyncOp::ShflTile,
            SyncOp::Coalesced,
            SyncOp::ShflCoalesced,
            SyncOp::Block,
        ];
        let configs = throughput_configs(&a1);
        let mut points: Vec<Point> = ops.iter().map(|&op| Point::Lat(op)).collect();
        points.push(Point::PartialLat);
        for &op in &ops {
            points.extend(configs.iter().map(|&(tpb, bpsm)| Point::Thr(op, tpb, bpsm)));
        }
        for k in [1u32, 8, 16, 31] {
            points.extend(
                configs
                    .iter()
                    .map(|&(tpb, bpsm)| Point::PartialThr(k, tpb, bpsm)),
            );
        }
        let single = Arc::new(NodeTopology::single());
        let values = self.tr.sweep(
            self.workers,
            points,
            || (),
            |_, p| match p {
                Point::Lat(op) => {
                    let mut sys = self.system(&a1, &single);
                    self.chain(&mut sys, &[0], op, LAT_REPS, 1, 32)
                }
                Point::PartialLat => {
                    let mut sys = self.system(&a1, &single);
                    let out = self.alloc(&mut sys, 0, 32);
                    let kernel = self.tr.span(Layer::Kernels, || {
                        kernels::coalesced_partial_chain(16, LAT_REPS)
                    });
                    let launch = GridLaunch::single(kernel, 1, 32, vec![out.0 as u64]);
                    self.tr.execute(&mut sys, &launch)?;
                    Ok(sys.buffer(out).load(0).expect("lane 0 timer") as f64 / LAT_REPS as f64)
                }
                Point::Thr(op, tpb, bpsm) => self.sync_throughput(&a1, op, bpsm, tpb),
                Point::PartialThr(k, tpb, bpsm) => self.throughput(
                    &a1,
                    || kernels::coalesced_partial_throughput(k, THR_REPS),
                    THR_REPS,
                    bpsm,
                    tpb,
                    None,
                ),
            },
        )?;
        let (lat, thr) = values.split_at(ops.len() + 1);
        let best = |group: usize| {
            thr[group * configs.len()..(group + 1) * configs.len()]
                .iter()
                .fold(0.0f64, |a, &b| a.max(b))
        };
        let partial_thr = thr[ops.len() * configs.len()..]
            .iter()
            .fold(0.0f64, |a, &b| a.max(b));
        let block_ref = if arch.compute_capability.0 >= 7 {
            16.0
        } else {
            32.0
        };
        let row =
            |name: &str, latency_cycles: f64, throughput_per_cycle: f64, reference| WarpSyncRow {
                name: name.into(),
                latency_cycles,
                throughput_per_cycle,
                reference_ops_per_cycle: reference,
            };
        Ok(vec![
            row("Tile(*)", lat[0], best(0), None),
            row("Shuffle(Tile)(*)", lat[1], best(1), Some(32.0)),
            row("Coalesced(1-31)", lat[5], partial_thr, None),
            row("Coalesced(32)", lat[2], best(2), None),
            row("Shuffle(COA)(*)", lat[3], best(3), None),
            row("Block(warp)", lat[4], best(4), Some(block_ref)),
        ])
    }

    fn fig4(&self, arch: &GpuArch) -> SimResult<Vec<BlockSyncPoint>> {
        let a1 = one_sm(arch);
        let single = Arc::new(NodeTopology::single());
        let warps: Vec<u32> = (0..7u32).map(|shift| 1 << shift).collect();
        self.tr.sweep(
            self.workers,
            warps,
            || (),
            |_, warps| {
                let (grid, block) = block_sync_config(warps);
                let mut sys = self.system(&a1, &single);
                let lat = self.chain(&mut sys, &[0], SyncOp::Block, BLOCK_LAT_REPS, grid, block)?;
                let thr = self.sync_throughput(&a1, SyncOp::Block, grid, block)?;
                Ok(BlockSyncPoint {
                    warps_per_sm: warps,
                    latency_cycles: lat,
                    warp_sync_per_cycle: thr,
                })
            },
        )
    }

    fn fig8(
        &self,
        arch: &GpuArch,
        node: &NodeTopology,
        counts: &[usize],
    ) -> SimResult<MultiGridFigure> {
        let topology = Arc::new(node.clone());
        let cells = heatmap_cells(arch);
        let points: Vec<(usize, Cell)> = counts
            .iter()
            .flat_map(|&n| cells.iter().map(move |&c| (n, c)))
            .collect();
        let values = self.tr.sweep(
            self.workers,
            points,
            || (),
            |_, (n, c)| {
                let devices: Vec<usize> = (0..n).collect();
                let mut sys = self.system(arch, &topology);
                let grid = c.bpsm * arch.num_sms;
                let cyc = self.chain(
                    &mut sys,
                    &devices,
                    SyncOp::MultiGrid,
                    HEATMAP_REPS,
                    grid,
                    c.tpb,
                )?;
                Ok(cycles_to_us(arch, cyc))
            },
        )?;
        let maps = counts
            .iter()
            .zip(values.chunks(cells.len()))
            .map(|(&n, vals)| {
                let title = format!("multi-grid sync latency (us), {} GPU(s), {}", n, arch.name);
                (n, heatmap(&title, &cells, vals.to_vec()))
            })
            .collect();
        Ok(MultiGridFigure {
            arch: arch.name.clone(),
            node: topology.name.clone(),
            maps,
        })
    }

    /// `multi_gpu::cpu_side_overhead_us`: per-step cost of launch + device
    /// sync + host barrier over `n` GPUs, minus the kernel's own sleep.
    fn cpu_side_us(
        &self,
        arch: &GpuArch,
        topology: &Arc<NodeTopology>,
        n: usize,
    ) -> SimResult<f64> {
        let tr = self.tr;
        let mut small = arch.clone();
        small.num_sms = small.num_sms.min(4);
        let sys = self.system(&small, topology);
        let mut h = tr.span(Layer::HostSim, || {
            HostSim::with_threads(sys, n).without_jitter()
        });
        let threads: Vec<usize> = (0..n).collect();
        let kernel = tr.span(Layer::Kernels, || kernels::sleep_kernel(FIG9_SLEEP_NS));
        let steps = 6;
        let step = |h: &mut HostSim| -> SimResult<()> {
            for &t in &threads {
                let l = GridLaunch::single(kernel.clone(), 1, 32, vec![]).on_device(t);
                let arts = tr.span(Layer::HostSim, || h.launch(t, &l, &RunOptions::new()))?;
                tr.record(&arts.record.exec);
                tr.span(Layer::HostSim, || h.device_synchronize(t, t));
            }
            tr.span(Layer::HostSim, || h.omp_barrier(&threads));
            Ok(())
        };
        step(&mut h)?; // warm-up
        let t0 = h.now(0);
        for _ in 0..steps {
            step(&mut h)?;
        }
        let per_step = (h.now(0) - t0).as_us() / steps as f64;
        Ok(per_step - FIG9_SLEEP_NS as f64 / 1e3)
    }

    fn fig9(
        &self,
        arch: &GpuArch,
        node: &NodeTopology,
        counts: &[usize],
    ) -> SimResult<Vec<MultiGpuPoint>> {
        #[derive(Clone, Copy)]
        enum Metric {
            Launch,
            CpuSide,
            Mgrid(u32, u32),
        }
        const METRICS: [Metric; 5] = [
            Metric::Launch,
            Metric::CpuSide,
            Metric::Mgrid(1, 32),
            Metric::Mgrid(1, 1024),
            Metric::Mgrid(32, 64),
        ];
        let topology = Arc::new(node.clone());
        let points: Vec<(usize, Metric)> = counts
            .iter()
            .flat_map(|&n| METRICS.iter().map(move |&m| (n, m)))
            .collect();
        let values = self.tr.sweep(
            self.workers,
            points,
            || (),
            |_, (n, metric)| {
                let devices: Vec<usize> = (0..n).collect();
                match metric {
                    Metric::Launch => {
                        let (row, _) = self.tr.span(Layer::HostSim, || {
                            measure_launch_path_with(
                                arch,
                                LaunchKind::CooperativeMultiDevice,
                                FIG9_SLEEP_NS,
                                &devices,
                                topology.clone(),
                                &RunOptions::new(),
                            )
                        })?;
                        Ok(row.overhead_ns / 1e3)
                    }
                    Metric::CpuSide => self.cpu_side_us(arch, &topology, n),
                    Metric::Mgrid(bpsm, tpb) => {
                        let mut sys = self.system(arch, &topology);
                        let grid = bpsm * arch.num_sms;
                        let cyc = self.chain(
                            &mut sys,
                            &devices,
                            SyncOp::MultiGrid,
                            HEATMAP_REPS,
                            grid,
                            tpb,
                        )?;
                        Ok(cycles_to_us(arch, cyc))
                    }
                }
            },
        )?;
        Ok(counts
            .iter()
            .zip(values.chunks(METRICS.len()))
            .map(|(&gpus, v)| MultiGpuPoint {
                gpus,
                multi_device_launch_us: v[0],
                cpu_side_us: v[1],
                mgrid_fast_us: v[2],
                mgrid_general_us: v[3],
                mgrid_slow_us: v[4],
            })
            .collect())
    }

    fn reductions(&self, plan: &Plan, out: &mut Artifacts) {
        let tr = self.tr;
        let archs = plan.archs();
        let wrong = |ok: &[bool]| ok.iter().filter(|&&c| !c).count();

        let fig15: SimResult<Vec<Vec<_>>> = archs
            .iter()
            .zip(&plan.fig15_sizes)
            .map(|(arch, sizes)| {
                let points: Vec<(f64, DeviceReduceMethod)> = sizes
                    .iter()
                    .flat_map(|&mb| DeviceReduceMethod::ALL.map(|m| (mb, m)))
                    .collect();
                tr.sweep(
                    self.workers,
                    points,
                    || (),
                    |_, (mb, m)| {
                        let n = (mb * 1e6 / 8.0) as u64;
                        tr.reduced(8 * n);
                        tr.span(Layer::Reduction, || {
                            reduction::measure_device_reduce(arch, m, n)
                        })
                    },
                )
            })
            .collect();
        out.put(
            "fig15",
            fig15.map(|s| {
                let ok: Vec<bool> = s.iter().flatten().map(|x| x.correct).collect();
                let text = tr.span(Layer::Render, || {
                    render::fig15(archs, &plan.fig15_sizes, &s)
                });
                (text, wrong(&ok))
            }),
        );

        let points: Vec<(usize, DeviceReduceMethod)> = (0..2)
            .flat_map(|a| DeviceReduceMethod::ALL.map(|m| (a, m)))
            .collect();
        let table6 = tr.sweep(
            self.workers,
            points,
            || (),
            |_, (a, m)| {
                tr.reduced(8 * TABLE6_ELEMS);
                tr.span(Layer::Reduction, || {
                    reduction::measure_device_reduce(archs[a], m, TABLE6_ELEMS)
                })
            },
        );
        out.put(
            "table6",
            table6.map(|s| {
                let ok: Vec<bool> = s.iter().map(|x| x.correct).collect();
                let rows: Vec<Vec<_>> = s
                    .chunks(DeviceReduceMethod::ALL.len())
                    .map(<[_]>::to_vec)
                    .collect();
                (
                    tr.span(Layer::Render, || render::table6(archs, &rows)),
                    wrong(&ok),
                )
            }),
        );

        let methods = [
            MultiGpuReduceMethod::MultiGridSync,
            MultiGpuReduceMethod::CpuSideBarrier,
        ];
        let points: Vec<(usize, MultiGpuReduceMethod)> = plan
            .fig16_counts
            .iter()
            .flat_map(|&n| methods.map(|m| (n, m)))
            .collect();
        let fig16 = tr.sweep(
            self.workers,
            points,
            || (),
            |_, (n, m)| {
                tr.reduced(8 * FIG16_ELEMS);
                tr.span(Layer::Reduction, || {
                    reduction::measure_multi_gpu_reduce(&plan.v100, &plan.node, m, n, FIG16_ELEMS)
                })
            },
        );
        out.put(
            "fig16",
            fig16.map(|s| {
                let ok: Vec<bool> = s.iter().map(|x| x.correct).collect();
                (
                    tr.span(Layer::Render, || render::fig16(&plan.fig16_counts, &s)),
                    wrong(&ok),
                )
            }),
        );

        let points: Vec<(usize, AllReduceAlgo)> = plan
            .allreduce_counts
            .iter()
            .flat_map(|&n| AllReduceAlgo::ALL.map(|a| (n, a)))
            .filter(|&(n, a)| !(n == 1 && a == AllReduceAlgo::Ring))
            .collect();
        let elems = plan.allreduce_elems;
        let allreduce = tr.sweep(
            self.workers,
            points,
            || (),
            |_, (n, algo)| {
                tr.reduced(8 * elems * n as u64);
                tr.span(Layer::Reduction, || {
                    reduction::measure_allreduce(&plan.v100, &plan.node, algo, n, elems)
                })
            },
        );
        out.put(
            "allreduce",
            allreduce.map(|s| {
                let ok: Vec<bool> = s.iter().map(|x| x.correct).collect();
                let text = tr.span(Layer::Render, || {
                    render::allreduce(&plan.allreduce_counts, &s)
                });
                (text, wrong(&ok))
            }),
        );
    }
}

/// `grid_sync::assemble_heatmap`: cell values (in plan order) into the full
/// grid, leaving infeasible cells blank.
fn heatmap(title: &str, cells: &[Cell], values: Vec<f64>) -> HeatMap {
    let mut grid = vec![vec![None; THREADS_PER_BLOCK.len()]; BLOCKS_PER_SM.len()];
    for (c, v) in cells.iter().zip(values) {
        grid[c.i][c.j] = Some(v);
    }
    HeatMap {
        title: title.to_string(),
        blocks_per_sm: BLOCKS_PER_SM.to_vec(),
        threads_per_block: THREADS_PER_BLOCK.to_vec(),
        cells: grid,
    }
}
