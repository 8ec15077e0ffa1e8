//! One entry point per table/figure of the paper's evaluation.
//!
//! Every function regenerates its artifact from scratch on the simulated
//! platforms and renders it in the paper's shape. `EXPERIMENTS` is the
//! registry the `repro` binary drives.

use gpu_arch::GpuArch;
use gpu_node::NodeTopology;
use gpu_sim::kernels::SyncOp;
use gpu_sim::{GpuSystem, GridLaunch, KernelBuilder, RunOptions};
use perf_model::ConfigModel;
use sim_core::SimError;
use sync_micro::report::{fmt, TextTable};
use sync_micro::{
    block_sync, grid_sync, inter_sm, launch_overhead, measure, multi_gpu, multi_grid, shared_mem,
    summary, warp_probe, warp_sync,
};

/// Table I: launch overhead and null-kernel total latency (V100 platform —
/// the sleep instruction exists only on Volta).
pub fn table1() -> String {
    let rows = launch_overhead::table1(&GpuArch::v100()).expect("table1");
    let mut s = launch_overhead::render_table1(&rows).render();
    let bad = launch_overhead::unsaturated_overhead_ns(&GpuArch::v100()).expect("unsat");
    s.push_str(&format!(
        "(§IX-B check: fusion with *null* kernels over-reports: {:.0} ns)\n",
        bad
    ));
    s
}

/// Table II: warp-level synchronization latency and throughput, V100 + P100.
pub fn table2() -> String {
    let va = GpuArch::v100();
    let pa = GpuArch::p100();
    let v = warp_sync::table2(&va).expect("v100");
    let p = warp_sync::table2(&pa).expect("p100");
    warp_sync::render_table2(&[(&va, &v), (&pa, &p)]).render()
}

/// Fig. 4: block-sync throughput and latency vs active warps/SM.
pub fn figure4() -> String {
    let va = GpuArch::v100();
    let pa = GpuArch::p100();
    let v = block_sync::figure4(&va).expect("v100");
    let p = block_sync::figure4(&pa).expect("p100");
    block_sync::render_figure4(&[(&va, &v), (&pa, &p)]).render()
}

/// Fig. 5: grid-sync latency heat maps, V100 and P100 (table + shading).
pub fn figure5() -> String {
    let mut s = String::new();
    for arch in [GpuArch::v100(), GpuArch::p100()] {
        let hm = grid_sync::figure5(&arch).expect("fig5");
        s.push_str(&hm.render().render());
        s.push_str(&sync_micro::plot::shade_heatmap(&hm));
    }
    s
}

/// Fig. 7: multi-grid sync latency on the P100 PCIe pair.
pub fn figure7() -> String {
    let fig = multi_grid::figure7(&GpuArch::p100()).expect("fig7");
    let mut s = String::new();
    for (n, hm) in &fig.maps {
        s.push_str(&format!("-- Fig. 7: P100 x{} --\n", n));
        s.push_str(&hm.render().render());
    }
    s
}

/// Fig. 8: multi-grid sync latency on the DGX-1, 1/2/5/6/8 GPUs.
pub fn figure8() -> String {
    let fig = multi_grid::figure8(&GpuArch::v100()).expect("fig8");
    let mut s = String::new();
    for (n, hm) in &fig.maps {
        s.push_str(&format!("-- Fig. 8: DGX-1 x{} --\n", n));
        s.push_str(&hm.render().render());
    }
    s
}

/// Fig. 9: the three multi-GPU barrier methods across 1–8 GPUs.
pub fn figure9() -> String {
    let pts = multi_gpu::figure9(
        &GpuArch::v100(),
        &NodeTopology::dgx1_v100(),
        &[1, 2, 3, 4, 5, 6, 7, 8],
    )
    .expect("fig9");
    let mut s = multi_gpu::render_figure9(&pts).render();
    use sync_micro::plot::{line_chart, Scale, Series};
    let series = vec![
        Series::new(
            "multi-device launch",
            pts.iter()
                .map(|p| (p.gpus as f64, p.multi_device_launch_us))
                .collect(),
        ),
        Series::new(
            "CPU-side barrier",
            pts.iter().map(|p| (p.gpus as f64, p.cpu_side_us)).collect(),
        ),
        Series::new(
            "mgrid 1x32",
            pts.iter()
                .map(|p| (p.gpus as f64, p.mgrid_fast_us))
                .collect(),
        ),
        Series::new(
            "mgrid 1x1024",
            pts.iter()
                .map(|p| (p.gpus as f64, p.mgrid_general_us))
                .collect(),
        ),
        Series::new(
            "mgrid 32x64",
            pts.iter()
                .map(|p| (p.gpus as f64, p.mgrid_slow_us))
                .collect(),
        ),
    ];
    s.push_str(&line_chart(
        "Fig. 9 (chart): latency (us) vs GPU count",
        &series,
        Scale::Linear,
        Scale::Linear,
        64,
        16,
    ));
    s
}

/// Table III: measured shared-memory bandwidth/latency plus the Little's-law
/// concurrency column (Eq. 1).
pub fn table3() -> String {
    let mut t = TextTable::new(
        "Table III: projected concurrency of the reduction configurations",
        &[
            "scenario",
            "arch",
            "bandwidth (B/cyc)",
            "latency (cyc)",
            "concurrency (B)",
        ],
    );
    for arch in [GpuArch::v100(), GpuArch::p100()] {
        let rows = shared_mem::table3_measurements(&arch).expect("table3");
        for r in &rows {
            let m = ConfigModel::new(r.threads, r.bandwidth_bytes_per_cycle, r.latency_cycles);
            t.row(vec![
                r.scenario.clone(),
                arch.name.clone(),
                fmt(r.bandwidth_bytes_per_cycle),
                fmt(r.latency_cycles),
                fmt(m.concurrency_bytes()),
            ]);
        }
    }
    t.render()
}

/// The two Table IV scenarios computed from *measured* data: Table III's
/// bandwidth/latency plus the measured cost of five synchronization steps.
pub fn table4() -> String {
    let mut t = TextTable::new(
        "Table IV: predicted switching points (from measured data)",
        &["scenario", "arch", "sync cost (cyc)", "Nl (B)", "Nm (B)"],
    );
    for arch in [GpuArch::v100(), GpuArch::p100()] {
        let rows = shared_mem::table3_measurements(&arch).expect("smem");
        let one = ConfigModel::new(1, rows[0].bandwidth_bytes_per_cycle, rows[0].latency_cycles);
        let warp = ConfigModel::new(
            32,
            rows[1].bandwidth_bytes_per_cycle,
            rows[1].latency_cycles,
        );
        let full = ConfigModel::new(
            1024,
            rows[2].bandwidth_bytes_per_cycle,
            rows[2].latency_cycles,
        );
        let a1 = measure::one_sm(&arch);
        let p = measure::Placement::single();
        // Five warp-level shuffles / five block barriers at 1024 threads.
        let shfl5 = 5.0
            * measure::sync_chain_cycles(&a1, &p, SyncOp::ShflTile, 40, 1, 32)
                .expect("shfl")
                .cycles_per_op;
        let blk5 = 5.0
            * measure::sync_chain_cycles(&a1, &p, SyncOp::Block, 40, 1, 1024)
                .expect("blk")
                .cycles_per_op;
        for pred in perf_model::table4(&one, &warp, &warp, &full, shfl5, blk5) {
            t.row(vec![
                pred.scenario.clone(),
                arch.name.clone(),
                fmt(pred.sync_latency_cycles),
                fmt(pred.points.nl_bytes),
                fmt(pred.points.nm_bytes),
            ]);
        }
    }
    t.render()
}

/// Table V: warp-level reduction variants (32 doubles).
pub fn table5() -> String {
    let mut t = TextTable::new(
        "Table V: latency (cycles) to sum 32 doubles in a warp",
        &["variant", "V100", "V100 ok", "P100", "P100 ok"],
    );
    let v = reduction::table5(&GpuArch::v100()).expect("v100");
    let p = reduction::table5(&GpuArch::p100()).expect("p100");
    for (rv, rp) in v.iter().zip(&p) {
        t.row(vec![
            rv.variant.clone(),
            fmt(rv.latency_cycles),
            if rv.correct { "yes" } else { "WRONG" }.into(),
            fmt(rp.latency_cycles),
            if rp.correct { "yes" } else { "WRONG" }.into(),
        ]);
    }
    t.render()
}

/// Fig. 15: single-GPU reduction latency vs size, all four methods.
pub fn figure15() -> String {
    let mut s = String::new();
    for (arch, sizes) in [
        (
            GpuArch::v100(),
            &[0.1, 1.0, 10.0, 100.0, 1000.0, 10000.0][..],
        ),
        (GpuArch::p100(), &[0.1, 1.0, 10.0, 100.0, 1000.0][..]),
    ] {
        let mut t = TextTable::new(
            &format!("Fig. 15: single-GPU reduction latency (us), {}", arch.name),
            &["size (MB)", "implicit", "grid sync", "CUB-like", "SDK-like"],
        );
        let mut series: Vec<sync_micro::plot::Series> = reduction::DeviceReduceMethod::ALL
            .iter()
            .map(|m| sync_micro::plot::Series::new(m.name(), Vec::new()))
            .collect();
        let nmethods = reduction::DeviceReduceMethod::ALL.len();
        let samples = reduction::figure15(&arch, sizes).expect("fig15");
        for (ri, &mb) in sizes.iter().enumerate() {
            let mut row = vec![fmt(mb)];
            for (mi, smp) in samples[ri * nmethods..(ri + 1) * nmethods]
                .iter()
                .enumerate()
            {
                assert!(smp.correct, "{} wrong at {mb} MB", smp.method);
                row.push(fmt(smp.latency_us));
                series[mi].points.push((mb, smp.latency_us));
            }
            t.row(row);
        }
        s.push_str(&t.render());
        s.push_str(&sync_micro::plot::line_chart(
            &format!(
                "Fig. 15 (chart): {} latency (us) vs size (MB), log-log",
                arch.name
            ),
            &series,
            sync_micro::plot::Scale::Log10,
            sync_micro::plot::Scale::Log10,
            64,
            14,
        ));
    }
    s
}

/// Table VI: reduction bandwidth at a bandwidth-bound size.
pub fn table6() -> String {
    let mut t = TextTable::new(
        "Table VI: bandwidth (GB/s) of the reduction methods",
        &[
            "arch",
            "implicit",
            "grid sync",
            "CUB-like",
            "SDK-like",
            "theory",
        ],
    );
    for arch in [GpuArch::v100(), GpuArch::p100()] {
        let rows = reduction::table6(&arch).expect("table6");
        let mut row = vec![arch.name.clone()];
        for r in &rows {
            row.push(fmt(r.bandwidth_gbs));
        }
        row.push(fmt(arch.memory.dram_peak_gbs));
        t.row(row);
    }
    t.render()
}

/// Fig. 16: multi-GPU reduction throughput on the DGX-1.
pub fn figure16() -> String {
    let samples = reduction::figure16(
        &GpuArch::v100(),
        &NodeTopology::dgx1_v100(),
        &[1, 2, 3, 4, 5, 6, 7, 8],
    )
    .expect("fig16");
    let mut t = TextTable::new(
        "Fig. 16: reduction throughput on DGX-1 (GB/s)",
        &["GPUs", "mgrid sync", "CPU-side barrier"],
    );
    for n in 1..=8usize {
        let get = |m: &str| {
            samples
                .iter()
                .find(|s| s.gpus == n && s.method == m)
                .map(|s| {
                    assert!(s.correct, "{m} wrong at {n} GPUs");
                    fmt(s.throughput_gbs)
                })
                .unwrap()
        };
        t.row(vec![
            n.to_string(),
            get("mgrid sync"),
            get("CPU-side barrier"),
        ]);
    }
    let mut s = t.render();
    use sync_micro::plot::{line_chart, Scale, Series};
    let series: Vec<Series> = ["mgrid sync", "CPU-side barrier"]
        .iter()
        .map(|m| {
            Series::new(
                m,
                samples
                    .iter()
                    .filter(|smp| smp.method == *m)
                    .map(|smp| (smp.gpus as f64, smp.throughput_gbs))
                    .collect(),
            )
        })
        .collect();
    s.push_str(&line_chart(
        "Fig. 16 (chart): throughput (GB/s) vs GPU count",
        &series,
        Scale::Linear,
        Scale::Linear,
        64,
        12,
    ));
    s
}

/// Fig. 18: per-thread clocks around a warp barrier (Fig. 17 kernel).
pub fn figure18() -> String {
    let v = warp_probe::figure18(&GpuArch::v100()).expect("v100");
    let p = warp_probe::figure18(&GpuArch::p100()).expect("p100");
    warp_probe::render_figure18(&[v, p])
}

/// §VIII-B: the partial-group synchronization deadlock matrix.
pub fn deadlocks() -> String {
    let mut t = TextTable::new(
        "§VIII-B: synchronizing a subset of a thread group",
        &["granularity", "subset", "outcome"],
    );
    let mut arch = GpuArch::v100();
    arch.num_sms = 4;

    // Warp level: half the lanes exit, the rest tile-sync.
    {
        let mut b = KernelBuilder::new("partial-warp");
        use gpu_sim::isa::Operand::*;
        let c = b.reg();
        b.cmp_lt(c, Sp(gpu_sim::Special::LaneId), Imm(16));
        b.bra_ifz(Reg(c), "out");
        b.push(gpu_sim::Instr::SyncTile { width: 32 });
        b.label("out");
        b.exit();
        let r = GpuSystem::single(arch.clone()).execute(
            &GridLaunch::single(b.build(0), 1, 32, vec![]),
            &RunOptions::new(),
        );
        t.row(vec![
            "warp (tile sync)".into(),
            "16 of 32 lanes".into(),
            outcome(r.map(|_| ())),
        ]);
    }
    // Block level: half the threads exit, the rest __syncthreads.
    {
        let mut b = KernelBuilder::new("partial-block");
        use gpu_sim::isa::Operand::*;
        let c = b.reg();
        b.cmp_lt(c, Sp(gpu_sim::Special::Tid), Imm(64));
        b.bra_ifz(Reg(c), "out");
        b.bar_sync();
        b.label("out");
        b.exit();
        let r = GpuSystem::single(arch.clone()).execute(
            &GridLaunch::single(b.build(0), 1, 128, vec![]),
            &RunOptions::new(),
        );
        t.row(vec![
            "block (__syncthreads)".into(),
            "64 of 128 threads".into(),
            outcome(r.map(|_| ())),
        ]);
    }
    // Grid level: odd blocks skip the grid barrier.
    {
        let mut b = KernelBuilder::new("partial-grid");
        use gpu_sim::isa::Operand::*;
        let c = b.reg();
        let bit = b.reg();
        b.push(gpu_sim::Instr::IAnd(
            bit,
            Sp(gpu_sim::Special::BlockId),
            Imm(1),
        ));
        b.cmp_eq(c, Reg(bit), Imm(0));
        b.bra_ifz(Reg(c), "out");
        b.grid_sync();
        b.label("out");
        b.exit();
        let r = GpuSystem::single(arch.clone()).execute(
            &GridLaunch::single(b.build(0), 4, 32, vec![]).cooperative(),
            &RunOptions::new(),
        );
        t.row(vec![
            "grid (grid.sync)".into(),
            "2 of 4 blocks".into(),
            outcome(r.map(|_| ())),
        ]);
    }
    // Multi-grid level: GPU 1 skips the multi-grid barrier.
    {
        let mut b = KernelBuilder::new("partial-mgrid");
        use gpu_sim::isa::Operand::*;
        let c = b.reg();
        b.cmp_eq(c, Sp(gpu_sim::Special::GpuRank), Imm(0));
        b.bra_ifz(Reg(c), "out");
        b.multi_grid_sync();
        b.label("out");
        b.exit();
        let launch = GridLaunch::multi(b.build(0), 2, 32, vec![0, 1], vec![vec![], vec![]]);
        let r =
            GpuSystem::new(arch, NodeTopology::dgx1_v100()).execute(&launch, &RunOptions::new());
        t.row(vec![
            "multi-grid (multi_grid.sync)".into(),
            "1 of 2 GPUs".into(),
            outcome(r.map(|_| ())),
        ]);
    }
    t.render()
}

fn outcome(r: Result<(), SimError>) -> String {
    match r {
        Ok(()) => "completes".into(),
        Err(SimError::Deadlock { .. }) => "DEADLOCK".into(),
        Err(e) => format!("error: {e}"),
    }
}

/// Table VII: the simulated environment.
pub fn table7() -> String {
    let mut t = TextTable::new(
        "Table VII: environment information (simulated)",
        &["platform", "SMs", "clock (MHz)", "node", "peak BW (GB/s)"],
    );
    for (arch, node) in [
        (GpuArch::p100(), NodeTopology::p100_pair()),
        (GpuArch::v100(), NodeTopology::dgx1_v100()),
    ] {
        t.row(vec![
            arch.name.clone(),
            arch.num_sms.to_string(),
            fmt(arch.clock_mhz),
            node.name.clone(),
            fmt(arch.memory.dram_peak_gbs),
        ]);
    }
    t.render()
}

/// Table VIII: the qualitative summary, derived from fresh measurements.
pub fn table8() -> String {
    let obs = summary::table8(&GpuArch::v100(), &GpuArch::p100()).expect("table8");
    summary::render_table8(&obs)
}

/// §IX-D's method validation: inter-SM vs Wong's method on the FP32 add.
pub fn method_validation() -> String {
    let mut t = TextTable::new(
        "§IX-D: inter-SM method vs Wong's method on the FP32 add",
        &[
            "arch",
            "inter-SM (cyc)",
            "sigma (cyc)",
            "Wong (cyc)",
            "expected",
        ],
    );
    for (arch, expect) in [(GpuArch::v100(), 4.0), (GpuArch::p100(), 6.0)] {
        let (inter, wong) = inter_sm::validate_against_fadd(&arch).expect("validate");
        t.row(vec![
            arch.name.clone(),
            fmt(inter.latency_cycles),
            fmt(inter.sigma_cycles),
            fmt(wong),
            fmt(expect),
        ]);
    }
    t.render()
}

/// DL-motivated extension: allreduce across the DGX-1 with three algorithms.
pub fn allreduce() -> String {
    let arch = GpuArch::v100();
    let topo = NodeTopology::dgx1_v100();
    let elems = 1_000_000; // 8 MB per GPU
    let samples =
        reduction::allreduce_series(&arch, &topo, &[2, 4, 6, 8], elems).expect("allreduce");
    let mut t = TextTable::new(
        "Extension: 8 MB allreduce on DGX-1 (latency us / algbw GB/s)",
        &["GPUs", "gather-broadcast", "ring", "multi-grid kernel"],
    );
    for &n in &[2usize, 4, 6, 8] {
        let cell = |name: &str| {
            samples
                .iter()
                .find(|s| s.gpus == n && s.algo == name)
                .map(|s| {
                    assert!(s.correct, "{name} wrong at {n} GPUs");
                    format!("{} / {}", fmt(s.latency_us), fmt(s.algbw_gbs))
                })
                .unwrap_or_else(|| "-".into())
        };
        t.row(vec![
            n.to_string(),
            cell("gather-broadcast"),
            cell("ring"),
            cell("multi-grid kernel"),
        ]);
    }
    let mut s = t.render();
    s.push_str(
        "(ring wins once the quad boundary's shared PCIe ingress throttles the
         multi-grid pull; within a quad the one-launch pull is competitive)
",
    );
    s
}

/// §V-A's full group-size sweeps (tile widths + every coalesced size).
pub fn group_sizes() -> String {
    let v = GpuArch::v100();
    let p = GpuArch::p100();
    sync_micro::group_size::render_group_size_sweeps(&[&v, &p]).expect("sweeps")
}

/// Robustness extension: sync cost under injected faults — straggler
/// jitter per barrier scope and multi-grid cost under degraded links.
/// Seeded by `repro --faults` ([`crate::faults::seed`]).
pub fn sync_resilience() -> String {
    sync_micro::resilience::report(crate::faults::seed()).expect("sync_resilience")
}

/// Robustness extension: MTTR-style cost of recovering a multi-grid
/// barrier from killed-block faults — checkpointed retry for transient
/// kills, rank eviction for persistent ones. Seeded by `repro --faults`.
pub fn sync_recovery() -> String {
    sync_micro::recovery::report(crate::faults::seed()).expect("sync_recovery")
}

/// §III-B extension: software device-wide barriers vs `grid.sync()`.
pub fn software_barriers() -> String {
    let mut s = String::new();
    for arch in [GpuArch::v100(), GpuArch::p100()] {
        let rows = sync_micro::software_barrier::comparison(&arch).expect("swbarrier");
        s.push_str(&sync_micro::software_barrier::render_comparison(&arch, &rows).render());
    }
    s
}

/// Fine-grained sync primitives (Eqs. 7–8 micro-benchmarks) and the fused
/// GEMM→LayerNorm tile pipeline under its three dependency strategies.
pub fn fused_pipeline() -> String {
    let mut s = String::new();
    for arch in [GpuArch::v100(), GpuArch::p100()] {
        let rows = sync_micro::sync_micro::comparison(&arch).expect("sync primitives");
        s.push_str(&sync_micro::sync_micro::render_comparison(&arch, &rows).render());
        let rows = sync_micro::sync_micro::pipeline_comparison(&arch).expect("fused pipeline");
        s.push_str(&sync_micro::sync_micro::render_pipeline(&arch, &rows).render());
    }
    s
}

/// The calibration sheets: every parameter with its paper anchor.
pub fn calibration() -> String {
    let mut s = String::new();
    for arch in [GpuArch::v100(), GpuArch::p100()] {
        s.push_str(&arch.describe());
        s.push('\n');
    }
    s
}

/// The synchronization-hazard audit: every registry kernel statically
/// linted and run under the dynamic racecheck. Always serial, so the output
/// is byte-identical whatever `--jobs` is set to.
pub fn synccheck_report() -> String {
    synccheck::audit().render()
}

/// One registry entry: (name, description, runner).
pub type Experiment = (&'static str, &'static str, fn() -> String);

/// The registry: (name, description, runner).
pub const EXPERIMENTS: &[Experiment] = &[
    ("table1", "launch overhead (kernel fusion, Eq. 6)", table1),
    ("table2", "warp-level sync latency & throughput", table2),
    ("fig4", "block sync vs active warps/SM", figure4),
    ("fig5", "grid sync latency heat maps", figure5),
    ("fig7", "multi-grid sync, P100 pair", figure7),
    ("fig8", "multi-grid sync, DGX-1", figure8),
    ("fig9", "multi-GPU barrier comparison", figure9),
    ("table3", "shared-memory concurrency (Little's law)", table3),
    ("table4", "predicted switching points", table4),
    ("table5", "warp reduction variants", table5),
    ("fig15", "single-GPU reduction latency vs size", figure15),
    ("table6", "reduction bandwidth", table6),
    ("fig16", "multi-GPU reduction throughput", figure16),
    ("fig18", "warp-barrier blocking probe", figure18),
    (
        "deadlocks",
        "partial-group sync outcomes (§VIII-B)",
        deadlocks,
    ),
    ("table7", "environment", table7),
    ("table8", "summary of observations", table8),
    (
        "validate",
        "inter-SM vs Wong cross-validation (§IX-D)",
        method_validation,
    ),
    ("groupsize", "§V-A group-size sweeps", group_sizes),
    (
        "allreduce",
        "allreduce algorithms on DGX-1 (extension)",
        allreduce,
    ),
    (
        "calibration",
        "parameter-to-anchor calibration sheets",
        calibration,
    ),
    (
        "swbarrier",
        "software vs hardware device-wide barriers",
        software_barriers,
    ),
    (
        "fused_pipeline",
        "fine-grained sync primitives + fused wait/signal pipeline",
        fused_pipeline,
    ),
    (
        "ablation",
        "design-choice ablations + extrapolations",
        crate::ablations::all,
    ),
    (
        "synccheck",
        "synchronization-hazard audit of the kernel registry",
        synccheck_report,
    ),
    (
        "sync_resilience",
        "sync cost under stragglers & degraded links (--faults)",
        sync_resilience,
    ),
    (
        "sync_recovery",
        "MTTR of multi-grid barrier recovery: retry vs rank eviction (--faults)",
        sync_recovery,
    ),
];

/// Run one experiment by name.
pub fn run(name: &str) -> Option<String> {
    EXPERIMENTS
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|(_, _, f)| f())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _, _)| *n).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }

    #[test]
    fn cheap_experiments_render() {
        for name in ["table7", "table3", "table5", "deadlocks", "fig18"] {
            let out = run(name).unwrap();
            assert!(!out.is_empty(), "{name} produced nothing");
        }
    }

    #[test]
    fn unknown_experiment_is_none() {
        assert!(run("fig999").is_none());
    }

    #[test]
    fn deadlock_matrix_matches_paper() {
        let s = deadlocks();
        // Exactly the paper's finding: warp/block subsets complete, grid and
        // multi-grid subsets deadlock.
        assert_eq!(s.matches("completes").count(), 2, "{s}");
        assert_eq!(s.matches("DEADLOCK").count(), 2, "{s}");
    }
}
