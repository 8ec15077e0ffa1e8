//! Artifact rendering, shared by the untraced and traced runs so that their
//! outputs can be compared byte for byte. Each function renders exactly what
//! the `repro` experiment of the same name prints for the paper's inputs.

use gpu_arch::GpuArch;
use reduction::{AllReduceSample, DeviceReduceSample, MultiGpuReduceSample};
use sync_micro::block_sync::{self, BlockSyncPoint};
use sync_micro::grid_sync::HeatMap;
use sync_micro::multi_gpu::{self, MultiGpuPoint};
use sync_micro::multi_grid::MultiGridFigure;
use sync_micro::plot::{line_chart, shade_heatmap, Scale, Series};
use sync_micro::report::{fmt, TextTable};
use sync_micro::warp_sync::{self, WarpSyncRow};

/// Fig. 5: one heat map table plus its shading per platform.
pub fn fig5(maps: &[HeatMap]) -> String {
    let mut s = String::new();
    for hm in maps {
        s.push_str(&hm.render().render());
        s.push_str(&shade_heatmap(hm));
    }
    s
}

pub fn table2(archs: [&GpuArch; 2], rows: &[Vec<WarpSyncRow>]) -> String {
    warp_sync::render_table2(&[(archs[0], &rows[0]), (archs[1], &rows[1])]).render()
}

pub fn fig4(archs: [&GpuArch; 2], points: &[Vec<BlockSyncPoint>]) -> String {
    block_sync::render_figure4(&[(archs[0], &points[0]), (archs[1], &points[1])]).render()
}

pub fn fig8(fig: &MultiGridFigure) -> String {
    let mut s = String::new();
    for (n, hm) in &fig.maps {
        s.push_str(&format!("-- Fig. 8: DGX-1 x{n} --\n"));
        s.push_str(&hm.render().render());
    }
    s
}

pub fn fig9(pts: &[MultiGpuPoint]) -> String {
    let mut s = multi_gpu::render_figure9(pts).render();
    let curve = |name: &str, y: fn(&MultiGpuPoint) -> f64| {
        Series::new(name, pts.iter().map(|p| (p.gpus as f64, y(p))).collect())
    };
    let series = vec![
        curve("multi-device launch", |p| p.multi_device_launch_us),
        curve("CPU-side barrier", |p| p.cpu_side_us),
        curve("mgrid 1x32", |p| p.mgrid_fast_us),
        curve("mgrid 1x1024", |p| p.mgrid_general_us),
        curve("mgrid 32x64", |p| p.mgrid_slow_us),
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

/// Fig. 15: per platform, a latency table (one row per size, one column per
/// method) and its log-log chart. `samples[p]` is size-major, method-minor.
pub fn fig15(
    archs: [&GpuArch; 2],
    sizes: &[Vec<f64>; 2],
    samples: &[Vec<DeviceReduceSample>],
) -> String {
    let methods = reduction::DeviceReduceMethod::ALL;
    let mut s = String::new();
    for ((arch, sizes), samples) in archs.iter().zip(sizes).zip(samples) {
        let mut t = TextTable::new(
            &format!("Fig. 15: single-GPU reduction latency (us), {}", arch.name),
            &["size (MB)", "implicit", "grid sync", "CUB-like", "SDK-like"],
        );
        let mut series: Vec<Series> = methods
            .iter()
            .map(|m| Series::new(m.name(), Vec::new()))
            .collect();
        for (&mb, row_samples) in sizes.iter().zip(samples.chunks(methods.len())) {
            let mut row = vec![fmt(mb)];
            for (series, smp) in series.iter_mut().zip(row_samples) {
                row.push(fmt(smp.latency_us));
                series.points.push((mb, smp.latency_us));
            }
            t.row(row);
        }
        s.push_str(&t.render());
        s.push_str(&line_chart(
            &format!(
                "Fig. 15 (chart): {} latency (us) vs size (MB), log-log",
                arch.name
            ),
            &series,
            Scale::Log10,
            Scale::Log10,
            64,
            14,
        ));
    }
    s
}

pub fn table6(archs: [&GpuArch; 2], rows: &[Vec<DeviceReduceSample>]) -> String {
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
    for (arch, rows) in archs.iter().zip(rows) {
        let mut row = vec![arch.name.clone()];
        row.extend(rows.iter().map(|r| fmt(r.bandwidth_gbs)));
        row.push(fmt(arch.memory.dram_peak_gbs));
        t.row(row);
    }
    t.render()
}

const FIG16_METHODS: [&str; 2] = ["mgrid sync", "CPU-side barrier"];

pub fn fig16(counts: &[usize], samples: &[MultiGpuReduceSample]) -> String {
    let mut t = TextTable::new(
        "Fig. 16: reduction throughput on DGX-1 (GB/s)",
        &["GPUs", "mgrid sync", "CPU-side barrier"],
    );
    for &n in counts {
        let mut row = vec![n.to_string()];
        for m in FIG16_METHODS {
            let cell = samples.iter().find(|s| s.gpus == n && s.method == m);
            row.push(cell.map_or_else(|| "-".into(), |s| fmt(s.throughput_gbs)));
        }
        t.row(row);
    }
    let mut s = t.render();
    let series: Vec<Series> = FIG16_METHODS
        .iter()
        .map(|m| {
            let pts = samples.iter().filter(|smp| smp.method == *m);
            Series::new(
                m,
                pts.map(|smp| (smp.gpus as f64, smp.throughput_gbs))
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

pub fn allreduce(counts: &[usize], samples: &[AllReduceSample]) -> String {
    let mut t = TextTable::new(
        "Extension: 8 MB allreduce on DGX-1 (latency us / algbw GB/s)",
        &["GPUs", "gather-broadcast", "ring", "multi-grid kernel"],
    );
    for &n in counts {
        let mut row = vec![n.to_string()];
        for algo in reduction::AllReduceAlgo::ALL {
            let cell = samples
                .iter()
                .find(|s| s.gpus == n && s.algo == algo.name());
            row.push(cell.map_or_else(
                || "-".into(),
                |s| format!("{} / {}", fmt(s.latency_us), fmt(s.algbw_gbs)),
            ));
        }
        t.row(row);
    }
    let mut s = t.render();
    s.push_str(
        "(ring wins once the quad boundary's shared PCIe ingress throttles the\n         \
         multi-grid pull; within a quad the one-launch pull is competitive)\n",
    );
    s
}
