//! Fig. 9: the three multi-GPU synchronization methods compared across
//! 1–8 GPUs of a DGX-1.

use crate::launch_overhead::measure_launch_path_with;
use crate::measure::{cycles_to_us, sync_chain_run, Placement};
use crate::report::{fmt, TextTable};
use cuda_rt::HostSim;
use gpu_arch::GpuArch;
use gpu_node::NodeTopology;
use gpu_sim::kernels::{self, SyncOp};
use gpu_sim::{GpuSystem, GridLaunch, LaunchKind, ProfileReport, RunOptions};
use serde::Serialize;
use sim_core::SimResult;
use std::sync::Arc;

/// One GPU-count sample of Fig. 9 (all in microseconds).
#[derive(Debug, Clone, Serialize)]
pub struct MultiGpuPoint {
    pub gpus: usize,
    /// Overhead of the multi-device cooperative launch used as an implicit
    /// barrier (kernel-fusion method on sleep kernels).
    pub multi_device_launch_us: f64,
    /// Overhead of the CPU-side barrier pattern (Fig. 6): launch + device
    /// sync + OpenMP barrier, minus the kernel execution time.
    pub cpu_side_us: f64,
    /// Multi-grid sync, fastest case: 1 block/SM, 32 threads/block.
    pub mgrid_fast_us: f64,
    /// Multi-grid sync, general case: 1 block/SM, 1024 threads/block.
    pub mgrid_general_us: f64,
    /// Multi-grid sync, slowest case: 32 blocks/SM, 64 threads/block.
    pub mgrid_slow_us: f64,
}

/// The sleep length used to saturate the stream pipeline; the paper found
/// ~250 µs necessary for 8 GPUs (§IX-B).
const SLEEP_NS: u64 = 250_000;

fn cpu_side_overhead_us(
    arch: &GpuArch,
    topology: &Arc<NodeTopology>,
    n: usize,
    opts: &RunOptions,
) -> SimResult<(f64, Option<ProfileReport>)> {
    let mut arch_small = arch.clone();
    arch_small.num_sms = arch_small.num_sms.min(4);
    let sys = GpuSystem::new(arch_small, topology.clone());
    let mut h = HostSim::with_threads(sys, n).without_jitter();
    let threads: Vec<usize> = (0..n).collect();
    let kernel = kernels::sleep_kernel(SLEEP_NS);
    let steps = 6;
    let mut profiles: Vec<ProfileReport> = Vec::new();
    // Warm-up step.
    for &t in &threads {
        let l = GridLaunch::single(kernel.clone(), 1, 32, vec![]).on_device(t);
        profiles.extend(h.launch(t, &l, opts)?.profile);
        h.device_synchronize(t, t);
    }
    h.omp_barrier(&threads);
    let t0 = h.now(0);
    for _ in 0..steps {
        for &t in &threads {
            let l = GridLaunch::single(kernel.clone(), 1, 32, vec![]).on_device(t);
            profiles.extend(h.launch(t, &l, opts)?.profile);
            h.device_synchronize(t, t);
        }
        h.omp_barrier(&threads);
    }
    let per_step = (h.now(0) - t0).as_us() / steps as f64;
    let profile = opts
        .wants_profile()
        .then(|| ProfileReport::merged(arch.clock().ps_per_cycle(), &profiles));
    Ok((per_step - SLEEP_NS as f64 / 1e3, profile))
}

fn mgrid_us(
    arch: &GpuArch,
    topology: &Arc<NodeTopology>,
    n: usize,
    bpsm: u32,
    tpb: u32,
    opts: &RunOptions,
) -> SimResult<(f64, Option<ProfileReport>)> {
    let placement = Placement::multi(topology.clone(), n);
    let (m, arts) = sync_chain_run(
        arch,
        &placement,
        SyncOp::MultiGrid,
        4,
        bpsm * arch.num_sms,
        tpb,
        opts,
    )?;
    Ok((cycles_to_us(arch, m.cycles_per_op), arts.profile))
}

/// One of the five measurements behind a [`MultiGpuPoint`] — the sweep
/// item, so every (GPU count × method) pair runs independently.
#[derive(Debug, Clone, Copy)]
enum Fig9Metric {
    Launch,
    CpuSide,
    Mgrid { bpsm: u32, tpb: u32 },
}

const FIG9_METRICS: [Fig9Metric; 5] = [
    Fig9Metric::Launch,
    Fig9Metric::CpuSide,
    Fig9Metric::Mgrid { bpsm: 1, tpb: 32 },
    Fig9Metric::Mgrid { bpsm: 1, tpb: 1024 },
    Fig9Metric::Mgrid { bpsm: 32, tpb: 64 },
];

/// Measure Fig. 9 for the given GPU counts (1..=8 in the paper).
///
/// Each of the figure's `counts × 5` curves' points is an independent
/// simulation, so all of them are flattened into one sweep and reassembled
/// per GPU count afterwards.
pub fn figure9(
    arch: &GpuArch,
    topology: &NodeTopology,
    gpu_counts: &[usize],
) -> SimResult<Vec<MultiGpuPoint>> {
    Ok(figure9_with(arch, topology, gpu_counts, &RunOptions::new())?.0)
}

/// [`figure9`] with syncprof armed on every cell; per-cell profiles are
/// merged in plan order, so the report's bytes don't depend on `--jobs`.
pub fn figure9_profiled(
    arch: &GpuArch,
    topology: &NodeTopology,
    gpu_counts: &[usize],
) -> SimResult<(Vec<MultiGpuPoint>, ProfileReport)> {
    let (points, profile) = figure9_with(arch, topology, gpu_counts, &RunOptions::new().profile())?;
    Ok((points, profile.expect("profiling was armed")))
}

fn figure9_with(
    arch: &GpuArch,
    topology: &NodeTopology,
    gpu_counts: &[usize],
    opts: &RunOptions,
) -> SimResult<(Vec<MultiGpuPoint>, Option<ProfileReport>)> {
    let topology = Arc::new(topology.clone());
    let mut points = Vec::new();
    for &n in gpu_counts {
        for m in FIG9_METRICS {
            points.push((n, m));
        }
    }
    let cells = crate::sweep::Sweep::new().try_run(points, |(n, metric)| match metric {
        Fig9Metric::Launch => {
            let devices: Vec<usize> = (0..n).collect();
            let (row, profile) = measure_launch_path_with(
                arch,
                LaunchKind::CooperativeMultiDevice,
                SLEEP_NS,
                &devices,
                topology.clone(),
                opts,
            )?;
            Ok((row.overhead_ns / 1e3, profile))
        }
        Fig9Metric::CpuSide => cpu_side_overhead_us(arch, &topology, n, opts),
        Fig9Metric::Mgrid { bpsm, tpb } => mgrid_us(arch, &topology, n, bpsm, tpb, opts),
    })?;
    let profile = opts.wants_profile().then(|| {
        ProfileReport::merged(
            arch.clock().ps_per_cycle(),
            cells.iter().flat_map(|(_, p)| p),
        )
    });
    let values: Vec<f64> = cells.into_iter().map(|(v, _)| v).collect();
    let points = gpu_counts
        .iter()
        .zip(values.chunks(FIG9_METRICS.len()))
        .map(|(&n, v)| MultiGpuPoint {
            gpus: n,
            multi_device_launch_us: v[0],
            cpu_side_us: v[1],
            mgrid_fast_us: v[2],
            mgrid_general_us: v[3],
            mgrid_slow_us: v[4],
        })
        .collect();
    Ok((points, profile))
}

pub fn render_figure9(points: &[MultiGpuPoint]) -> TextTable {
    let mut t = TextTable::new(
        "Fig. 9: multi-GPU barrier comparison on DGX-1 (us)",
        &[
            "GPUs",
            "multi-device launch",
            "CPU-side barrier",
            "mgrid (1 blk/SM, 32 thr)",
            "mgrid (1 blk/SM, 1024 thr)",
            "mgrid (32 blk/SM, 64 thr)",
        ],
    );
    for p in points {
        t.row(vec![
            p.gpus.to_string(),
            fmt(p.multi_device_launch_us),
            fmt(p.cpu_side_us),
            fmt(p.mgrid_fast_us),
            fmt(p.mgrid_general_us),
            fmt(p.mgrid_slow_us),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig9_small() -> Vec<MultiGpuPoint> {
        figure9(&GpuArch::v100(), &NodeTopology::dgx1_v100(), &[1, 2, 3, 8]).unwrap()
    }

    #[test]
    fn endpoints_match_paper() {
        let pts = fig9_small();
        let p1 = &pts[0];
        let p8 = pts.last().unwrap();
        // Paper: multi-device launch overhead 1.26 us at 1 GPU, 67.2 at 8.
        assert!(
            (p1.multi_device_launch_us - 1.26).abs() < 0.5,
            "1-GPU launch {}",
            p1.multi_device_launch_us
        );
        assert!(
            (p8.multi_device_launch_us - 67.2).abs() / 67.2 < 0.2,
            "8-GPU launch {}",
            p8.multi_device_launch_us
        );
        // CPU-side: 9.3-10.6 us, flat-ish.
        assert!(
            p1.cpu_side_us > 8.0 && p8.cpu_side_us < 13.0,
            "CPU-side {} .. {}",
            p1.cpu_side_us,
            p8.cpu_side_us
        );
        // mgrid slowest case at 8 GPUs: ~71.9 us.
        assert!(
            (p8.mgrid_slow_us - 71.9).abs() / 71.9 < 0.35,
            "mgrid slow {}",
            p8.mgrid_slow_us
        );
    }

    #[test]
    fn cpu_side_beats_multi_device_launch_beyond_two_gpus() {
        let pts = fig9_small();
        for p in pts.iter().filter(|p| p.gpus > 2) {
            assert!(
                p.cpu_side_us < p.multi_device_launch_us,
                "{} GPUs: cpu {} vs launch {}",
                p.gpus,
                p.cpu_side_us,
                p.multi_device_launch_us
            );
        }
    }

    #[test]
    fn mgrid_beats_multi_device_launch_at_scale() {
        let pts = fig9_small();
        let p8 = pts.last().unwrap();
        assert!(p8.mgrid_general_us < p8.multi_device_launch_us);
        // And is at most ~3x slower than the CPU-side barrier (paper bound)
        // in the recommended configuration.
        assert!(p8.mgrid_general_us < 3.5 * p8.cpu_side_us);
    }
}
