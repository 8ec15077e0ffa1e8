//! Table I: launch overhead via the kernel-fusion method (§IV, §IX-B).
//!
//! The protocol of Fig. 3: after a warm-up, time `i` launches of a
//! sleep-controlled kernel against one launch of an `i`-times-longer kernel;
//! Eq. 6 extracts the per-kernel overhead from the difference. The
//! sleep-controlled execution latency must exceed a few microseconds or the
//! stream pipeline is not saturated and the method over-reports (which the
//! harness demonstrates with a null kernel).

use crate::report::{fmt, TextTable};
use cuda_rt::HostSim;
use gpu_arch::GpuArch;
use gpu_node::NodeTopology;
use gpu_sim::kernels;
use gpu_sim::{GpuSystem, GridLaunch, LaunchKind, ProfileReport, RunOptions};
use serde::Serialize;
use sim_core::SimResult;

/// One launch path's measured numbers (a Table I row).
#[derive(Debug, Clone, Serialize)]
pub struct LaunchOverheadRow {
    pub launch_type: String,
    /// Kernel-fusion overhead, ns (Eq. 6).
    pub overhead_ns: f64,
    /// Total latency of an isolated null-kernel launch+sync, ns.
    pub null_total_ns: f64,
}

fn make_launch(kind: LaunchKind, kernel: gpu_sim::Kernel, devices: Vec<usize>) -> GridLaunch {
    let params = vec![vec![]; devices.len()];
    GridLaunch::new(kernel, 1, 32, kind, devices, params)
}

/// Measure one launch path with the fusion method using `sleep_ns` kernels.
pub fn measure_launch_path(
    arch: &GpuArch,
    kind: LaunchKind,
    sleep_ns: u64,
    devices: &[usize],
    topology: impl Into<std::sync::Arc<NodeTopology>>,
) -> SimResult<LaunchOverheadRow> {
    Ok(measure_launch_path_with(arch, kind, sleep_ns, devices, topology, &RunOptions::new())?.0)
}

/// [`measure_launch_path`] with arbitrary run options; when profiling is
/// armed, the returned report merges every launch of the protocol.
pub fn measure_launch_path_with(
    arch: &GpuArch,
    kind: LaunchKind,
    sleep_ns: u64,
    devices: &[usize],
    topology: impl Into<std::sync::Arc<NodeTopology>>,
    opts: &RunOptions,
) -> SimResult<(LaunchOverheadRow, Option<ProfileReport>)> {
    let ps_per_cycle = arch.clock().ps_per_cycle();
    let mut arch = arch.clone();
    arch.num_sms = arch.num_sms.min(4); // null grids: SM count is irrelevant
    let sys = GpuSystem::new(arch, topology);
    let mut h = HostSim::new(sys).without_jitter();
    let reps = 5u32;
    let mut profiles: Vec<ProfileReport> = Vec::new();

    let short = make_launch(kind, kernels::sleep_kernel(sleep_ns), devices.to_vec());
    let long = make_launch(
        kind,
        kernels::sleep_kernel(sleep_ns * reps as u64),
        devices.to_vec(),
    );
    let sync = |h: &mut HostSim| {
        for &d in devices {
            h.device_synchronize(0, d);
        }
    };

    // Warm-up (its results are not reported — Fig. 3).
    profiles.extend(h.launch(0, &short, opts)?.profile);
    sync(&mut h);

    // i launches of j-wait-unit kernels...
    let t0 = h.now(0);
    for _ in 0..reps {
        profiles.extend(h.launch(0, &short, opts)?.profile);
    }
    sync(&mut h);
    let many = (h.now(0) - t0).as_ns();

    // ...versus one fused kernel (Eq. 6 denominator: i - j).
    let t1 = h.now(0);
    profiles.extend(h.launch(0, &long, opts)?.profile);
    sync(&mut h);
    let one = (h.now(0) - t1).as_ns();
    let overhead_ns = (many - one) / (reps as f64 - 1.0);

    // Null-kernel total latency for comparison (Table I column 2).
    let null = make_launch(kind, kernels::null_kernel(), devices.to_vec());
    profiles.extend(h.launch(0, &null, opts)?.profile);
    sync(&mut h);
    let t2 = h.now(0);
    let n = 8;
    for _ in 0..n {
        profiles.extend(h.launch(0, &null, opts)?.profile);
        sync(&mut h);
    }
    let null_total_ns = (h.now(0) - t2).as_ns() / n as f64;

    Ok((
        LaunchOverheadRow {
            launch_type: match kind {
                LaunchKind::Traditional => "Traditional".to_string(),
                LaunchKind::Cooperative => "Cooperative".to_string(),
                LaunchKind::CooperativeMultiDevice => "Cooperative Multi-Device".to_string(),
            },
            overhead_ns,
            null_total_ns,
        },
        opts.wants_profile()
            .then(|| ProfileReport::merged(ps_per_cycle, &profiles)),
    ))
}

/// Reproduce Table I on the given architecture (V100 in the paper — the
/// sleep instruction only exists on Volta). The three launch paths are
/// independent measurements, so they run as one sweep; the row order is the
/// input order regardless of which finishes first.
pub fn table1(arch: &GpuArch) -> SimResult<Vec<LaunchOverheadRow>> {
    Ok(table1_with(arch, &RunOptions::new())?.0)
}

/// [`table1`] with syncprof armed: rows plus one merged profile per launch
/// path, merged in row order so the bytes don't depend on `--jobs`.
pub fn table1_profiled(arch: &GpuArch) -> SimResult<(Vec<LaunchOverheadRow>, ProfileReport)> {
    let (rows, profile) = table1_with(arch, &RunOptions::new().profile())?;
    Ok((rows, profile.expect("profiling was armed")))
}

fn table1_with(
    arch: &GpuArch,
    opts: &RunOptions,
) -> SimResult<(Vec<LaunchOverheadRow>, Option<ProfileReport>)> {
    let sleep = 10_000; // 10 us, as in Fig. 3
    let paths = vec![
        (LaunchKind::Traditional, NodeTopology::single()),
        (LaunchKind::Cooperative, NodeTopology::single()),
        (
            LaunchKind::CooperativeMultiDevice,
            NodeTopology::dgx1_v100(),
        ),
    ];
    let cells = crate::sweep::Sweep::new().try_run(paths, |(kind, topology)| {
        measure_launch_path_with(arch, kind, sleep, &[0], topology, opts)
    })?;
    let profile = opts.wants_profile().then(|| {
        ProfileReport::merged(
            arch.clock().ps_per_cycle(),
            cells.iter().flat_map(|(_, p)| p),
        )
    });
    Ok((cells.into_iter().map(|(row, _)| row).collect(), profile))
}

/// §IX-B's warning demonstrated: running the fusion protocol with kernels
/// whose execution latency is *below* the pipeline-saturation threshold
/// over-reports the overhead (~3 µs in the paper's null-kernel attempt).
pub fn unsaturated_overhead_ns(arch: &GpuArch) -> SimResult<f64> {
    let row = measure_launch_path(
        arch,
        LaunchKind::Traditional,
        0,
        &[0],
        NodeTopology::single(),
    )?;
    Ok(row.overhead_ns)
}

/// Render Table I.
pub fn render_table1(rows: &[LaunchOverheadRow]) -> TextTable {
    let mut t = TextTable::new(
        "Table I: launch overhead and null-kernel total latency",
        &[
            "Launch Type",
            "Launch Overhead (ns)",
            "Kernel Total Latency (ns)",
        ],
    );
    for r in rows {
        t.row(vec![
            r.launch_type.clone(),
            fmt(r.overhead_ns),
            fmt(r.null_total_ns),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_within_tolerance() {
        let rows = table1(&GpuArch::v100()).unwrap();
        let paper = [(1081.0, 8888.0), (1063.0, 10248.0), (1258.0, 10874.0)];
        for (r, (po, pt)) in rows.iter().zip(paper) {
            assert!(
                (r.overhead_ns - po).abs() / po < 0.15,
                "{}: overhead {} vs paper {po}",
                r.launch_type,
                r.overhead_ns
            );
            assert!(
                (r.null_total_ns - pt).abs() / pt < 0.15,
                "{}: total {} vs paper {pt}",
                r.launch_type,
                r.null_total_ns
            );
        }
    }

    #[test]
    fn unsaturated_method_overreports() {
        let arch = GpuArch::v100();
        let bad = unsaturated_overhead_ns(&arch).unwrap();
        assert!(
            bad > 2.0 * 1081.0,
            "null-kernel fusion should over-report, got {bad}"
        );
    }

    #[test]
    fn render_has_three_rows() {
        let rows = table1(&GpuArch::v100()).unwrap();
        let t = render_table1(&rows);
        assert_eq!(t.rows.len(), 3);
        assert!(t.render().contains("Traditional"));
    }
}
