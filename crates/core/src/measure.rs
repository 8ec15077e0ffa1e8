//! Shared measurement runners built on the simulator.

use gpu_arch::GpuArch;
use gpu_node::NodeTopology;
use gpu_sim::kernels::{self, SyncOp};
use gpu_sim::{ExecReport, GpuSystem, GridLaunch, RunArtifacts, RunOptions};
use sim_core::SimResult;
use std::sync::Arc;

/// One dependent-chain measurement (Wong's method, §IX-C).
#[derive(Debug, Clone)]
pub struct ChainMeasurement {
    /// Cycles per chained operation, from lane 0 of block 0's clock reads.
    pub cycles_per_op: f64,
    pub report: ExecReport,
}

/// Where a launch should run. The topology is behind an `Arc` so sweep
/// drivers building one `Placement` per cell share a single description
/// instead of deep-cloning the interconnect tables per cell.
#[derive(Debug, Clone)]
pub struct Placement {
    pub topology: Arc<NodeTopology>,
    /// Devices participating (multi-grid) — `vec![0]` for single-GPU.
    pub devices: Vec<usize>,
}

impl Placement {
    pub fn single() -> Placement {
        Placement {
            topology: Arc::new(NodeTopology::single()),
            devices: vec![0],
        }
    }

    pub fn multi(topology: impl Into<Arc<NodeTopology>>, ngpus: usize) -> Placement {
        let topology = topology.into();
        assert!(ngpus >= 1 && ngpus <= topology.num_gpus);
        Placement {
            topology,
            devices: (0..ngpus).collect(),
        }
    }
}

/// A launch of `kernel` with `op`'s launch kind over `devices`, each
/// device's param 0 a fresh output buffer of one word per thread,
/// allocated on that device in device order.
pub(crate) fn launch_for(
    sys: &mut GpuSystem,
    op: SyncOp,
    kernel: gpu_sim::Kernel,
    grid_dim: u32,
    block_dim: u32,
    devices: &[usize],
) -> GridLaunch {
    let words = (grid_dim as u64) * (block_dim as u64);
    let params: Vec<Vec<u64>> = devices
        .iter()
        .map(|&d| vec![sys.alloc(d, words).0 as u64])
        .collect();
    GridLaunch::new(
        kernel,
        grid_dim,
        block_dim,
        op.launch_kind(),
        devices.to_vec(),
        params,
    )
}

/// Run a clocked chain of `reps` sync ops and report cycles/op.
///
/// The topology is shared from the placement's `Arc` (no per-cell deep
/// clone); the arch is copied once into the fresh `GpuSystem`, where the
/// engine then aliases it for every launch.
pub fn sync_chain_cycles(
    arch: &GpuArch,
    placement: &Placement,
    op: SyncOp,
    reps: usize,
    grid_dim: u32,
    block_dim: u32,
) -> SimResult<ChainMeasurement> {
    let (m, _) = sync_chain_run(
        arch,
        placement,
        op,
        reps,
        grid_dim,
        block_dim,
        &RunOptions::new(),
    )?;
    Ok(m)
}

/// [`sync_chain_cycles`] with arbitrary run options: the measurement plus
/// the launch's full [`RunArtifacts`] — the syncprof profile a
/// [`RunOptions::profile`] run armed, or the hazards a
/// [`RunOptions::check`] run found.
pub fn sync_chain_run(
    arch: &GpuArch,
    placement: &Placement,
    op: SyncOp,
    reps: usize,
    grid_dim: u32,
    block_dim: u32,
    opts: &RunOptions,
) -> SimResult<(ChainMeasurement, RunArtifacts)> {
    let mut sys = GpuSystem::new(arch.clone(), placement.topology.clone());
    sync_chain_run_in(
        &mut sys,
        &placement.devices,
        op,
        reps,
        grid_dim,
        block_dim,
        opts,
    )
}

/// [`sync_chain_run`] against a caller-owned [`GpuSystem`].
///
/// The system is [`GpuSystem::reset`] before the launch, so a sweep worker
/// can thread one system through every cell it claims (see
/// [`crate::sweep::Sweep::init`]) and still measure exactly what a fresh
/// system would: allocation ids, launch parameters, and therefore timing
/// are identical to the unamortized path.
pub fn sync_chain_run_in(
    sys: &mut GpuSystem,
    devices: &[usize],
    op: SyncOp,
    reps: usize,
    grid_dim: u32,
    block_dim: u32,
    opts: &RunOptions,
) -> SimResult<(ChainMeasurement, RunArtifacts)> {
    sys.reset();
    let kernel = kernels::sync_chain(op, reps);
    let launch = launch_for(sys, op, kernel, grid_dim, block_dim, devices);
    let out = launch.params[0][0];
    let arts = sys.execute(&launch, opts)?;
    let cycles = sys
        .buffer(gpu_sim::BufId(out as u32))
        .load(0)
        .expect("lane 0 timer");
    Ok((
        ChainMeasurement {
            cycles_per_op: cycles as f64 / reps as f64,
            report: arts.report.clone(),
        },
        arts,
    ))
}

/// Run an unclocked chain and report per-SM throughput (syncs/cycle/SM).
pub fn sync_throughput_per_sm(
    arch: &GpuArch,
    op: SyncOp,
    reps: usize,
    grid_dim: u32,
    block_dim: u32,
) -> SimResult<f64> {
    let mut sys = GpuSystem::single(arch.clone());
    let kernel = kernels::sync_throughput(op, reps);
    let launch = launch_for(&mut sys, op, kernel, grid_dim, block_dim, &[0]);
    let report = sys.execute(&launch, &RunOptions::new())?.report;
    let cycles = arch.clock().to_cycles(report.duration);
    let warps = arch.warps_per_block(block_dim) as f64 * grid_dim as f64;
    Ok(warps * reps as f64 / cycles / arch.num_sms as f64)
}

/// Cycles per op for a partial coalesced group of `k` lanes (Table II).
pub fn coalesced_partial_cycles(arch: &GpuArch, k: u32, reps: usize) -> SimResult<f64> {
    let mut sys = GpuSystem::single(arch.clone());
    let out = sys.alloc(0, 32);
    let kernel = kernels::coalesced_partial_chain(k, reps);
    let launch = GridLaunch::single(kernel, 1, 32, vec![out.0 as u64]);
    sys.execute(&launch, &RunOptions::new())?;
    Ok(sys.buffer(out).load(0).expect("lane 0 timer") as f64 / reps as f64)
}

/// Per-SM throughput of partial coalesced sync with `k` active lanes/warp.
pub fn coalesced_partial_throughput_per_sm(
    arch: &GpuArch,
    k: u32,
    reps: usize,
    grid_dim: u32,
    block_dim: u32,
) -> SimResult<f64> {
    let mut sys = GpuSystem::single(arch.clone());
    let kernel = kernels::coalesced_partial_throughput(k, reps);
    let launch = GridLaunch::single(kernel, grid_dim, block_dim, vec![]);
    let report = sys.execute(&launch, &RunOptions::new())?.report;
    let cycles = arch.clock().to_cycles(report.duration);
    let warps = arch.warps_per_block(block_dim) as f64 * grid_dim as f64;
    Ok(warps * reps as f64 / cycles / arch.num_sms as f64)
}

/// Convert a cycle count on `arch` into microseconds.
pub fn cycles_to_us(arch: &GpuArch, cycles: f64) -> f64 {
    arch.clock().cycles_f64(cycles).as_us()
}

/// A 1-SM variant of an architecture — per-SM metrics measured faster.
pub fn one_sm(arch: &GpuArch) -> GpuArch {
    let mut a = arch.clone();
    a.num_sms = 1;
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_measurement_matches_direct_engine_use() {
        let arch = one_sm(&GpuArch::v100());
        let m =
            sync_chain_cycles(&arch, &Placement::single(), SyncOp::Tile(32), 64, 1, 32).unwrap();
        assert!((m.cycles_per_op - 14.0).abs() < 2.0, "{}", m.cycles_per_op);
    }

    #[test]
    fn throughput_of_tile_sync_saturates_near_unit_rate() {
        let arch = one_sm(&GpuArch::v100());
        // 32 warps of chained tile syncs: unit-limited at ~0.812/cycle.
        let t = sync_throughput_per_sm(&arch, SyncOp::Tile(32), 64, 1, 1024).unwrap();
        assert!((t - 0.812).abs() < 0.08, "throughput {t}");
    }

    /// The amortized path must be invisible: a worker's reused (reset)
    /// system measures exactly what a fresh per-cell system does.
    #[test]
    fn reused_system_matches_fresh_system_per_cell() {
        let arch = one_sm(&GpuArch::v100());
        let p = Placement::single();
        let mut sys = GpuSystem::new(arch.clone(), p.topology.clone());
        for reps in [4usize, 8, 4] {
            let fresh = sync_chain_cycles(&arch, &p, SyncOp::Tile(32), reps, 1, 32).unwrap();
            let (reused, _) = sync_chain_run_in(
                &mut sys,
                &p.devices,
                SyncOp::Tile(32),
                reps,
                1,
                32,
                &RunOptions::new(),
            )
            .unwrap();
            assert_eq!(fresh.report, reused.report);
            assert_eq!(fresh.cycles_per_op, reused.cycles_per_op);
        }
    }

    #[test]
    fn placement_multi_takes_prefix_of_node() {
        let p = Placement::multi(gpu_node::NodeTopology::dgx1_v100(), 3);
        assert_eq!(p.devices, vec![0, 1, 2]);
    }

    #[test]
    fn cycles_us_round_trip() {
        let arch = GpuArch::v100();
        let us = cycles_to_us(&arch, 1312.0);
        assert!((us - 1.0).abs() < 1e-6);
    }
}
