//! §IX-D: the paper's inter-SM measurement method.
//!
//! Wong's method needs the GPU clock and works only within one SM; grid and
//! multi-grid barriers span SMs and GPUs. The paper's method times whole
//! kernels from the *CPU* at two different repeat counts and derives the
//! per-instruction latency from the difference (Eq. 7); the repeat-count gap
//! divides the measurement uncertainty (Eq. 8).

use crate::measure::one_sm;
use cuda_rt::HostSim;
use gpu_arch::GpuArch;
use gpu_node::NodeTopology;
use gpu_sim::kernels::{self, SyncOp};
use gpu_sim::{GpuSystem, GridLaunch, RunOptions};
use serde::Serialize;
use sim_core::{propagate_difference_quotient, OnlineStats, SimResult};

/// Result of an inter-SM differential measurement.
#[derive(Debug, Clone, Serialize)]
pub struct InterSmMeasurement {
    /// Derived per-operation latency, in device cycles (Eq. 7).
    pub latency_cycles: f64,
    /// Propagated 1-sigma uncertainty, in device cycles (Eq. 8).
    pub sigma_cycles: f64,
    pub r1: u64,
    pub r2: u64,
    pub trials: u32,
}

/// Time `trials` isolated launch+sync runs of a kernel; return host-clock
/// statistics in ns (with timer jitter, as a real harness would see).
fn kernel_total_latency(
    h: &mut HostSim,
    launch: &GridLaunch,
    trials: u32,
) -> SimResult<OnlineStats> {
    let mut stats = OnlineStats::new();
    // Warm-up, unreported.
    h.launch(0, launch, &RunOptions::new())?;
    for &d in &launch.devices {
        h.device_synchronize(0, d);
    }
    for _ in 0..trials {
        let t0 = h.timestamp(0);
        h.launch(0, launch, &RunOptions::new())?;
        for &d in &launch.devices {
            h.device_synchronize(0, d);
        }
        let t1 = h.timestamp(0);
        stats.push(t1 - t0);
    }
    Ok(stats)
}

/// Eq. 7's per-op latency and Eq. 8's propagated sigma, in device cycles:
/// `trials` host-timed runs on `sys` of the `mk(r1)` launch, then of the
/// `mk(r2)` one.
fn differential(
    sys: GpuSystem,
    mk: impl Fn(u64) -> GridLaunch,
    r1: u64,
    r2: u64,
    trials: u32,
) -> SimResult<InterSmMeasurement> {
    let mut h = HostSim::new(sys);
    let s1 = kernel_total_latency(&mut h, &mk(r1), trials)?;
    let s2 = kernel_total_latency(&mut h, &mk(r2), trials)?;
    let ns_per_cycle = 1e3 / h.sys.arch.clock().mhz();
    let latency_ns = (s1.mean() - s2.mean()) / (r1 - r2) as f64;
    let sigma_ns = propagate_difference_quotient(s1.stddev(), s2.stddev(), r1, r2);
    Ok(InterSmMeasurement {
        latency_cycles: latency_ns / ns_per_cycle,
        sigma_cycles: sigma_ns / ns_per_cycle,
        r1,
        r2,
        trials,
    })
}

/// Measure one synchronization op's latency with the inter-SM method.
///
/// `grid_dim`/`block_dim` choose the configuration under test; `r1 > r2` are
/// the two repeat counts (Eq. 7's numerator difference).
#[allow(clippy::too_many_arguments)]
pub fn measure_inter_sm(
    arch: &GpuArch,
    topology: NodeTopology,
    devices: &[usize],
    op: SyncOp,
    grid_dim: u32,
    block_dim: u32,
    r1: u64,
    r2: u64,
    trials: u32,
) -> SimResult<InterSmMeasurement> {
    assert!(r1 > r2, "repeat counts must differ (r1 > r2)");
    let mk = |reps: u64| {
        GridLaunch::new(
            kernels::sync_throughput(op, reps as usize),
            grid_dim,
            block_dim,
            op.launch_kind(),
            devices.to_vec(),
            vec![vec![]; devices.len()],
        )
    };
    differential(GpuSystem::new(arch.clone(), topology), mk, r1, r2, trials)
}

/// §IX-D's cross-validation: the inter-SM method must agree with Wong's
/// method on the FP32 add (4 cycles on V100, 6 on P100). Returns
/// (inter-SM cycles, Wong cycles).
pub fn validate_against_fadd(arch: &GpuArch) -> SimResult<(InterSmMeasurement, f64)> {
    let arch1 = one_sm(arch);
    // Inter-SM: two fadd32 burst kernels timed from the host.
    let mk = |reps: u64| {
        let mut b = gpu_sim::KernelBuilder::new("fadd-burst");
        let acc = b.reg();
        b.mov(acc, gpu_sim::fimm(1.0));
        for _ in 0..reps {
            b.fadd32(acc, gpu_sim::Operand::Reg(acc), gpu_sim::fimm(1.0));
        }
        b.exit();
        GridLaunch::single(b.build(0), 1, 32, vec![])
    };
    let inter = differential(GpuSystem::single(arch1.clone()), mk, 16384, 2048, 16)?;
    // Wong's method on the same instruction.
    let mut sys = GpuSystem::single(arch1);
    let out = sys.alloc(0, 32);
    let reps = 512;
    sys.execute(
        &GridLaunch::single(kernels::fadd32_chain(reps), 1, 32, vec![out.0 as u64]),
        &RunOptions::new(),
    )?;
    let wong = sys.buffer(out).load(0).unwrap() as f64 / reps as f64;
    Ok((inter, wong))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn methods_agree_on_fadd32() {
        for (arch, expect) in [(GpuArch::v100(), 4.0), (GpuArch::p100(), 6.0)] {
            let (inter, wong) = validate_against_fadd(&arch).unwrap();
            assert!(
                (inter.latency_cycles - expect).abs() < 0.5,
                "{}: inter-SM {:.2}",
                arch.name,
                inter.latency_cycles
            );
            assert!((wong - expect).abs() < 0.5, "{}: wong {wong:.2}", arch.name);
        }
    }

    #[test]
    fn widening_repeat_gap_shrinks_sigma() {
        let arch = GpuArch::v100();
        let narrow = measure_inter_sm(
            &arch.clone(),
            NodeTopology::single(),
            &[0],
            SyncOp::Block,
            1,
            256,
            1024,
            512,
            12,
        )
        .unwrap();
        let wide = measure_inter_sm(
            &arch,
            NodeTopology::single(),
            &[0],
            SyncOp::Block,
            1,
            256,
            8192,
            512,
            12,
        )
        .unwrap();
        assert!(
            wide.sigma_cycles < narrow.sigma_cycles,
            "sigma: wide {} vs narrow {}",
            wide.sigma_cycles,
            narrow.sigma_cycles
        );
    }

    #[test]
    fn inter_sm_measures_block_sync_reasonably() {
        let arch = one_sm(&GpuArch::v100());
        let m = measure_inter_sm(
            &arch,
            NodeTopology::single(),
            &[0],
            SyncOp::Block,
            1,
            32,
            4096,
            512,
            8,
        )
        .unwrap();
        assert!(
            (m.latency_cycles - 22.0).abs() < 4.0,
            "block sync via inter-SM: {:.1}",
            m.latency_cycles
        );
    }
}
