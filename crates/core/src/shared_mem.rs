//! Table III's raw measurements: shared-memory streaming bandwidth and
//! latency for the thread configurations of the reduction case study.

use gpu_arch::GpuArch;
use gpu_sim::kernels;
use gpu_sim::{GpuSystem, GridLaunch, RunOptions};
use serde::Serialize;
use sim_core::SimResult;

/// One measured configuration (a Table III row, before the Little's-law
/// column is added by `perf-model`).
#[derive(Debug, Clone, Serialize)]
pub struct SmemBandwidthRow {
    pub scenario: String,
    pub threads: u32,
    /// Streaming bandwidth, bytes per cycle.
    pub bandwidth_bytes_per_cycle: f64,
    /// Per-element dependent-loop latency, cycles.
    pub latency_cycles: f64,
}

/// Words of shared memory streamed per measurement.
const WORDS: u32 = 8192;

/// Measure the Fig. 10 loop over shared memory with `threads` live threads
/// in a single block (single SM).
pub fn measure_smem(arch: &GpuArch, threads: u32) -> SimResult<SmemBandwidthRow> {
    let mut a = arch.clone();
    a.num_sms = 1;
    let mut sys = GpuSystem::single(a.clone());
    let block_dim = threads.clamp(32, 1024);
    let out = sys.alloc(0, block_dim as u64);
    let kernel = kernels::smem_stream_kernel(WORDS, threads);
    let report = sys
        .execute(
            &GridLaunch::single(kernel, 1, block_dim, vec![out.0 as u64]),
            &RunOptions::new(),
        )?
        .report;
    let cycles = a.clock().to_cycles(report.duration);
    let bytes = WORDS as f64 * 8.0;
    // Per-element latency observed by one thread's dependent loop.
    let iters_per_thread = (WORDS as f64 / threads as f64).ceil();
    Ok(SmemBandwidthRow {
        scenario: format!("{threads} thread(s)"),
        threads,
        bandwidth_bytes_per_cycle: bytes / cycles,
        latency_cycles: cycles / iters_per_thread,
    })
}

/// The four configurations of Table III: 1 thread, 1 warp, 32 threads,
/// 1024 threads.
pub fn table3_measurements(arch: &GpuArch) -> SimResult<Vec<SmemBandwidthRow>> {
    let mut rows = vec![
        measure_smem(arch, 1)?,
        measure_smem(arch, 32)?,
        measure_smem(arch, 1024)?,
    ];
    rows[0].scenario = "1 thread".into();
    rows[1].scenario = "1 warp / 32 threads".into();
    rows[2].scenario = "1024 threads".into();
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v100_bandwidth_anchors() {
        let rows = table3_measurements(&GpuArch::v100()).unwrap();
        // Paper Table III: 0.62, 19.6, 215 B/cycle.
        let expect = [0.62, 19.6, 215.0];
        for (r, e) in rows.iter().zip(expect) {
            assert!(
                (r.bandwidth_bytes_per_cycle - e).abs() / e < 0.15,
                "{}: {} vs {}",
                r.scenario,
                r.bandwidth_bytes_per_cycle,
                e
            );
        }
    }

    #[test]
    fn p100_bandwidth_anchors() {
        let rows = table3_measurements(&GpuArch::p100()).unwrap();
        let expect = [0.43, 13.8, 141.0];
        for (r, e) in rows.iter().zip(expect) {
            assert!(
                (r.bandwidth_bytes_per_cycle - e).abs() / e < 0.15,
                "{}: {} vs {}",
                r.scenario,
                r.bandwidth_bytes_per_cycle,
                e
            );
        }
    }

    #[test]
    fn latency_anchor_is_the_loop_iteration() {
        let rows = table3_measurements(&GpuArch::v100()).unwrap();
        assert!(
            (rows[0].latency_cycles - 13.0).abs() < 1.5,
            "V100 latency {}",
            rows[0].latency_cycles
        );
        let rows = table3_measurements(&GpuArch::p100()).unwrap();
        assert!(
            (rows[0].latency_cycles - 18.5).abs() < 2.0,
            "P100 latency {}",
            rows[0].latency_cycles
        );
    }
}
