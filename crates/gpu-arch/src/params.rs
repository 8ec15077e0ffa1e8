//! Architecture timing/throughput parameter sets.
//!
//! Every number that shapes a measurement lives here, in one place, so the
//! calibration against the paper's published tables is auditable. Units are
//! *cycles* of the device clock unless stated otherwise.
//!
//! Anchors (see EXPERIMENTS.md for the full paper-vs-measured record):
//! * Table II — warp/block sync latency & throughput,
//! * Fig. 4  — block-sync saturation vs active warps/SM,
//! * Fig. 5  — grid-sync heat map corners,
//! * Table III — shared-memory latency/bandwidth,
//! * Table VI — device-memory reduction bandwidth.

use serde::{Deserialize, Serialize};

/// Latency/throughput pair for one synchronization instruction flavour.
///
/// `latency_cycles` is what a single dependent chain observes (Wong's method);
/// `throughput_per_sm` is the SM-wide issue rate in operations/cycle that the
/// instruction's hardware unit sustains when many warps pound on it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SyncInstr {
    pub latency_cycles: u64,
    pub throughput_per_sm: f64,
    /// Whether the instruction actually *blocks* divergent threads until all
    /// arrive. On Pascal, warp-level syncs are compiled to plain memory
    /// fences and do **not** block (paper §VIII-A / Fig. 18).
    pub blocking: bool,
}

impl SyncInstr {
    pub const fn new(latency_cycles: u64, throughput_per_sm: f64, blocking: bool) -> Self {
        SyncInstr {
            latency_cycles,
            throughput_per_sm,
            blocking,
        }
    }
}

/// Core-pipeline and synchronization timing parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimingParams {
    /// Integer ALU op latency (add/sub/compare/logic).
    pub alu_latency: u64,
    /// FP32 add latency — the value both Wong's method and the paper's
    /// inter-SM method must recover (4 on V100, 6 on P100).
    pub fadd32_latency: u64,
    /// FP64 add latency.
    pub fadd64_latency: u64,
    /// Per-scheduler instruction issue interval in cycles (1 = one
    /// instruction per cycle per scheduler partition).
    pub issue_interval: f64,
    /// Shared-memory load-to-use latency.
    pub smem_latency: u64,
    /// Extra cycles for a `volatile` shared access (bypasses the staging
    /// registers, paying the full round trip every time).
    pub volatile_extra: u64,
    /// Shared-memory port bandwidth cap, bytes/cycle per SM (Table III's
    /// 1024-thread row divided by the per-thread linear regime).
    pub smem_bytes_per_cycle_sm: f64,
    /// Per-iteration cost of a plain dependent scan loop over shared memory
    /// (`sum += sm[i]`, one f64 add) for a single thread — anchors Table V's
    /// "serial" column.
    pub smem_scan_iter_cycles: f64,
    /// Extra cycles per additional f64 add carried by the loop body; the
    /// Fig. 10 micro-benchmark carries two, which anchors Table III's
    /// per-iteration "latency" (scan + 2×extra).
    pub smem_flop_extra_cycles: f64,

    /// Tile-group sync (any size — CUDA merges concurrent tile syncs).
    pub tile_sync: SyncInstr,
    /// Coalesced-group sync when the group is the full warp.
    pub coalesced_sync_full: SyncInstr,
    /// Coalesced-group sync for partial groups (software slow path on Volta).
    pub coalesced_sync_partial: SyncInstr,
    /// Shuffle through a tile group.
    pub shfl_tile: SyncInstr,
    /// Shuffle through a coalesced group — the *fast path* a homogeneous
    /// dependent chain observes (Table II records the fastest result).
    pub shfl_coalesced: SyncInstr,
    /// Coalesced shuffle when the group descriptor is cold (the previous
    /// instruction was not a coalesced shuffle): the software path rebuilds
    /// the member mask, which is what real reduction code pays (Table V's
    /// dramatic coalesced-shuffle column).
    pub shfl_coalesced_cold_cycles: u64,

    /// Block barrier release latency (single-warp dependent-chain view).
    pub block_sync_latency: u64,
    /// Arrival serialization at the SM barrier unit, cycles per warp. The
    /// per-warp throughput W/(L + c·W) saturates at 1/c — Fig. 4's plateau.
    pub block_sync_arrival_cycles: f64,

    /// Latency of a global (L2) atomic as seen by one thread.
    pub global_atomic_latency: u64,
    /// L2 atomic unit issue interval — serializes the per-block arrival
    /// atomics of a grid barrier, making grid-sync cost scale with the total
    /// number of blocks (Fig. 5).
    pub l2_atomic_interval: f64,
    /// How often a spinning block leader polls the release flag.
    pub poll_interval: u64,
    /// Per-warp cost of releasing a grid barrier inside an SM.
    pub grid_release_per_warp: f64,
    /// Additional per-warp cost of a *multi-grid* release (system-scope
    /// fence). Much larger than the device-scope cost on Volta (Fig. 8's
    /// strong threads/block dependence).
    pub mgrid_release_per_warp: f64,

    /// Cost of switching between divergent execution groups of one warp —
    /// produces the Fig. 18 staircase.
    pub divergence_switch_cycles: u64,
    /// Extra cost of switching execution groups when the previous group just
    /// *blocked* at a warp-level barrier (scheduler re-queue + convergence
    /// bookkeeping on Volta). Zero on Pascal, whose warp barriers never
    /// block. This is the dominant term of the Fig. 18 V100 staircase.
    pub warp_barrier_switch_cycles: u64,
    /// Fractional inflation of the L2 atomic issue interval per concurrently
    /// spinning block leader: models the release-flag polling traffic that
    /// bends grid-sync latency super-linear at high block counts (Fig. 5's
    /// 16→32 blocks/SM jump).
    pub poll_contention_per_block: f64,
    /// Latency of reading the SM cycle counter.
    pub clock_read_latency: u64,
}

/// Memory-system parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemoryParams {
    /// Theoretical peak DRAM bandwidth, GB/s (paper Table VI "theory").
    pub dram_peak_gbs: f64,
    /// Fraction of peak a tuned streaming kernel achieves.
    pub dram_stream_efficiency: f64,
    /// DRAM access latency in cycles.
    pub dram_latency: u64,
    /// Bytes one *warp* can keep in flight to DRAM (memory-level
    /// parallelism); bounds single-warp streaming bandwidth via Little's law.
    pub warp_mlp_bytes: u64,
    /// L2 hit latency in cycles.
    pub l2_latency: u64,
}

impl MemoryParams {
    /// Achievable streaming bandwidth in GB/s.
    pub fn dram_effective_gbs(&self) -> f64 {
        self.dram_peak_gbs * self.dram_stream_efficiency
    }
}

/// Host-side cost model of one kernel-launch path (paper §IV / Table I).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct LaunchPath {
    /// CPU-side cost of the launch call, and the back-to-back gap between
    /// consecutive kernels of a saturated stream, ns. This is what the
    /// kernel-fusion method (Eq. 6) recovers as "launch overhead".
    pub overhead_ns: u64,
    /// Minimum stream occupancy of a kernel (driver/dispatch floor), ns.
    /// `total latency = floor + overhead` for a null kernel (Table I).
    pub floor_ns: u64,
}

/// Host-side runtime parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HostParams {
    pub traditional: LaunchPath,
    pub cooperative: LaunchPath,
    pub cooperative_multi: LaunchPath,
    /// Fixed cost of `cudaDeviceSynchronize` once the stream is idle, ns.
    pub device_sync_ns: u64,
    /// Base cost of an OpenMP-style barrier among host threads, ns.
    pub omp_barrier_ns: u64,
    /// Additional barrier cost per participating thread beyond the first,
    /// ns (the slight growth of Fig. 9's CPU-side line).
    pub omp_barrier_per_thread_ns: u64,
    /// Per-extra-GPU serialization of the multi-device cooperative launch
    /// gate (the launch "will not execute until all previous operations in
    /// all GPU streams finished"), ns. Drives Fig. 9's steep implicit line.
    pub multi_gate_per_gpu_ns: u64,
    /// Minimum interval between consecutive kernel *starts* in one stream —
    /// per-kernel driver work that pipelining cannot hide. For kernels
    /// shorter than this, the fusion method over-reports the launch overhead
    /// (§IX-B's warning; ~3 µs, matching Volkov's best-case null-kernel
    /// overhead).
    pub stream_pipeline_interval_ns: u64,
    /// 1-sigma Gaussian jitter applied to host-side timestamps, ns.
    pub host_timer_jitter_ns: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_instr_constructor() {
        let s = SyncInstr::new(14, 0.812, true);
        assert_eq!(s.latency_cycles, 14);
        assert!(s.blocking);
    }

    #[test]
    fn memory_effective_bandwidth() {
        let m = MemoryParams {
            dram_peak_gbs: 898.05,
            dram_stream_efficiency: 0.9636,
            dram_latency: 440,
            warp_mlp_bytes: 2048,
            l2_latency: 200,
        };
        let eff = m.dram_effective_gbs();
        assert!((eff - 865.36).abs() < 0.5, "got {eff}");
    }
}
