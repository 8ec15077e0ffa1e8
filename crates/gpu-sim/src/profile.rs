//! `syncprof`: deterministic per-warp stall attribution and per-SM counters.
//!
//! The paper's results are *attributions* — how many cycles each sync
//! primitive costs and where warps spend their time waiting (barrier-arrival
//! serialization in Fig. 7, L2 atomic round-trips in §VII, launch gaps in
//! Table I) — so the engine can account every picosecond a warp spends into
//! one of a fixed set of buckets:
//!
//! * **issue stall** — waiting for a scheduler issue slot (plus divergence
//!   re-queue switch costs),
//! * **exec** — ALU/branch/shuffle latency after issue,
//! * **barrier wait, by scope** — parked at a tile/coalesced, block, grid, or
//!   multi-grid barrier, measured from the warp's first parked lane to its
//!   release (paper Figs. 4, 5, 7, 9),
//! * **memory** — shared/global access latency and stream transfers,
//! * **atomic** — L2 atomic round-trips (the grid-barrier arrival path),
//! * **flag wait** — spinning on a `WaitGe` flag cell (fine-grained
//!   producer/consumer sync), successful polls and back-off retries alike,
//! * **sleep** — `__nanosleep` residency.
//!
//! Counters are integral picoseconds accumulated in deterministic event
//! order, so a [`ProfileReport`] is byte-identical for a given launch no
//! matter how many sweep worker threads (`--jobs`) ran around it.

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Barrier scope of a wait or a release epoch (paper §III's hierarchy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SyncScope {
    /// Warp-level: `__syncwarp` tiles and coalesced groups (Tables II/V).
    Tile,
    /// `__syncthreads` / `bar.sync` (Fig. 7).
    Block,
    /// `grid.sync()` via cooperative groups (Fig. 5).
    Grid,
    /// `multi_grid.sync()` across devices (Fig. 9).
    MultiGrid,
}

impl SyncScope {
    pub fn label(self) -> &'static str {
        match self {
            SyncScope::Tile => "tile",
            SyncScope::Block => "block",
            SyncScope::Grid => "grid",
            SyncScope::MultiGrid => "multi-grid",
        }
    }
}

/// Picoseconds a set of warps spent in each attribution bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct StallBreakdown {
    /// Waiting for a scheduler issue slot (incl. divergence switch costs).
    pub issue_stall_ps: u64,
    /// Post-issue ALU / branch / shuffle / clock latency.
    pub exec_ps: u64,
    /// Parked at a warp-level (tile / coalesced) barrier.
    pub tile_wait_ps: u64,
    /// Parked at a block barrier.
    pub block_wait_ps: u64,
    /// Parked at a grid barrier.
    pub grid_wait_ps: u64,
    /// Parked at a multi-grid barrier.
    pub multi_grid_wait_ps: u64,
    /// Shared / global memory latency and stream transfers.
    pub mem_ps: u64,
    /// L2 atomic round-trips.
    pub atomic_ps: u64,
    /// Spinning on a flag cell (`WaitGe` polls, successful and backed-off).
    pub flag_wait_ps: u64,
    /// `__nanosleep` residency.
    pub sleep_ps: u64,
}

impl StallBreakdown {
    pub fn add(&mut self, o: &StallBreakdown) {
        self.issue_stall_ps += o.issue_stall_ps;
        self.exec_ps += o.exec_ps;
        self.tile_wait_ps += o.tile_wait_ps;
        self.block_wait_ps += o.block_wait_ps;
        self.grid_wait_ps += o.grid_wait_ps;
        self.multi_grid_wait_ps += o.multi_grid_wait_ps;
        self.mem_ps += o.mem_ps;
        self.atomic_ps += o.atomic_ps;
        self.flag_wait_ps += o.flag_wait_ps;
        self.sleep_ps += o.sleep_ps;
    }

    pub fn barrier_wait_ps(&self, scope: SyncScope) -> u64 {
        match scope {
            SyncScope::Tile => self.tile_wait_ps,
            SyncScope::Block => self.block_wait_ps,
            SyncScope::Grid => self.grid_wait_ps,
            SyncScope::MultiGrid => self.multi_grid_wait_ps,
        }
    }

    pub fn barrier_wait_mut(&mut self, scope: SyncScope) -> &mut u64 {
        match scope {
            SyncScope::Tile => &mut self.tile_wait_ps,
            SyncScope::Block => &mut self.block_wait_ps,
            SyncScope::Grid => &mut self.grid_wait_ps,
            SyncScope::MultiGrid => &mut self.multi_grid_wait_ps,
        }
    }

    /// Total barrier wait across every scope.
    pub fn total_barrier_wait_ps(&self) -> u64 {
        self.tile_wait_ps + self.block_wait_ps + self.grid_wait_ps + self.multi_grid_wait_ps
    }

    /// Every bucket summed — total attributed warp time.
    pub fn total_ps(&self) -> u64 {
        self.issue_stall_ps
            + self.exec_ps
            + self.total_barrier_wait_ps()
            + self.mem_ps
            + self.atomic_ps
            + self.flag_wait_ps
            + self.sleep_ps
    }
}

/// One SM's stall attribution and occupancy counters within a kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SmProfile {
    /// Device rank within the launch.
    pub rank: u32,
    pub sm: u32,
    pub stalls: StallBreakdown,
    /// Instructions accepted by this SM's scheduler slots.
    pub instrs_issued: u64,
    /// Picoseconds the SM's scheduler slots were occupied by issue intervals.
    pub issue_busy_ps: u64,
    pub blocks_started: u64,
    pub warps_started: u64,
    /// High-water mark of co-resident blocks on this SM.
    pub peak_resident_blocks: u32,
}

impl SmProfile {
    pub(crate) fn empty(rank: u32, sm: u32) -> SmProfile {
        SmProfile {
            rank,
            sm,
            stalls: StallBreakdown::default(),
            instrs_issued: 0,
            issue_busy_ps: 0,
            blocks_started: 0,
            warps_started: 0,
            peak_resident_blocks: 0,
        }
    }

    fn is_idle(&self) -> bool {
        self.blocks_started == 0 && self.instrs_issued == 0
    }

    fn add(&mut self, o: &SmProfile) {
        self.stalls.add(&o.stalls);
        self.instrs_issued += o.instrs_issued;
        self.issue_busy_ps += o.issue_busy_ps;
        self.blocks_started += o.blocks_started;
        self.warps_started += o.warps_started;
        self.peak_resident_blocks = self.peak_resident_blocks.max(o.peak_resident_blocks);
    }
}

/// A barrier-release instant (one flag flip observed by a whole block or
/// grid) — rendered as an instant event on the Perfetto track.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BarrierEpoch {
    /// Simulated time of the release, in picoseconds from launch start.
    pub at_ps: u64,
    /// Device rank within the launch.
    pub rank: u32,
    pub scope: SyncScope,
}

/// Attribution for every launch of one kernel (merged by kernel name).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelProfile {
    pub kernel: String,
    pub launches: u64,
    /// Sum of `per_sm` stalls.
    pub totals: StallBreakdown,
    pub instrs_issued: u64,
    /// Per-(rank, SM) breakdown, ascending (rank, sm); idle SMs omitted.
    pub per_sm: Vec<SmProfile>,
}

impl KernelProfile {
    fn add(&mut self, o: &KernelProfile) {
        self.launches += o.launches;
        self.totals.add(&o.totals);
        self.instrs_issued += o.instrs_issued;
        for sp in &o.per_sm {
            match self
                .per_sm
                .binary_search_by_key(&(sp.rank, sp.sm), |s| (s.rank, s.sm))
            {
                Ok(i) => self.per_sm[i].add(sp),
                Err(i) => self.per_sm.insert(i, sp.clone()),
            }
        }
    }
}

/// Cap on stored barrier epochs (per report and after merging); releases
/// beyond it are counted in `epochs_dropped`.
pub const EPOCH_CAP: usize = 4096;

/// The `syncprof` profile of one or more kernel launches: deterministic,
/// serializable, and mergeable (sweep cells merge their per-cell reports in
/// plan order, so the result is identical at any `--jobs`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileReport {
    /// Picoseconds per device-clock cycle (for cycle-denominated rendering).
    pub ps_per_cycle: f64,
    /// Per-kernel attribution, ascending by kernel name.
    pub kernels: Vec<KernelProfile>,
    /// Barrier-release instants of the *first* profiled launch window(s),
    /// capped at [`EPOCH_CAP`].
    pub epochs: Vec<BarrierEpoch>,
    pub epochs_dropped: u64,
}

impl ProfileReport {
    /// An empty report to merge cell profiles into.
    pub fn empty(ps_per_cycle: f64) -> ProfileReport {
        ProfileReport {
            ps_per_cycle,
            kernels: Vec::new(),
            epochs: Vec::new(),
            epochs_dropped: 0,
        }
    }

    /// Fold `reports` in order into [`ProfileReport::empty`]: the one way a
    /// sweep combines its cells' profiles, so the bytes depend only on the
    /// order of `reports`, never on which worker produced each one.
    pub fn merged<'a>(
        ps_per_cycle: f64,
        reports: impl IntoIterator<Item = &'a ProfileReport>,
    ) -> ProfileReport {
        let mut acc = ProfileReport::empty(ps_per_cycle);
        for r in reports {
            acc.merge(r);
        }
        acc
    }

    pub(crate) fn from_parts(
        ps_per_cycle: f64,
        kernel: String,
        sms: Vec<SmProfile>,
        epochs: Vec<BarrierEpoch>,
        epochs_dropped: u64,
    ) -> ProfileReport {
        let mut totals = StallBreakdown::default();
        let mut instrs_issued = 0;
        let mut per_sm: Vec<SmProfile> = Vec::new();
        for sp in sms {
            if sp.is_idle() {
                continue;
            }
            totals.add(&sp.stalls);
            instrs_issued += sp.instrs_issued;
            per_sm.push(sp);
        }
        per_sm.sort_by_key(|s| (s.rank, s.sm));
        ProfileReport {
            ps_per_cycle,
            kernels: vec![KernelProfile {
                kernel,
                launches: 1,
                totals,
                instrs_issued,
                per_sm,
            }],
            epochs,
            epochs_dropped,
        }
    }

    /// Fold another report into this one. Kernels merge by name; epochs
    /// append in merge order up to [`EPOCH_CAP`]. Merging in a fixed (plan)
    /// order keeps the result deterministic across `--jobs` values.
    pub fn merge(&mut self, other: &ProfileReport) {
        if self.ps_per_cycle == 0.0 {
            self.ps_per_cycle = other.ps_per_cycle;
        }
        for k in &other.kernels {
            match self
                .kernels
                .binary_search_by(|c| c.kernel.as_str().cmp(k.kernel.as_str()))
            {
                Ok(i) => self.kernels[i].add(k),
                Err(i) => self.kernels.insert(i, k.clone()),
            }
        }
        for &e in &other.epochs {
            if self.epochs.len() < EPOCH_CAP {
                self.epochs.push(e);
            } else {
                self.epochs_dropped += 1;
            }
        }
        self.epochs_dropped += other.epochs_dropped;
    }

    /// Total barrier wait at `scope` across every kernel, in picoseconds.
    pub fn barrier_wait_ps(&self, scope: SyncScope) -> u64 {
        self.kernels
            .iter()
            .map(|k| k.totals.barrier_wait_ps(scope))
            .sum()
    }

    /// Grand total of every attribution bucket, in picoseconds.
    pub fn total_ps(&self) -> u64 {
        self.kernels.iter().map(|k| k.totals.total_ps()).sum()
    }

    fn cycles(&self, ps: u64) -> f64 {
        if self.ps_per_cycle > 0.0 {
            ps as f64 / self.ps_per_cycle
        } else {
            0.0
        }
    }

    /// Serialize to pretty JSON (byte-deterministic for a given report).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("profile serializes")
    }

    /// Render a fixed-width text summary (byte-deterministic).
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "syncprof: {} kernel(s), {} barrier epoch(s){}",
            self.kernels.len(),
            self.epochs.len(),
            if self.epochs_dropped > 0 {
                format!(" (+{} dropped)", self.epochs_dropped)
            } else {
                String::new()
            }
        );
        let _ = writeln!(
            s,
            "{:<28} {:>8} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
            "kernel",
            "launches",
            "issue-stall",
            "exec",
            "tile-wait",
            "block-wait",
            "grid-wait",
            "mgrid-wait",
            "mem",
            "atomic",
            "flag-wait",
            "sleep"
        );
        for k in &self.kernels {
            let t = &k.totals;
            let _ = writeln!(
                s,
                "{:<28} {:>8} {:>12.0} {:>12.0} {:>12.0} {:>12.0} {:>12.0} {:>12.0} {:>12.0} {:>12.0} {:>12.0} {:>12.0}",
                k.kernel,
                k.launches,
                self.cycles(t.issue_stall_ps),
                self.cycles(t.exec_ps),
                self.cycles(t.tile_wait_ps),
                self.cycles(t.block_wait_ps),
                self.cycles(t.grid_wait_ps),
                self.cycles(t.multi_grid_wait_ps),
                self.cycles(t.mem_ps),
                self.cycles(t.atomic_ps),
                self.cycles(t.flag_wait_ps),
                self.cycles(t.sleep_ps)
            );
        }
        let _ = writeln!(s, "(columns in device cycles; per-warp time summed per SM)");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sm(rank: u32, sm_: u32, block_wait: u64) -> SmProfile {
        let mut s = SmProfile::empty(rank, sm_);
        s.stalls.block_wait_ps = block_wait;
        s.instrs_issued = 1;
        s.blocks_started = 1;
        s
    }

    #[test]
    fn merge_combines_kernels_by_name_and_sm() {
        let a = ProfileReport::from_parts(1000.0, "k".into(), vec![sm(0, 0, 10)], vec![], 0);
        let b = ProfileReport::from_parts(
            1000.0,
            "k".into(),
            vec![sm(0, 0, 5), sm(0, 1, 7)],
            vec![],
            0,
        );
        let m = ProfileReport::merged(1000.0, [&a, &b]);
        assert_eq!(m.kernels.len(), 1);
        assert_eq!(m.kernels[0].launches, 2);
        assert_eq!(m.kernels[0].totals.block_wait_ps, 22);
        assert_eq!(m.kernels[0].per_sm.len(), 2);
        assert_eq!(m.kernels[0].per_sm[0].stalls.block_wait_ps, 15);
        assert_eq!(m.barrier_wait_ps(SyncScope::Block), 22);
    }

    #[test]
    fn merge_order_determines_bytes_not_jobs() {
        // Same merge order -> identical JSON, regardless of who produced the
        // per-cell reports.
        let cells: Vec<ProfileReport> = (0..4)
            .map(|i| {
                ProfileReport::from_parts(
                    1000.0,
                    format!("k{}", i % 2),
                    vec![sm(0, i, 100 + i as u64)],
                    vec![BarrierEpoch {
                        at_ps: i as u64,
                        rank: 0,
                        scope: SyncScope::Grid,
                    }],
                    0,
                )
            })
            .collect();
        let fold = |cells: &[ProfileReport]| ProfileReport::merged(1000.0, cells).to_json();
        assert_eq!(fold(&cells), fold(&cells));
        // Merging one report into an empty one of the same clock is the
        // identity, so a sweep of one cell reports that cell's bytes.
        assert_eq!(ProfileReport::merged(1000.0, &cells[..1]), cells[0]);
    }

    #[test]
    fn epoch_cap_counts_drops() {
        let epochs = vec![
            BarrierEpoch {
                at_ps: 1,
                rank: 0,
                scope: SyncScope::Block
            };
            10
        ];
        let a = ProfileReport::from_parts(1.0, "k".into(), vec![], epochs, 3);
        let mut m = ProfileReport::empty(1.0);
        m.merge(&a);
        assert_eq!(m.epochs.len(), 10);
        assert_eq!(m.epochs_dropped, 3);
    }

    #[test]
    fn idle_sms_are_dropped_from_reports() {
        let r = ProfileReport::from_parts(
            1.0,
            "k".into(),
            vec![SmProfile::empty(0, 0), sm(0, 1, 4)],
            vec![],
            0,
        );
        assert_eq!(r.kernels[0].per_sm.len(), 1);
        assert_eq!(r.kernels[0].per_sm[0].sm, 1);
    }

    // ---- engine-level attribution (paper-facing behaviour) ----

    fn profiled(
        num_sms: u32,
        op: crate::kernels::SyncOp,
        blocks: u32,
        threads: u32,
        cooperative: bool,
    ) -> ProfileReport {
        use crate::{GpuSystem, GridLaunch, RunOptions};
        let mut arch = gpu_arch::GpuArch::v100();
        arch.num_sms = num_sms;
        let mut sys = GpuSystem::single(arch);
        let out = sys.alloc(0, (blocks * threads) as u64);
        let k = crate::kernels::sync_chain(op, 4);
        let mut l = GridLaunch::single(k, blocks, threads, vec![out.0 as u64]);
        if cooperative {
            l = l.cooperative();
        }
        sys.execute(&l, &RunOptions::new().profile())
            .unwrap()
            .profile
            .unwrap()
    }

    /// Grid-wide synchronization must show up as grid-scope wait — the
    /// headline counter behind the paper's Fig. 5/6 latency curves.
    #[test]
    fn grid_sync_attributes_grid_scope_wait() {
        let r = profiled(2, crate::kernels::SyncOp::Grid, 4, 64, true);
        assert!(
            r.barrier_wait_ps(SyncScope::Grid) > 0,
            "no grid wait recorded: {}",
            r.render()
        );
        // Grid barriers release in epochs; each of the 4 repeats is one.
        assert!(
            r.epochs.iter().any(|e| e.scope == SyncScope::Grid),
            "no grid epochs"
        );
        assert!(r.total_ps() >= r.barrier_wait_ps(SyncScope::Grid));
    }

    /// Paper Fig. 7: `__syncthreads()` cost rises with resident blocks per
    /// SM. Per-block barrier-wait must grow as co-residency goes up.
    #[test]
    fn block_barrier_wait_grows_with_blocks_per_sm() {
        let wait_per_block = |blocks: u32| {
            let r = profiled(1, crate::kernels::SyncOp::Block, blocks, 256, false);
            r.barrier_wait_ps(SyncScope::Block) as f64 / blocks as f64
        };
        let lone = wait_per_block(1);
        let packed = wait_per_block(8);
        assert!(
            packed > lone,
            "block-wait per block should grow with blocks/SM: 1 -> {lone}, 8 -> {packed}"
        );
    }

    /// A kernel without barriers must not accrue barrier-wait in any scope.
    #[test]
    fn barrier_free_kernel_has_no_barrier_wait() {
        use crate::{GpuSystem, GridLaunch, RunOptions};
        let mut sys = GpuSystem::single(gpu_arch::GpuArch::v100());
        let out = sys.alloc(0, 8 * 64);
        let k = crate::kernels::fadd32_chain(64);
        let l = GridLaunch::single(k, 8, 64, vec![out.0 as u64]);
        let r = sys
            .execute(&l, &RunOptions::new().profile())
            .unwrap()
            .profile
            .unwrap();
        assert_eq!(
            r.kernels[0].totals.total_barrier_wait_ps(),
            0,
            "{}",
            r.render()
        );
        assert!(r.kernels[0].instrs_issued > 0);
        assert!(r.epochs.is_empty());
    }
}
