//! `sync_recovery`: cost of recovering a multi-GPU barrier from faults.
//!
//! The paper measures multi-device synchronization on healthy hardware;
//! [`crate::resilience`] measures it degraded. This experiment closes the
//! loop: when a fault actually *breaks* the multi-grid barrier (a killed
//! block never arrives, deadlocking every rank), what does it cost to
//! finish the job anyway?
//!
//! Two fault classes per GPU count, both driven by one seeded
//! [`FaultPlan`] killing a block on rank 1:
//!
//! * **transient-kill** — the kill is armed only on attempt 0 (a one-off
//!   soft failure). [`recover::execute`] restores the pre-launch buffers
//!   and relaunches clean; recovery is a full retry at full strength.
//! * **persistent-kill** — the kill is armed on every attempt (a dead
//!   rank). Plain retry cannot help, so the policy evicts rank 1 and
//!   re-runs degraded on the survivors.
//!
//! The headline is MTTR-style: total time to a successful result
//! (failed attempts + seeded backoff + the successful run) relative to
//! the healthy fault-free run at the same GPU count. Every quantity is
//! simulated time from counter-based draws, so the whole table is
//! byte-identical at any `--jobs` value.

use crate::measure::{launch_for, Placement};
use crate::report::{fmt, TextTable};
use crate::sweep;
use gpu_arch::GpuArch;
use gpu_node::NodeTopology;
use gpu_sim::kernels::{self, SyncOp};
use gpu_sim::{recover, FaultPlan, GpuSystem, RecoveryPolicy, RunOptions};
use serde::Serialize;
use sim_core::SimResult;
use std::sync::Arc;

/// GPU counts swept (DGX-1: inside and across the quad boundary).
pub const GPU_COUNTS: [usize; 4] = [2, 4, 6, 8];

/// The two fault classes: (label, transient).
pub const CLASSES: [(&str, bool); 2] = [("transient-kill", true), ("persistent-kill", false)];

/// Chain length per cell (matches [`crate::resilience`]).
const REPS: usize = 8;
/// Threads per block of the multi-grid chain.
const TPB: u32 = 64;

/// One cell of the recovery sweep.
#[derive(Debug, Clone, Serialize)]
pub struct RecoveryPoint {
    pub gpus: usize,
    pub class: &'static str,
    /// Total attempts the recovery layer made (1 = clean).
    pub attempts: u32,
    /// Ranks evicted before success.
    pub evicted: usize,
    /// Ranks the successful attempt ran on.
    pub effective_gpus: usize,
    /// Fault-free run at the same GPU count (us).
    pub healthy_us: f64,
    /// Failed attempts plus backoff (us).
    pub recovery_us: f64,
    /// Recovery cost plus the successful run (us) — time to result.
    pub total_us: f64,
}

impl RecoveryPoint {
    /// Time-to-result relative to the healthy run (the MTTR headline).
    pub fn mttr_factor(&self) -> f64 {
        if self.healthy_us > 0.0 {
            self.total_us / self.healthy_us
        } else {
            f64::NAN
        }
    }
}

fn small_arch() -> GpuArch {
    let mut arch = GpuArch::v100();
    arch.num_sms = 4;
    arch
}

/// The policy under test: the fixed retry/eviction budget, seeded backoff
/// jitter, and — for the transient class — the plan armed only on the
/// first attempt.
pub fn policy_for(seed: u64, transient: bool) -> RecoveryPolicy {
    let p = RecoveryPolicy::new().seeded(seed);
    if transient {
        p.transient(1)
    } else {
        p
    }
}

/// Measure one (GPU count × fault class) cell.
pub fn recovery_cell(seed: u64, gpus: usize, transient: bool) -> SimResult<RecoveryPoint> {
    let arch = small_arch();
    let topology = Arc::new(NodeTopology::dgx1_v100());
    let placement = Placement::multi(topology, gpus);
    let grid_dim = arch.num_sms;
    let mut sys = GpuSystem::new(arch, placement.topology);
    let launch = launch_for(
        &mut sys,
        SyncOp::MultiGrid,
        kernels::sync_chain(SyncOp::MultiGrid, REPS),
        grid_dim,
        TPB,
        &placement.devices,
    );
    let healthy = sys.clone().execute(&launch, &RunOptions::new())?;
    let opts = RunOptions::new().faults(FaultPlan::seeded(seed).kill_block(1, 0));
    let (arts, rec) = recover::execute(&mut sys, &launch, &opts, &policy_for(seed, transient))?;
    let healthy_us = healthy.report.duration.as_us();
    let recovery_us = rec.recovery_cost.as_us();
    let total_us = recovery_us + arts.report.duration.as_us();
    Ok(RecoveryPoint {
        gpus,
        class: if transient {
            CLASSES[0].0
        } else {
            CLASSES[1].0
        },
        attempts: rec.attempts.len() as u32,
        evicted: rec.evicted_ranks.len(),
        effective_gpus: rec.effective_ranks,
        healthy_us,
        recovery_us,
        total_us,
    })
}

/// Measure every (GPU count × class) cell.
pub fn recovery_sweep(seed: u64) -> SimResult<Vec<RecoveryPoint>> {
    let mut cells = Vec::new();
    for &gpus in &GPU_COUNTS {
        for &(_, transient) in &CLASSES {
            cells.push((gpus, transient));
        }
    }
    sweep::Sweep::new().try_run(cells, |(gpus, transient)| {
        recovery_cell(seed, gpus, transient)
    })
}

pub fn render(points: &[RecoveryPoint]) -> TextTable {
    let mut t = TextTable::new(
        "sync_recovery: multi-grid barrier recovery cost (killed block on rank 1)",
        &[
            "GPUs",
            "class",
            "attempts",
            "evicted",
            "ran on",
            "healthy us",
            "recovery us",
            "total us",
            "MTTR x",
        ],
    );
    for p in points {
        t.row(vec![
            p.gpus.to_string(),
            p.class.to_string(),
            p.attempts.to_string(),
            p.evicted.to_string(),
            p.effective_gpus.to_string(),
            fmt(p.healthy_us),
            fmt(p.recovery_us),
            fmt(p.total_us),
            format!("{:.2}x", p.mttr_factor()),
        ]);
    }
    t
}

/// The full experiment, stamped with the seed.
pub fn report(seed: u64) -> SimResult<String> {
    let points = recovery_sweep(seed)?;
    let mut s = format!("sync_recovery (fault seed {seed})\n\n");
    s.push_str(&render(&points).render());
    s.push_str(
        "(transient kills recover by checkpointed relaunch at full strength;
         persistent kills recover by evicting the dead rank and re-running
         the barrier degraded on the survivors — where MTTR x < 1, the
         degraded barrier is cheaper than the healthy one because the
         multi-grid barrier's steep per-GPU cost shrinks with the rank set)\n",
    );
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_kill_recovers_by_retry_at_full_strength() {
        let p = recovery_cell(7, 4, true).unwrap();
        assert_eq!(p.attempts, 2, "{p:?}"); // fail once, retry clean
        assert_eq!(p.evicted, 0, "{p:?}");
        assert_eq!(p.effective_gpus, 4, "{p:?}");
        assert!(p.recovery_us > 0.0, "{p:?}");
        assert!(p.total_us > p.healthy_us, "{p:?}");
    }

    #[test]
    fn persistent_kill_recovers_by_evicting_the_dead_rank() {
        let p = recovery_cell(7, 4, false).unwrap();
        assert_eq!(p.attempts, 2, "{p:?}"); // fail, evict, succeed
        assert_eq!(p.evicted, 1, "{p:?}");
        assert_eq!(p.effective_gpus, 3, "{p:?}");
        assert!(p.total_us > p.healthy_us, "{p:?}");
    }

    #[test]
    fn sweep_covers_every_cell_and_always_recovers() {
        let pts = recovery_sweep(7).unwrap();
        assert_eq!(pts.len(), GPU_COUNTS.len() * CLASSES.len());
        for p in &pts {
            assert!(p.attempts >= 2, "every cell needs recovery: {p:?}");
            assert!(p.recovery_us > 0.0, "{p:?}");
            // Transient recovery re-runs at full strength, so time to
            // result always exceeds healthy. Eviction re-runs on fewer
            // ranks, where the multi-grid barrier itself is cheaper
            // (Fig. 9's steep per-GPU cost in reverse) — its factor may
            // legitimately drop below 1 at small GPU counts.
            if p.class == "transient-kill" {
                assert!(p.mttr_factor() > 1.0, "{p:?}");
            }
        }
    }

    #[test]
    fn report_is_byte_identical_across_worker_counts() {
        let cells: Vec<(usize, bool)> = GPU_COUNTS
            .iter()
            .flat_map(|&g| CLASSES.iter().map(move |&(_, t)| (g, t)))
            .collect();
        let run = |jobs: usize| -> Vec<String> {
            sweep::Sweep::new().jobs(jobs).run(cells.clone(), |(g, t)| {
                serde_json::to_string(&recovery_cell(11, g, t).unwrap()).unwrap()
            })
        };
        assert_eq!(run(1), run(8));
    }
}
