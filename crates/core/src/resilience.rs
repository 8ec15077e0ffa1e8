//! `sync_resilience`: synchronization cost under injected faults.
//!
//! The paper measures the barrier hierarchy on healthy hardware; this
//! extension asks how those costs *degrade* when the platform misbehaves.
//! Two sweeps, both driven by a seeded [`FaultPlan`] so every cell is
//! byte-deterministic across `--jobs` values:
//!
//! * **Straggler jitter** — each barrier scope (tile / block / grid /
//!   multi-grid, the ladder of Figs. 4–7) re-measured while a quarter of
//!   the warps run 1.5–4× slower. Barriers wait for the *last* arrival, so
//!   the cost amplification per scope is the experiment's headline.
//! * **Link degradation** — the multi-GPU barrier of Fig. 7 / §VIII-B
//!   re-measured with NVLink/PCIe latency multiplied and with transient
//!   link flaps, at GPU counts inside and across the DGX-1 quad boundary.

use crate::measure::{cycles_to_us, sync_chain_run, Placement};
use crate::report::{fmt, TextTable};
use crate::sweep;
use gpu_arch::GpuArch;
use gpu_node::NodeTopology;
use gpu_sim::kernels::SyncOp;
use gpu_sim::{FaultPlan, RunOptions};
use serde::Serialize;
use sim_core::SimResult;
use std::sync::Arc;

/// Fraction (permille) of warps made stragglers in the jitter sweep.
pub const STRAGGLER_PERMILLE: u16 = 250;
/// Straggler slowdown multipliers swept (1000 = healthy baseline).
pub const JITTER_MULTS: [u32; 4] = [1000, 1500, 2000, 4000];
/// Link latency multipliers swept (1000 = healthy baseline).
pub const LINK_LAT_MULTS: [u32; 3] = [1000, 2000, 4000];
/// Flap timing used when flaps are armed: 500 ns down at the start of
/// every 2 µs of simulated time.
pub const FLAP_PERIOD_NS: u64 = 2_000;
pub const FLAP_DOWN_NS: u64 = 500;

/// One cell of the straggler sweep.
#[derive(Debug, Clone, Serialize)]
pub struct JitterPoint {
    pub scope: &'static str,
    pub mult_permille: u32,
    pub us: f64,
}

/// One cell of the link-degradation sweep.
#[derive(Debug, Clone, Serialize)]
pub struct LinkPoint {
    pub gpus: usize,
    pub lat_mult_permille: u32,
    pub flaps: bool,
    pub us: f64,
}

/// The four barrier scopes of the jitter sweep: op, grid dim (blocks per
/// device), block dim. Tile and block run on one block; grid and
/// multi-grid span the device(s) at one block per SM.
const SCOPES: [(&str, SyncOp, u32, u32); 4] = [
    ("tile(32)", SyncOp::Tile(32), 1, 128),
    ("block", SyncOp::Block, 1, 256),
    ("grid", SyncOp::Grid, 4, 128),
    ("multi-grid", SyncOp::MultiGrid, 4, 64),
];

/// Chain length per cell; long enough to amortize launch effects, short
/// enough that the 16-cell sweep stays interactive.
const REPS: usize = 8;

fn small_arch() -> GpuArch {
    let mut arch = GpuArch::v100();
    arch.num_sms = 4;
    arch
}

/// Measure every (scope × jitter multiplier) cell. The healthy column
/// (multiplier 1000) arms a zero plan, which the engine treats exactly
/// like an unfaulted run — so the baseline is the trusted Fig. 4–7 path.
pub fn jitter_sweep(seed: u64) -> SimResult<Vec<JitterPoint>> {
    let arch = small_arch();
    let topology = Arc::new(NodeTopology::dgx1_v100());
    let mut cells = Vec::new();
    for &(scope, op, grid_dim, tpb) in &SCOPES {
        for &mult in &JITTER_MULTS {
            cells.push((scope, op, grid_dim, tpb, mult));
        }
    }
    sweep::Sweep::new().try_run(cells, |(scope, op, grid_dim, tpb, mult)| {
        let placement = match op {
            SyncOp::MultiGrid => Placement::multi(topology.clone(), 2),
            _ => Placement::single(),
        };
        let plan = FaultPlan::seeded(seed).stragglers(STRAGGLER_PERMILLE, mult);
        let opts = RunOptions::new().faults(plan);
        let (m, _) = sync_chain_run(&arch, &placement, op, REPS, grid_dim, tpb, &opts)?;
        Ok(JitterPoint {
            scope,
            mult_permille: mult,
            us: cycles_to_us(&arch, m.cycles_per_op),
        })
    })
}

/// Measure the multi-grid barrier under degraded inter-device links, at
/// GPU counts inside (2) and across (6) the DGX-1 quad boundary.
pub fn link_sweep(seed: u64) -> SimResult<Vec<LinkPoint>> {
    let arch = small_arch();
    let topology = Arc::new(NodeTopology::dgx1_v100());
    let mut cells = Vec::new();
    for &gpus in &[2usize, 6] {
        for &lat in &LINK_LAT_MULTS {
            for &flaps in &[false, true] {
                cells.push((gpus, lat, flaps));
            }
        }
    }
    sweep::Sweep::new().try_run(cells, |(gpus, lat, flaps)| {
        let mut plan = FaultPlan::seeded(seed).degrade_links(lat, lat);
        if flaps {
            plan = plan.link_flaps(FLAP_PERIOD_NS, FLAP_DOWN_NS);
        }
        let opts = RunOptions::new().faults(plan);
        let placement = Placement::multi(topology.clone(), gpus);
        let (m, _) = sync_chain_run(
            &arch,
            &placement,
            SyncOp::MultiGrid,
            REPS,
            arch.num_sms,
            64,
            &opts,
        )?;
        Ok(LinkPoint {
            gpus,
            lat_mult_permille: lat,
            flaps,
            us: cycles_to_us(&arch, m.cycles_per_op),
        })
    })
}

pub fn render_jitter(points: &[JitterPoint]) -> TextTable {
    let mut t = TextTable::new(
        "sync_resilience: barrier cost (us) vs straggler jitter (25% of warps)",
        &["scope", "healthy", "1.5x", "2x", "4x", "amplification (4x)"],
    );
    for chunk in points.chunks(JITTER_MULTS.len()) {
        let base = chunk[0].us;
        let worst = chunk[chunk.len() - 1].us;
        let mut row = vec![chunk[0].scope.to_string()];
        row.extend(chunk.iter().map(|p| fmt(p.us)));
        row.push(if base > 0.0 {
            format!("{:.2}x", worst / base)
        } else {
            "-".into()
        });
        t.row(row);
    }
    t
}

pub fn render_links(points: &[LinkPoint]) -> TextTable {
    let mut t = TextTable::new(
        "sync_resilience: multi-grid barrier (us) vs link degradation (DGX-1)",
        &["GPUs", "link latency", "flaps", "us"],
    );
    for p in points {
        t.row(vec![
            p.gpus.to_string(),
            format!("{:.1}x", p.lat_mult_permille as f64 / 1000.0),
            if p.flaps { "500ns/2us" } else { "off" }.into(),
            fmt(p.us),
        ]);
    }
    t
}

/// The full experiment: both sweeps rendered, stamped with the seed so two
/// reports are comparable at a glance.
pub fn report(seed: u64) -> SimResult<String> {
    let jitter = jitter_sweep(seed)?;
    let links = link_sweep(seed)?;
    let mut s = format!("sync_resilience (fault seed {seed})\n\n");
    s.push_str(&render_jitter(&jitter).render());
    s.push_str(&render_links(&links).render());
    s.push_str(
        "(barriers wait for the last arrival: straggler amplification grows
         with scope; flag-exchange barriers inherit link latency directly)\n",
    );
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_amplifies_with_slowdown() {
        let pts = jitter_sweep(7).unwrap();
        assert_eq!(pts.len(), SCOPES.len() * JITTER_MULTS.len());
        for chunk in pts.chunks(JITTER_MULTS.len()) {
            let healthy = chunk[0].us;
            let worst = chunk.last().unwrap().us;
            assert!(
                worst >= healthy,
                "{}: 4x stragglers cheaper than healthy ({} vs {})",
                chunk[0].scope,
                worst,
                healthy
            );
        }
        // At least one scope must actually feel the 4x stragglers. The
        // amplification is modest by design: a sync-dense chain is
        // barrier-unit-bound, so stragglers only stretch the few
        // instructions between barriers (the experiment's own finding).
        assert!(
            pts.chunks(JITTER_MULTS.len())
                .any(|c| c.last().unwrap().us > c[0].us * 1.1),
            "{pts:?}"
        );
    }

    #[test]
    fn link_degradation_slows_the_multi_grid_barrier() {
        let pts = link_sweep(7).unwrap();
        // Fix gpus=6, flaps=off: cost must rise with link latency.
        let at = |lat: u32| {
            pts.iter()
                .find(|p| p.gpus == 6 && p.lat_mult_permille == lat && !p.flaps)
                .unwrap()
                .us
        };
        assert!(at(2000) > at(1000), "{} vs {}", at(2000), at(1000));
        assert!(at(4000) > at(2000), "{} vs {}", at(4000), at(2000));
    }

    #[test]
    fn report_is_byte_identical_across_worker_counts() {
        // The sweep engine's slot-ordered collection plus counter-based
        // fault draws make the rendered report independent of the worker
        // count; pin it by measuring the same cells at jobs 1 and 8.
        let serial: Vec<String> = sweep::Sweep::new()
            .jobs(1)
            .run(JITTER_MULTS.to_vec(), |mult| {
                serde_json::to_string(&jitter_cell(mult)).unwrap()
            });
        let parallel: Vec<String> = sweep::Sweep::new()
            .jobs(8)
            .run(JITTER_MULTS.to_vec(), |mult| {
                serde_json::to_string(&jitter_cell(mult)).unwrap()
            });
        assert_eq!(serial, parallel);
    }

    /// One faulted block-scope cell, returning the full ExecReport so the
    /// determinism check covers every counter, not just the headline.
    fn jitter_cell(mult: u32) -> gpu_sim::ExecReport {
        let arch = small_arch();
        let plan = FaultPlan::seeded(11).stragglers(STRAGGLER_PERMILLE, mult);
        let (m, _) = sync_chain_run(
            &arch,
            &Placement::single(),
            SyncOp::Block,
            REPS,
            1,
            256,
            &RunOptions::new().faults(plan),
        )
        .unwrap();
        m.report
    }
}
