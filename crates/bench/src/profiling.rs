//! syncprof profiles behind `repro --profile <name>`.
//!
//! A *profile* re-runs one of the paper's experiments with the syncprof
//! instrument armed (see `gpu_sim::profile`) and packages three artifacts:
//!
//! * a human summary (the experiment's own table plus the syncprof
//!   per-scope stall attribution) printed to stdout,
//! * the machine-readable [`ProfileReport`] JSON (`<name>.profile.json`
//!   next to `--out`),
//! * a Chrome-trace / Perfetto JSON timeline of one *representative*
//!   launch from the experiment (`<name>.trace.json`), small enough to
//!   load interactively while the report aggregates the full sweep.
//!
//! Every artifact is byte-deterministic at any `--jobs` value: the sweep
//! cells' profiles are merged in plan order by the `*_profiled` experiment
//! entry points, and the representative trace is a single serial execution.

use gpu_arch::GpuArch;
use gpu_node::NodeTopology;
use gpu_sim::kernels::SyncOp;
use gpu_sim::{export_chrome_trace, ProfileReport, RunOptions};
use sim_core::SimResult;
use sync_micro::measure::{self, Placement};
use sync_micro::sync_micro as fine_sync;
use sync_micro::{grid_sync, launch_overhead, multi_gpu};

/// Artifacts of one `--profile` run.
pub struct ProfileRun {
    /// Human summary: experiment table + syncprof attribution rendering.
    pub summary: String,
    /// The merged syncprof report over every cell of the experiment.
    pub report: ProfileReport,
    /// Chrome-trace JSON of a representative launch (with barrier epochs).
    pub trace_json: String,
}

pub type ProfileEntry = (&'static str, &'static str, fn() -> SimResult<ProfileRun>);

/// The profile registry: (name, description, runner).
pub const PROFILES: &[ProfileEntry] = &[
    (
        "grid_sync",
        "Fig. 5 grid-sync heat map (8-SM V100) with per-scope stall attribution",
        grid_sync_profile,
    ),
    (
        "figure9",
        "Fig. 9 multi-GPU sync methods on the DGX-1 topology",
        figure9_profile,
    ),
    (
        "table1",
        "Table 1 launch-path overheads with syncprof armed",
        table1_profile,
    ),
    (
        "fused_pipeline",
        "fused GEMM->LayerNorm pipeline under wait/signal flags, flag-wait attributed",
        fused_pipeline_profile,
    ),
];

/// Look up a profile runner by name.
pub fn find(name: &str) -> Option<&'static ProfileEntry> {
    PROFILES.iter().find(|(n, _, _)| *n == name)
}

/// The reduced V100 the profiles sweep on: the full 80-SM part makes the
/// heat-map sweeps minutes-long, and stall *attribution* (unlike absolute
/// latency) is insensitive to SM count beyond "more than one".
fn profile_arch() -> GpuArch {
    let mut arch = GpuArch::v100();
    arch.num_sms = 8;
    arch
}

/// Trace one representative `sync_chain` launch with trace + profile armed
/// and export it as Chrome-trace JSON. Serial, so byte-deterministic.
fn representative_trace(
    arch: &GpuArch,
    placement: &Placement,
    op: SyncOp,
    blocks_per_device: u32,
    threads: u32,
) -> SimResult<String> {
    let opts = RunOptions::new().trace(100_000).profile();
    let (_, arts) =
        measure::sync_chain_run(arch, placement, op, 4, blocks_per_device, threads, &opts)?;
    Ok(export_chrome_trace(
        &arts.trace.expect("tracing was armed"),
        arts.profile.as_ref(),
    ))
}

fn package(table: String, report: ProfileReport, trace_json: String) -> ProfileRun {
    let summary = format!("{table}\n{}", report.render());
    ProfileRun {
        summary,
        report,
        trace_json,
    }
}

/// Fig. 5's grid-sync heat map on the reduced arch, syncprof armed on every
/// cell; the trace follows one 2-blocks/SM cooperative launch.
fn grid_sync_profile() -> SimResult<ProfileRun> {
    let arch = profile_arch();
    let (map, report) = grid_sync::figure5_profiled(&arch)?;
    let trace = representative_trace(
        &arch,
        &Placement::single(),
        SyncOp::Grid,
        2 * arch.num_sms,
        128,
    )?;
    Ok(package(map.render().render(), report, trace))
}

/// Fig. 9's multi-GPU sync curves on a DGX-1; the trace follows one
/// 4-device multi-grid launch.
fn figure9_profile() -> SimResult<ProfileRun> {
    let arch = profile_arch();
    let topology = NodeTopology::dgx1_v100();
    let (points, report) = multi_gpu::figure9_profiled(&arch, &topology, &[2, 4])?;
    let trace = representative_trace(
        &arch,
        &Placement::multi(topology, 4),
        SyncOp::MultiGrid,
        arch.num_sms,
        128,
    )?;
    Ok(package(
        multi_gpu::render_figure9(&points).render(),
        report,
        trace,
    ))
}

/// Table 1's launch-path overheads with syncprof armed on every launch;
/// the trace follows one block-sync chain (the fused kernel's shape).
fn table1_profile() -> SimResult<ProfileRun> {
    let arch = profile_arch();
    let (rows, report) = launch_overhead::table1_profiled(&arch)?;
    let trace = representative_trace(
        &arch,
        &Placement::single(),
        SyncOp::Block,
        arch.num_sms,
        128,
    )?;
    Ok(package(
        launch_overhead::render_table1(&rows).render(),
        report,
        trace,
    ))
}

/// The fused producer/consumer pipeline under tile-granularity wait/signal
/// flags; the consumers' spins land in syncprof's `flag-wait` column and the
/// trace follows the flags-strategy launch itself.
fn fused_pipeline_profile() -> SimResult<ProfileRun> {
    let arch = profile_arch();
    let rows = fine_sync::pipeline_comparison(&arch)?;
    let (report, trace) = fine_sync::flags_pipeline_instrumented(&arch)?;
    let trace_json = export_chrome_trace(&trace, Some(&report));
    Ok(package(
        fine_sync::render_pipeline(&arch, &rows).render(),
        report,
        trace_json,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::SyncScope;

    #[test]
    fn grid_sync_profile_attributes_grid_waits() {
        let run = grid_sync_profile().unwrap();
        assert!(
            run.report.barrier_wait_ps(SyncScope::Grid) > 0,
            "grid-sync sweep recorded no grid barrier wait"
        );
        assert!(run.summary.contains("syncprof:"));
        assert!(run.trace_json.contains("sync.grid"));
        // The JSON artifact round-trips through the vendored parser.
        let v: serde_json::Value = serde_json::from_str(&run.report.to_json()).unwrap();
        assert!(matches!(v, serde_json::Value::Object(_)));
    }

    #[test]
    fn fused_pipeline_profile_attributes_flag_waits() {
        let run = fused_pipeline_profile().unwrap();
        let k = run
            .report
            .kernels
            .iter()
            .find(|k| k.kernel == "pipe-fused-flags")
            .expect("flags kernel profiled");
        assert!(
            k.totals.flag_wait_ps > 0,
            "consumer spins must land in flag-wait: {:?}",
            k.totals
        );
        assert!(run.summary.contains("syncprof:"));
        assert!(run.trace_json.contains("sync.flag"));
    }

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        for (name, desc, _) in PROFILES {
            assert!(!desc.is_empty());
            assert!(find(name).is_some());
            assert_eq!(
                PROFILES.iter().filter(|(n, _, _)| n == name).count(),
                1,
                "duplicate profile name {name:?}"
            );
        }
        assert!(find("nope").is_none());
    }
}
