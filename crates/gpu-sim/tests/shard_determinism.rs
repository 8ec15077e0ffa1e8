//! The by-rank sharded engine's determinism contract: every artifact of a
//! multi-device launch — `ExecReport`, hazard report, profile JSON, trace —
//! is byte-identical at any `--shards` worker count, clean runs match the
//! single-queue engine byte for byte, faults / the watchdog / the
//! instruction limit compose with sharding, and cross-device data access
//! (which has no latency floor to bound a lookahead window) is rejected with
//! a clear error. A single-device grid_sync launch serves as a control: it
//! runs on the single queue whatever worker count is asked for.

use gpu_arch::GpuArch;
use gpu_node::NodeTopology;
use gpu_sim::isa::{Instr, KernelBuilder, Operand::*};
use gpu_sim::kernels::{self, SyncOp};
use gpu_sim::{FaultPlan, GpuSystem, GridLaunch, LaunchKind, RunArtifacts, RunOptions};
use sim_core::{Ps, SimError, SimResult};
use std::sync::Arc;

fn small_v100(sms: u32) -> GpuArch {
    let mut a = GpuArch::v100();
    a.num_sms = sms;
    a
}

/// A multi-grid sync chain over `devices`, one private buffer per device.
fn mgrid_launch(
    sys: &mut GpuSystem,
    devices: Vec<usize>,
    reps: usize,
    grid_dim: u32,
    block_dim: u32,
) -> GridLaunch {
    let kernel = kernels::sync_chain(SyncOp::MultiGrid, reps);
    let words = grid_dim as u64 * block_dim as u64;
    let params = devices
        .iter()
        .map(|&d| vec![sys.alloc(d, words).0 as u64])
        .collect();
    GridLaunch {
        kernel,
        grid_dim,
        block_dim,
        kind: LaunchKind::CooperativeMultiDevice,
        devices,
        params,
        checked: false,
    }
}

fn node_sys(sms: u32) -> GpuSystem {
    GpuSystem::new(small_v100(sms), Arc::new(NodeTopology::dgx1_v100()))
}

/// Render every artifact to a comparable byte string.
fn fingerprint(arts: &RunArtifacts) -> String {
    format!(
        "report={:?}\nhazards={:?}\ntrace={:?}\nprofile={}",
        arts.report,
        arts.hazards,
        arts.trace,
        arts.profile
            .as_ref()
            .map(|p| p.to_json())
            .unwrap_or_default()
    )
}

fn run(shards: usize, opts: &RunOptions) -> SimResult<RunArtifacts> {
    let mut sys = node_sys(4);
    let launch = mgrid_launch(&mut sys, vec![0, 1, 2, 3], 3, 8, 64);
    sys.execute(&launch, &opts.clone().shards(shards))
}

#[test]
fn clean_sharded_run_matches_single_queue_report_exactly() {
    let opts = RunOptions::new();
    let legacy = run(0, &opts).unwrap();
    for shards in [1, 2, 4] {
        let sharded = run(shards, &opts).unwrap();
        assert_eq!(
            legacy.report, sharded.report,
            "sharded ExecReport must equal the single-queue engine's at {shards} shards"
        );
    }
}

#[test]
fn artifacts_are_byte_identical_at_any_worker_count() {
    let opts = RunOptions::new().check().trace(200_000).profile();
    let base = fingerprint(&run(1, &opts).unwrap());
    for shards in [2, 4, 7] {
        let other = fingerprint(&run(shards, &opts).unwrap());
        assert_eq!(base, other, "artifacts drifted at {shards} shard workers");
    }
}

#[test]
fn faults_and_watchdog_compose_with_sharding() {
    let plan = FaultPlan::seeded(7)
        .stragglers(120, 1800)
        .delay_barriers(80, 3)
        .link_flaps(2_000, 150);
    let opts = RunOptions::new()
        .profile()
        .watchdog(Ps::from_us(50))
        .faults(plan);
    let base = fingerprint(&run(1, &opts).unwrap());
    for shards in [2, 4] {
        let other = fingerprint(&run(shards, &opts).unwrap());
        assert_eq!(base, other, "faulted artifacts drifted at {shards} workers");
    }
}

#[test]
fn killed_block_deadlock_is_identical_at_any_worker_count() {
    let opts = RunOptions::new().faults(FaultPlan::seeded(1).kill_block(2, 3));
    let base = run(1, &opts).unwrap_err();
    assert!(matches!(base, SimError::Deadlock { .. }), "{base:?}");
    for shards in [2, 4] {
        assert_eq!(base, run(shards, &opts).unwrap_err());
    }
}

#[test]
fn instr_limit_error_is_identical_at_any_worker_count() {
    let mut errs = Vec::new();
    for shards in [0, 1, 2, 4] {
        let mut sys = node_sys(4).with_instr_limit(500);
        let launch = mgrid_launch(&mut sys, vec![0, 1, 2, 3], 3, 8, 64);
        errs.push(
            sys.execute(&launch, &RunOptions::new().shards(shards))
                .unwrap_err(),
        );
    }
    assert!(
        matches!(&errs[0], SimError::ProgramError(m) if m.contains("exceeded")),
        "{:?}",
        errs[0]
    );
    assert!(errs.windows(2).all(|w| w[0] == w[1]), "{errs:?}");
}

#[test]
fn cross_device_access_is_rejected_under_sharding() {
    let mut sys = node_sys(2);
    let remote = sys.alloc(0, 64);
    let mut b = KernelBuilder::new("remote-read");
    let r = b.reg();
    b.push(Instr::LdGlobal {
        dst: r,
        buf: Param(0),
        idx: Imm(0),
    });
    b.exit();
    let kernel = b.build(0);
    // Both ranks are handed the same device-0 buffer: rank 1's load is a
    // cross-device access.
    let launch = GridLaunch {
        kernel,
        grid_dim: 1,
        block_dim: 32,
        kind: LaunchKind::CooperativeMultiDevice,
        devices: vec![0, 1],
        params: vec![vec![remote.0 as u64], vec![remote.0 as u64]],
        checked: false,
    };
    // The single-queue engine supports it...
    let legacy = sys.execute(&launch, &RunOptions::new().shards(0)).unwrap();
    // ...explicitly sharded execution rejects it, and the buffers survive
    // the failed run (merge-back runs on the error path too).
    match sys.execute(&launch, &RunOptions::new().shards(2)) {
        Err(SimError::InvalidLaunch(msg)) => {
            assert!(msg.contains("sharded execution"), "{msg}");
            assert!(msg.contains("shards = 0"), "{msg}");
        }
        other => panic!("expected InvalidLaunch, got {other:?}"),
    }
    assert_eq!(sys.read_u64(remote).len(), 64);
    // ...and the process-global default (options that leave `shards` unset)
    // must never change which launches run: the param scan spots the remote
    // buffer and keeps this launch on the single queue.
    gpu_sim::set_default_shards(2);
    let auto = sys.execute(&launch, &RunOptions::new());
    gpu_sim::set_default_shards(0);
    assert_eq!(auto.unwrap().report, legacy.report);
}

/// Single-device launches always run on the single queue: asking for four
/// workers changes no byte of the report, trace or profile.
#[test]
fn single_device_policy_hints_all_agree() {
    let run = |shards: usize| {
        let mut sys = GpuSystem::single(small_v100(4));
        let kernel = kernels::sync_chain(SyncOp::Grid, 4);
        let buf = sys.alloc(0, 8 * 64);
        let launch = GridLaunch::single(kernel, 8, 64, vec![buf.0 as u64]).cooperative();
        let opts = RunOptions::new().trace(200_000).profile().shards(shards);
        fingerprint(&sys.execute(&launch, &opts).unwrap())
    };
    assert_eq!(run(0), run(4));
}
