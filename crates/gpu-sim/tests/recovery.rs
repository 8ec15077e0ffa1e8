//! The fault recovery layer end to end: zero-policy identity, clean-policy
//! transparency, checkpointed retry for transient kills, rank eviction for
//! persistent ones, rollback on exhausted retries, and which errors retry.

use gpu_arch::GpuArch;
use gpu_node::NodeTopology;
use gpu_sim::kernels::{self, SyncOp};
use gpu_sim::recover::{self, classify, ErrorClass};
use gpu_sim::{BufId, FaultPlan, GpuSystem, GridLaunch, KernelBuilder, RecoveryPolicy, RunOptions};
use sim_core::{Ps, SimError};

const GRID: u32 = 2;
const TPB: u32 = 64;
const REPS: usize = 4;

fn v100_small() -> GpuArch {
    let mut a = GpuArch::v100();
    a.num_sms = 4;
    a
}

fn sys() -> GpuSystem {
    GpuSystem::new(v100_small(), NodeTopology::dgx1_v100())
}

/// A multi-grid sync chain over the first `gpus` devices, one output
/// buffer per rank. Returns the launch plus the buffer ids so tests can
/// compare final launch-visible memory byte for byte.
fn chain_launch(sys: &mut GpuSystem, gpus: usize) -> (GridLaunch, Vec<BufId>) {
    let words = (GRID as u64) * (TPB as u64);
    let devices: Vec<usize> = (0..gpus).collect();
    let bufs: Vec<BufId> = devices.iter().map(|&d| sys.alloc(d, words)).collect();
    let params: Vec<Vec<u64>> = bufs.iter().map(|b| vec![b.0 as u64]).collect();
    let launch = GridLaunch::multi(
        kernels::sync_chain(SyncOp::MultiGrid, REPS),
        GRID,
        TPB,
        devices,
        params,
    );
    (launch, bufs)
}

fn words(sys: &GpuSystem, bufs: &[BufId]) -> Vec<Vec<u64>> {
    bufs.iter().map(|&b| sys.read_u64(b)).collect()
}

fn kill_rank_1(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed).kill_block(1, 0)
}

/// A plain `execute` takes no recovery path. With a policy but no fault,
/// `recover::execute` makes one clean attempt whose every artifact byte
/// matches the plain golden run.
#[test]
fn clean_policy_is_transparent_and_zero_policy_is_untouched() {
    let mut a = sys();
    let (la, ba) = chain_launch(&mut a, 4);
    let plain = a.execute(&la, &RunOptions::new()).unwrap();

    let mut b = sys();
    let (lb, bb) = chain_launch(&mut b, 4);
    let (armed, rec) = recover::execute(
        &mut b,
        &lb,
        &RunOptions::new(),
        &RecoveryPolicy::new().seeded(7),
    )
    .unwrap();
    assert_eq!(plain.report, armed.report);
    assert_eq!(words(&a, &ba), words(&b, &bb));
    assert!(!rec.recovered);
    assert_eq!(rec.attempts.len(), 1);
    assert!(rec.attempts[0].error.is_none());
    assert!(!rec.attempts[0].faults_armed);
    assert_eq!(rec.recovery_cost, Ps::ZERO);
    assert_eq!(rec.effective_ranks, 4);
    assert!(rec.evicted_ranks.is_empty());
}

/// A transient killed block deadlocks attempt 0; the layer restores the
/// checkpoint and relaunches clean. The final report and every buffer
/// word must match an unfaulted run exactly — the checkpoint exactness
/// claim, tested bytewise.
#[test]
fn transient_kill_retries_to_the_exact_clean_result() {
    let mut golden = sys();
    let (lg, bg) = chain_launch(&mut golden, 4);
    let clean = golden.execute(&lg, &RunOptions::new()).unwrap();

    let mut s = sys();
    let (l, bufs) = chain_launch(&mut s, 4);
    let opts = RunOptions::new().faults(kill_rank_1(7));
    let policy = RecoveryPolicy::new().seeded(7).transient(1);
    let (arts, rec) = recover::execute(&mut s, &l, &opts, &policy).unwrap();
    assert_eq!(clean.report, arts.report);
    assert_eq!(words(&golden, &bg), words(&s, &bufs));

    assert!(rec.recovered);
    assert_eq!(rec.attempts.len(), 2);
    assert!(
        rec.evicted_ranks.is_empty(),
        "transient kills retry, not evict"
    );
    assert_eq!(rec.effective_ranks, 4);
    assert!(rec.attempts[0].faults_armed);
    assert!(
        !rec.attempts[1].faults_armed,
        "plan disarmed after attempt 0"
    );
    assert!(rec.recovery_cost > Ps::ZERO, "deadlock time plus backoff");
    match rec.attempts[0].error.as_ref().unwrap() {
        SimError::Deadlock { faults, .. } => {
            let fp = faults.as_ref().expect("armed plan fingerprints the error");
            assert_eq!(fp.to_string(), "seed=7 killed-blocks:1");
        }
        other => panic!("expected deadlock on attempt 0, got {other:?}"),
    }
}

/// A persistent killed block cannot be retried away: the layer evicts the
/// dead rank and re-runs degraded on the survivors, at every GPU count.
#[test]
fn persistent_kill_evicts_the_dead_rank_at_2_4_6_gpus() {
    for gpus in [2usize, 4, 6] {
        let mut s = sys();
        let (l, _) = chain_launch(&mut s, gpus);
        let opts = RunOptions::new().faults(kill_rank_1(7));
        let policy = RecoveryPolicy::new().seeded(7);
        let (arts, rec) = recover::execute(&mut s, &l, &opts, &policy).unwrap();
        assert_eq!(rec.evicted_ranks, vec![1], "{gpus} GPUs");
        assert_eq!(rec.evicted_devices, vec![1], "{gpus} GPUs");
        assert_eq!(rec.effective_ranks, gpus - 1);
        assert_eq!(rec.attempts.len(), 2);
        // The successful attempt ran on every device but the evicted one.
        let survivors: Vec<usize> = (0..gpus).filter(|&d| d != 1).collect();
        assert_eq!(rec.attempts[1].devices, survivors);
        assert_eq!(arts.report.device_durations.len(), gpus - 1);
        assert!(
            rec.effective_topology.contains("[-1 evicted]"),
            "{}",
            rec.effective_topology
        );
    }
}

/// When every retry is exhausted the error surfaces, and memory is rolled
/// back to the pre-launch checkpoint: a failed recoverable launch has no
/// partial effects. A block killed on every rank leaves no rank to evict,
/// so only retries remain, and they allow three attempts: kills armed on
/// the first two recover on the third, kills armed on three never do.
#[test]
fn exhausted_retries_surface_the_error_and_roll_back_memory() {
    let kill_all = (0..4).fold(FaultPlan::seeded(7), |p, rank| p.kill_block(rank, 0));
    let policy = RecoveryPolicy::new().seeded(7);
    for exhausting in [policy, policy.transient(3)] {
        let mut s = sys();
        let (l, bufs) = chain_launch(&mut s, 4);
        let before = words(&s, &bufs);
        let opts = RunOptions::new().faults(kill_all.clone());
        match recover::execute(&mut s, &l, &opts, &exhausting) {
            Err(SimError::Deadlock { faults, .. }) => {
                assert!(faults.is_some(), "the surfaced error keeps its fingerprint");
            }
            other => panic!("expected deadlock after exhausted retries, got {other:?}"),
        }
        assert_eq!(before, words(&s, &bufs), "rollback to the checkpoint");
    }
    let mut s = sys();
    let (l, _) = chain_launch(&mut s, 4);
    let opts = RunOptions::new().faults(kill_all);
    let (_, rec) = recover::execute(&mut s, &l, &opts, &policy.transient(2)).unwrap();
    assert_eq!(rec.attempts.len(), 3);
    assert!(rec.attempts[..2].iter().all(|a| a.error.is_some()));
    assert!(
        rec.evicted_ranks.is_empty(),
        "no rank would survive eviction"
    );
}

/// The error a real non-terminating kernel returns is retryable: it is
/// classified by its type, whatever its message says.
#[test]
fn instruction_limit_of_a_real_loop_is_retryable() {
    let mut s = GpuSystem::single(v100_small()).with_instr_limit(10_000);
    let mut b = KernelBuilder::new("forever");
    b.label("x");
    b.bra("x");
    let err = s
        .execute(
            &GridLaunch::single(b.build(0), 1, 32, vec![]),
            &RunOptions::new(),
        )
        .unwrap_err();
    assert!(matches!(err, SimError::InstrLimit { .. }), "{err:?}");
    assert_eq!(classify(&err), ErrorClass::Retryable);
}

/// Fatal errors (launch validation) are never retried.
#[test]
fn fatal_errors_fail_fast_without_attempts() {
    let mut s = sys();
    let (mut l, _) = chain_launch(&mut s, 2);
    l.grid_dim = 0;
    match recover::execute(&mut s, &l, &RunOptions::new(), &RecoveryPolicy::new()) {
        Err(SimError::InvalidLaunch(_)) => {}
        other => panic!("expected invalid launch, got {other:?}"),
    }
}
