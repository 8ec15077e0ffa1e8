//! Intra-launch sharding: discrete-event shards run by a pool of worker
//! threads under conservative time-window synchronization, along one of two
//! decomposition axes — one shard per device *rank* of a multi-device launch,
//! or one shard per *SM cluster* of a single-device launch.
//!
//! # Protocol
//!
//! Each shard owns a disjoint set of warps and blocks and a private
//! [`sim_core::EventQueue`]. Execution proceeds in rounds: a coordinator
//! (worker 0) computes the global minimum next-event time `m` and hands every
//! shard the horizon `m + lookahead`. Shards then drain their local queues
//! strictly below the horizon in parallel and meet back at a barrier.
//!
//! For **by-rank** shards the lookahead is the minimum inter-device flag
//! latency of the (possibly fault-degraded) topology, and the only
//! cross-shard interaction is the multi-grid barrier: a rank reports its
//! arrival at a round boundary, and the release times the coordinator
//! computes from the full arrival vector are at least `2 × lookahead` past
//! the latest arrival (one flag hop to the master device and one back). The
//! latest arrival is itself no earlier than the round's base time `m`, so
//! every release lands at or beyond the *next* round's horizon. Cross-device
//! *memory* traffic has no such latency floor, so the engine rejects it under
//! by-rank sharding (see `checked_buffer` in `engine.rs`).
//!
//! For **SM-cluster** shards (single-device launches) the lookahead is the
//! minimum intra-device cross-SM round trip — block-barrier convergence plus
//! the grid-barrier arrival atomic's L2 round trip plus the release flag's L2
//! read (`GpuArch::intra_device_sync_floor_cycles`). Global memory is handled
//! by a window protocol instead of a refusal: each cluster carries either a
//! full copy of the launch's buffers (load-only kernels — nothing ever
//! stores, so copies cannot diverge) or len-only *windows* (store-only
//! kernels — stores are bounds-checked against the window, logged, and
//! replayed onto the real buffers in time order at merge time, on success
//! *and* on the error path). Grid/multi-grid barrier arrival atomics drain
//! through per-cluster outboxes the coordinator resolves quiescently at round
//! boundaries, replaying them on a device-level L2 replica in the
//! single-queue engine's own arrival order. Kernels whose memory behavior the
//! window protocol cannot reproduce exactly (global atomics, flag-cell sync,
//! streamed memory, load+store mixes) fall back to the single queue — see
//! [`single_device_fallback_reason`] and the debug hook
//! [`set_shard_fallback_hook`].
//!
//! # Determinism
//!
//! Logical shards are fixed (per rank, or per SM) and worker threads own
//! shards by static round-robin, so the per-shard event streams — and every
//! merged artifact — are a pure function of the launch, byte-identical at any
//! `--shards` value and identical to `--shards 1`. Merged artifacts order
//! per-shard parts shard-major (matching the single-queue engine's
//! block-major conventions) and time-sort trace events and barrier epochs.

use crate::engine::{Engine, HazardReport, ShardParts, TraceEvent};
use crate::isa::Instr;
use crate::mem::{BufData, Buffer};
use crate::profile::{ProfileReport, EPOCH_CAP};
use crate::system::{ExecReport, GpuSystem, GridLaunch, LaunchKind, RunOptions};
use sim_core::{Pipeline, Ps, SimError, SimResult, StuckWarp};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};

/// Process-wide default worker count for [`crate::system::ShardPolicy::Auto`],
/// set by the CLI's `--shards` flag. `0` (the initial value) selects the
/// classic single-queue engine.
static DEFAULT_SHARDS: AtomicUsize = AtomicUsize::new(0);

/// Set the process-wide default shard worker count used when a launch's
/// [`crate::RunOptions`] leaves sharding on `Auto`. `0` restores the
/// single-queue default.
pub fn set_default_shards(n: usize) {
    DEFAULT_SHARDS.store(n, Ordering::Relaxed);
}

/// The process-wide default shard worker count (see [`set_default_shards`]).
pub fn default_shards() -> usize {
    DEFAULT_SHARDS.load(Ordering::Relaxed)
}

/// A sharding-fallback observer (see [`set_shard_fallback_hook`]).
pub type ShardFallbackHook = Box<dyn Fn(&str) + Send + Sync>;

/// Observer for sharding fallback decisions (see [`set_shard_fallback_hook`]).
static FALLBACK_HOOK: Mutex<Option<ShardFallbackHook>> = Mutex::new(None);
/// Reasons already reported to the hook — each distinct reason fires once.
static FALLBACK_SEEN: Mutex<BTreeSet<String>> = Mutex::new(BTreeSet::new());

/// Install (or, with `None`, remove) a process-wide debug hook that observes
/// why a launch that *could* have sharded fell back to the single-queue
/// engine. Each distinct reason is reported once per installation — the hook
/// is a diagnostic, not a log firehose — and installing a hook resets the
/// dedup set. With no hook installed, fallbacks are silent (the selection is
/// an execution strategy, not an error).
pub fn set_shard_fallback_hook(hook: Option<ShardFallbackHook>) {
    FALLBACK_SEEN.lock().unwrap().clear();
    *FALLBACK_HOOK.lock().unwrap() = hook;
}

/// Report one fallback decision to the installed hook, deduplicated by
/// reason text.
pub(crate) fn note_shard_fallback(reason: &str) {
    let hook = FALLBACK_HOOK.lock().unwrap();
    let Some(h) = hook.as_ref() else { return };
    if FALLBACK_SEEN.lock().unwrap().insert(reason.to_string()) {
        h(reason);
    }
}

/// Clear the fallback hook's dedup-once state without touching the hook
/// itself: every reason fires again on its next occurrence. The dedup set
/// is process-global, so without this reset two tests observing fallbacks
/// in one process poison each other — the first one to see a reason eats
/// it for everyone after. Prefer [`shard_fallback_scope`], which resets on
/// both entry and exit.
pub fn reset_shard_fallback_seen() {
    FALLBACK_SEEN.lock().unwrap().clear();
}

/// RAII scope around a fallback hook installation (see
/// [`shard_fallback_scope`]): dropping it uninstalls the hook and clears
/// the dedup set, so observations cannot leak into later code.
#[must_use = "dropping the guard immediately uninstalls the hook"]
pub struct ShardFallbackScope(());

impl Drop for ShardFallbackScope {
    fn drop(&mut self) {
        set_shard_fallback_hook(None);
    }
}

/// Install `hook` for the lifetime of the returned guard. Installation
/// clears the process-global dedup set (as [`set_shard_fallback_hook`]
/// does) and the guard's drop uninstalls the hook and clears it again —
/// the scoped form tests should use so concurrent/later observers start
/// from clean state. Scopes must not be nested or interleaved across
/// threads: there is one process-wide hook slot.
pub fn shard_fallback_scope(hook: ShardFallbackHook) -> ShardFallbackScope {
    set_shard_fallback_hook(Some(hook));
    ShardFallbackScope(())
}

/// Why a single-device launch cannot use SM-cluster sharding, or `None` when
/// it can. The window protocol is exact only when no simulated global-memory
/// effect can cross clusters below the lookahead horizon; every check here
/// guards one way that could happen (see the module docs and METHODOLOGY
/// §16).
pub(crate) fn single_device_fallback_reason(
    sys: &GpuSystem,
    launch: &GridLaunch,
    check: bool,
) -> Option<String> {
    debug_assert_eq!(launch.devices.len(), 1);
    if check {
        return Some(
            "checked run: the launch-wide racecheck orders all agents on one queue".into(),
        );
    }
    if sys.arch.sm_cluster_count() < 2 {
        return Some("1-SM device: nothing to partition".into());
    }
    if sys.params_cross_devices(launch) {
        return Some("kernel params reach another device's memory".into());
    }
    let mut loads = false;
    let mut stores = false;
    for i in &launch.kernel.program.instrs {
        match i {
            Instr::AtomicFAdd { .. }
            | Instr::AtomicCas { .. }
            | Instr::AtomicExch { .. }
            | Instr::AtomicIAdd { .. }
            | Instr::WaitGe { .. }
            | Instr::Signal { .. } => {
                return Some(
                    "kernel uses global atomics or flag-cell sync \
                     (serialized on the device-wide L2 atomic unit)"
                        .into(),
                )
            }
            Instr::MemStream { .. } | Instr::MemCombine { .. } => {
                return Some("kernel streams global memory through the shared DRAM channel".into())
            }
            Instr::LdGlobal { .. } => loads = true,
            Instr::StGlobal { .. } => stores = true,
            _ => {}
        }
    }
    if loads && stores {
        return Some("kernel both loads and stores global memory".into());
    }
    if stores
        && sys
            .bufs
            .iter()
            .any(|b| matches!(b.data, BufData::Linear { .. }))
    {
        return Some("stores could densify a synthetic buffer".into());
    }
    if launch.kind == LaunchKind::Traditional {
        let occ = sys
            .arch
            .occupancy(launch.block_dim, launch.kernel.shared_words * 8);
        if launch.grid_dim > occ.blocks_per_sm.max(1) * sys.arch.num_sms {
            return Some(
                "oversubscribed traditional launch: queued blocks migrate across SMs".into(),
            );
        }
    }
    None
}

/// What the coordinator decided at a round boundary.
#[derive(Clone, Copy)]
enum Control {
    /// Run one more round up to this horizon (exclusive).
    Run(Ps),
    /// Every queue drained with nothing blocked: the launch completed.
    Done,
    /// The run failed; the first error (by shard index) is in `final_err`.
    Fail,
}

/// Run `launch` sharded by rank on up to `workers` threads. Caller guarantees
/// `workers > 0` and a multi-device launch. Buffers are partitioned to their
/// owning shard for the run and merged back afterwards on every path, so
/// `sys` is whole again even when the run errors.
pub(crate) fn execute_sharded(
    sys: &mut GpuSystem,
    launch: &GridLaunch,
    opts: &RunOptions,
    check: bool,
    workers: usize,
) -> SimResult<(
    ExecReport,
    Vec<TraceEvent>,
    HazardReport,
    Option<ProfileReport>,
)> {
    debug_assert!(workers > 0 && launch.devices.len() > 1);
    let ps_per_cycle = sys.arch.clock().ps_per_cycle();
    let (owners, mut orphans, mut shard_systems) = partition_buffers(sys, launch);
    let result = run_shards(&mut shard_systems, launch, opts, check, workers);
    merge_buffers_back(sys, &owners, &mut orphans, &mut shard_systems);
    let parts = result?;
    Ok(merge_artifacts(ps_per_cycle, launch, opts, parts))
}

fn placeholder(device: usize) -> Buffer {
    Buffer {
        device,
        data: BufData::Dense(Vec::new()),
    }
}

/// Move every buffer into the system of the shard whose device owns it;
/// every other shard gets an empty placeholder at the same index so `BufId`s
/// stay valid everywhere (touching a placeholder is impossible: the engine's
/// `checked_buffer` rejects cross-device access before any load/store).
/// Buffers on devices outside the launch ride along in `orphans`. Returns
/// `(owner shard per buffer, orphans, shard systems)`.
#[allow(clippy::type_complexity)]
fn partition_buffers(
    sys: &mut GpuSystem,
    launch: &GridLaunch,
) -> (Vec<Option<usize>>, Vec<Option<Buffer>>, Vec<GpuSystem>) {
    let bufs = std::mem::take(&mut sys.bufs);
    let nranks = launch.devices.len();
    let mut owners: Vec<Option<usize>> = Vec::with_capacity(bufs.len());
    let mut orphans: Vec<Option<Buffer>> = Vec::with_capacity(bufs.len());
    let mut shard_systems: Vec<GpuSystem> = (0..nranks)
        .map(|_| GpuSystem {
            arch: sys.arch.clone(),
            topology: sys.topology.clone(),
            bufs: Vec::with_capacity(bufs.len()),
            instr_limit: sys.instr_limit,
        })
        .collect();
    for b in bufs {
        let device = b.device;
        let owner = launch.devices.iter().position(|&d| d == device);
        owners.push(owner);
        for (r, s) in shard_systems.iter_mut().enumerate() {
            if owner != Some(r) {
                s.bufs.push(placeholder(device));
            }
        }
        match owner {
            Some(r) => {
                shard_systems[r].bufs.push(b);
                orphans.push(None);
            }
            None => orphans.push(Some(b)),
        }
    }
    (owners, orphans, shard_systems)
}

/// Reassemble `sys.bufs` from the shard systems and orphans, preserving ids.
fn merge_buffers_back(
    sys: &mut GpuSystem,
    owners: &[Option<usize>],
    orphans: &mut [Option<Buffer>],
    shard_systems: &mut [GpuSystem],
) {
    sys.bufs = owners
        .iter()
        .enumerate()
        .map(|(i, owner)| match owner {
            Some(r) => {
                let slot = &mut shard_systems[*r].bufs[i];
                let device = slot.device;
                std::mem::replace(slot, placeholder(device))
            }
            None => orphans[i].take().expect("unowned buffer kept aside"),
        })
        .collect();
}

/// Drive the round loop on `workers` threads and return per-rank parts.
fn run_shards(
    shard_systems: &mut [GpuSystem],
    launch: &GridLaunch,
    opts: &RunOptions,
    check: bool,
    workers: usize,
) -> SimResult<Vec<ShardParts>> {
    let nranks = shard_systems.len();
    let instr_limit = shard_systems[0].instr_limit;
    let engines: Vec<Mutex<Engine>> = shard_systems
        .iter_mut()
        .enumerate()
        .map(|(r, s)| {
            let mut e = Engine::new(s, launch)
                .with_check(check)
                .with_profile(opts.wants_profile())
                .with_faults(opts.fault_plan())
                .with_watchdog(opts.watchdog_budget())
                .sharded(r);
            if let Some(cap) = opts.trace_cap() {
                e = e.with_trace(cap);
            }
            Mutex::new(e)
        })
        .collect();

    let w = workers.min(nranks).max(1);
    let barrier = Barrier::new(w);
    let control = Mutex::new(Control::Done);
    let errors: Mutex<Vec<(usize, SimError)>> = Mutex::new(Vec::new());
    let final_err: Mutex<Option<SimError>> = Mutex::new(None);
    let watchdog_budget = opts.watchdog_budget();

    std::thread::scope(|scope| {
        for i in 0..w {
            let engines = &engines;
            let barrier = &barrier;
            let control = &control;
            let errors = &errors;
            let final_err = &final_err;
            scope.spawn(move || {
                // Static ownership: shard r belongs to worker r % w, so the
                // schedule — and with it every artifact — is independent of
                // thread timing.
                let my: Vec<usize> = (i..nranks).step_by(w).collect();
                for &r in &my {
                    engines[r].lock().unwrap().setup_shard();
                }
                let mut dead = vec![false; my.len()];
                // Coordinator state (worker 0 only): pending multi-grid
                // arrivals, one slot per rank.
                let mut arrivals: Vec<Option<Ps>> = vec![None; nranks];
                loop {
                    barrier.wait();
                    if i == 0 {
                        *control.lock().unwrap() = coordinate(
                            engines,
                            errors,
                            final_err,
                            &mut arrivals,
                            watchdog_budget,
                            instr_limit,
                        );
                    }
                    barrier.wait();
                    let c = *control.lock().unwrap();
                    match c {
                        Control::Run(horizon) => {
                            for (k, &r) in my.iter().enumerate() {
                                if dead[k] {
                                    continue;
                                }
                                if let Err(e) = engines[r].lock().unwrap().run_window(horizon) {
                                    dead[k] = true;
                                    errors.lock().unwrap().push((r, e));
                                }
                            }
                        }
                        Control::Done | Control::Fail => break,
                    }
                }
            });
        }
    });

    if let Some(e) = final_err.into_inner().unwrap() {
        return Err(e);
    }
    Ok(engines
        .into_iter()
        .map(|m| m.into_inner().unwrap().finish_shard())
        .collect())
}

/// One round boundary: resolve cross-shard effects and pick the next action.
/// Runs with every other worker parked at the barrier, so the engine locks
/// are uncontended.
fn coordinate(
    engines: &[Mutex<Engine>],
    errors: &Mutex<Vec<(usize, SimError)>>,
    final_err: &Mutex<Option<SimError>>,
    arrivals: &mut [Option<Ps>],
    watchdog_budget: Option<Ps>,
    instr_limit: u64,
) -> Control {
    // 1. A shard error ends the run; report the lowest-rank one so the
    //    surfaced error is independent of worker count.
    {
        let mut errs = errors.lock().unwrap();
        if !errs.is_empty() {
            errs.sort_by_key(|&(r, _)| r);
            let (_, e) = errs.remove(0);
            *final_err.lock().unwrap() = Some(e);
            return Control::Fail;
        }
    }
    let mut engs: Vec<_> = engines.iter().map(|m| m.lock().unwrap()).collect();

    // 2. Multi-grid rendezvous: collect fresh arrivals; once every rank has
    //    arrived, resolve release times with the same master-exchange model
    //    the single-queue engine uses and inject them *before* computing the
    //    next horizon, so the release events bound `m` themselves.
    for (slot, e) in arrivals.iter_mut().zip(engs.iter_mut()) {
        if let Some(at) = e.take_mgrid_arrival() {
            debug_assert!(slot.is_none(), "mgrid phases cannot overlap");
            *slot = Some(at);
        }
    }
    if arrivals.iter().all(|a| a.is_some()) {
        let times: Vec<Ps> = arrivals.iter().map(|a| a.unwrap()).collect();
        let releases = engs[0].mgrid_release_times(&times);
        for (e, &rel) in engs.iter_mut().zip(&releases) {
            e.inject_mgrid_release(rel);
        }
        arrivals.iter_mut().for_each(|a| *a = None);
    }

    // 3. Global instruction budget (each shard also trips a local backstop
    //    mid-round; the error text is identical either way).
    if engs.iter().map(|e| e.instrs()).sum::<u64>() > instr_limit {
        *final_err.lock().unwrap() = Some(engs[0].instr_limit_error());
        return Control::Fail;
    }

    // 4. Global minimum next-event time.
    let Some(m) = engs.iter().filter_map(|e| e.next_event_time()).min() else {
        // Every queue drained: completion, or a launch-wide deadlock.
        let mut blocked: Vec<(u32, u32, u32, String)> =
            engs.iter().flat_map(|e| e.blocked_descriptors()).collect();
        if blocked.is_empty() {
            return Control::Done;
        }
        blocked.sort_unstable();
        let at = engs.iter().map(|e| e.now_ps()).max().unwrap_or(Ps::ZERO);
        *final_err.lock().unwrap() = Some(SimError::Deadlock {
            at,
            blocked: blocked.into_iter().map(|(_, _, _, s)| s).collect(),
            faults: engs[0].fault_fingerprint(),
        });
        return Control::Fail;
    };

    // 5. Boundary watchdog: same predicate the single-queue engine applies
    //    per event (`now - last_progress > budget` at the next event time),
    //    evaluated against *global* progress.
    if let Some(budget) = watchdog_budget {
        let last = engs
            .iter()
            .map(|e| e.last_progress_ps())
            .max()
            .unwrap_or(Ps::ZERO);
        if m.saturating_sub(last) > budget {
            let mut stuck: Vec<StuckWarp> = engs.iter().flat_map(|e| e.stuck_warps()).collect();
            stuck.sort_unstable();
            *final_err.lock().unwrap() = Some(SimError::Watchdog {
                at: m,
                last_progress: last,
                stuck,
                faults: engs[0].fault_fingerprint(),
            });
            return Control::Fail;
        }
    }

    // 6. Safe horizon: nothing cross-shard can land below m + lookahead.
    Control::Run(m + engs[0].shard_lookahead())
}

/// Merge per-rank parts into launch-wide artifacts, rank-major like the
/// single-queue engine's block-major iteration, with time-sorted traces and
/// epochs.
fn merge_artifacts(
    ps_per_cycle: f64,
    launch: &GridLaunch,
    opts: &RunOptions,
    parts: Vec<ShardParts>,
) -> (
    ExecReport,
    Vec<TraceEvent>,
    HazardReport,
    Option<ProfileReport>,
) {
    let nranks = parts.len();
    let device_durations: Vec<Ps> = parts.iter().map(|p| p.end_time).collect();
    let report = ExecReport {
        duration: device_durations.iter().copied().max().unwrap_or(Ps::ZERO),
        device_durations,
        blocks_run: launch.grid_dim as u64 * nranks as u64,
        warps_run: parts.iter().map(|p| p.warps_run).sum(),
        instrs_executed: parts.iter().map(|p| p.instrs_executed).sum(),
    };
    let mut trace = Vec::new();
    let mut hazards = HazardReport::default();
    let mut sm_rows = Vec::new();
    let mut epochs = Vec::new();
    let mut epochs_dropped = 0u64;
    for p in parts {
        trace.extend(p.trace);
        hazards.records.extend(p.hazards.records);
        hazards.dropped += p.hazards.dropped;
        hazards.global.extend(p.hazards.global);
        hazards.global_dropped += p.hazards.global_dropped;
        sm_rows.extend(p.sm_rows);
        epochs.extend(p.epochs);
        epochs_dropped += p.epochs_dropped;
    }
    // Stable sort of the rank-major concatenation = ordered by (time, rank)
    // with per-shard execution order preserved at full ties.
    trace.sort_by_key(|e| e.at);
    if let Some(cap) = opts.trace_cap() {
        trace.truncate(cap);
    }
    epochs.sort_by_key(|e| (e.at_ps, e.rank));
    if epochs.len() > EPOCH_CAP {
        epochs_dropped += (epochs.len() - EPOCH_CAP) as u64;
        epochs.truncate(EPOCH_CAP);
    }
    let profile = opts.wants_profile().then(|| {
        ProfileReport::from_parts(
            ps_per_cycle,
            launch.kernel.name.clone(),
            sm_rows,
            epochs,
            epochs_dropped,
        )
    });
    (report, trace, hazards, profile)
}

// ===== SM-cluster sharding (single-device launches) ==========================

/// Run a single-device `launch` sharded by SM cluster on up to `workers`
/// threads. Caller guarantees `workers > 0`, one device, and
/// [`single_device_fallback_reason`] returned `None`. The caller's buffers
/// are never partitioned — clusters run on copies or len-only windows — and
/// logged stores are merged back in time order on every path, so `sys`
/// reflects everything that executed even when the run errors.
pub(crate) fn execute_cluster_sharded(
    sys: &mut GpuSystem,
    launch: &GridLaunch,
    opts: &RunOptions,
    check: bool,
    workers: usize,
) -> SimResult<(
    ExecReport,
    Vec<TraceEvent>,
    HazardReport,
    Option<ProfileReport>,
)> {
    debug_assert!(workers > 0 && launch.devices.len() == 1 && !check);
    let ps_per_cycle = sys.arch.clock().ps_per_cycle();
    let nclusters = sys.arch.sm_cluster_count() as usize;
    // Load-only kernels read buffers nothing ever writes, so a full copy per
    // cluster is exact; otherwise (store-only or no global memory) a len-only
    // window is enough — stores are bounds-checked against it and logged for
    // the coordinator's ordered merge-back.
    let loads = launch
        .kernel
        .program
        .instrs
        .iter()
        .any(|i| matches!(i, Instr::LdGlobal { .. }));
    let mut cluster_systems: Vec<GpuSystem> = (0..nclusters)
        .map(|_| GpuSystem {
            arch: sys.arch.clone(),
            topology: sys.topology.clone(),
            bufs: if loads {
                sys.bufs.clone()
            } else {
                sys.bufs.iter().map(Buffer::len_only_window).collect()
            },
            instr_limit: sys.instr_limit,
        })
        .collect();
    let (err, mut parts) = run_cluster_shards(&mut cluster_systems, launch, opts, workers);
    merge_cluster_stores(sys, &mut parts);
    if let Some(e) = err {
        return Err(e);
    }
    Ok(merge_cluster_artifacts(ps_per_cycle, launch, opts, parts))
}

/// Drive the round loop on `workers` threads and return per-cluster parts.
/// Unlike the by-rank path this *always* finishes every shard — the store
/// logs must survive the error path for [`merge_cluster_stores`].
fn run_cluster_shards(
    cluster_systems: &mut [GpuSystem],
    launch: &GridLaunch,
    opts: &RunOptions,
    workers: usize,
) -> (Option<SimError>, Vec<ShardParts>) {
    let nclusters = cluster_systems.len();
    let num_sms = cluster_systems[0].arch.num_sms;
    let instr_limit = cluster_systems[0].instr_limit;
    let engines: Vec<Mutex<Engine>> = cluster_systems
        .iter_mut()
        .enumerate()
        .map(|(c, s)| {
            // No `with_check`: checked launches are cluster-ineligible.
            let mut e = Engine::new(s, launch)
                .with_profile(opts.wants_profile())
                .with_faults(opts.fault_plan())
                .with_watchdog(opts.watchdog_budget())
                .sharded_by_cluster(c as u32, nclusters as u32);
            if let Some(cap) = opts.trace_cap() {
                e = e.with_trace(cap);
            }
            Mutex::new(e)
        })
        .collect();

    let w = workers.min(nclusters).max(1);
    let barrier = Barrier::new(w);
    let control = Mutex::new(Control::Done);
    let errors: Mutex<Vec<(Ps, usize, SimError)>> = Mutex::new(Vec::new());
    let final_err: Mutex<Option<SimError>> = Mutex::new(None);
    let watchdog_budget = opts.watchdog_budget();
    let grid_dim = launch.grid_dim;

    std::thread::scope(|scope| {
        for i in 0..w {
            let engines = &engines;
            let barrier = &barrier;
            let control = &control;
            let errors = &errors;
            let final_err = &final_err;
            scope.spawn(move || {
                // Static ownership: cluster c belongs to worker c % w, so the
                // schedule — and with it every artifact — is independent of
                // thread timing.
                let my: Vec<usize> = (i..nclusters).step_by(w).collect();
                for &c in &my {
                    engines[c].lock().unwrap().setup_shard();
                }
                let mut dead = vec![false; my.len()];
                // Coordinator state (worker 0 only): pooled grid-barrier
                // arrivals and the device-level L2 atomic-unit replica they
                // replay on. The replica persists across barrier epochs —
                // it *is* the device's one L2 atomic unit.
                let mut pool: Vec<(Ps, Ps, u32, bool)> = Vec::new();
                let mut l2 = Pipeline::new();
                loop {
                    barrier.wait();
                    if i == 0 {
                        *control.lock().unwrap() = coordinate_clusters(
                            engines,
                            errors,
                            final_err,
                            &mut pool,
                            &mut l2,
                            watchdog_budget,
                            instr_limit,
                            grid_dim,
                            num_sms,
                        );
                    }
                    barrier.wait();
                    let c = *control.lock().unwrap();
                    match c {
                        Control::Run(horizon) => {
                            for (k, &r) in my.iter().enumerate() {
                                if dead[k] {
                                    continue;
                                }
                                let mut eng = engines[r].lock().unwrap();
                                if let Err(e) = eng.run_window(horizon) {
                                    dead[k] = true;
                                    let at = eng.now_ps();
                                    errors.lock().unwrap().push((at, r, e));
                                }
                            }
                        }
                        Control::Done | Control::Fail => break,
                    }
                }
            });
        }
    });

    let err = final_err.into_inner().unwrap();
    let parts = engines
        .into_iter()
        .map(|m| m.into_inner().unwrap().finish_shard())
        .collect();
    (err, parts)
}

/// One cluster-mode round boundary: resolve cross-cluster effects and pick
/// the next action. Runs with every other worker parked at the barrier.
#[allow(clippy::too_many_arguments)]
fn coordinate_clusters(
    engines: &[Mutex<Engine>],
    errors: &Mutex<Vec<(Ps, usize, SimError)>>,
    final_err: &Mutex<Option<SimError>>,
    pool: &mut Vec<(Ps, Ps, u32, bool)>,
    l2: &mut Pipeline,
    watchdog_budget: Option<Ps>,
    instr_limit: u64,
    grid_dim: u32,
    num_sms: u32,
) -> Control {
    // 1. A cluster error ends the run; surface the earliest one by
    //    (simulated time, cluster) — the event the single-queue engine would
    //    have hit first — so the error is independent of worker count.
    {
        let mut errs = errors.lock().unwrap();
        if !errs.is_empty() {
            errs.sort_by_key(|e| (e.0, e.1));
            let (_, _, e) = errs.remove(0);
            *final_err.lock().unwrap() = Some(e);
            return Control::Fail;
        }
    }
    let mut engs: Vec<_> = engines.iter().map(|m| m.lock().unwrap()).collect();

    // 2. Grid / multi-grid rendezvous: drain every cluster's arrival outbox.
    //    A release only happens once all `grid_dim` blocks arrive, and no
    //    block can re-arrive before its release, so the pool never mixes
    //    barrier epochs. Once complete, replay the arrival atomics on the
    //    device-level L2 replica in (firing time, block) order — the order
    //    the single-queue engine's event loop reaches them. Firing time
    //    (when the block's last warp hits the barrier), not convergence
    //    time: the per-SM barrier unit pushes `local` past the firing time
    //    by a congestion-dependent amount, so the two orders disagree under
    //    load, and the L2 pipeline + spinning counts are sequenced by the
    //    former. Releases are injected *before* computing the next horizon,
    //    so the release events bound `m` themselves.
    let nclusters = engs.len() as u32;
    for e in engs.iter_mut() {
        pool.extend(e.take_grid_arrivals());
    }
    if pool.len() == grid_dim as usize {
        pool.sort_unstable_by_key(|&(fire, _, gb, _)| (fire, gb));
        // The barrier kind is uniform across one epoch's arrivals (a mixed
        // Grid/MultiGrid wait would deadlock long before this point).
        let mgrid = pool[pool.len() - 1].3;
        let mut wakes: Vec<(u32, Ps)> = Vec::with_capacity(pool.len());
        let mut local_done = Ps::ZERO;
        for (k, &(_, local, gb, _)) in pool.iter().enumerate() {
            let done = engs[0].grid_arrival_issue(l2, local, k as u64);
            local_done = local_done.max(done);
            wakes.push((gb, done));
        }
        // A single-device multi-grid barrier degenerates to the master
        // exchange with one rank; a grid barrier releases at the last
        // arrival atomic's completion.
        let release_flag = if mgrid {
            engs[0].mgrid_release_times(&[local_done])[0]
        } else {
            local_done
        };
        for (c, e) in engs.iter_mut().enumerate() {
            let own: Vec<(u32, Ps)> = wakes
                .iter()
                .copied()
                .filter(|&(gb, _)| (gb % num_sms) % nclusters == c as u32)
                .collect();
            // Every cluster gets the injection (it syncs racecheck state and
            // lets the SM-0 cluster emit the one release epoch) even when it
            // owns no waiting blocks.
            e.inject_grid_release(release_flag, &own, mgrid);
        }
        pool.clear();
    }

    // 3. Global instruction budget (each cluster also trips a local backstop
    //    mid-round; the error text is identical either way).
    if engs.iter().map(|e| e.instrs()).sum::<u64>() > instr_limit {
        *final_err.lock().unwrap() = Some(engs[0].instr_limit_error());
        return Control::Fail;
    }

    // 4. Global minimum next-event time.
    let Some(m) = engs.iter().filter_map(|e| e.next_event_time()).min() else {
        // Every queue drained: completion, or a launch-wide deadlock.
        let mut blocked: Vec<(u32, u32, u32, String)> =
            engs.iter().flat_map(|e| e.blocked_descriptors()).collect();
        if blocked.is_empty() {
            return Control::Done;
        }
        blocked.sort_unstable();
        let at = engs.iter().map(|e| e.now_ps()).max().unwrap_or(Ps::ZERO);
        *final_err.lock().unwrap() = Some(SimError::Deadlock {
            at,
            blocked: blocked.into_iter().map(|(_, _, _, s)| s).collect(),
            faults: engs[0].fault_fingerprint(),
        });
        return Control::Fail;
    };

    // 5. Boundary watchdog: same predicate the single-queue engine applies
    //    per event, evaluated against *global* progress.
    if let Some(budget) = watchdog_budget {
        let last = engs
            .iter()
            .map(|e| e.last_progress_ps())
            .max()
            .unwrap_or(Ps::ZERO);
        if m.saturating_sub(last) > budget {
            let mut stuck: Vec<StuckWarp> = engs.iter().flat_map(|e| e.stuck_warps()).collect();
            stuck.sort_unstable();
            *final_err.lock().unwrap() = Some(SimError::Watchdog {
                at: m,
                last_progress: last,
                stuck,
                faults: engs[0].fault_fingerprint(),
            });
            return Control::Fail;
        }
    }

    // 6. Safe horizon. The only cross-cluster channel an eligible kernel has
    //    is the grid rendezvous above, and it is quiescent: a release is
    //    injected only at a boundary after *every* block has parked, and an
    //    arriving block parks — nothing it does past its arrival can reach
    //    another cluster. So with no watchdog armed each round may drain all
    //    the way to the next barrier epoch (unbounded horizon): rounds scale
    //    with barrier epochs, not simulated picoseconds. An armed watchdog
    //    needs its boundary progress check to run at least once per budget,
    //    so it keeps lookahead-bounded rounds (the intra-device sync floor —
    //    see METHODOLOGY §16).
    Control::Run(if watchdog_budget.is_some() {
        m + engs[0].cluster_lookahead()
    } else {
        Ps::MAX
    })
}

/// Replay every cluster's logged stores onto the caller's real buffers.
/// Stable sort of the cluster-major concatenation = ordered by (time,
/// cluster) with per-cluster program order preserved at full ties — the
/// single-queue engine's own store order for cluster-eligible launches.
/// Runs on the error path too, so the system reflects everything that
/// executed before the failure.
fn merge_cluster_stores(sys: &mut GpuSystem, parts: &mut [ShardParts]) {
    // Each cluster appends stores in event-processing order, which is *near*
    // issue-time order (pipeline queueing can stamp a later-processed store
    // with an earlier issue time). A stable per-log sort — adaptive, so
    // almost-sorted logs cost ~O(n) — followed by a k-way merge taking the
    // lowest cluster on ties is exactly the stable time-sort of the
    // cluster-major concatenation, without materializing or sorting the
    // whole thing (the logs hold one entry per stored word — hundreds of
    // thousands for big grids).
    for p in parts.iter_mut() {
        p.store_log.sort_by_key(|&(at, _, _, _)| at);
    }
    let logs: Vec<&[(Ps, usize, u64, u64)]> =
        parts.iter().map(|p| p.store_log.as_slice()).collect();
    let mut pos = vec![0usize; logs.len()];
    loop {
        let mut best: Option<usize> = None;
        for (c, log) in logs.iter().enumerate() {
            if pos[c] < log.len() && best.is_none_or(|b| log[pos[c]].0 < logs[b][pos[b]].0) {
                best = Some(c);
            }
        }
        let Some(b) = best else { break };
        let (_, buf, i, v) = logs[b][pos[b]];
        pos[b] += 1;
        sys.bufs[buf]
            .store(i, v)
            .expect("cluster store was bounds-checked in-engine");
    }
    for p in parts.iter_mut() {
        p.store_log.clear();
    }
}

/// Merge per-cluster parts into launch-wide artifacts. Unlike the by-rank
/// merge, trace ties are ordered by (block, warp) — the single-queue engine's
/// insertion order for the symmetric launches cluster sharding accepts — and
/// the per-SM profile rows concatenate in SM order because cluster `c` *is*
/// SM `c`.
fn merge_cluster_artifacts(
    ps_per_cycle: f64,
    launch: &GridLaunch,
    opts: &RunOptions,
    parts: Vec<ShardParts>,
) -> (
    ExecReport,
    Vec<TraceEvent>,
    HazardReport,
    Option<ProfileReport>,
) {
    let end_time = parts.iter().map(|p| p.end_time).max().unwrap_or(Ps::ZERO);
    let report = ExecReport {
        duration: end_time,
        device_durations: vec![end_time],
        blocks_run: launch.grid_dim as u64,
        warps_run: parts.iter().map(|p| p.warps_run).sum(),
        instrs_executed: parts.iter().map(|p| p.instrs_executed).sum(),
    };
    let mut trace = Vec::new();
    let mut hazards = HazardReport::default();
    let mut sm_rows = Vec::new();
    let mut epochs = Vec::new();
    let mut epochs_dropped = 0u64;
    for p in parts {
        trace.extend(p.trace);
        hazards.records.extend(p.hazards.records);
        hazards.dropped += p.hazards.dropped;
        hazards.global.extend(p.hazards.global);
        hazards.global_dropped += p.hazards.global_dropped;
        sm_rows.extend(p.sm_rows);
        epochs.extend(p.epochs);
        epochs_dropped += p.epochs_dropped;
    }
    trace.sort_by_key(|e| (e.at, e.rank, e.block, e.warp_in_block));
    if let Some(cap) = opts.trace_cap() {
        trace.truncate(cap);
    }
    // Hazards are always empty here (checked runs are cluster-ineligible)
    // but keep the canonical order for safety.
    hazards.records.sort_by_key(|r| (r.rank, r.block));
    // Each cluster contributes its SMs' rows in ascending SM order, but the
    // clusters interleave SM indices (SM s → cluster s % nclusters), so the
    // concatenation needs one more sort to restore device SM order.
    sm_rows.sort_by_key(|r| (r.rank, r.sm));
    epochs.sort_by_key(|e| (e.at_ps, e.rank));
    if epochs.len() > EPOCH_CAP {
        epochs_dropped += (epochs.len() - EPOCH_CAP) as u64;
        epochs.truncate(EPOCH_CAP);
    }
    let profile = opts.wants_profile().then(|| {
        ProfileReport::from_parts(
            ps_per_cycle,
            launch.kernel.name.clone(),
            sm_rows,
            epochs,
            epochs_dropped,
        )
    });
    (report, trace, hazards, profile)
}
