//! Intra-launch sharding of multi-device launches: one discrete-event shard
//! per device *rank*, run by a pool of worker threads under conservative
//! time-window synchronization. Single-device launches always run on the
//! single queue (METHODOLOGY §16 records why).
//!
//! # Protocol
//!
//! Each shard owns one rank's warps and blocks and a private
//! [`sim_core::EventQueue`]. Execution proceeds in rounds: a coordinator
//! (worker 0) computes the global minimum next-event time `m` and hands every
//! shard the horizon `m + lookahead`. Shards then drain their local queues
//! strictly below the horizon in parallel and meet back at a barrier.
//!
//! The lookahead is the minimum inter-device flag latency of the (possibly
//! fault-degraded) topology, and the only cross-shard interaction is the
//! multi-grid barrier: a rank reports its arrival at a round boundary, and
//! the release times the coordinator computes from the full arrival vector
//! are at least `2 × lookahead` past the latest arrival (one flag hop to the
//! master device and one back). The latest arrival is itself no earlier than
//! the round's base time `m`, so every release lands at or beyond the *next*
//! round's horizon. Cross-device *memory* traffic has no such latency floor,
//! so the engine rejects it under sharding (see `checked_buffer` in
//! `engine.rs`).
//!
//! # Determinism
//!
//! Logical shards are fixed (one per rank) and worker threads own shards by
//! static round-robin, so the per-shard event streams — and every merged
//! artifact — are a pure function of the launch, byte-identical at any
//! `--shards` value and identical to `--shards 1`. Merged artifacts order
//! per-shard parts rank-major (matching the single-queue engine's
//! block-major conventions) and time-sort trace events and barrier epochs.

use crate::engine::{Engine, HazardReport, ShardParts, TraceEvent};
use crate::mem::{BufData, Buffer};
use crate::profile::{ProfileReport, EPOCH_CAP};
use crate::system::{ExecReport, GpuSystem, GridLaunch, RunOptions};
use sim_core::{Ps, SimError, SimResult, StuckWarp};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};

/// Process-wide default rank-worker count for launches whose
/// [`crate::RunOptions`] leave `shards` unset, set by the CLI's `--shards`
/// flag. `0` (the initial value) selects the classic single-queue engine.
static DEFAULT_SHARDS: AtomicUsize = AtomicUsize::new(0);

/// Set the process-wide default rank-worker count used when a launch's
/// [`crate::RunOptions`] leaves `shards` unset. `0` restores the
/// single-queue default.
pub fn set_default_shards(n: usize) {
    DEFAULT_SHARDS.store(n, Ordering::Relaxed);
}

/// The process-wide default shard worker count (see [`set_default_shards`]).
pub fn default_shards() -> usize {
    DEFAULT_SHARDS.load(Ordering::Relaxed)
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
