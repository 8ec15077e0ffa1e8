//! Fault recovery: checkpointed retry, rank eviction, and degraded-mode
//! re-execution on top of [`crate::GpuSystem::execute`].
//!
//! [`execute`] runs a launch under a [`RecoveryPolicy`] as a loop of plain
//! `GpuSystem::execute` attempts. Before the first attempt it copies the
//! system's buffer table; each retry restores that copy byte-exactly, so
//! every attempt observes the same initial state regardless of how far
//! the failed attempt got. Buffer words are the *only* mutable state a
//! launch can observe across launches — the engine and profiler are
//! rebuilt per attempt — which is the exactness argument for the copy.
//!
//! Failures are classified by [`classify`]: watchdog livelocks, grid
//! deadlocks, and instruction-limit blowups are *retryable* (they are
//! exactly the classes a fault plan can induce); launch validation,
//! memory faults, and other program errors are *fatal* and surface
//! immediately. At most `MAX_RETRIES` relaunches follow the first
//! attempt, paced by a seeded, counter-based exponential backoff from
//! `BACKOFF_NS` — jitter comes from `fault::mix(seed, [TAG, attempt])`,
//! never from wall clock or execution order, so the retry schedule is
//! byte-identical at any `--jobs` setting.
//!
//! For multi-grid launches whose armed fault plan kills blocks on
//! specific ranks, plain retry cannot help while the kills persist:
//! every rank blocks at the grid barrier waiting for arrivals that never
//! come. The layer instead *evicts* the implicated ranks, as long as at
//! least `MIN_RANKS` survive — the launch is rebuilt over the surviving
//! devices (the fault plan's kill list is renumbered with
//! [`crate::fault::FaultPlan::evict_ranks`]) and re-run degraded. The
//! surviving devices keep their original ids, so link costs between them
//! are unchanged — exactly the topology
//! [`gpu_node::NodeTopology::evict`] would describe, which is what the
//! report's `effective_topology` records.
//!
//! Nothing here runs unless a caller calls [`execute`]; a plain
//! `GpuSystem::execute` has no recovery path.

use serde::{Deserialize, Serialize};
use sim_core::{Ps, SimError, SimResult};

use crate::fault;
use crate::mem::Buffer;
use crate::system::{GpuSystem, GridLaunch, RunArtifacts, RunOptions};

/// How a [`SimError`] relates to the recovery layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorClass {
    /// Plausibly fault-induced: worth restoring the buffers and
    /// relaunching (possibly on fewer ranks).
    Retryable,
    /// Structural: retrying cannot change the outcome.
    Fatal,
}

/// Relaunches allowed after the first attempt: three attempts in all.
const MAX_RETRIES: u32 = 2;
/// Base backoff before retry `i`: `BACKOFF_NS * 2^(i-1)` simulated
/// nanoseconds plus seeded jitter in `[0, BACKOFF_NS)`.
const BACKOFF_NS: u64 = 2_000;
/// Rank eviction never leaves fewer surviving ranks than this.
const MIN_RANKS: usize = 1;

/// Classify an error for retry purposes.
///
/// Watchdog livelocks, deadlocks, and instruction-limit blowups are the
/// failure modes injected faults produce; everything else (invalid
/// launch, memory fault, verifier rejections, cell errors) reflects the
/// program itself and is fatal.
pub fn classify(err: &SimError) -> ErrorClass {
    match err {
        SimError::Watchdog { .. } | SimError::Deadlock { .. } | SimError::InstrLimit { .. } => {
            ErrorClass::Retryable
        }
        _ => ErrorClass::Fatal,
    }
}

/// Retry/eviction policy of one [`execute`] call. The retry budget,
/// backoff base and eviction floor are the constants `MAX_RETRIES`,
/// `BACKOFF_NS` and `MIN_RANKS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryPolicy {
    /// Seed for the counter-based jitter draws.
    pub seed: u64,
    /// Model transient faults: the plan is armed only on attempts
    /// `< n`; later attempts run clean. `None` means every attempt is
    /// faulted (persistent faults).
    pub transient_attempts: Option<u32>,
}

impl RecoveryPolicy {
    /// Seed 0, persistent faults.
    pub const fn new() -> RecoveryPolicy {
        RecoveryPolicy {
            seed: 0,
            transient_attempts: None,
        }
    }

    /// Seed the backoff jitter draws.
    pub const fn seeded(mut self, seed: u64) -> RecoveryPolicy {
        self.seed = seed;
        self
    }

    /// Arm the fault plan only on attempts `< n` (transient faults).
    pub const fn transient(mut self, n: u32) -> RecoveryPolicy {
        self.transient_attempts = Some(n);
        self
    }
}

impl Default for RecoveryPolicy {
    fn default() -> RecoveryPolicy {
        RecoveryPolicy::new()
    }
}

/// One execution attempt inside the recovery loop.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttemptRecord {
    /// Attempt index, starting at 0.
    pub attempt: u32,
    /// Device ids the attempt ran on (shrinks after eviction).
    pub devices: Vec<usize>,
    /// Whether the fault plan was armed for this attempt.
    pub faults_armed: bool,
    /// Backoff charged before this attempt (zero for attempt 0).
    pub backoff: Ps,
    /// The failure, or `None` for the successful final attempt.
    pub error: Option<SimError>,
}

/// Structured account of what [`execute`] did, returned with the
/// successful attempt's artifacts — even for a clean single-attempt run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// Every attempt in order; the last one succeeded.
    pub attempts: Vec<AttemptRecord>,
    /// Original launch rank indices evicted across all rounds (sorted).
    pub evicted_ranks: Vec<u32>,
    /// Device ids those ranks occupied (sorted).
    pub evicted_devices: Vec<usize>,
    /// Ranks the successful attempt ran on.
    pub effective_ranks: usize,
    /// Name of the node topology restricted to surviving devices.
    pub effective_topology: String,
    /// Total simulated time lost to failed attempts and backoff.
    pub recovery_cost: Ps,
    /// True iff success required at least one relaunch.
    pub recovered: bool,
}

/// Seeded exponential backoff before retry `attempt` (>= 1).
fn backoff_for(seed: u64, attempt: u32) -> Ps {
    let exp = (attempt - 1).min(16);
    let jitter = fault::mix(seed, &[fault::TAG_RETRY_BACKOFF, attempt as u64]) % BACKOFF_NS;
    Ps::from_ns(BACKOFF_NS.saturating_mul(1 << exp).saturating_add(jitter))
}

/// Simulated time a failed attempt consumed before erroring out.
fn error_time(err: &SimError) -> Ps {
    match err {
        SimError::Deadlock { at, .. } | SimError::Watchdog { at, .. } => *at,
        _ => Ps::ZERO,
    }
}

/// Put back the buffer table [`execute`] copied before attempt 0. A
/// launch writes buffer words but never allocates, so the table keeps its
/// shape and buffer ids stay valid.
fn roll_back(sys: &mut GpuSystem, bufs: &[Buffer]) {
    debug_assert_eq!(sys.bufs.len(), bufs.len(), "a launch allocated a buffer");
    sys.bufs.clone_from_slice(bufs);
}

/// Run `launch` under `policy`: a plain [`GpuSystem::execute`] per
/// attempt, with `opts`' fault plan armed, disarmed or rank-compacted as
/// the attempt requires. Returns the successful attempt's artifacts and
/// the account of every attempt, or the last error with memory rolled
/// back to its state on entry.
pub fn execute(
    sys: &mut GpuSystem,
    launch: &GridLaunch,
    opts: &RunOptions,
    policy: &RecoveryPolicy,
) -> SimResult<(RunArtifacts, RecoveryReport)> {
    let bufs = sys.bufs.clone();
    let mut cur = launch.clone();
    let mut attempt_opts = opts.clone();
    let mut plan = opts.fault_plan().cloned();
    // Surviving launch ranks, by original index — eviction renumbers the
    // live launch but the report speaks in original identities.
    let mut cur_to_orig: Vec<u32> = (0..launch.devices.len() as u32).collect();
    let mut evicted_ranks: Vec<u32> = Vec::new();
    let mut evicted_devices: Vec<usize> = Vec::new();
    let mut attempts: Vec<AttemptRecord> = Vec::new();
    let mut cost = Ps::ZERO;
    let mut attempt = 0u32;
    loop {
        let armed = plan.as_ref().is_some_and(|p| !p.is_zero())
            && policy.transient_attempts.is_none_or(|n| attempt < n);
        let backoff = if attempt == 0 {
            Ps::ZERO
        } else {
            roll_back(sys, &bufs);
            backoff_for(policy.seed, attempt)
        };
        cost += backoff;
        attempt_opts.faults = if armed { plan.clone() } else { None };
        match sys.execute(&cur, &attempt_opts) {
            Ok(arts) => {
                attempts.push(AttemptRecord {
                    attempt,
                    devices: cur.devices.clone(),
                    faults_armed: armed,
                    backoff,
                    error: None,
                });
                evicted_ranks.sort_unstable();
                evicted_devices.sort_unstable();
                let effective_topology = if evicted_devices.is_empty() {
                    sys.topology.name.clone()
                } else {
                    sys.topology.evict(&evicted_devices).name
                };
                let report = RecoveryReport {
                    recovered: attempt > 0,
                    attempts,
                    evicted_ranks,
                    evicted_devices,
                    effective_ranks: cur.devices.len(),
                    effective_topology,
                    recovery_cost: cost,
                };
                return Ok((arts, report));
            }
            Err(err) => {
                cost += error_time(&err);
                let class = classify(&err);
                attempts.push(AttemptRecord {
                    attempt,
                    devices: cur.devices.clone(),
                    faults_armed: armed,
                    backoff,
                    error: Some(err.clone()),
                });
                attempt += 1;
                if class == ErrorClass::Fatal || attempt > MAX_RETRIES {
                    // Leave memory as the caller handed it to us: a
                    // failed recoverable launch has no partial effects.
                    roll_back(sys, &bufs);
                    return Err(err);
                }
                // Evict only when the kills will still be armed next
                // attempt — a transient plan about to disarm recovers
                // at full strength by plain retry instead.
                let kills_persist = policy.transient_attempts.is_none_or(|n| attempt < n);
                if armed && kills_persist && cur.devices.len() > 1 {
                    if let Some(p) = plan.clone() {
                        let ranks: Vec<u32> = p
                            .killed_ranks()
                            .into_iter()
                            .filter(|&r| (r as usize) < cur.devices.len())
                            .collect();
                        let survivors = cur.devices.len() - ranks.len();
                        if !ranks.is_empty() && survivors >= MIN_RANKS {
                            let keep = |i: usize| !ranks.contains(&(i as u32));
                            for &r in &ranks {
                                evicted_ranks.push(cur_to_orig[r as usize]);
                                evicted_devices.push(cur.devices[r as usize]);
                            }
                            cur.devices = cur
                                .devices
                                .iter()
                                .enumerate()
                                .filter(|&(i, _)| keep(i))
                                .map(|(_, &d)| d)
                                .collect();
                            cur.params = cur
                                .params
                                .iter()
                                .enumerate()
                                .filter(|&(i, _)| keep(i))
                                .map(|(_, prm)| prm.clone())
                                .collect();
                            cur_to_orig = cur_to_orig
                                .iter()
                                .enumerate()
                                .filter(|&(i, _)| keep(i))
                                .map(|(_, &o)| o)
                                .collect();
                            plan = Some(p.evict_ranks(&ranks));
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_table() {
        let dead = SimError::Deadlock {
            at: Ps::from_ns(10),
            blocked: vec!["gpu0".into()],
            faults: None,
        };
        assert_eq!(classify(&dead), ErrorClass::Retryable);
        let wd = SimError::Watchdog {
            at: Ps::from_ns(10),
            last_progress: Ps::from_ns(1),
            stuck: vec![],
            faults: None,
        };
        assert_eq!(classify(&wd), ErrorClass::Retryable);
        let instr = SimError::InstrLimit {
            kernel: "spin".into(),
            limit: 1000,
        };
        assert_eq!(classify(&instr), ErrorClass::Retryable);
        // The variant decides, not the text: a program error that reads
        // like the limit stays fatal.
        let lookalike = SimError::ProgramError(instr.to_string());
        assert_eq!(classify(&lookalike), ErrorClass::Fatal);
        assert_eq!(
            classify(&SimError::ProgramError("bad opcode".into())),
            ErrorClass::Fatal
        );
        assert_eq!(
            classify(&SimError::InvalidLaunch("0 blocks".into())),
            ErrorClass::Fatal
        );
    }

    #[test]
    fn backoff_is_seeded_exponential_and_deterministic() {
        let b1 = backoff_for(7, 1);
        let b2 = backoff_for(7, 2);
        let b3 = backoff_for(7, 3);
        // base*2^(i-1) dominates the jitter (< base), so growth is strict.
        assert!(b1 < b2 && b2 < b3, "{b1:?} {b2:?} {b3:?}");
        assert!(b1 >= Ps::from_ns(BACKOFF_NS) && b1 < Ps::from_ns(2 * BACKOFF_NS));
        assert_eq!(b1, backoff_for(7, 1), "same counter, same draw");
        assert_ne!(backoff_for(8, 1), b1, "seed changes the jitter");
    }

    #[test]
    fn policy_builder_is_const_friendly() {
        const P: RecoveryPolicy = RecoveryPolicy::new().seeded(9).transient(1);
        let p = P;
        assert_eq!(p.seed, 9);
        assert_eq!(p.transient_attempts, Some(1));
        assert_eq!(RecoveryPolicy::default(), RecoveryPolicy::new());
    }
}
