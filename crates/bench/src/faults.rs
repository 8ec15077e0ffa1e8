//! Process-wide fault seed for the chaos experiments.
//!
//! `repro --faults SEED` sets it; the fault-driven experiments,
//! `sync_resilience` and `sync_recovery`, read it when building their
//! [`gpu_sim::FaultPlan`]s (and `sync_recovery` its recovery policy's
//! backoff seed). The default matches the CI chaos-smoke job, so a bare
//! `repro sync_resilience` reproduces the checked-in behaviour.

use std::sync::atomic::{AtomicU64, Ordering};

/// Seed used when `--faults` is not given.
pub const DEFAULT_SEED: u64 = 7;

static SEED: AtomicU64 = AtomicU64::new(DEFAULT_SEED);

/// Override the fault seed for all subsequent experiment runs.
pub fn set_seed(seed: u64) {
    SEED.store(seed, Ordering::Relaxed);
}

/// The fault seed experiments should build their plans from.
pub fn seed() -> u64 {
    SEED.load(Ordering::Relaxed)
}
