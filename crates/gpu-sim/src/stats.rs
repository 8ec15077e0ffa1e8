//! Process-wide execution accounting.
//!
//! An experiment is an arbitrary tree of sweeps and launches — there is no
//! single `ExecReport` to read a total from. Instead every
//! [`crate::GpuSystem::execute`] adds its report's `instrs_executed` to one
//! process-wide counter, and a caller brackets a workload with
//! [`reset_instrs`] / [`instrs_executed`]. perfbench reports the total as
//! `engine.instrs`, and `crates/bench/tests/instr_counts.rs` pins it for
//! five workloads at `--jobs` 1 and 8.
//!
//! The counter is a relaxed atomic sum: addition commutes, so the total is
//! identical whatever order parallel sweep workers finish in.

use std::sync::atomic::{AtomicU64, Ordering};

static INSTRS: AtomicU64 = AtomicU64::new(0);

/// Add a finished run's instruction count to the process-wide total.
pub(crate) fn count_instrs(n: u64) {
    INSTRS.fetch_add(n, Ordering::Relaxed);
}

/// Instructions executed by every launch since the last [`reset_instrs`].
pub fn instrs_executed() -> u64 {
    INSTRS.load(Ordering::Relaxed)
}

/// Zero the process-wide instruction counter.
pub fn reset_instrs() {
    INSTRS.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        // Other tests in the binary run launches concurrently, so only the
        // monotone-accumulation property is assertable here.
        let before = instrs_executed();
        count_instrs(7);
        count_instrs(5);
        assert!(instrs_executed() >= before + 12);
    }
}
