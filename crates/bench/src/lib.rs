//! # syncmark-bench
//!
//! The reproduction harness: every table and figure of the paper's
//! evaluation can be regenerated through [`experiments::EXPERIMENTS`] by the
//! `repro` binary. [`profiling::PROFILES`] re-runs selected experiments with
//! the syncprof instrument armed (`repro --profile <name>`).

pub mod ablations;
pub mod experiments;
pub mod faults;
pub mod profiling;
