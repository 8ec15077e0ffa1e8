//! Simulation errors.

use crate::time::Ps;
use serde::{Deserialize, Serialize};
use std::fmt;

/// What a stuck warp was doing when the watchdog fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum StuckKind {
    /// Executing instructions without ever advancing past its furthest PC —
    /// the signature of a software spin barrier or flag-polling livelock.
    Spinning,
    /// Parked on a coalesced-group / tile barrier.
    TileBarrier,
    /// Parked on a block-wide barrier (`__syncthreads`).
    BlockBarrier,
    /// Parked on a cooperative grid barrier.
    GridBarrier,
    /// Parked on a cooperative multi-device grid barrier.
    MultiGridBarrier,
}

impl fmt::Display for StuckKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            StuckKind::Spinning => "spinning",
            StuckKind::TileBarrier => "tile barrier",
            StuckKind::BlockBarrier => "block barrier",
            StuckKind::GridBarrier => "grid barrier",
            StuckKind::MultiGridBarrier => "multi-grid barrier",
        })
    }
}

/// One warp that had made no progress when the watchdog fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct StuckWarp {
    /// Device rank within the launch.
    pub rank: u32,
    /// SM the warp's block is resident on.
    pub sm: u32,
    /// Linear block id on its device.
    pub block: u32,
    /// Warp index within the block.
    pub warp: u32,
    /// The PC the warp was at (for [`StuckKind::Spinning`], the top of the
    /// loop it keeps revisiting).
    pub pc: u32,
    pub waiting: StuckKind,
}

impl fmt::Display for StuckWarp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rank {} sm {} block {} warp {} pc {} ({})",
            self.rank, self.sm, self.block, self.warp, self.pc, self.waiting
        )
    }
}

/// One failed cell of a sweep: its input-order index plus the error.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellError {
    /// Input-order index of the failed cell.
    pub cell: u64,
    pub error: SimError,
}

/// Compact identity of the fault plan that was armed when a launch failed:
/// the seed every counter-based draw was keyed on, plus the armed fault
/// channels as `(tag, count)` pairs. Threaded into [`SimError::Deadlock`]
/// and [`SimError::Watchdog`] so recovery reports and chaos-CI logs are
/// self-describing — a deadlock under `kill_block` names the plan that
/// provoked it without any side channel. `None` on an unfaulted run keeps
/// those errors (and their serialized form) independent of the fault layer.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FaultFingerprint {
    /// Root seed of the plan's per-entity draws.
    pub seed: u64,
    /// Armed channels, tag-sorted: e.g. `[("killed-blocks", 2)]` for a plan
    /// that kills two blocks and perturbs nothing else.
    pub armed: Vec<(String, u32)>,
}

impl fmt::Display for FaultFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed={}", self.seed)?;
        for (tag, count) in &self.armed {
            write!(f, " {tag}:{count}")?;
        }
        Ok(())
    }
}

/// Reasons a simulation cannot make progress or a request is invalid.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SimError {
    /// The event queue drained while entities were still blocked — the
    /// simulated program deadlocked. Paper §VIII-B observes exactly this when
    /// a subset of a grid (or of a multi-grid group) calls the group barrier.
    Deadlock {
        /// Simulated time at which progress stopped.
        at: Ps,
        /// Human-readable descriptions of the blocked entities, sorted by
        /// (rank, sm, warp) so reports are snapshot-stable.
        blocked: Vec<String>,
        /// The fault plan armed when the queue drained (`None` when the run
        /// was unfaulted) — a killed-block no-arrival hang names its cause.
        faults: Option<FaultFingerprint>,
    },
    /// The progress watchdog fired: simulated time advanced past the armed
    /// budget with no warp moving beyond its furthest-reached PC. Catches the
    /// livelocks (software spin barriers, flag polling) that queue-drain
    /// deadlock detection cannot — a spinning warp keeps the queue busy
    /// forever, so [`SimError::Deadlock`] never triggers.
    Watchdog {
        /// Simulated time at which the watchdog fired.
        at: Ps,
        /// Last simulated time any warp made forward progress.
        last_progress: Ps,
        /// The warps that were stuck, sorted by (rank, sm, block, warp).
        stuck: Vec<StuckWarp>,
        /// The fault plan armed when the watchdog fired (`None` when the
        /// run was unfaulted).
        faults: Option<FaultFingerprint>,
    },
    /// A launch or API call was rejected (e.g. cooperative grid does not fit
    /// co-resident, block too large, no peer access between devices).
    InvalidLaunch(String),
    /// A kernel touched memory outside an allocation.
    MemoryFault(String),
    /// Malformed program (undefined label, bad register, ...).
    ProgramError(String),
    /// A launch executed more than its system's instruction limit — most
    /// likely a non-terminating loop. It displays as a program error.
    InstrLimit {
        /// Name of the launched kernel.
        kernel: String,
        /// The limit that was exceeded.
        limit: u64,
    },
    /// Several independent sweep cells failed. Errors are in input order and
    /// capped; `dropped` counts the ones past the cap.
    CellErrors {
        errors: Vec<CellError>,
        dropped: u32,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock {
                at,
                blocked,
                faults,
            } => {
                write!(
                    f,
                    "deadlock at t={at}: {} blocked entit{} ({})",
                    blocked.len(),
                    if blocked.len() == 1 { "y" } else { "ies" },
                    blocked.join("; ")
                )?;
                if let Some(fp) = faults {
                    write!(f, " [faults: {fp}]")?;
                }
                Ok(())
            }
            SimError::Watchdog {
                at,
                last_progress,
                stuck,
                faults,
            } => {
                write!(
                    f,
                    "watchdog at t={at}: no progress since t={last_progress}; {} stuck warp{}",
                    stuck.len(),
                    if stuck.len() == 1 { "" } else { "s" },
                )?;
                // Cap the inline listing: a grid-wide livelock can strand
                // thousands of warps and the count above already says so.
                const SHOW: usize = 8;
                if !stuck.is_empty() {
                    write!(f, " (")?;
                    for (i, w) in stuck.iter().take(SHOW).enumerate() {
                        if i > 0 {
                            write!(f, "; ")?;
                        }
                        write!(f, "{w}")?;
                    }
                    if stuck.len() > SHOW {
                        write!(f, "; +{} more", stuck.len() - SHOW)?;
                    }
                    write!(f, ")")?;
                }
                if let Some(fp) = faults {
                    write!(f, " [faults: {fp}]")?;
                }
                Ok(())
            }
            SimError::InvalidLaunch(msg) => write!(f, "invalid launch: {msg}"),
            SimError::MemoryFault(msg) => write!(f, "memory fault: {msg}"),
            SimError::ProgramError(msg) => write!(f, "program error: {msg}"),
            SimError::InstrLimit { kernel, limit } => write!(
                f,
                "program error: kernel {kernel:?} exceeded {limit} instructions — non-terminating?"
            ),
            SimError::CellErrors { errors, dropped } => {
                write!(
                    f,
                    "{} sweep cell{} failed",
                    errors.len() as u64 + *dropped as u64,
                    if errors.len() as u64 + *dropped as u64 == 1 {
                        ""
                    } else {
                        "s"
                    }
                )?;
                write!(f, " (")?;
                for (i, c) in errors.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "cell {}: {}", c.cell, c.error)?;
                }
                if *dropped > 0 {
                    write!(f, "; +{dropped} more")?;
                }
                write!(f, ")")
            }
        }
    }
}

impl std::error::Error for SimError {}

pub type SimResult<T> = Result<T, SimError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadlock_display_counts_entities() {
        let e = SimError::Deadlock {
            at: Ps::from_us(3),
            blocked: vec!["warp 0".into(), "warp 1".into()],
            faults: None,
        };
        let s = e.to_string();
        assert!(s.contains("2 blocked entities"), "{s}");
        assert!(s.contains("warp 0; warp 1"), "{s}");
        // No fault plan armed: no fault suffix at all.
        assert!(!s.contains("faults"), "{s}");
    }

    #[test]
    fn singular_entity_grammar() {
        let e = SimError::Deadlock {
            at: Ps::ZERO,
            blocked: vec!["block (0,0)".into()],
            faults: None,
        };
        assert!(e.to_string().contains("1 blocked entity ("));
    }

    #[test]
    fn fault_fingerprint_display_names_armed_channels() {
        let fp = FaultFingerprint {
            seed: 7,
            armed: vec![("killed-blocks".into(), 2), ("stragglers".into(), 1)],
        };
        assert_eq!(fp.to_string(), "seed=7 killed-blocks:2 stragglers:1");
        let e = SimError::Deadlock {
            at: Ps::ZERO,
            blocked: vec!["block 0".into()],
            faults: Some(fp),
        };
        let s = e.to_string();
        assert!(s.contains("[faults: seed=7 killed-blocks:2"), "{s}");
    }

    #[test]
    fn other_variants_display() {
        assert!(SimError::InvalidLaunch("too big".into())
            .to_string()
            .contains("too big"));
        assert!(SimError::MemoryFault("oob".into())
            .to_string()
            .contains("oob"));
        assert!(SimError::ProgramError("label".into())
            .to_string()
            .contains("label"));
        let limit = SimError::InstrLimit {
            kernel: "spin".into(),
            limit: 1000,
        };
        assert_eq!(
            limit.to_string(),
            "program error: kernel \"spin\" exceeded 1000 instructions — non-terminating?"
        );
    }

    #[test]
    fn watchdog_display_lists_stuck_warps_and_caps() {
        let w = |warp| StuckWarp {
            rank: 0,
            sm: 1,
            block: 2,
            warp,
            pc: 7,
            waiting: StuckKind::Spinning,
        };
        let e = SimError::Watchdog {
            at: Ps::from_us(9),
            last_progress: Ps::from_us(4),
            stuck: (0..10).map(w).collect(),
            faults: None,
        };
        let s = e.to_string();
        assert!(s.contains("10 stuck warps"), "{s}");
        assert!(s.contains("no progress since"), "{s}");
        assert!(s.contains("warp 0 pc 7 (spinning)"), "{s}");
        assert!(s.contains("+2 more"), "{s}");
        // Singular form.
        let one = SimError::Watchdog {
            at: Ps::ZERO,
            last_progress: Ps::ZERO,
            stuck: vec![w(3)],
            faults: None,
        };
        assert!(one.to_string().contains("1 stuck warp ("));
    }

    #[test]
    fn cell_errors_display_counts_dropped() {
        let e = SimError::CellErrors {
            errors: vec![
                CellError {
                    cell: 3,
                    error: SimError::ProgramError("boom".into()),
                },
                CellError {
                    cell: 9,
                    error: SimError::MemoryFault("oob".into()),
                },
            ],
            dropped: 5,
        };
        let s = e.to_string();
        assert!(s.contains("7 sweep cells failed"), "{s}");
        assert!(s.contains("cell 3: program error: boom"), "{s}");
        assert!(s.contains("+5 more"), "{s}");
    }

    #[test]
    fn errors_serialize_round_trip() {
        let e = SimError::Watchdog {
            at: Ps(123),
            last_progress: Ps(45),
            stuck: vec![StuckWarp {
                rank: 1,
                sm: 2,
                block: 3,
                warp: 4,
                pc: 5,
                waiting: StuckKind::GridBarrier,
            }],
            faults: Some(FaultFingerprint {
                seed: 42,
                armed: vec![("link-latency".into(), 1)],
            }),
        };
        let json = serde_json::to_string(&e).unwrap();
        let back: SimError = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
    }
}
