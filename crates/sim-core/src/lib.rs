//! # sim-core
//!
//! The discrete-event backbone shared by every simulated component in the
//! `syncmark` workspace: the global picosecond timeline, a deterministic event
//! queue, pipelined-resource contention models, online statistics (including
//! the paper's Eq. 8 uncertainty propagation), and simulation error types —
//! most notably structured deadlock reports, which the paper's §VIII-B
//! experiments rely on.

pub mod error;
pub mod event;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;

pub use error::{CellError, FaultFingerprint, SimError, SimResult, StuckKind, StuckWarp};
pub use event::EventQueue;
pub use resource::{Channel, Issue, Pipeline};
pub use rng::SmallRng;
pub use stats::{propagate_difference_quotient, OnlineStats, Summary};
pub use time::{Clock, Ps};
