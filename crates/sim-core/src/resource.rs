//! Contended hardware resources.
//!
//! Functional units (ALUs, barrier units, L2 atomic units, DRAM channels,
//! shared-memory ports, interconnect links) are modelled as *pipelined
//! servers*: an operation occupies the unit's issue slot for a fixed interval
//! (the reciprocal of its throughput) and completes after an additional
//! latency. Queuing emerges from the `next_free` bookkeeping — the standard
//! "resource as a timestamp" discrete-event idiom.

use crate::time::Ps;
use serde::{Deserialize, Serialize};

/// A single pipelined server: accepts one operation per `interval`, each
/// operation finishing `latency` after it is accepted.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Pipeline {
    next_free: Ps,
}

/// The outcome of issuing an operation into a pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Issue {
    /// When the unit actually accepted the op (>= request time).
    pub start: Ps,
    /// When the op's result is available.
    pub done: Ps,
}

impl Pipeline {
    pub fn new() -> Pipeline {
        Pipeline::default()
    }

    /// Issue an operation requested at `now` that occupies the unit's issue
    /// slot for `interval` and completes `latency` after acceptance.
    pub fn issue(&mut self, now: Ps, interval: Ps, latency: Ps) -> Issue {
        let start = now.max(self.next_free);
        self.next_free = start + interval;
        Issue {
            start,
            done: start + latency,
        }
    }

    /// When the unit could next accept an operation.
    pub fn next_free(&self) -> Ps {
        self.next_free
    }

    /// Reserve the unit until `until` (e.g. a burst transfer).
    pub fn block_until(&mut self, until: Ps) {
        self.next_free = self.next_free.max(until);
    }
}

/// A bandwidth-limited channel (e.g. DRAM, an NVLink lane): transfers occupy
/// the channel for `bytes / bytes_per_ps`, plus a fixed access latency.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Channel {
    pipe: Pipeline,
    /// Sustained bandwidth in bytes per picosecond (1 GB/s == 1e-3 B/ps).
    bytes_per_ps: f64,
    /// Fixed first-byte latency.
    latency: Ps,
}

impl Channel {
    /// `gb_per_s` is sustained bandwidth in GB/s (10^9 bytes / s);
    /// `latency` is the first-byte latency.
    pub fn new(gb_per_s: f64, latency: Ps) -> Channel {
        assert!(gb_per_s > 0.0, "bandwidth must be positive");
        Channel {
            pipe: Pipeline::new(),
            bytes_per_ps: gb_per_s / 1e3,
            latency,
        }
    }

    /// Time to stream `bytes` through the channel ignoring contention.
    pub fn service_time(&self, bytes: u64) -> Ps {
        Ps((bytes as f64 / self.bytes_per_ps).ceil() as u64)
    }

    /// Issue a transfer of `bytes` requested at `now`. The channel is occupied
    /// for the full service time; the transfer completes after latency +
    /// service time.
    pub fn transfer(&mut self, now: Ps, bytes: u64) -> Issue {
        let service = self.service_time(bytes);
        let start = now.max(self.pipe.next_free());
        self.pipe.block_until(start + service);
        Issue {
            start,
            done: start + self.latency + service,
        }
    }

    pub fn latency(&self) -> Ps {
        self.latency
    }

    pub fn next_free(&self) -> Ps {
        self.pipe.next_free()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_serializes_back_to_back_ops() {
        let mut p = Pipeline::new();
        let a = p.issue(Ps(0), Ps(10), Ps(100));
        let b = p.issue(Ps(0), Ps(10), Ps(100));
        assert_eq!(a.start, Ps(0));
        assert_eq!(a.done, Ps(100));
        assert_eq!(b.start, Ps(10));
        assert_eq!(b.done, Ps(110));
    }

    #[test]
    fn pipeline_idle_gap_not_charged() {
        let mut p = Pipeline::new();
        p.issue(Ps(0), Ps(10), Ps(0));
        let b = p.issue(Ps(1000), Ps(10), Ps(5));
        assert_eq!(b.start, Ps(1000));
        assert_eq!(b.done, Ps(1005));
    }

    #[test]
    fn channel_bandwidth_math() {
        // 1000 GB/s == 1 byte/ps: 4096 bytes takes 4096 ps.
        let mut ch = Channel::new(1000.0, Ps(100));
        assert_eq!(ch.service_time(4096), Ps(4096));
        let t = ch.transfer(Ps(0), 4096);
        assert_eq!(t.done, Ps(100 + 4096));
        // Second transfer queues behind the first's occupancy (not latency).
        let t2 = ch.transfer(Ps(0), 4096);
        assert_eq!(t2.start, Ps(4096));
        assert_eq!(t2.done, Ps(4096 + 100 + 4096));
    }

    #[test]
    fn channel_reports_configuration() {
        let ch = Channel::new(898.0, Ps::from_ns(400));
        assert_eq!(ch.latency(), Ps::from_ns(400));
    }
}
