//! Randomized tests for the discrete-event backbone.
//!
//! Formerly proptest-based; rewritten on the seeded in-repo
//! [`sim_core::SmallRng`] so the suite builds offline.

use sim_core::{EventQueue, OnlineStats, Pipeline, Ps, SmallRng};

/// Events always pop in non-decreasing time order, with FIFO ties.
#[test]
fn event_queue_is_a_stable_priority_queue() {
    let mut rng = SmallRng::seed_from_u64(0xE0E0);
    for _ in 0..128 {
        let n = rng.range_u64(1, 200) as usize;
        let mut q = EventQueue::new();
        for i in 0..n {
            q.push(Ps(rng.below(1000)), i);
        }
        let mut last: Option<(Ps, usize)> = None;
        while let Some((t, id)) = q.pop() {
            if let Some((lt, lid)) = last {
                assert!(t >= lt);
                if t == lt {
                    assert!(id > lid, "FIFO tie-break violated");
                }
            }
            last = Some((t, id));
        }
    }
}

/// A pipeline never accepts a new op before the previous issue slot
/// frees, and completions never precede starts.
#[test]
fn pipeline_is_monotone() {
    let mut rng = SmallRng::seed_from_u64(0x21BE);
    for _ in 0..128 {
        let n = rng.range_u64(1, 100);
        let mut p = Pipeline::new();
        let mut last_start = Ps::ZERO;
        for _ in 0..n {
            let now = rng.below(1000);
            let interval = rng.range_u64(1, 50);
            let latency = rng.below(200);
            let r = p.issue(Ps(now), Ps(interval), Ps(latency));
            assert!(r.start >= last_start, "issue slots went backwards");
            assert!(r.start >= Ps(now));
            assert!(r.done == r.start + Ps(latency));
            last_start = r.start;
        }
    }
}

/// Welford matches the two-pass reference for arbitrary samples.
#[test]
fn welford_matches_two_pass() {
    let mut rng = SmallRng::seed_from_u64(0x3E1F);
    for _ in 0..128 {
        let n = rng.range_u64(2, 300) as usize;
        let xs: Vec<f64> = (0..n).map(|_| rng.range_f64(-1e6, 1e6)).collect();
        let mut s = OnlineStats::new();
        s.extend(xs.iter().copied());
        let n = xs.len() as f64;
        let mean: f64 = xs.iter().sum::<f64>() / n;
        let var: f64 = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        assert!((s.mean() - mean).abs() <= 1e-6 * mean.abs().max(1.0));
        assert!((s.variance() - var).abs() <= 1e-5 * var.abs().max(1.0));
    }
}

/// Ps arithmetic round-trips through ns conversions within rounding.
#[test]
fn ps_unit_conversions_round_trip() {
    let mut rng = SmallRng::seed_from_u64(0x9512);
    for _ in 0..512 {
        let ns = rng.below(10_000_000);
        let t = Ps::from_ns(ns);
        assert_eq!(t.as_ns() as u64, ns);
        let t2 = Ps::from_ns_f64(t.as_ns());
        assert_eq!(t2, t);
    }
}
