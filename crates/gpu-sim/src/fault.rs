//! Deterministic fault injection: the `syncfault` layer.
//!
//! A [`FaultPlan`] is a seeded, serializable description of how a run should
//! be perturbed — which warps straggle, how the inter-device links are
//! degraded or flap, and which blocks never reach their grid-level barrier.
//! `sync_resilience` injects stragglers and degraded or flapping links;
//! `sync_recovery` kills blocks. Arm it through
//! [`crate::RunOptions::faults`]; the engine derives every decision from the
//! plan's seed with counter-based hashing (never from execution order), so a
//! faulted run is byte-deterministic across `--jobs` values and replays.
//!
//! All magnitudes are fixed-point **permille** integers (1000 = 1.0×):
//! probabilities are drawn as `hash % 1000 < p`, multipliers scale integer
//! picosecond latencies exactly. That keeps the plan `Eq`/hashable and the
//! perturbed timeline free of float accumulation. A zero plan
//! ([`FaultPlan::is_zero`]) injects nothing and leaves every artifact
//! byte-identical to an unarmed run.

use serde::{Deserialize, Serialize};

/// Identity latency multiplier (1.0× in permille fixed-point).
pub const IDENT_PERMILLE: u32 = 1000;

/// A seeded, serializable description of the faults to inject into one run:
/// straggling warps, degraded or flapping links, and killed blocks.
///
/// ```
/// use gpu_sim::FaultPlan;
/// let plan = FaultPlan::seeded(7)
///     .stragglers(250, 4000)      // 25% of warps run 4.0x slower
///     .degrade_links(2000, 1000); // inter-GPU latency doubled
/// assert!(!plan.is_zero());
/// assert!(FaultPlan::seeded(7).is_zero());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Root of every per-entity draw; two plans differing only in seed
    /// straggle different warps.
    pub seed: u64,
    /// Probability (permille) that a warp is a straggler.
    pub straggler_permille: u16,
    /// Latency multiplier (permille) on every step of a straggler warp —
    /// instruction and memory latencies alike.
    pub straggler_mult_permille: u32,
    /// Multiplier (permille) on inter-device flag latency and arrival
    /// serialization (NVLink/PCIe path degradation).
    pub link_latency_mult_permille: u32,
    /// Divisor (permille) on inter-device peer bandwidth: 2000 halves it.
    pub link_bw_mult_permille: u32,
    /// Transient link flaps: every `flap_period_ns` of simulated time the
    /// links go down for `flap_down_ns`; traffic starting in the down window
    /// waits it out. 0 disables.
    pub flap_period_ns: u64,
    pub flap_down_ns: u64,
    /// `(rank, block_on_device)` pairs that never reach a grid or multi-grid
    /// barrier — the paper's §VIII-B partial-arrival hang, on demand. The
    /// queue drains and the run returns [`sim_core::SimError::Deadlock`].
    pub killed_blocks: Vec<(u32, u32)>,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan::seeded(0)
    }
}

impl FaultPlan {
    /// A plan that injects nothing; compose faults with the builder arms.
    pub const fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            straggler_permille: 0,
            straggler_mult_permille: IDENT_PERMILLE,
            link_latency_mult_permille: IDENT_PERMILLE,
            link_bw_mult_permille: IDENT_PERMILLE,
            flap_period_ns: 0,
            flap_down_ns: 0,
            killed_blocks: Vec::new(),
        }
    }

    /// Make each warp a straggler with probability `permille`/1000; straggler
    /// steps take `mult_permille`/1000 times as long.
    pub fn stragglers(mut self, permille: u16, mult_permille: u32) -> FaultPlan {
        self.straggler_permille = permille;
        self.straggler_mult_permille = mult_permille;
        self
    }

    /// Degrade every inter-device path: flag latency and arrival
    /// serialization scaled by `lat_mult_permille`/1000, peer bandwidth
    /// divided by `bw_mult_permille`/1000.
    pub fn degrade_links(mut self, lat_mult_permille: u32, bw_mult_permille: u32) -> FaultPlan {
        self.link_latency_mult_permille = lat_mult_permille;
        self.link_bw_mult_permille = bw_mult_permille;
        self
    }

    /// Flap the inter-device links: down for `down_ns` at the start of every
    /// `period_ns` of simulated time.
    pub fn link_flaps(mut self, period_ns: u64, down_ns: u64) -> FaultPlan {
        self.flap_period_ns = period_ns;
        self.flap_down_ns = down_ns;
        self
    }

    /// Block `block` of device rank `rank` never arrives at a grid or
    /// multi-grid barrier.
    pub fn kill_block(mut self, rank: u32, block: u32) -> FaultPlan {
        self.killed_blocks.push((rank, block));
        self
    }

    /// Whether this plan perturbs nothing (the seed alone is not a fault).
    /// A zero plan armed via `RunOptions` must leave every artifact
    /// byte-identical to an unarmed run — pinned by the golden tests.
    pub fn is_zero(&self) -> bool {
        (self.straggler_permille == 0 || self.straggler_mult_permille == IDENT_PERMILLE)
            && self.link_latency_mult_permille == IDENT_PERMILLE
            && self.link_bw_mult_permille == IDENT_PERMILLE
            && (self.flap_period_ns == 0 || self.flap_down_ns == 0)
            && self.killed_blocks.is_empty()
    }

    /// Whether any link-level fault (degradation or flaps) is armed.
    pub fn degrades_links(&self) -> bool {
        self.link_latency_mult_permille != IDENT_PERMILLE
            || self.link_bw_mult_permille != IDENT_PERMILLE
    }

    /// Compact identity of this plan — the seed plus a `(tag, count)` pair
    /// per armed channel — threaded into [`sim_core::SimError::Deadlock`] /
    /// [`sim_core::SimError::Watchdog`] so the errors a plan provokes name
    /// it. Channel order is fixed, so equal plans always fingerprint to
    /// equal (and byte-identical when serialized) values.
    pub fn fingerprint(&self) -> sim_core::FaultFingerprint {
        let mut armed: Vec<(String, u32)> = Vec::new();
        let mut arm = |on: bool, tag: &str, count: u32| {
            if on {
                armed.push((tag.to_string(), count));
            }
        };
        arm(
            self.straggler_permille > 0 && self.straggler_mult_permille != IDENT_PERMILLE,
            "stragglers",
            1,
        );
        arm(
            self.link_latency_mult_permille != IDENT_PERMILLE,
            "link-latency",
            1,
        );
        arm(
            self.link_bw_mult_permille != IDENT_PERMILLE,
            "link-bandwidth",
            1,
        );
        arm(
            self.flap_period_ns > 0 && self.flap_down_ns > 0,
            "link-flaps",
            1,
        );
        arm(
            !self.killed_blocks.is_empty(),
            "killed-blocks",
            self.killed_blocks.len() as u32,
        );
        sim_core::FaultFingerprint {
            seed: self.seed,
            armed,
        }
    }

    /// The device ranks named by [`FaultPlan::killed_blocks`], sorted and
    /// deduplicated — the ranks a recovery policy may evict.
    pub fn killed_ranks(&self) -> Vec<u32> {
        let mut ranks: Vec<u32> = self.killed_blocks.iter().map(|&(r, _)| r).collect();
        ranks.sort_unstable();
        ranks.dedup();
        ranks
    }

    /// The plan as seen by a relaunch that evicted `ranks` (sorted original
    /// rank indices): kill entries on evicted ranks disappear with their
    /// rank, and surviving kill entries are renumbered to the compacted rank
    /// space. Every other channel is rank-agnostic and carries over.
    pub fn evict_ranks(&self, ranks: &[u32]) -> FaultPlan {
        let mut plan = self.clone();
        plan.killed_blocks = self
            .killed_blocks
            .iter()
            .filter(|(r, _)| !ranks.contains(r))
            .map(|&(r, b)| {
                let below = ranks.iter().filter(|&&e| e < r).count() as u32;
                (r - below, b)
            })
            .collect();
        plan
    }
}

/// Deterministic per-entity draw: SplitMix64-fold the seed with each part.
/// Execution order never feeds in, so a draw for (warp, block, rank) is the
/// same whatever the event interleaving — the bedrock of `--jobs` and
/// replay byte-determinism.
pub fn mix(seed: u64, parts: &[u64]) -> u64 {
    let mut z = seed ^ 0x9e37_79b9_7f4a_7c15;
    for &p in parts {
        z = z.wrapping_add(p).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
    }
    z
}

/// Domain tags for [`mix`], so draws of different fault kinds never collide.
pub(crate) const TAG_STRAGGLER: u64 = 1;
/// Retry-backoff jitter draws of [`crate::recover`], keyed on the attempt
/// counter — never on execution order — so retry schedules are
/// byte-identical at any `--jobs` value. The value feeds every backoff
/// draw, so changing it changes every recovery cost `sync_recovery` reports.
pub(crate) const TAG_RETRY_BACKOFF: u64 = 4;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_plan_detection() {
        assert!(FaultPlan::seeded(42).is_zero());
        // Probability without effect, or effect without probability, is zero.
        assert!(FaultPlan::seeded(1).stragglers(500, 1000).is_zero());
        assert!(FaultPlan::seeded(1).stragglers(0, 4000).is_zero());
        assert!(FaultPlan::seeded(1).link_flaps(1000, 0).is_zero());
        // Any real perturbation flips it.
        assert!(!FaultPlan::seeded(1).stragglers(500, 2000).is_zero());
        assert!(!FaultPlan::seeded(1).degrade_links(2000, 1000).is_zero());
        assert!(!FaultPlan::seeded(1).degrade_links(1000, 2000).is_zero());
        assert!(!FaultPlan::seeded(1).link_flaps(1000, 100).is_zero());
        assert!(!FaultPlan::seeded(1).kill_block(0, 3).is_zero());
    }

    #[test]
    fn plans_serialize_round_trip() {
        let plan = FaultPlan::seeded(7)
            .stragglers(250, 4000)
            .degrade_links(2000, 1500)
            .kill_block(1, 2);
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn fingerprint_names_armed_channels_only() {
        let fp = FaultPlan::seeded(7).fingerprint();
        assert_eq!(fp.seed, 7);
        assert!(fp.armed.is_empty(), "{fp:?}");
        let fp = FaultPlan::seeded(9)
            .stragglers(250, 4000)
            .kill_block(1, 0)
            .kill_block(2, 3)
            .fingerprint();
        assert_eq!(
            fp.armed,
            vec![("stragglers".into(), 1), ("killed-blocks".into(), 2)]
        );
        // Probability-without-effect channels stay unarmed.
        let fp = FaultPlan::seeded(9).stragglers(250, 1000).fingerprint();
        assert!(fp.armed.is_empty(), "{fp:?}");
    }

    #[test]
    fn evicting_ranks_drops_and_renumbers_kills() {
        let plan = FaultPlan::seeded(3)
            .kill_block(1, 0)
            .kill_block(1, 2)
            .kill_block(3, 5);
        assert_eq!(plan.killed_ranks(), vec![1, 3]);
        // Evicting rank 1: its kills vanish, rank 3 compacts to rank 2.
        let after = plan.evict_ranks(&[1]);
        assert_eq!(after.killed_blocks, vec![(2, 5)]);
        // Evicting every killed rank leaves a kill-free plan.
        assert!(plan.evict_ranks(&[1, 3]).killed_blocks.is_empty());
        // Rank-agnostic channels carry over untouched.
        let degraded = FaultPlan::seeded(3)
            .degrade_links(2000, 1000)
            .kill_block(0, 0);
        let after = degraded.evict_ranks(&[0]);
        assert_eq!(after.link_latency_mult_permille, 2000);
    }

    #[test]
    fn mix_is_seed_and_order_sensitive() {
        let a = mix(1, &[10, 20]);
        assert_eq!(a, mix(1, &[10, 20]), "deterministic");
        assert_ne!(a, mix(2, &[10, 20]), "seed feeds in");
        assert_ne!(a, mix(1, &[20, 10]), "part order feeds in");
        assert_ne!(mix(1, &[TAG_STRAGGLER, 5]), mix(1, &[TAG_RETRY_BACKOFF, 5]));
    }

    #[test]
    fn mix_draws_are_roughly_uniform() {
        // 25% permille threshold over 4000 draws should land near 1000.
        let hits = (0..4000u64)
            .filter(|&i| mix(7, &[TAG_STRAGGLER, i]) % 1000 < 250)
            .count();
        assert!((800..1200).contains(&hits), "{hits}");
    }
}
