//! Node interconnect topologies.

use serde::{Deserialize, Serialize};
use sim_core::Ps;

/// Classification of the path between two GPUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LinkClass {
    /// Same GPU.
    Local,
    /// Direct high-speed link (NVLink hop, or the single shared PCIe switch
    /// of a two-GPU node).
    Near,
    /// No direct link: routed over PCIe/QPI (DGX-1 cross-corner pairs).
    Far,
}

/// A multi-GPU node: which GPU pairs are directly linked and what flag
/// exchanges / data transfers cost on each class of path.
///
/// ```
/// use gpu_node::{LinkClass, NodeTopology};
///
/// let dgx1 = NodeTopology::dgx1_v100();
/// // GPU 0's NVLink clique is {1,2,3,4}; 5-7 ride PCIe — the structure
/// // behind the paper's 5-to-6-GPU jump in multi-grid sync cost.
/// assert_eq!(dgx1.link(0, 4), LinkClass::Near);
/// assert_eq!(dgx1.link(0, 5), LinkClass::Far);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeTopology {
    pub name: String,
    pub num_gpus: usize,
    /// `adjacent[a][b]` — direct high-speed link between GPUs a and b.
    adjacent: Vec<Vec<bool>>,
    /// One-way latency of a small flag write/read over a Near path.
    pub near_flag: Ps,
    /// One-way latency over a Far path.
    pub far_flag: Ps,
    /// Serialization at the barrier master per arriving Near flag.
    pub near_serial: Ps,
    /// Serialization at the barrier master per arriving Far flag.
    pub far_serial: Ps,
    /// Per-resident-block cost of the system-scope fences a multi-grid
    /// barrier performs while the inter-GPU phase is pending, ns.
    pub mgrid_per_block_ns: f64,
    /// Peer-copy bandwidth over a Near path, GB/s.
    pub near_bw_gbs: f64,
    /// Peer-copy bandwidth over a Far path, GB/s.
    pub far_bw_gbs: f64,
}

impl NodeTopology {
    /// A single-GPU "node" (multi-grid collapses to grid sync).
    pub fn single() -> NodeTopology {
        NodeTopology {
            name: "single-GPU".into(),
            num_gpus: 1,
            adjacent: vec![vec![false]],
            near_flag: Ps::ZERO,
            far_flag: Ps::ZERO,
            near_serial: Ps::ZERO,
            far_serial: Ps::ZERO,
            mgrid_per_block_ns: 0.0,
            near_bw_gbs: 0.0,
            far_bw_gbs: 0.0,
        }
    }

    /// The paper's V100 platform: DGX-1 with 8 GPUs in an NVLink hybrid
    /// cube-mesh. Quads {0..3} and {4..7} are fully meshed; the quads are
    /// joined by the cross links 0-4, 1-5, 2-6, 3-7. Everything else rides
    /// PCIe/QPI.
    pub fn dgx1_v100() -> NodeTopology {
        let n = 8;
        let mut adjacent = vec![vec![false; n]; n];
        let mut link = |a: usize, b: usize| {
            adjacent[a][b] = true;
            adjacent[b][a] = true;
        };
        // Intra-quad full meshes.
        for q in [0usize, 4] {
            for i in q..q + 4 {
                for j in (i + 1)..q + 4 {
                    link(i, j);
                }
            }
        }
        // Cross-quad links.
        for i in 0..4 {
            link(i, i + 4);
        }
        NodeTopology {
            name: "DGX-1 (8x V100, NVLink hybrid cube-mesh)".into(),
            num_gpus: n,
            adjacent,
            near_flag: Ps::from_us_f64(2.32),
            far_flag: Ps::from_us_f64(8.05),
            near_serial: Ps::from_us_f64(0.19),
            far_serial: Ps::from_us_f64(1.15),
            mgrid_per_block_ns: 21.0,
            near_bw_gbs: 22.0,
            far_bw_gbs: 9.0,
        }
    }

    /// The paper's P100 platform: two P100s under one PCIe switch.
    pub fn p100_pair() -> NodeTopology {
        NodeTopology {
            name: "2x P100 (PCIe)".into(),
            num_gpus: 2,
            adjacent: vec![vec![false, true], vec![true, false]],
            near_flag: Ps::from_us_f64(2.80),
            far_flag: Ps::from_us_f64(2.80),
            near_serial: Ps::from_us_f64(0.24),
            far_serial: Ps::from_us_f64(0.24),
            mgrid_per_block_ns: 27.0,
            near_bw_gbs: 11.0,
            far_bw_gbs: 11.0,
        }
    }

    /// A DGX-2-style node: 16 GPUs, all-to-all through NVSwitch (beyond the
    /// paper — lets the benches ask what the 5→6 GPU jump would look like on
    /// a flat fabric: it disappears).
    pub fn dgx2_like() -> NodeTopology {
        let n = 16;
        let adjacent = (0..n).map(|i| (0..n).map(|j| i != j).collect()).collect();
        NodeTopology {
            name: "DGX-2-like (16 GPUs, NVSwitch all-to-all)".into(),
            num_gpus: n,
            adjacent,
            near_flag: Ps::from_us_f64(2.6),
            far_flag: Ps::from_us_f64(2.6),
            near_serial: Ps::from_us_f64(0.19),
            far_serial: Ps::from_us_f64(0.19),
            mgrid_per_block_ns: 6.0,
            near_bw_gbs: 48.0,
            far_bw_gbs: 48.0,
        }
    }

    /// A copy of this topology with every inter-GPU path degraded: flag
    /// latencies and per-arrival serialization scaled by
    /// `lat_mult_permille / 1000`, peer bandwidths divided by
    /// `bw_mult_permille / 1000`. Multipliers are fixed-point permille so a
    /// fault plan built from them stays `Eq` and byte-deterministic;
    /// `(1000, 1000)` returns an identical topology. The adjacency structure
    /// is untouched — a degraded NVLink is still NVLink, just slower.
    pub fn degraded(&self, lat_mult_permille: u32, bw_mult_permille: u32) -> NodeTopology {
        let lat = |t: Ps| Ps(t.0.saturating_mul(lat_mult_permille as u64) / 1000);
        let mut d = self.clone();
        if lat_mult_permille != 1000 {
            d.near_flag = lat(self.near_flag);
            d.far_flag = lat(self.far_flag);
            d.near_serial = lat(self.near_serial);
            d.far_serial = lat(self.far_serial);
        }
        if bw_mult_permille != 1000 && bw_mult_permille != 0 {
            let bw = 1000.0 / bw_mult_permille as f64;
            d.near_bw_gbs = self.near_bw_gbs * bw;
            d.far_bw_gbs = self.far_bw_gbs * bw;
        }
        d
    }

    /// The topology with the GPUs in `gone` removed — the *effective* node a
    /// recovery layer re-runs on after evicting failed ranks. Surviving GPUs
    /// are renumbered to `0..n-gone.len()` in their original order, and the
    /// adjacency restriction preserves every surviving pair's link class, so
    /// path costs between survivors are exactly what they were under their
    /// old ids. Per-class latencies and bandwidths are unchanged: eviction
    /// removes a participant, it does not repair or degrade the fabric.
    ///
    /// Panics if `gone` names an out-of-range GPU or would evict every GPU.
    pub fn evict(&self, gone: &[usize]) -> NodeTopology {
        for &g in gone {
            assert!(g < self.num_gpus, "evicted GPU {g} out of range");
        }
        let survivors: Vec<usize> = (0..self.num_gpus).filter(|g| !gone.contains(g)).collect();
        assert!(!survivors.is_empty(), "cannot evict every GPU");
        let mut d = self.clone();
        d.num_gpus = survivors.len();
        d.adjacent = survivors
            .iter()
            .map(|&a| survivors.iter().map(|&b| self.adjacent[a][b]).collect())
            .collect();
        if survivors.len() < self.num_gpus {
            d.name = format!(
                "{} [-{} evicted]",
                self.name,
                self.num_gpus - survivors.len()
            );
        }
        d
    }

    /// Classify the path between two GPUs.
    pub fn link(&self, a: usize, b: usize) -> LinkClass {
        assert!(
            a < self.num_gpus && b < self.num_gpus,
            "GPU id out of range"
        );
        if a == b {
            LinkClass::Local
        } else if self.adjacent[a][b] {
            LinkClass::Near
        } else {
            LinkClass::Far
        }
    }

    /// One-way flag (small write/read) latency between two GPUs.
    pub fn flag_latency(&self, a: usize, b: usize) -> Ps {
        match self.link(a, b) {
            LinkClass::Local => Ps::ZERO,
            LinkClass::Near => self.near_flag,
            LinkClass::Far => self.far_flag,
        }
    }

    /// Master-side serialization charged per arriving flag from `gpu`.
    pub fn arrival_serial(&self, master: usize, gpu: usize) -> Ps {
        match self.link(master, gpu) {
            LinkClass::Local => Ps::ZERO,
            LinkClass::Near => self.near_serial,
            LinkClass::Far => self.far_serial,
        }
    }

    /// Peer-copy bandwidth between two distinct GPUs, GB/s.
    pub fn peer_bandwidth_gbs(&self, a: usize, b: usize) -> f64 {
        match self.link(a, b) {
            LinkClass::Local => f64::INFINITY,
            LinkClass::Near => self.near_bw_gbs,
            LinkClass::Far => self.far_bw_gbs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dgx1_quads_are_meshed() {
        let t = NodeTopology::dgx1_v100();
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    assert_eq!(t.link(i, j), LinkClass::Near, "{i}-{j}");
                    assert_eq!(t.link(i + 4, j + 4), LinkClass::Near);
                }
            }
        }
    }

    #[test]
    fn dgx1_cross_links_and_far_pairs() {
        let t = NodeTopology::dgx1_v100();
        assert_eq!(t.link(0, 4), LinkClass::Near);
        assert_eq!(t.link(1, 5), LinkClass::Near);
        assert_eq!(t.link(0, 5), LinkClass::Far);
        assert_eq!(t.link(0, 7), LinkClass::Far);
        assert_eq!(t.link(3, 3), LinkClass::Local);
    }

    #[test]
    fn dgx1_adjacency_is_symmetric() {
        let t = NodeTopology::dgx1_v100();
        for a in 0..8 {
            for b in 0..8 {
                assert_eq!(t.link(a, b), t.link(b, a));
            }
        }
    }

    #[test]
    fn gpu0_has_exactly_four_near_neighbours() {
        // This is the structural fact behind the paper's 5->6 GPU jump.
        let t = NodeTopology::dgx1_v100();
        let near: Vec<usize> = (1..8)
            .filter(|&g| t.link(0, g) == LinkClass::Near)
            .collect();
        assert_eq!(near, vec![1, 2, 3, 4]);
    }

    #[test]
    fn p100_pair_is_symmetric_pcie() {
        let t = NodeTopology::p100_pair();
        assert_eq!(t.link(0, 1), LinkClass::Near);
        assert!((t.peer_bandwidth_gbs(0, 1) - 11.0).abs() < 1e-9);
    }

    #[test]
    fn dgx2_has_no_far_pairs() {
        let t = NodeTopology::dgx2_like();
        for a in 0..16 {
            for b in 0..16 {
                if a != b {
                    assert_eq!(t.link(a, b), LinkClass::Near);
                }
            }
        }
    }

    #[test]
    fn single_node_is_trivial() {
        let t = NodeTopology::single();
        assert_eq!(t.num_gpus, 1);
    }

    #[test]
    fn hops_track_link_classes() {
        let t = NodeTopology::dgx1_v100();
        assert_eq!(t.link(0, 0), LinkClass::Local);
        assert_eq!(t.link(0, 4), LinkClass::Near);
        assert_eq!(t.link(0, 5), LinkClass::Far);
    }

    #[test]
    fn degraded_scales_latency_and_bandwidth() {
        let t = NodeTopology::dgx1_v100();
        let d = t.degraded(2000, 4000);
        assert_eq!(d.near_flag, t.near_flag * 2);
        assert_eq!(d.far_serial, t.far_serial * 2);
        assert!((d.near_bw_gbs - t.near_bw_gbs / 4.0).abs() < 1e-9);
        assert!((d.far_bw_gbs - t.far_bw_gbs / 4.0).abs() < 1e-9);
        // Structure untouched.
        assert_eq!(d.link(0, 4), LinkClass::Near);
        assert_eq!(d.link(0, 5), LinkClass::Far);
        // Identity multipliers change nothing.
        assert_eq!(t.degraded(1000, 1000), t);
    }

    #[test]
    #[should_panic]
    fn out_of_range_gpu_panics() {
        let t = NodeTopology::p100_pair();
        let _ = t.link(0, 2);
    }

    #[test]
    fn evict_preserves_surviving_link_structure() {
        let t = NodeTopology::dgx1_v100();
        // Evict GPU 1: survivors are [0,2,3,4,5,6,7] renumbered 0..7.
        let e = t.evict(&[1]);
        assert_eq!(e.num_gpus, 7);
        let survivors = [0usize, 2, 3, 4, 5, 6, 7];
        for (na, &oa) in survivors.iter().enumerate() {
            for (nb, &ob) in survivors.iter().enumerate() {
                assert_eq!(e.link(na, nb), t.link(oa, ob), "{oa}-{ob}");
            }
        }
        // Costs are untouched; the name records the eviction.
        assert_eq!(e.near_flag, t.near_flag);
        assert_eq!(e.far_bw_gbs, t.far_bw_gbs);
        assert!(e.name.contains("[-1 evicted]"), "{}", e.name);
    }

    #[test]
    fn evict_multiple_and_identity() {
        let t = NodeTopology::dgx1_v100();
        // Drop one whole quad: the survivors {4..7} are still a full mesh.
        let e = t.evict(&[0, 1, 2, 3]);
        assert_eq!(e.num_gpus, 4);
        for a in 0..4 {
            for b in 0..4 {
                if a != b {
                    assert_eq!(e.link(a, b), LinkClass::Near, "{a}-{b}");
                }
            }
        }
        // Evicting nothing is the identity (name included).
        assert_eq!(t.evict(&[]), t);
    }

    #[test]
    #[should_panic]
    fn evicting_every_gpu_panics() {
        let _ = NodeTopology::p100_pair().evict(&[0, 1]);
    }
}
