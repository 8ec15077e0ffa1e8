//! Cross-crate integration tests: every headline claim of the paper,
//! checked end-to-end against the full reproduction pipeline.

use syncmark::prelude::*;
use syncmark_bench::experiments;

/// Every registered experiment runs to completion and produces output.
/// (The heavy ones are exercised individually by the bench suite; here we
/// run the full registry once — this is the `repro all` path.)
#[test]
fn every_experiment_in_the_registry_runs() {
    for (name, _, f) in experiments::EXPERIMENTS {
        let out = f();
        assert!(out.len() > 40, "{name} produced almost nothing: {out:?}");
    }
}

/// Paper abstract: "CPU-side implicit barriers generally perform better than
/// grid level and multi-grid level synchronization. But if the program size
/// is large enough, the performance difference would not be so severe."
#[test]
fn implicit_vs_explicit_barrier_tradeoff() {
    let arch = GpuArch::v100();
    // Small problem: implicit clearly ahead.
    let small = 50_000u64;
    let imp =
        reduction::measure_device_reduce(&arch, reduction::DeviceReduceMethod::Implicit, small)
            .unwrap();
    let gs =
        reduction::measure_device_reduce(&arch, reduction::DeviceReduceMethod::GridSync, small)
            .unwrap();
    assert!(imp.latency_us < gs.latency_us);
    // Large problem: within a few percent.
    let large = (2e9 / 8.0) as u64;
    let imp =
        reduction::measure_device_reduce(&arch, reduction::DeviceReduceMethod::Implicit, large)
            .unwrap();
    let gs =
        reduction::measure_device_reduce(&arch, reduction::DeviceReduceMethod::GridSync, large)
            .unwrap();
    assert!((gs.latency_us - imp.latency_us) / imp.latency_us < 0.03);
}

/// Table VIII row 3: grid sync is acceptable below 2 blocks/SM — the gap to
/// a kernel relaunch is at most ~2.5 us there.
#[test]
fn grid_sync_acceptable_below_two_blocks_per_sm() {
    let arch = GpuArch::v100();
    let hm = sync_micro::grid_sync::figure5(&arch).unwrap();
    for tpb in [32u32, 256, 1024] {
        let c = hm.cell(2, tpb).unwrap();
        assert!(c <= 2.6, "2 blk/SM x {tpb}: {c:.2} us");
    }
}

/// §VI-C: with blocks/SM <= 8 and warps/SM <= 32, multi-grid latency across
/// the DGX-1 stays within 2x of the fastest case.
#[test]
fn multi_grid_recommended_envelope() {
    let arch = GpuArch::v100();
    let fig =
        sync_micro::multi_grid::multi_grid_figure(&arch, &NodeTopology::dgx1_v100(), &[8]).unwrap();
    let hm = &fig.maps[0].1;
    let fastest = hm.cell(1, 32).unwrap();
    for &bpsm in &[1u32, 2, 4, 8] {
        for &tpb in &[32u32, 64, 128] {
            if bpsm * tpb > 1024 {
                continue; // outside the paper's <=1024 threads/SM envelope
            }
            if let Some(c) = hm.cell(bpsm, tpb) {
                assert!(
                    c <= 2.0 * fastest + 1.0,
                    "({bpsm},{tpb}): {c:.2} vs fastest {fastest:.2}"
                );
            }
        }
    }
}

/// §VI-D: at 8 GPUs, multi-grid sync in the recommended configuration is at
/// most ~3x the CPU-side barrier, and the difference is around 16 us.
#[test]
fn multi_grid_vs_cpu_barrier_at_eight_gpus() {
    let pts =
        sync_micro::multi_gpu::figure9(&GpuArch::v100(), &NodeTopology::dgx1_v100(), &[8]).unwrap();
    let p = &pts[0];
    assert!(p.mgrid_general_us <= 3.0 * p.cpu_side_us);
    let diff = p.mgrid_general_us - p.cpu_side_us;
    assert!((diff - 16.0).abs() < 8.0, "difference {diff:.1} us");
}

/// The launch-path semantics compose: cooperative multi-device launches wait
/// for *all* devices' streams (the §VI-A implicit barrier).
#[test]
fn multi_device_launch_gates_on_all_streams() {
    let mut arch = GpuArch::v100();
    arch.num_sms = 2;
    let sys = GpuSystem::new(arch, NodeTopology::dgx1_v100());
    let mut h = HostSim::new(sys).without_jitter();
    // Keep device 3 busy for 100 us.
    let busy =
        GridLaunch::single(gpu_sim::kernels::sleep_kernel(100_000), 1, 32, vec![]).on_device(3);
    h.launch(0, &busy, &RunOptions::new()).unwrap();
    // A multi-device launch over devices {0..4} must start after it.
    let multi = GridLaunch::multi(
        gpu_sim::kernels::null_kernel(),
        1,
        32,
        vec![0, 1, 2, 3],
        vec![vec![]; 4],
    );
    let rec = h.launch(0, &multi, &RunOptions::new()).unwrap().record;
    assert!(
        rec.begin.as_us() >= 100.0,
        "gate ignored the busy stream: began at {}",
        rec.begin
    );
}

/// A full multi-GPU reduction on the P100 PCIe pair with *dense* data gives
/// the exact sum (no synthetic closed forms involved).
#[test]
fn p100_pair_dense_reduction_end_to_end() {
    let mut arch = GpuArch::p100();
    arch.num_sms = 4;
    let topo = NodeTopology::p100_pair();
    let n = 200_000u64;
    let s = reduction::measure_multi_gpu_reduce(
        &arch,
        &topo,
        reduction::MultiGpuReduceMethod::MultiGridSync,
        2,
        n,
    )
    .unwrap();
    assert!(s.correct);
    assert!(s.throughput_gbs > 0.0);
}

/// The §IX-D uncertainty machinery: more trials with jitter still converge
/// on the true latency, and Eq. 8's sigma is small relative to it.
#[test]
fn inter_sm_method_converges_under_jitter() {
    let m = sync_micro::inter_sm::measure_inter_sm(
        &GpuArch::v100(),
        NodeTopology::single(),
        &[0],
        SyncOp::Block,
        1,
        1024,
        8192,
        1024,
        24,
    )
    .unwrap();
    // 1024-thread block sync is ~87 cycles in this simulator (Fig. 4 point).
    assert!(
        (m.latency_cycles - 87.0).abs() < 10.0,
        "latency {:.1}",
        m.latency_cycles
    );
    assert!(m.sigma_cycles < 0.05 * m.latency_cycles);
}
