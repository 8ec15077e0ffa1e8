//! Host-runtime semantics: peer copies and stream composition.

use cuda_rt::HostSim;
use gpu_arch::GpuArch;
use gpu_node::NodeTopology;
use gpu_sim::{kernels, GpuSystem, GridLaunch, RunOptions};

fn v100_small() -> GpuArch {
    let mut a = GpuArch::v100();
    a.num_sms = 2;
    a
}

fn host() -> HostSim {
    HostSim::new(GpuSystem::single(v100_small())).without_jitter()
}

fn dgx1_host() -> HostSim {
    HostSim::new(GpuSystem::new(v100_small(), NodeTopology::dgx1_v100())).without_jitter()
}

#[test]
fn memcpy_synchronizes_with_the_stream() {
    // A peer copy issued after a kernel must wait for the kernel, on the
    // source stream and on the destination stream alike.
    for kernel_dev in [0, 1] {
        let mut h = dgx1_host();
        let src = h.sys.alloc_f64(0, &[1.0]);
        let dst = h.sys.alloc(1, 1);
        let l =
            GridLaunch::single(kernels::sleep_kernel(100_000), 1, 32, vec![]).on_device(kernel_dev);
        h.launch(0, &l, &RunOptions::new()).unwrap();
        h.memcpy_peer(0, dst, src, 1).unwrap();
        assert!(h.now(0).as_us() >= 100.0, "kernel on GPU {kernel_dev}");
        assert_eq!(h.sys.read_f64(dst), vec![1.0]);
    }
}

#[test]
fn device_sync_after_idle_is_cheap() {
    let mut h = host();
    h.device_synchronize(0, 0); // nothing pending
    let t0 = h.now(0);
    h.device_synchronize(0, 0);
    let took = (h.now(0) - t0).as_ns();
    // Only the fixed sync cost, no completion detection.
    assert!(took <= 1_000.0, "idle sync took {took} ns");
}

#[test]
fn stream_serializes_kernels_in_order() {
    let mut h = host();
    let l1 = GridLaunch::single(kernels::sleep_kernel(40_000), 1, 32, vec![]);
    let l2 = GridLaunch::single(kernels::sleep_kernel(10_000), 1, 32, vec![]);
    let r1 = h.launch(0, &l1, &RunOptions::new()).unwrap().record;
    let r2 = h.launch(0, &l2, &RunOptions::new()).unwrap().record;
    assert!(r2.begin >= r1.end, "second kernel overlapped the first");
}
