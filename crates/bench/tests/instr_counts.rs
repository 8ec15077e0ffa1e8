//! The sweep pool must not change the simulated work: five fixed workloads
//! must execute exactly the same number of instructions at `--jobs` 1 and 8,
//! and exactly the counts pinned below.
//!
//! The workloads span the engine's regimes: full-chip grid-sync sweeps
//! (Fig. 5), multi-GPU barriers (Fig. 9), host-side launch modelling
//! (Table I), many small heat-map cells on a cut-down 8-SM V100, and the
//! memory-system reduction models.
//!
//! Everything lives in one `#[test]`: `gpu_sim::stats` counts every launch
//! in the process, and the jobs default is process-global, so a second test
//! running concurrently would corrupt both.

use gpu_arch::GpuArch;
use gpu_sim::kernels::SyncOp;
use sync_micro::grid_sync;
use sync_micro::measure::Placement;
use sync_micro::sweep::Sweep;
use syncmark_bench::experiments;

/// The Fig. 5 grid-sync heat map on an 8-SM V100.
fn sync_heatmap() -> String {
    let mut arch = GpuArch::v100();
    arch.num_sms = 8;
    let hm = grid_sync::sync_heatmap(&arch, &Placement::single(), SyncOp::Grid, "8-SM V100")
        .expect("sync_heatmap");
    hm.render().render()
}

/// The four V100 device reductions at 2^22 elements.
fn reduction() -> String {
    let arch = GpuArch::v100();
    let mut s = String::new();
    for m in reduction::DeviceReduceMethod::ALL {
        let sample = reduction::measure_device_reduce(&arch, m, 1 << 22).expect("reduction");
        assert!(sample.correct, "{m:?} reduced to a wrong value");
        s.push_str(&format!("{}: {:.3} us\n", sample.method, sample.latency_us));
    }
    s
}

/// (name, runner, instructions executed).
type Workload = (&'static str, fn() -> String, u64);

const WORKLOADS: [Workload; 5] = [
    ("figure5", experiments::figure5, 871_760),
    ("figure9", experiments::figure9, 2_794_932),
    ("table1", experiments::table1, 92),
    ("sync_heatmap", sync_heatmap, 51_280),
    ("reduction", reduction, 57_188),
];

#[test]
fn instruction_counts_are_pinned_at_every_jobs_setting() {
    for jobs in [1, 8] {
        Sweep::set_default_jobs(jobs);
        for (name, run, expected) in WORKLOADS {
            gpu_sim::stats::reset_instrs();
            assert!(!run().is_empty(), "{name} produced no output");
            assert_eq!(
                gpu_sim::stats::instrs_executed(),
                expected,
                "{name} at --jobs {jobs}"
            );
        }
    }
    Sweep::set_default_jobs(0);
}
