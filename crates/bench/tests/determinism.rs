//! The sweep engine must be invisible in the output: any artifact rendered
//! at `--jobs 1` must be byte-identical at `--jobs 8`. Collection is
//! slot-indexed, so completion order cannot leak into the tables; this test
//! pins that guarantee on a single- and a multi-GPU figure and on all four
//! syncprof bundles, and pins each bundle's bytes as well.
//!
//! Everything lives in one `#[test]` because the sweep default-jobs knob is process
//! global and libtest runs test functions concurrently.

use gpu_arch::GpuArch;
use sync_micro::{grid_sync, multi_grid};
use syncmark_bench::profiling;

fn small(mut a: GpuArch) -> GpuArch {
    a.num_sms = 8;
    a
}

/// Every `--profile` bundle with the FNV-1a digests of its summary,
/// ProfileReport JSON and Chrome trace. `figure9` is the multi-GPU bundle,
/// `table1` merges one profile per launch path, `fused_pipeline` is the
/// wait/signal pipeline. The digests catch any change to how sweep cells'
/// profiles merge or how the representative trace is launched.
const PROFILES: [(&str, [u64; 3]); 4] = [
    (
        "grid_sync",
        [0x287c1922593b21a8, 0xc49e68acbac138be, 0x114b0fcfb53fb0a7],
    ),
    (
        "figure9",
        [0xe424a4ff6cdb5e1e, 0x6a7cf0018e191036, 0x962323c38023793d],
    ),
    (
        "table1",
        [0xcadaaac251c2d278, 0x9d370e30d2fc6c7a, 0xb897e0b87404a7a2],
    ),
    (
        "fused_pipeline",
        [0x55db612162369a26, 0x21213248bb16b65b, 0x45356789c154fceb],
    ),
];

/// FNV-1a over a byte string.
fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One full `--profile NAME` run: (summary, ProfileReport JSON, Chrome trace).
fn profile_artifacts(name: &str) -> (String, String, String) {
    let (_, _, f) = profiling::find(name).unwrap();
    let run = f().unwrap();
    (run.summary, run.report.to_json(), run.trace_json)
}

fn render_fig5(arch: &GpuArch) -> String {
    grid_sync::figure5(arch).unwrap().render().render()
}

fn render_fig7(arch: &GpuArch) -> String {
    let fig = multi_grid::figure7(arch).unwrap();
    fig.maps
        .iter()
        .map(|(_, hm)| hm.render().render())
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn rendered_tables_are_byte_identical_across_worker_counts() {
    let v100 = small(GpuArch::v100());
    let p100 = small(GpuArch::p100());

    sync_micro::sweep::Sweep::set_default_jobs(1);
    let fig5_serial = render_fig5(&v100);
    let fig7_serial = render_fig7(&p100);
    let profiles_serial: Vec<_> = PROFILES.iter().map(|(n, _)| profile_artifacts(n)).collect();

    sync_micro::sweep::Sweep::set_default_jobs(8);
    let fig5_parallel = render_fig5(&v100);
    let fig7_parallel = render_fig7(&p100);
    let profiles_parallel: Vec<_> = PROFILES.iter().map(|(n, _)| profile_artifacts(n)).collect();

    sync_micro::sweep::Sweep::set_default_jobs(0);

    assert_eq!(fig5_serial, fig5_parallel, "figure5 differs across jobs");
    assert_eq!(fig7_serial, fig7_parallel, "figure7 differs across jobs");
    // syncprof artifacts are part of the same guarantee: sweep-cell profiles
    // merge in plan order, so summary, report and trace bytes cannot depend
    // on --jobs.
    for (((name, pinned), serial), parallel) in PROFILES
        .iter()
        .zip(&profiles_serial)
        .zip(&profiles_parallel)
    {
        assert_eq!(serial.0, parallel.0, "{name} summary differs across jobs");
        assert_eq!(
            serial.1, parallel.1,
            "{name} ProfileReport JSON differs across jobs"
        );
        assert_eq!(
            serial.2, parallel.2,
            "{name} Chrome trace differs across jobs"
        );
        let got = [&serial.0, &serial.1, &serial.2].map(|a| digest(a.as_bytes()));
        assert_eq!(
            got.map(|d| format!("{d:016x}")),
            pinned.map(|d| format!("{d:016x}")),
            "{name} bundle bytes changed (summary, report JSON, Chrome trace)"
        );
    }
    // Sanity: the tables actually contain data, not just headers.
    assert!(fig5_serial.lines().count() > 5);
    assert!(fig7_serial.lines().count() > 10);
    let (_, grid_report, grid_trace) = &profiles_serial[0];
    assert!(grid_report.contains("grid_wait_ps"), "{grid_report}");
    assert!(grid_trace.contains("sync.grid"));
}
