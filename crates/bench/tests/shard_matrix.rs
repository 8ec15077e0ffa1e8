//! Sharding × jobs determinism matrix at the bench level.
//!
//! The gpu-sim crate proves the sharded engine's artifacts are
//! byte-identical per launch; this test proves the property survives the
//! whole reproduction stack — sweep scheduling, profile merging in plan
//! order, and chrome-trace export — by running the figure9 (multi-device,
//! sharded by rank) profile bundle across shard worker counts {0, 1, 2, 4, 7}
//! and sweep jobs {1, 8} and byte-diffing every artifact against the
//! single-queue serial baseline. The grid_sync and fused_pipeline bundles
//! are single-device, so they always run on the single queue: they are the
//! controls.
//!
//! One `#[test]` on purpose: both knobs (`gpu_sim::set_default_shards`,
//! `Sweep::set_default_jobs`) are process-global and libtest runs tests
//! concurrently, so splitting the matrix would let configurations bleed
//! into each other.

use sync_micro::sweep::Sweep;
use syncmark_bench::profiling;

const PROFILES: [&str; 3] = ["figure9", "grid_sync", "fused_pipeline"];

/// Render one profile bundle's three artifacts to a comparable byte string.
fn bundle(name: &str) -> String {
    let (_, _, run) = profiling::find(name).expect("profile registered");
    let run = run().expect("profile runs");
    format!(
        "summary={}\nreport={}\ntrace={}",
        run.summary,
        run.report.to_json(),
        run.trace_json
    )
}

#[test]
fn profile_artifacts_are_invariant_across_shards_and_jobs() {
    // Serial single-queue baseline.
    gpu_sim::set_default_shards(0);
    Sweep::set_default_jobs(1);
    let baseline: Vec<String> = PROFILES.iter().map(|n| bundle(n)).collect();

    for (shards, jobs) in [(1, 1), (2, 8), (4, 1), (4, 8), (7, 1), (7, 8)] {
        gpu_sim::set_default_shards(shards);
        Sweep::set_default_jobs(jobs);
        for (name, base) in PROFILES.iter().zip(&baseline) {
            let got = bundle(name);
            assert_eq!(
                base, &got,
                "{name} artifacts drifted at shards={shards} jobs={jobs}"
            );
        }
    }

    // Restore the defaults for any test binary reusing this process.
    gpu_sim::set_default_shards(0);
    Sweep::set_default_jobs(0);
}
