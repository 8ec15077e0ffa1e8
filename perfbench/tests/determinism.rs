//! The deterministic per-layer counts repeat exactly across runs and worker
//! counts, and the traced run assembles the untraced run's artifacts.
//!
//! One test function on purpose: `engine.instrs` comes from the library's
//! process-wide instruction counter, so no two runs may overlap.

use std::collections::BTreeMap;
use syncmark_perfbench::plan::{Plan, Workload};
use syncmark_perfbench::{self_times_add_up, traced_run, untraced, Artifacts, DETERMINISTIC};

fn outputs(arts: &Artifacts) -> Vec<Option<String>> {
    arts.0.iter().map(|a| a.output.clone()).collect()
}

fn counts(m: &BTreeMap<&'static str, f64>) -> Vec<(&'static str, f64)> {
    DETERMINISTIC.iter().map(|&k| (k, m[k])).collect()
}

#[test]
fn counts_repeat_across_runs_and_workers_and_outputs_match_untraced() {
    for workload in Workload::ALL {
        let plan = Plan::small(workload);
        let reference = untraced::run(&plan);
        assert!(
            reference
                .0
                .iter()
                .all(|a| a.output.is_some() && a.failed == 0),
            "{}: untraced run failed: {:?}",
            workload.name(),
            reference
                .0
                .iter()
                .map(|a| (a.name, a.failed))
                .collect::<Vec<_>>()
        );
        let runs = [
            traced_run(&plan, 1),
            traced_run(&plan, 1),
            traced_run(&plan, 2),
        ];
        for run in &runs {
            assert_eq!(
                outputs(&run.artifacts),
                outputs(&reference),
                "{}",
                workload.name()
            );
            assert_eq!(
                counts(&run.metrics),
                counts(&runs[0].metrics),
                "{}",
                workload.name()
            );
            assert!(self_times_add_up(&run.metrics), "{}", workload.name());
        }
        let m = &runs[0].metrics;
        assert_eq!(
            m["sweep.cells"],
            plan.points() as f64,
            "{}",
            workload.name()
        );
        assert!(m["engine.instrs"] > 0.0, "{}", workload.name());
    }
}
