//! A tiny benchmark harness for `harness = false` benches.
//!
//! The offline build environment has no criterion, so the bench binaries
//! drive this instead: warm up once, sample until a per-case time budget is
//! spent, and report the median. `cargo bench -- <filter>` still narrows
//! to matching case names.

use std::time::{Duration, Instant};

/// Minimum number of timed samples per case.
const MIN_SAMPLES: usize = 5;
/// Stop sampling a case once this much wall-clock has been spent (after
/// [`MIN_SAMPLES`]).
const BUDGET: Duration = Duration::from_secs(2);

/// A group of benchmark cases sharing a name prefix and a CLI filter.
pub struct Runner {
    group: String,
    filter: Option<String>,
}

impl Runner {
    /// Build a runner from `cargo bench` CLI arguments: the first
    /// non-flag argument is a substring filter on case names.
    pub fn from_args(group: &str) -> Runner {
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Runner {
            group: group.to_string(),
            filter,
        }
    }

    /// Time one case. The closure's output is consumed via `black_box` so
    /// the optimizer cannot elide the work.
    pub fn case<T>(&self, name: &str, mut f: impl FnMut() -> T) {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return;
            }
        }
        std::hint::black_box(f()); // warm-up, untimed
        let mut samples = Vec::new();
        let start = Instant::now();
        while samples.len() < MIN_SAMPLES || (start.elapsed() < BUDGET && samples.len() < 100) {
            let t = Instant::now();
            std::hint::black_box(f());
            samples.push(t.elapsed());
        }
        samples.sort();
        let median = samples[samples.len() / 2];
        let min = samples[0];
        println!(
            "{}/{name:<36} median {:>12}  min {:>12}  ({} samples)",
            self.group,
            fmt_duration(median),
            fmt_duration(min),
            samples.len()
        );
    }
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} us", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.3} s", ns as f64 / 1e9)
    }
}
