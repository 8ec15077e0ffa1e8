//! Regenerate the paper's tables and figures on the simulated platforms.
//!
//! ```text
//! repro list                  # show available experiments
//! repro all                   # run everything (slow but complete)
//! repro table2 fig5 ...       # run specific artifacts
//! repro --jobs 8 all          # run the registry (and inner sweeps) on 8 workers
//! repro --out results all     # additionally write one .txt per artifact
//! repro --check               # synchronization-hazard audit; exits nonzero
//!                             # on any unsuppressed violation (the CI gate)
//! repro --scorecard           # run the seeded bug corpus and print the
//!                             # per-pass / per-class detection scorecard
//! repro --scorecard --scorecard-gate SCORECARD.json
//!                             # additionally fail if any (pass, class)
//!                             # recall drops below the baseline file
//! repro --profile grid_sync   # re-run an experiment with syncprof armed:
//!                             # summary to stdout, artifacts under --out
//! repro --faults 7 sync_resilience
//!                             # seed for the fault-injection experiments
//! ```
//!
//! Every artifact lands under the one `--out DIR` with a fixed per-artifact
//! filename:
//!
//! ```text
//! experiments      DIR/<name>.txt
//! --profile NAME   DIR/<name>.profile.json, DIR/<name>.trace.json
//! --check          DIR/audit.json
//! --scorecard      DIR/SCORECARD.json
//! ```
//!
//! Without `--out`, every mode prints to stdout only. Modes compose in one
//! invocation because the filenames cannot collide; `--out` naming an
//! existing non-directory is a conflict and exits 2. Removed flags
//! (`--bench`, `--bench-out`, `--scorecard-out`, `--shards`) exit 2 with a
//! pointer to their replacement.
//!
//! The whole command line is validated up front: a bad flag value, an
//! unknown profile or experiment name, or a `--scorecard-gate` without
//! `--scorecard` or with an unreadable baseline aborts before any mode runs
//! or the `--out` directory is created, so a failed invocation never
//! leaves partial results behind.
//!
//! Experiment *failures* (an error or panic inside one runner) do not stop
//! the others: every requested experiment runs, successes are printed and
//! written to `--out` as usual, and a deterministic per-experiment error
//! summary goes to stderr before the process exits nonzero.
//!
//! Output order on stdout is always the requested order, independent of
//! `--jobs` — per-experiment wall-clock progress goes to stderr instead.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::time::Instant;
use synccheck::corpus::Scorecard;
use syncmark_bench::experiments::{Experiment, EXPERIMENTS};
use syncmark_bench::profiling::{self, ProfileEntry};

fn usage_and_list() {
    println!(
        "usage: repro [--jobs N] [--out DIR] [--check] [--scorecard] \
         [--scorecard-gate PATH] [--faults SEED] \
         [--profile NAME]... [all | list | <experiment>...]\n"
    );
    println!("artifacts land under the one --out DIR with fixed names:");
    println!("  experiments     DIR/<name>.txt");
    println!("  --profile NAME  DIR/<name>.profile.json, DIR/<name>.trace.json");
    println!("  --check         DIR/audit.json");
    println!("  --scorecard     DIR/{SCORECARD_FILE}\n");
    println!("available experiments:");
    for (name, desc, _) in EXPERIMENTS {
        println!("  {name:<10} {desc}");
    }
    println!("\nsyncprof profiles (--profile):");
    for (name, desc, _) in profiling::PROFILES {
        println!("  {name:<10} {desc}");
    }
}

/// Fixed `--out` filename of the scorecard JSON (matches the tracked
/// baseline artifact at the repo root).
const SCORECARD_FILE: &str = "SCORECARD.json";

/// Flags that no longer exist, each with a pointer to its replacement.
const REMOVED_FLAGS: [(&str, &str); 4] = [
    (
        "--bench",
        "was removed: perfbench is the benchmark of record (see perfbench/README.md)",
    ),
    (
        "--bench-out",
        "was removed with --bench: perfbench is the benchmark of record \
         (see perfbench/README.md)",
    ),
    (
        "--scorecard-out",
        "was replaced by the unified --out convention: \
         --scorecard --out DIR writes DIR/SCORECARD.json",
    ),
    (
        "--shards",
        "was removed: every launch runs on one event queue; use --jobs to \
         run experiments and their sweep cells in parallel (docs/METHODOLOGY.md \
         §15-16 records why sharding was deleted)",
    ),
];

/// Report a command-line error and exit 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// Take and parse the value after `flag`; a missing value or (for a
/// numeric flag) a non-number is a command-line error.
fn flag_value<T: FromStr>(args: &mut impl Iterator<Item = String>, flag: &str, needs: &str) -> T {
    let Some(v) = args.next() else {
        usage_error(&format!("{flag} requires {needs}"));
    };
    v.parse()
        .unwrap_or_else(|_| usage_error(&format!("{flag} requires a number, got {v:?}")))
}

/// Write one artifact into the (existing) `--out` directory and return its
/// path; a failed write exits 1.
fn write_artifact(dir: &Path, file: &str, bytes: impl AsRef<[u8]>) -> PathBuf {
    let path = dir.join(file);
    if let Err(e) = std::fs::write(&path, bytes) {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    path
}

/// Run one syncprof profile: summary to stdout; under `--out`,
/// `<name>.profile.json` and `<name>.trace.json` land next to it.
fn run_profile(&(name, _, f): &ProfileEntry, out_dir: Option<&Path>) {
    let t = Instant::now();
    let run = match f() {
        Ok(run) => run,
        Err(e) => {
            eprintln!("[repro] profile {name} failed: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "[repro] profile {name:<12} {:8.2}s",
        t.elapsed().as_secs_f64()
    );
    println!("{}", run.summary);
    if let Some(dir) = out_dir {
        for (suffix, bytes) in [
            ("profile.json", run.report.to_json()),
            ("trace.json", run.trace_json),
        ] {
            let path = write_artifact(dir, &format!("{name}.{suffix}"), bytes);
            eprintln!("[repro] wrote {}", path.display());
        }
    }
}

/// Run the bug corpus and print its scorecard; with a gate baseline, any
/// (pass, class) recall drop exits 1.
fn run_scorecard(out_dir: Option<&Path>, gate: Option<&Scorecard>) {
    // Like the audit, the corpus runs serially in a fixed order: the
    // scorecard must be byte-identical whatever `--jobs` was set to.
    let sc = synccheck::corpus::scorecard();
    print!("{}", sc.render());
    if let Some(dir) = out_dir {
        let path = write_artifact(dir, SCORECARD_FILE, sc.to_json());
        eprintln!("[repro] wrote {}", path.display());
    }
    if let Some(baseline) = gate {
        let violations = sc.recall_regressions(baseline);
        if !violations.is_empty() {
            for v in &violations {
                eprintln!("[repro] scorecard regression: {v}");
            }
            std::process::exit(1);
        }
        eprintln!("[repro] scorecard recall gate passed");
    }
}

/// Run the synchronization-hazard audit; any unsuppressed violation
/// exits 1.
fn run_check(out_dir: Option<&Path>) {
    // The audit is deliberately serial and jobs-independent: its report
    // must be byte-identical whatever `--jobs` was set to.
    let report = synccheck::audit();
    print!("{}", report.render());
    if let Some(dir) = out_dir {
        let path = write_artifact(dir, "audit.json", report.to_json());
        eprintln!("[repro] wrote {}", path.display());
    }
    let bad = report.unsuppressed();
    if bad > 0 {
        eprintln!("[repro] synccheck: {bad} unsuppressed violation(s)");
        std::process::exit(1);
    }
}

/// Run the selected registry entries, print each table and write it under
/// `--out`; any failed experiment exits 1 after the rest have run.
fn run_experiments(selected: Vec<&Experiment>, out_dir: Option<&Path>) {
    // Run the registry entries themselves as a sweep (experiments nest their
    // own cell-level sweeps on the same worker setting). A panic inside one
    // runner is contained to its cell: the rest still complete, partial
    // results still land in --out, and the failure is reported at the end.
    let wall = Instant::now();
    let results = sync_micro::sweep::Sweep::new().run(selected, |(name, _, f)| {
        let t = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
            payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string())
        });
        let dt = t.elapsed();
        eprintln!("[repro] {name:<12} {:8.2}s", dt.as_secs_f64());
        (*name, out)
    });
    let mut failed = Vec::new();
    for (name, out) in &results {
        match out {
            Ok(out) => {
                println!("{out}");
                if let Some(dir) = out_dir {
                    write_artifact(dir, &format!("{name}.txt"), out);
                }
            }
            Err(msg) => failed.push((name, msg)),
        }
    }
    eprintln!(
        "[repro] {} experiment(s) in {:.2}s on {} worker(s)",
        results.len(),
        wall.elapsed().as_secs_f64(),
        sync_micro::sweep::jobs()
    );
    if !failed.is_empty() {
        // Requested order, so the failure summary is as deterministic as
        // the results themselves.
        for (name, msg) in &failed {
            eprintln!("[repro] FAILED {name}: {msg}");
        }
        eprintln!(
            "[repro] {} of {} experiment(s) failed; partial results were kept",
            failed.len(),
            results.len()
        );
        std::process::exit(1);
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let (mut jobs, mut faults) = (None, None);
    let (mut out_dir, mut gate_path): (Option<PathBuf>, Option<PathBuf>) = (None, None);
    let (mut check, mut scorecard) = (false, false);
    let mut profile_names: Vec<String> = Vec::new();
    let mut names: Vec<String> = Vec::new();
    // The whole command line is parsed and validated before anything runs
    // or is written. A flag given twice falls through to `names`, where the
    // second copy fails validation like any other unknown experiment.
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--jobs" if jobs.is_none() => {
                jobs = Some(flag_value(&mut args, "--jobs", "a worker count"));
            }
            "--faults" if faults.is_none() => {
                faults = Some(flag_value(&mut args, "--faults", "a seed"));
            }
            "--out" if out_dir.is_none() => {
                out_dir = Some(flag_value(&mut args, "--out", "a directory"));
            }
            "--scorecard-gate" if gate_path.is_none() => {
                gate_path = Some(flag_value(
                    &mut args,
                    "--scorecard-gate",
                    "a baseline file path",
                ));
            }
            "--profile" => profile_names.push(flag_value(
                &mut args,
                "--profile",
                "a profile name — try `repro list`",
            )),
            "--check" if !check => check = true,
            "--scorecard" if !scorecard => scorecard = true,
            _ => {
                if let Some((_, pointer)) = REMOVED_FLAGS.iter().find(|(f, _)| *f == arg) {
                    usage_error(&format!("{arg} {pointer}"));
                }
                names.push(arg);
            }
        }
    }
    let out_dir = out_dir.as_deref();
    if let Some(dir) = out_dir.filter(|d| d.exists() && !d.is_dir()) {
        usage_error(&format!(
            "--out {} names an existing file; pass a directory (artifacts \
             get fixed per-mode filenames under it)",
            dir.display()
        ));
    }
    let mut unknown = false;
    let profiles: Vec<&ProfileEntry> = profile_names
        .iter()
        .filter_map(|name| {
            let found = profiling::find(name);
            if found.is_none() {
                eprintln!("unknown profile {name:?} — try `repro list`");
                unknown = true;
            }
            found
        })
        .collect();
    let runs_a_mode = check || scorecard || !profiles.is_empty();
    // Usage and the registry print for `list`, `--help`, or nothing to do.
    let usage = match names.first().map(String::as_str) {
        None => !runs_a_mode,
        Some(first) => first == "list" || first == "--help",
    };
    let experiments: Vec<&Experiment> = match names.first().map(String::as_str) {
        _ if usage => Vec::new(),
        Some("all") => EXPERIMENTS.iter().collect(),
        _ => names
            .iter()
            .filter_map(|name| {
                let found = EXPERIMENTS.iter().find(|(n, _, _)| n == name);
                if found.is_none() {
                    eprintln!("unknown experiment {name:?} — try `repro list`");
                    unknown = true;
                }
                found
            })
            .collect(),
    };
    if unknown {
        std::process::exit(2);
    }
    if gate_path.is_some() && !scorecard {
        usage_error("--scorecard-gate is only meaningful with --scorecard");
    }
    let gate = gate_path.map(|path| {
        let json = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            usage_error(&format!("cannot read baseline {}: {e}", path.display()))
        });
        Scorecard::from_json(&json).unwrap_or_else(|e| {
            usage_error(&format!(
                "baseline {} is not a scorecard: {e}",
                path.display()
            ))
        })
    });

    if let Some(n) = jobs {
        sync_micro::sweep::Sweep::set_default_jobs(n);
    }
    if let Some(seed) = faults {
        syncmark_bench::faults::set_seed(seed);
    }
    if let Some(dir) = out_dir.filter(|_| runs_a_mode || !experiments.is_empty()) {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
    for profile in profiles {
        run_profile(profile, out_dir);
    }
    if scorecard {
        run_scorecard(out_dir, gate.as_ref());
    }
    if check {
        run_check(out_dir);
    }
    if usage {
        usage_and_list();
    } else if !experiments.is_empty() {
        run_experiments(experiments, out_dir);
    }
}
