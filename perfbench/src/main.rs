//! Command line of the syncmark benchmark.
//!
//! ```text
//! perfbench --workload <grid_sweep|multigrid_node|reduction_case> \
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Human-readable lines go to stderr; the last line of stdout is the result
//! object. A run record with its metrics (and, traced, every span) is also
//! written under `.bench_out/`. Exits 1 if any output is wrong, 2 on bad
//! arguments or a run that could not be measured.

use std::io::Write;
use std::path::Path;
use syncmark_perfbench::plan::Workload;
use syncmark_perfbench::{bench, result_json, setup, Options};

fn usage(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!(
        "usage: perfbench --workload <grid_sweep|multigrid_node|reduction_case> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut probe = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--setup-probe" {
            probe = true;
            continue;
        }
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value:?}"))),
                )
            }
            "--seed" => {
                seed = value
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes a number"))
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .unwrap_or_else(|| usage("--seconds takes a positive number"))
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            _ => usage(&format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if probe {
        setup(workload, seed);
        println!("ready");
        return;
    }
    let opts = Options {
        workload,
        seed,
        seconds,
        trace,
    };
    let out = match bench(&opts) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("[perfbench] {e}");
            std::process::exit(2);
        }
    };
    for line in &out.notes {
        eprintln!("[perfbench] {line}");
    }
    for (name, value, unit) in &out.metrics {
        eprintln!("[perfbench] {name:<28} {value:>14.6} {unit}");
    }
    for p in &out.problems {
        eprintln!("[perfbench] FAILED: {p}");
    }
    let json = result_json(&out);
    let stem = format!("{}-seed{}-trace{}", workload.name(), seed, trace as u8);
    if let Err(e) = write_record(&stem, &out.notes, &json, &out.spans) {
        eprintln!("[perfbench] cannot write the run record: {e}");
        std::process::exit(2);
    }
    println!("{json}");
    let _ = std::io::stdout().flush();
    if !out.correct() || out.metrics.iter().any(|(_, v, _)| !v.is_finite()) {
        std::process::exit(1);
    }
}

/// Write `.bench_out/<stem>.txt` (record and result) and, for a traced run,
/// `.bench_out/<stem>.spans.jsonl`.
fn write_record(stem: &str, notes: &[String], json: &str, spans: &str) -> std::io::Result<()> {
    let dir = Path::new(".bench_out");
    std::fs::create_dir_all(dir)?;
    let mut text = notes.join("\n");
    text.push('\n');
    text.push_str(json);
    text.push('\n');
    std::fs::write(dir.join(format!("{stem}.txt")), text)?;
    if !spans.is_empty() {
        std::fs::write(dir.join(format!("{stem}.spans.jsonl")), spans)?;
    }
    Ok(())
}
