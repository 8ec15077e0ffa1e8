//! The syncmark benchmark: seeded paper workloads timed end to end through
//! the library's figure-level entry points, plus a traced run one level down
//! that splits host time across the library's layers. See `README.md` in
//! this directory for the metrics and workloads.

pub mod plan;
pub mod render;
pub mod trace;
pub mod traced;
pub mod untraced;

use gpu_sim::kernels::{self, SyncOp};
use gpu_sim::ProfileReport;
use plan::{Plan, Workload, PAPER_SEED};
use sim_core::{SimError, SimResult};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::time::Instant;
use sync_micro::measure::Placement;
use sync_micro::{grid_sync, multi_gpu};
use trace::Tracer;

/// One rendered artifact of a run, with the points behind it.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// The `results/<name>.txt` it reproduces.
    pub name: &'static str,
    pub points: usize,
    pub output: Option<String>,
    /// Points that errored, are missing, or are wrong.
    pub failed: usize,
}

/// The artifacts of one run, in plan order.
#[derive(Debug, Clone)]
pub struct Artifacts(pub Vec<Artifact>);

impl Artifacts {
    /// Every artifact of `plan`, all missing until [`Artifacts::put`].
    pub fn new(plan: &Plan) -> Artifacts {
        Artifacts(
            plan.artifacts()
                .into_iter()
                .map(|(name, points)| Artifact {
                    name,
                    points,
                    output: None,
                    failed: points,
                })
                .collect(),
        )
    }

    /// Record an artifact's rendering and its count of wrong samples, or the
    /// error that stopped it: a `CellErrors` summary fails the cells it
    /// counts, any other error every point of the artifact.
    pub fn put(&mut self, name: &str, r: SimResult<(String, usize)>) {
        let a = self
            .0
            .iter_mut()
            .find(|a| a.name == name)
            .expect("artifact is in the plan");
        match r {
            Ok((text, wrong)) => {
                a.output = Some(text);
                a.failed = wrong;
            }
            Err(SimError::CellErrors { errors, dropped }) => {
                a.failed = (errors.len() + dropped as usize).min(a.points);
            }
            Err(_) => a.failed = a.points,
        }
    }
}

/// Build every interned kernel the workload launches, so that timed runs
/// start with `kernels::interned` filled.
pub fn warm_kernels(plan: &Plan) {
    match plan.workload {
        Workload::GridSweep => {
            for op in [
                SyncOp::Tile(32),
                SyncOp::ShflTile,
                SyncOp::Coalesced,
                SyncOp::ShflCoalesced,
                SyncOp::Block,
            ] {
                kernels::sync_chain(op, plan::LAT_REPS);
                kernels::sync_throughput(op, plan::THR_REPS);
            }
            kernels::sync_chain(SyncOp::Block, plan::BLOCK_LAT_REPS);
            kernels::sync_chain(SyncOp::Grid, plan::HEATMAP_REPS);
            kernels::coalesced_partial_chain(16, plan::LAT_REPS);
            for k in [1, 8, 16, 31] {
                kernels::coalesced_partial_throughput(k, plan::THR_REPS);
            }
        }
        Workload::MultigridNode => {
            kernels::sync_chain(SyncOp::MultiGrid, plan::HEATMAP_REPS);
        }
        // The reduction kernels are built per sample inside `reduction`.
        Workload::ReductionCase => {}
    }
}

/// Barrier-wait and memory shares of simulated warp time, from an untimed
/// pass through the library's profiled entry points. The reduction study has
/// none, so its shares are 0.
pub fn profile_shares(plan: &Plan) -> SimResult<(f64, f64)> {
    let mut reports: Vec<ProfileReport> = Vec::new();
    match plan.workload {
        Workload::GridSweep => {
            for arch in plan.archs() {
                reports.push(grid_sync::figure5_profiled(arch)?.1);
            }
        }
        Workload::MultigridNode => {
            for &n in &plan.fig8_counts {
                let placement = Placement::multi(plan.node.clone(), n);
                let op = SyncOp::MultiGrid;
                reports.push(grid_sync::sync_heatmap_profiled(&plan.v100, &placement, op, "")?.1);
            }
            let counts = &plan.fig9_counts;
            reports.push(multi_gpu::figure9_profiled(&plan.v100, &plan.node, counts)?.1);
        }
        Workload::ReductionCase => {}
    }
    let totals = reports.iter().flat_map(|r| &r.kernels).map(|k| &k.totals);
    let (mut total, mut barrier, mut mem) = (0u64, 0u64, 0u64);
    for t in totals {
        total += t.total_ps();
        barrier += t.total_barrier_wait_ps();
        mem += t.mem_ps;
    }
    if total == 0 {
        return Ok((0.0, 0.0));
    }
    Ok((barrier as f64 / total as f64, mem as f64 / total as f64))
}

/// The per-layer counts that must repeat exactly across runs, worker counts
/// and speed-only changes. (`system.calls` is not among them: Fig. 5 builds
/// one reusable system per sweep worker.)
pub const DETERMINISTIC: [&str; 11] = [
    "engine.blocks",
    "engine.instrs",
    "engine.sim_ms",
    "engine.warps",
    "execute.calls",
    "hostsim.calls",
    "kernels.calls",
    "reduction.calls",
    "reduction.gb",
    "render.calls",
    "sweep.cells",
];

/// One traced run: its artifacts, wall seconds, per-layer metrics and spans.
pub struct TracedRun {
    pub artifacts: Artifacts,
    pub wall_s: f64,
    pub metrics: BTreeMap<&'static str, f64>,
    pub spans: Vec<trace::Span>,
}

/// Run `plan` traced on `workers` sweep workers. Instructions are counted
/// through the library's process-wide counter, so nothing else may simulate
/// in this process meanwhile.
pub fn traced_run(plan: &Plan, workers: usize) -> TracedRun {
    let tr = Tracer::default();
    gpu_sim::stats::reset_instrs();
    let t = Instant::now();
    let artifacts = tr.run(|| traced::run(&tr, plan, workers));
    let wall_s = t.elapsed().as_secs_f64();
    let metrics = tr.metrics(gpu_sim::stats::instrs_executed());
    TracedRun {
        artifacts,
        wall_s,
        metrics,
        spans: tr.spans(),
    }
}

/// Whether the self times (with the unattributed remainder) add up to the
/// traced wall time.
pub fn self_times_add_up(m: &BTreeMap<&'static str, f64>) -> bool {
    let sum: f64 = m
        .iter()
        .filter(|(k, _)| k.ends_with(".self_s") || **k == "trace.unattributed_s")
        .map(|(_, v)| v)
        .sum();
    (sum - m["trace.wall_s"]).abs() <= 1e-6 * m["trace.wall_s"] + 1e-9
}

/// What a benchmark invocation asks for.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// A metric as reported: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// The result of one invocation.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    /// Failed checks that are not per-point (empty when correct).
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Human-readable lines: run record, sample counts, percentiles.
    pub notes: Vec<String>,
    /// JSON lines of every span of the traced runs (empty untraced).
    pub spans: String,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// Counts attempted and failed points across runs and checks every run's
/// output against the reference (paper seed) and the first run.
struct Tally {
    reference: Option<Vec<Option<String>>>,
    first: Option<Vec<Option<String>>>,
    attempted: usize,
    failed: usize,
}

impl Tally {
    fn add(&mut self, arts: &Artifacts) {
        let outputs: Vec<Option<String>> = arts.0.iter().map(|a| a.output.clone()).collect();
        let first = self.first.get_or_insert_with(|| outputs.clone());
        for (i, a) in arts.0.iter().enumerate() {
            let off_reference = self
                .reference
                .as_ref()
                .is_some_and(|r| r[i].is_none() || r[i] != a.output);
            let off_first = first[i] != a.output;
            self.attempted += a.points;
            self.failed += if off_reference || off_first {
                a.points
            } else {
                a.failed
            };
        }
    }
}

/// The committed `results/<name>.txt` of each artifact (run from the
/// repository root); `None` where it cannot be read.
fn load_reference(plan: &Plan) -> Vec<Option<String>> {
    plan.artifacts()
        .iter()
        .map(|(name, _)| std::fs::read_to_string(format!("results/{name}.txt")).ok())
        .collect()
}

/// Run `f` until `budget_s` has passed and at least `min_runs` ran; the
/// seconds each run reported for its timed part.
fn repeat(budget_s: f64, min_runs: usize, mut f: impl FnMut() -> f64) -> Vec<f64> {
    let start = Instant::now();
    let mut walls = Vec::new();
    while walls.len() < min_runs || start.elapsed().as_secs_f64() < budget_s {
        walls.push(f());
    }
    walls
}

/// Seconds `f` takes.
fn timed(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest percentile with at least ten samples beyond it, as
/// (percent, value), when it lies above the median (20 samples or more).
pub fn tail(v: &[f64]) -> Option<(f64, f64)> {
    let n = v.len();
    if n < 20 {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    Some((100.0 * (n - 10) as f64 / n as f64, s[n - 11]))
}

/// One line describing timing samples: count, median, tail, every sample.
fn describe(what: &str, v: &[f64]) -> String {
    let tail = match tail(v) {
        Some((pct, t)) => format!("p{pct:.0} {t:.4} s"),
        None => "no percentile above the median has 10 runs beyond it".into(),
    };
    let all: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
    format!(
        "{what}: {} runs, median {:.4} s, {tail}; runs (s): {}",
        v.len(),
        median(v),
        all.join(" ")
    )
}

/// Start a fresh process of this benchmark that only sets up, and time it
/// from spawn until it reports ready.
fn setup_probe(o: &Options) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let t = Instant::now();
    let mut child = Command::new(exe)
        .args(["--setup-probe", "--workload", o.workload.name()])
        .args(["--seed", &o.seed.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start setup probe: {e}"))?;
    let mut line = String::new();
    let stdout = child.stdout.take().expect("stdout was piped");
    let read = BufReader::new(stdout).read_line(&mut line);
    let elapsed = t.elapsed().as_secs_f64();
    let status = child.wait().map_err(|e| format!("setup probe: {e}"))?;
    match read {
        Ok(_) if line.trim() == "ready" && status.success() => Ok(elapsed),
        _ => Err(format!("setup probe failed ({status})")),
    }
}

/// The set-up a timed run needs: the seeded inputs and every interned kernel.
pub fn setup(workload: Workload, seed: u64) -> Plan {
    let plan = Plan::new(workload, seed);
    warm_kernels(&plan);
    plan
}

/// Set-up probes before the first run; one more follows every untraced run.
const SETUP_PROBES: usize = 9;

/// Run the benchmark as `o` asks.
pub fn bench(o: &Options) -> Result<Outcome, String> {
    let mut setup_samples = (0..SETUP_PROBES)
        .map(|_| setup_probe(o))
        .collect::<Result<Vec<f64>, String>>()?;
    let plan = setup(o.workload, o.seed);
    let workers = o.workload.workers();
    sync_micro::sweep::Sweep::set_default_jobs(workers);
    let mut tally = Tally {
        reference: (o.seed == PAPER_SEED).then(|| load_reference(&plan)),
        first: None,
        attempted: 0,
        failed: 0,
    };
    let points = plan.points() as f64;
    let mut notes = vec![record(o, workers)];
    let mut problems = Vec::new();
    let mut metrics: Vec<Metric> = Vec::new();
    let mut spans = String::new();

    // Untraced runs. Each also resets the process's peak RSS, reads it back
    // after the run, and is followed by a set-up probe, so both are sampled
    // across the whole measurement window.
    let untraced_budget = if o.trace { o.seconds / 2.0 } else { o.seconds };
    let mut rss_samples = Vec::new();
    let mut probe_error = None;
    let walls = repeat(untraced_budget, if o.trace { 1 } else { 2 }, || {
        reset_peak_rss();
        let wall = timed(|| tally.add(&untraced::run(&plan)));
        if !o.trace {
            rss_samples.push(peak_rss_mb());
            match setup_probe(o) {
                Ok(s) => setup_samples.push(s),
                Err(e) => probe_error = Some(e),
            }
        }
        wall
    });
    if let Some(e) = probe_error {
        return Err(e);
    }
    let wall = median(&walls);
    notes.push(describe(&format!("untraced ({points} points)"), &walls));

    if !o.trace {
        let setup_s = median(&setup_samples);
        let rss: Option<Vec<f64>> = rss_samples.into_iter().collect();
        let rss = median(&rss.ok_or("cannot read peak RSS from /proc/self/status")?);
        notes.push(describe("setup", &setup_samples));
        metrics.push(("wall_s".into(), wall, "s"));
        metrics.push(("points_per_s".into(), points / wall, "1/s"));
        metrics.push(("setup_s".into(), setup_s, "s"));
        metrics.push(("peak_rss_mb".into(), rss, "MB"));
    } else {
        let mut runs: Vec<BTreeMap<&'static str, f64>> = Vec::new();
        let traced_walls = repeat(o.seconds / 2.0, 1, || {
            let run = traced_run(&plan, workers);
            tally.add(&run.artifacts);
            spans.push_str(&trace::spans_json(runs.len(), &run.spans));
            runs.push(run.metrics);
            run.wall_s
        });
        for (i, m) in runs.iter().enumerate() {
            if !self_times_add_up(m) {
                problems.push(format!(
                    "traced run {i}: self times do not add up to its wall"
                ));
            }
            for key in DETERMINISTIC {
                if m[key] != runs[0][key] {
                    problems.push(format!("traced run {i}: {key} differs from run 0"));
                }
            }
        }
        let (barrier, mem) = profile_shares(&plan).map_err(|e| format!("profiled pass: {e}"))?;
        for key in runs[0].keys() {
            let values: Vec<f64> = runs.iter().map(|m| m[key]).collect();
            metrics.push((key.to_string(), median(&values), unit(key)));
        }
        metrics.push(("engine.barrier_wait_share".into(), barrier, "fraction"));
        metrics.push(("engine.mem_share".into(), mem, "fraction"));
        metrics.push(("trace.overhead_s".into(), median(&traced_walls) - wall, "s"));
        metrics.sort_by(|a, b| a.0.cmp(&b.0));
        notes.push(describe("traced", &traced_walls));
    }
    notes.push(format!(
        "failed_frac: {} of {} points",
        tally.failed, tally.attempted
    ));
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        problems,
        metrics,
        notes,
        spans,
    })
}

/// The unit of a per-layer metric, from its name.
pub fn unit(key: &str) -> &'static str {
    let leaf = key.rsplit('.').next().unwrap_or(key);
    match leaf {
        "calls" | "cells" | "instrs" | "warps" | "blocks" => "count",
        "idle_frac" | "barrier_wait_share" | "mem_share" => "fraction",
        "ms_p50" | "ms_p90" | "sim_ms" => "ms",
        "ns_per_instr" => "ns",
        "gb" => "GB",
        "s_per_gb" => "s/GB",
        _ => "s",
    }
}

/// Restart the process's peak-RSS count from its current RSS. Best effort:
/// where the kernel refuses, the peak covers the whole process so far.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident memory of this process since the last reset, MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The run record: host, build and inputs.
fn record(o: &Options, workers: usize) -> String {
    format!(
        "record: workload={} seed={} trace={} nproc={} sweep_workers={} profile={} rustc=\"{}\" commit={}",
        o.workload.name(),
        o.seed,
        o.trace as u8,
        sync_micro::sweep::default_jobs(),
        workers,
        if cfg!(debug_assertions) { "debug" } else { "release" },
        env!("PERFBENCH_RUSTC"),
        git_commit().unwrap_or_else(|| "unknown".into()),
    )
}

/// The commit checked out in the current directory, read from `.git`
/// without running git (a plain source tree has none).
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// The last line of a run's output: the result object.
pub fn result_json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}
