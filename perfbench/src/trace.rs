//! Spans around the calls the traced run makes into each layer.
//!
//! A [`Tracer`] records one traced run: every span (layer, start, end, parent)
//! stays in memory until the run is over. Spans nest through a thread-local
//! "current span"; sweep cells run on worker threads and are parented to
//! their sweep explicitly. From the spans come each layer's counts and busy
//! time, and its self time: the wall time during which one of its spans was
//! a leaf (no child span open), shared equally among the leaves open at the
//! same instant. Self times therefore add up to the run's wall time, with the
//! time in no layer span reported as `trace.unattributed_s`.

use gpu_sim::{ExecReport, GpuSystem, GridLaunch, RunArtifacts, RunOptions};
use sim_core::SimResult;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use sync_micro::sweep::Sweep;

/// The layer a span belongs to: one per library module the benchmark calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The traced run itself (root span).
    Run,
    /// One `sync_micro::sweep::Sweep` call.
    Sweep,
    /// One cell of a sweep; its self time counts towards `sweep`.
    Cell,
    /// A `gpu_sim::kernels` builder.
    Kernels,
    /// `GpuSystem::new/reset/alloc*`.
    System,
    /// `GpuSystem::execute`.
    Execute,
    /// `cuda_rt::HostSim` launch, synchronization and copy paths.
    HostSim,
    /// A `reduction::measure_*` sample.
    Reduction,
    /// A `sync_micro::report`/`plot` renderer.
    Render,
}

impl Layer {
    pub const ALL: [Layer; 9] = [
        Layer::Run,
        Layer::Sweep,
        Layer::Cell,
        Layer::Kernels,
        Layer::System,
        Layer::Execute,
        Layer::HostSim,
        Layer::Reduction,
        Layer::Render,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Run => "run",
            Layer::Sweep => "sweep",
            Layer::Cell => "cell",
            Layer::Kernels => "kernels",
            Layer::System => "system",
            Layer::Execute => "execute",
            Layer::HostSim => "hostsim",
            Layer::Reduction => "reduction",
            Layer::Render => "render",
        }
    }

    /// Where the span's self time is reported.
    fn self_key(self) -> &'static str {
        match self {
            Layer::Run => "trace.unattributed_s",
            Layer::Sweep | Layer::Cell => "sweep.self_s",
            Layer::Kernels => "kernels.self_s",
            Layer::System => "system.self_s",
            Layer::Execute => "execute.self_s",
            Layer::HostSim => "hostsim.self_s",
            Layer::Reduction => "reduction.self_s",
            Layer::Render => "render.self_s",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    /// 0 for the root span.
    pub parent: u32,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Workers a sweep span could keep busy (0 for other layers).
    pub width: u32,
}

impl Span {
    fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

thread_local! {
    /// The innermost open span of this thread's current traced run.
    static CURRENT: Cell<u32> = const { Cell::new(0) };
}

/// Run `f` with `id` as this thread's current span.
fn under<T>(id: u32, f: impl FnOnce() -> T) -> T {
    let prev = CURRENT.with(|c| c.replace(id));
    let r = f();
    CURRENT.with(|c| c.set(prev));
    r
}

/// One traced run's span log and engine counters.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
    direct_instrs: AtomicU64,
    warps: AtomicU64,
    blocks: AtomicU64,
    sim_ps: AtomicU64,
    reduced_bytes: AtomicU64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
            direct_instrs: AtomicU64::new(0),
            warps: AtomicU64::new(0),
            blocks: AtomicU64::new(0),
            sim_ps: AtomicU64::new(0),
            reduced_bytes: AtomicU64::new(0),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn span_with<T>(&self, layer: Layer, width: u32, f: impl FnOnce() -> T) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = CURRENT.with(|c| c.get());
        let start_ns = self.now_ns();
        let r = under(id, f);
        let end_ns = self.now_ns();
        self.spans.lock().expect("span log lock").push(Span {
            id,
            parent,
            layer,
            start_ns,
            end_ns,
            width,
        });
        r
    }

    /// Time `f` as one span of `layer`, nested under the current span.
    pub fn span<T>(&self, layer: Layer, f: impl FnOnce() -> T) -> T {
        self.span_with(layer, 0, f)
    }

    /// Run `items` through a `Sweep` of `workers` (with per-worker state from
    /// `init`), one `cell` span per item under one `sweep` span.
    pub fn sweep<I, T, S>(
        &self,
        workers: usize,
        items: Vec<I>,
        init: impl Fn() -> S + Sync,
        f: impl Fn(&mut S, I) -> SimResult<T> + Sync,
    ) -> SimResult<Vec<T>>
    where
        I: Send,
        T: Send,
    {
        let width = workers.min(items.len()).max(1) as u32;
        self.span_with(Layer::Sweep, width, || {
            let sweep = CURRENT.with(|c| c.get());
            Sweep::new()
                .jobs(workers)
                .init(|| under(sweep, &init))
                .try_run(items, |state, item| {
                    under(sweep, || self.span(Layer::Cell, || f(state, item)))
                })
        })
    }

    /// Count the simulated work of a launch whose report the benchmark sees.
    pub fn record(&self, report: &ExecReport) {
        self.warps.fetch_add(report.warps_run, Ordering::Relaxed);
        self.blocks.fetch_add(report.blocks_run, Ordering::Relaxed);
        self.sim_ps.fetch_add(report.duration.0, Ordering::Relaxed);
    }

    /// `GpuSystem::execute` with default options, as one `execute` span.
    pub fn execute(&self, sys: &mut GpuSystem, launch: &GridLaunch) -> SimResult<RunArtifacts> {
        let arts = self.span(Layer::Execute, || sys.execute(launch, &RunOptions::new()))?;
        self.direct_instrs
            .fetch_add(arts.report.instrs_executed, Ordering::Relaxed);
        self.record(&arts.report);
        Ok(arts)
    }

    /// Count bytes a reduction sample reduced.
    pub fn reduced(&self, bytes: u64) {
        self.reduced_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Run the whole traced run `f` as the root span.
    pub fn run<T>(&self, f: impl FnOnce() -> T) -> T {
        under(0, || self.span(Layer::Run, f))
    }

    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span log lock").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// Per-layer metrics of a finished run. `engine_instrs` is every
    /// instruction the run simulated, counted by the library.
    pub fn metrics(&self, engine_instrs: u64) -> BTreeMap<&'static str, f64> {
        let spans = self.spans();
        let mut m = BTreeMap::new();
        let of = |layer: Layer| spans.iter().filter(move |s| s.layer == layer);
        let count = |layer: Layer| of(layer).count() as f64;
        let busy = |layer: Layer| of(layer).map(Span::secs).fold(0.0, |a, b| a + b);

        let capacity: f64 = of(Layer::Sweep).map(|s| s.width as f64 * s.secs()).sum();
        m.insert("sweep.cells", count(Layer::Cell));
        m.insert("sweep.busy_s", busy(Layer::Cell));
        m.insert(
            "sweep.idle_frac",
            if capacity > 0.0 {
                1.0 - busy(Layer::Cell) / capacity
            } else {
                0.0
            },
        );
        m.insert(
            "sweep.max_cell_s",
            of(Layer::Cell).map(Span::secs).fold(0.0, f64::max),
        );
        m.insert("kernels.calls", count(Layer::Kernels));
        m.insert("kernels.build_s", busy(Layer::Kernels));
        m.insert("system.calls", count(Layer::System));
        m.insert("system.setup_s", busy(Layer::System));

        let mut exec_ms: Vec<f64> = of(Layer::Execute).map(|s| s.secs() * 1e3).collect();
        exec_ms.sort_by(f64::total_cmp);
        let direct = self.direct_instrs.load(Ordering::Relaxed);
        m.insert("execute.calls", count(Layer::Execute));
        m.insert("execute.busy_s", busy(Layer::Execute));
        m.insert("execute.ms_p50", nearest_rank(&exec_ms, 0.50));
        m.insert("execute.ms_p90", nearest_rank(&exec_ms, 0.90));
        m.insert(
            "execute.ns_per_instr",
            if direct > 0 {
                busy(Layer::Execute) * 1e9 / direct as f64
            } else {
                0.0
            },
        );
        m.insert("hostsim.calls", count(Layer::HostSim));
        m.insert("hostsim.busy_s", busy(Layer::HostSim));

        let gb = self.reduced_bytes.load(Ordering::Relaxed) as f64 / 1e9;
        m.insert("reduction.calls", count(Layer::Reduction));
        m.insert("reduction.busy_s", busy(Layer::Reduction));
        m.insert("reduction.gb", gb);
        m.insert(
            "reduction.s_per_gb",
            if gb > 0.0 {
                busy(Layer::Reduction) / gb
            } else {
                0.0
            },
        );
        m.insert("render.calls", count(Layer::Render));
        m.insert("render.s", busy(Layer::Render));

        m.insert("engine.instrs", engine_instrs as f64);
        m.insert("engine.warps", self.warps.load(Ordering::Relaxed) as f64);
        m.insert("engine.blocks", self.blocks.load(Ordering::Relaxed) as f64);
        m.insert(
            "engine.sim_ms",
            self.sim_ps.load(Ordering::Relaxed) as f64 * 1e-9,
        );
        m.insert("trace.wall_s", busy(Layer::Run));
        m.extend(self_times(&spans));
        m
    }
}

/// The value at quantile `q` of ascending `sorted` (nearest rank); 0 if empty.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Each layer's self time (see the module docs), keyed as in the metrics.
/// `spans` must be sorted by id, with ids dense from 1.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> =
        Layer::ALL.iter().map(|l| (l.self_key(), 0.0)).collect();
    // Events: starts before ends at the same instant; parents (lower ids)
    // start first and end last.
    let mut events: Vec<(u64, u8, i64, usize)> = Vec::with_capacity(2 * spans.len());
    for (i, s) in spans.iter().enumerate() {
        events.push((s.start_ns, 0, s.id as i64, i));
        events.push((s.end_ns, 1, -(s.id as i64), i));
    }
    events.sort_unstable();
    let index = |id: u32| id as usize - 1;
    let mut open = vec![false; spans.len()];
    let mut open_children = vec![0u32; spans.len()];
    let mut leaves: BTreeMap<&'static str, u32> = BTreeMap::new();
    let mut total_leaves = 0u32;
    let mut last = events.first().map_or(0, |e| e.0);
    for (t, kind, _, i) in events {
        if t > last && total_leaves > 0 {
            let dt = (t - last) as f64 * 1e-9 / total_leaves as f64;
            for (key, &n) in &leaves {
                *out.get_mut(key).expect("layer seen") += dt * n as f64;
            }
        }
        last = t;
        let s = &spans[i];
        let parent = (s.parent != 0).then(|| index(s.parent));
        let mut adjust = |i: usize, delta: i32| {
            let n = leaves.entry(spans[i].layer.self_key()).or_insert(0);
            *n = n.wrapping_add_signed(delta);
            total_leaves = total_leaves.wrapping_add_signed(delta);
        };
        if kind == 0 {
            open[i] = true;
            if let Some(p) = parent.filter(|&p| open[p]) {
                if open_children[p] == 0 {
                    adjust(p, -1);
                }
                open_children[p] += 1;
            }
            adjust(i, 1);
        } else {
            open[i] = false;
            if open_children[i] == 0 {
                adjust(i, -1);
            }
            if let Some(p) = parent.filter(|&p| open[p]) {
                open_children[p] -= 1;
                if open_children[p] == 0 {
                    adjust(p, 1);
                }
            }
        }
    }
    out
}

/// Spans as JSON lines (one object per span), tagged with the run id.
pub fn spans_json(run: usize, spans: &[Span]) -> String {
    let mut s = String::new();
    for sp in spans {
        s.push_str(&format!(
            "{{\"run\": {run}, \"id\": {}, \"parent\": {}, \"layer\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            sp.id,
            sp.parent,
            sp.layer.name(),
            sp.start_ns,
            sp.end_ns
        ));
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, layer: Layer, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            layer,
            start_ns,
            end_ns,
            width: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_splits_parallel_leaves() {
        // run [0,100): sweep [10,90) with two overlapping cells on two
        // workers; an execute span inside the first cell.
        let spans = vec![
            span(1, 0, Layer::Run, 0, 100),
            span(2, 1, Layer::Sweep, 10, 90),
            span(3, 2, Layer::Cell, 20, 60),
            span(4, 2, Layer::Cell, 30, 80),
            span(5, 3, Layer::Execute, 40, 50),
        ];
        let t = self_times(&spans);
        let ns = |k: &str| (t[k] * 1e9).round();
        assert_eq!(ns("trace.unattributed_s"), 20.0);
        assert_eq!(ns("execute.self_s"), 5.0); // shared with cell 4
                                               // sweep: [10,20) + [80,90) alone, cells: [20,30) + [30,40)/2 +
                                               // [50,60)/2 + [60,80) + the other half of [40,50).
        assert_eq!(ns("sweep.self_s"), 75.0);
        let total: f64 = t.values().sum();
        assert!((total * 1e9 - 100.0).abs() < 1e-6);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(nearest_rank(&v, 0.5), 5.0);
        assert_eq!(nearest_rank(&v, 0.9), 9.0);
        assert_eq!(nearest_rank(&[], 0.9), 0.0);
    }
}
