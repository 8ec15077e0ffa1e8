//! The SIMT discrete-event execution engine.
//!
//! Warps are the scheduled entities. Threads within a warp are grouped by
//! program counter; the scheduler always runs the lowest-PC group, which
//! gives structured reconvergence *and* the serialized divergent-branch
//! staircase of the paper's Fig. 18. On architectures without independent
//! thread scheduling (Pascal), warp-level barriers never block — they are
//! plain fences — reproducing §VIII-A.
//!
//! Timing comes from per-SM / per-device pipelined resources (schedulers,
//! barrier unit, warp-sync unit, shared-memory port, L2 atomic unit, DRAM
//! channel) plus per-instruction latencies from [`gpu_arch::TimingParams`].

use crate::fault::{self, FaultPlan};
use crate::isa::{Instr, Operand, Program, Reg, ShflKind, ShflMode, Special, NUM_REGS};
use crate::mem::{self, Buffer, GlobalAgent, GlobalHazard, GlobalRaceCheck, Hazard, SharedMem};
use crate::profile::{BarrierEpoch, ProfileReport, SmProfile, SyncScope, EPOCH_CAP};
use crate::system::{ExecReport, GpuSystem, GridLaunch, RunArtifacts, RunOptions};
use gpu_arch::GpuArch;
use gpu_node::NodeTopology;
use serde::{Deserialize, Serialize};
use sim_core::{Channel, EventQueue, Pipeline, Ps, SimError, SimResult, StuckKind, StuckWarp};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

const WARP: u32 = 32;
const FULL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
enum Ev {
    /// (warp index, generation).
    WarpStep(u32, u32),
    StartBlock(u32),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockWaitKind {
    None,
    Block,
    Grid,
    MultiGrid,
}

/// The hot record of one warp: everything a step reads or writes on the
/// converged path, packed into one 64-byte cache line. Per-lane PCs (needed
/// only while the warp is diverged), watchdog watermarks and profiling
/// anchors live in side tables of the engine indexed like `Engine::warps`;
/// registers live in the engine's register file at flat offset `regs`.
#[derive(Debug)]
#[repr(C, align(64))]
struct Warp {
    /// Lanes present in this warp (a tail warp of a non-multiple-of-32
    /// block has fewer than 32).
    present: u32,
    /// Lanes that have exited the kernel.
    exited: u32,
    /// Lanes parked at a warp-level (tile) barrier.
    wb_wait: u32,
    /// Lanes parked at a block/grid/multi-grid barrier.
    blk_wait: u32,
    /// Mask of the group that executed last step (divergence accounting).
    last_mask: u32,
    /// While `converged`, the PC of every live lane. Stale otherwise:
    /// `Engine::lane_pcs` then holds each lane's own PC.
    pc: u32,
    gen: u32,
    /// Engine-global block index.
    block: u32,
    /// Flat offset of this warp's slot in the engine's register file.
    regs: u32,
    rank: u32,
    sm: u32,
    /// Index of the warp's issue slot in `Engine::scheds`.
    sched: u32,
    warp_in_block: u32,
    /// Fault-injection latency multiplier (permille; 1000 = unfaulted),
    /// drawn once per warp from the plan's seed at block start.
    mult_permille: u32,
    wb_width: u8,
    blk_kind: BlockWaitKind,
    /// Every live lane sits at `pc`, so a step takes the whole live mask as
    /// its group without scanning per-lane PCs.
    converged: bool,
    /// Last step ended with a group blocking at a warp barrier (Volta
    /// re-queue cost — the Fig. 18 staircase driver).
    prev_blocked_at_warp_barrier: bool,
    /// Previous executed instruction was a coalesced shuffle (the software
    /// path's group descriptor is hot; see Table V's cold-path column).
    coa_shfl_hot: bool,
    done: bool,
}

const _: () = assert!(std::mem::size_of::<Warp>() == 64);

impl Warp {
    /// Lanes that have not exited.
    fn live(&self) -> u32 {
        self.present & !self.exited
    }

    fn runnable(&self) -> u32 {
        self.live() & !(self.wb_wait | self.blk_wait)
    }
}

/// Min-PC group selection over per-lane PCs: the lowest PC among the
/// `runnable` lanes and the mask of lanes sitting at it (`& 31` proves the
/// index in bounds so the fixed-array access needs no check).
fn min_pc_group(pcs: &[u32; 32], runnable: u32) -> (u32, u32) {
    let mut min_pc = u32::MAX;
    let mut group = 0u32;
    for lane in iter_lanes(runnable) {
        let pc = pcs[(lane & 31) as usize];
        if pc < min_pc {
            min_pc = pc;
            group = 1 << lane;
        } else if pc == min_pc {
            group |= 1 << lane;
        }
    }
    (min_pc, group)
}

/// Debug builds keep every warp's per-lane PCs current even while it is
/// converged, as a shadow that `step_warp` checks each converged group
/// selection against.
const SHADOW_LANE_PCS: bool = cfg!(debug_assertions);

/// When profiling: the time a warp's first group parked at its current
/// warp-level and block-level barrier (stall-attribution anchors).
#[derive(Debug, Clone, Copy, Default)]
struct ParkedAt {
    warp_barrier: Ps,
    block_barrier: Ps,
}

#[derive(Debug)]
struct BlockRt {
    rank: u32,
    sm: u32,
    block_on_device: u32,
    /// Engine-global warp index of warp 0; warps are contiguous.
    warp_start: u32,
    nwarps: u32,
    live_warps: u32,
    /// Block-barrier round state.
    bar_arrived: u32,
    bar_waiting: Vec<u32>,
    bar_last: Ps,
    started: bool,
    done: bool,
    smem: SharedMem,
}

/// Per-round state of one device's grid barrier.
#[derive(Debug, Default)]
struct GridBar {
    arrived: u32,
    /// (block index, leader-atomic completion, kind).
    waiting: Vec<(u32, Ps)>,
}

/// A grid or multi-grid release before its wakes are queued: one train per
/// released block, in release order, for [`EventQueue::hand_over`]. Kept
/// across releases so its buffers are reused.
#[derive(Debug, Default)]
struct Release {
    /// (first wake, warps woken) per block.
    trains: Vec<(Ps, u32)>,
    /// The block of each train; its `bar_waiting` lists the warps in ramp
    /// order.
    blocks: Vec<u32>,
}

/// Per-round state of the node-wide multi-grid barrier.
#[derive(Debug, Default)]
struct MultiGridBar {
    ranks_arrived: u32,
    /// Per-rank local completion time.
    rank_done: Vec<Option<Ps>>,
}

struct SmExec {
    barrier_unit: Pipeline,
    sync_unit: Pipeline,
    smem_port: Pipeline,
}

struct DevExec {
    device_id: usize,
    l2: Pipeline,
    dram: Channel,
    sms: Vec<SmExec>,
    /// Engine block indices not yet started (traditional oversubscription).
    pending: Vec<u32>,
    resident: Vec<u32>,
    max_resident_per_sm: u32,
    blocks_done: u32,
    end_time: Ps,
    grid_bar: GridBar,
}

/// One shared-memory hazard detected by the dynamic racecheck, located
/// within the launch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HazardRecord {
    /// Device rank within the launch.
    pub rank: u32,
    /// Block index on its device.
    pub block: u32,
    pub hazard: Hazard,
}

/// All hazards a `checked()` run detected, in deterministic (block-major)
/// order. Empty for racecheck-clean kernels.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct HazardReport {
    pub records: Vec<HazardRecord>,
    /// Hazards beyond the per-block recording cap, counted but not stored.
    pub dropped: u32,
    /// Global-memory hazards, in the launch-wide execution order they were
    /// detected (deterministic).
    pub global: Vec<GlobalHazard>,
    /// Global hazards beyond the launch-wide recording cap.
    pub global_dropped: u32,
}

impl HazardReport {
    pub fn is_clean(&self) -> bool {
        self.records.is_empty()
            && self.dropped == 0
            && self.global.is_empty()
            && self.global_dropped == 0
    }

    /// Total recorded hazards across both address spaces.
    pub fn total(&self) -> usize {
        self.records.len() + self.global.len()
    }

    /// Render with disassembly context (byte-deterministic).
    pub fn render(&self, program: &Program) -> String {
        let mut s = format!("racecheck: {} hazard(s)\n", self.total());
        for r in &self.records {
            let h = &r.hazard;
            s.push_str(&format!(
                "  {} at shared word {} (rank {}, block {}, epoch {}): \
                 thread {} then thread {}\n",
                h.kind.slug(),
                h.addr,
                r.rank,
                r.block,
                h.epoch,
                h.first_thread,
                h.second_thread
            ));
            if let Some(pc) = h.pc {
                s.push_str(&crate::verify::context_lines(program, pc));
            }
        }
        if self.dropped > 0 {
            s.push_str(&format!(
                "  ... and {} more (per-block cap)\n",
                self.dropped
            ));
        }
        for h in &self.global {
            s.push_str(&format!(
                "  {} at global buf {} word {} (epoch {}): \
                 rank {} block {} thread {} then rank {} block {} thread {}\n",
                h.kind.slug(),
                h.buf,
                h.idx,
                h.epoch,
                h.first.rank,
                h.first.block,
                h.first.thread,
                h.second.rank,
                h.second.block,
                h.second.thread
            ));
            if let Some(pc) = h.pc {
                s.push_str(&crate::verify::context_lines(program, pc));
            }
        }
        if self.global_dropped > 0 {
            s.push_str(&format!(
                "  ... and {} more global (launch-wide cap)\n",
                self.global_dropped
            ));
        }
        s
    }
}

/// One recorded execution step (see [`crate::system::RunOptions::trace`]).
#[derive(Debug, Clone)]
pub struct TraceEvent {
    pub at: Ps,
    /// Device rank within the launch.
    pub rank: u32,
    pub sm: u32,
    /// Block index on its device.
    pub block: u32,
    pub warp_in_block: u32,
    /// Mask of lanes that executed.
    pub lanes: u32,
    pub pc: u32,
    pub instr: Instr,
}

pub(crate) struct Engine<'a> {
    sys: &'a mut GpuSystem,
    launch: &'a GridLaunch,
    arch: Arc<GpuArch>,
    ps_per_cycle: f64,
    lat: LatTab,
    /// Where each register the launched program references lives in a
    /// warp's slot, computed once per launch.
    reg_layout: RegLayout,
    /// One register file for every live warp of the launch, addressed by
    /// flat word offset and stored in pages of [`REG_PAGE_WORDS`] words. A
    /// warp's slot starts at `Warp::regs` and holds
    /// [`RegLayout::slot_words`] words: a 32-word column per register whose
    /// lanes may differ (lane `l` of register `r` is word
    /// `regs + at[r] + l`, four cache lines per column, which is what the
    /// per-instruction lane loops walk), then one word per warp-uniform
    /// register. No slot straddles a page, so a register column is always
    /// one contiguous slice.
    reg_pages: Vec<Box<[u64]>>,
    /// Flat offset of the first never-used word of the file.
    reg_top: usize,
    /// Slots of retired warps, reused by `start_block` so a block-wave
    /// launch keeps the file at its peak of concurrently live warps.
    free_slots: Vec<u32>,
    now: Ps,
    q: EventQueue<Ev>,
    warps: Vec<Warp>,
    /// Per-lane PCs, authoritative while a warp is diverged. Indexed like
    /// `warps`, but grown only up to the last warp that diverged (see
    /// [`Engine::lane_pcs_mut`]): a launch whose warps never diverge
    /// allocates none outside debug builds.
    lane_pcs: Vec<[u32; 32]>,
    /// Barrier-park anchors, indexed like `warps` and kept only while
    /// profiling.
    parked_at: Vec<ParkedAt>,
    /// Every warp scheduler of the launch, rank-major then SM-major: the one
    /// unit each instruction issues through, kept flat so the issue is one
    /// indexed load instead of a walk through device and SM records.
    scheds: Vec<Pipeline>,
    /// Furthest PC each lane of each warp has reached, indexed like `warps`
    /// and kept only while the watchdog is armed — its progress watermark.
    /// Per lane, so a divergent branch (e.g. non-leader lanes jumping to the
    /// exit label) cannot poison the whole warp's watermark. Spin loops
    /// revisit PCs, so a spinning lane's watermark stalls; straight-line
    /// code always advances it.
    watermarks: Vec<[u32; 32]>,
    blocks: Vec<BlockRt>,
    devs: Vec<DevExec>,
    mgrid: MultiGridBar,
    /// The grid or multi-grid release being made (see
    /// [`Engine::release_grid`]).
    release: Release,
    peer: HashMap<(usize, usize), Channel>,
    instrs_executed: u64,
    warps_run: u64,
    /// When tracing: (remaining capacity, recorded events).
    trace: Option<(usize, Vec<TraceEvent>)>,
    /// Whether the shared-memory racecheck shadow state is armed (the
    /// launch's own `checked` flag OR-ed with the run options).
    check: bool,
    /// Launch-wide global-memory racecheck, armed alongside `check`.
    grace: Option<GlobalRaceCheck>,
    /// When profiling: per-(rank, SM) counters and barrier epochs.
    prof: Option<ProfState>,
    /// Scheduler-issue time of the instruction currently executing (profile
    /// attribution anchor; equals `now` for unscheduled steps).
    last_issue_start: Ps,
    /// Armed fault injection (`None` for clean runs and zero plans — every
    /// fault hook is gated on this so the clean path stays byte-identical).
    fault: Option<FaultState>,
    /// Progress watchdog budget (`None` = unarmed).
    watchdog: Option<Ps>,
    /// Last simulated time any warp advanced its `max_pc` watermark (or
    /// retired lanes). Only maintained while the watchdog is armed.
    last_progress_at: Ps,
}

/// Armed fault-injection state derived from a non-zero [`FaultPlan`].
struct FaultState {
    plan: FaultPlan,
    /// Degraded interconnect (`Some` iff the plan degrades links); the
    /// engine's topology accessor substitutes it for the system's.
    degraded: Option<Arc<NodeTopology>>,
    /// Sorted `(rank, block_on_device)` kill list.
    killed: Vec<(u32, u32)>,
}

/// Accumulating profile state (see [`crate::profile`]).
struct ProfState {
    /// Indexed `[rank][sm]`.
    sms: Vec<Vec<SmProfile>>,
    epochs: Vec<BarrierEpoch>,
    epochs_dropped: u64,
}

/// Every fixed per-arch latency from [`gpu_arch::TimingParams`], converted
/// to integer `Ps` once at engine construction with exactly the rounding of
/// [`Engine::cyc`] — the hot loop never touches `f64` for these. Costs that
/// genuinely vary per event (contended atomic intervals, stream-bandwidth
/// floors) still go through `cyc` live.
#[derive(Debug, Clone)]
struct LatTab {
    issue_interval: Ps,
    alu: Ps,
    fadd32: Ps,
    fadd64: Ps,
    /// Shared-memory load latency, plain and `volatile` (the sum is
    /// converted as one value — `cyc(a + b)` ≠ `cyc(a) + cyc(b)`).
    smem_ld: Ps,
    smem_ld_vol: Ps,
    smem_st: Ps,
    smem_st_vol: Ps,
    /// Shared-memory port occupancy per executing-lane count (index =
    /// `group.count_ones()`, 8 bytes per lane).
    smem_port_int: [Ps; 33],
    dram: Ps,
    l2: Ps,
    l2_atomic_int: Ps,
    global_atomic: Ps,
    shfl_tile_int: Ps,
    shfl_tile_lat: Ps,
    shfl_coa_int: Ps,
    shfl_coa_lat: Ps,
    shfl_coa_cold_lat: Ps,
    tile_sync_int: Ps,
    tile_sync_lat: Ps,
    coa_full_int: Ps,
    coa_full_lat: Ps,
    coa_part_int: Ps,
    coa_part_lat: Ps,
    block_arr_int: Ps,
    block_sync: Ps,
    poll: Ps,
    clock_read: Ps,
    div_switch: Ps,
    wb_switch: Ps,
    /// cyc(1.0): Exit issue cost.
    c1: Ps,
    /// cyc(4.0): store issue / fence cost.
    c4: Ps,
    /// cyc(20.0): wave-scheduling block dispatch.
    c20: Ps,
    /// Wake offset of the `i`-th warp a grid (multi-grid) barrier releases
    /// in a block: `cyc(grid_release_per_warp * i)`
    /// (`mgrid_release_per_warp`), one entry per warp of the launch's
    /// blocks.
    grid_ramp: Box<[Ps]>,
    mgrid_ramp: Box<[Ps]>,
}

/// The `Engine::cyc` conversion as a free function, usable before `self`
/// exists (release-mode clamp; the debug negative check lives in `cyc`).
fn cyc_of(ps_per_cycle: f64, c: f64) -> Ps {
    Ps((c * ps_per_cycle).round().max(0.0) as u64)
}

impl LatTab {
    fn new(arch: &GpuArch, ppc: f64, warps_per_block: u32) -> LatTab {
        let t = &arch.timing;
        let cyc = |c: f64| cyc_of(ppc, c);
        let ramp = |per_warp: f64| {
            (0..warps_per_block)
                .map(|i| cyc(per_warp * i as f64))
                .collect()
        };
        let mut smem_port_int = [Ps::ZERO; 33];
        for (n, slot) in smem_port_int.iter_mut().enumerate() {
            *slot = cyc(8.0 * n as f64 / t.smem_bytes_per_cycle_sm);
        }
        LatTab {
            issue_interval: cyc(t.issue_interval),
            alu: cyc(t.alu_latency as f64),
            fadd32: cyc(t.fadd32_latency as f64),
            fadd64: cyc(t.fadd64_latency as f64),
            smem_ld: cyc(t.smem_latency as f64),
            smem_ld_vol: cyc((t.smem_latency + t.volatile_extra) as f64),
            smem_st: cyc(1.0),
            smem_st_vol: cyc((t.volatile_extra + 1) as f64),
            smem_port_int,
            dram: cyc(arch.memory.dram_latency as f64),
            l2: cyc(arch.memory.l2_latency as f64),
            l2_atomic_int: cyc(t.l2_atomic_interval),
            global_atomic: cyc(t.global_atomic_latency as f64),
            shfl_tile_int: cyc(1.0 / t.shfl_tile.throughput_per_sm),
            shfl_tile_lat: cyc(t.shfl_tile.latency_cycles as f64),
            shfl_coa_int: cyc(1.0 / t.shfl_coalesced.throughput_per_sm),
            shfl_coa_lat: cyc(t.shfl_coalesced.latency_cycles as f64),
            shfl_coa_cold_lat: cyc(t.shfl_coalesced_cold_cycles as f64),
            tile_sync_int: cyc(1.0 / t.tile_sync.throughput_per_sm),
            tile_sync_lat: cyc(t.tile_sync.latency_cycles as f64),
            coa_full_int: cyc(1.0 / t.coalesced_sync_full.throughput_per_sm),
            coa_full_lat: cyc(t.coalesced_sync_full.latency_cycles as f64),
            coa_part_int: cyc(1.0 / t.coalesced_sync_partial.throughput_per_sm),
            coa_part_lat: cyc(t.coalesced_sync_partial.latency_cycles as f64),
            block_arr_int: cyc(t.block_sync_arrival_cycles),
            block_sync: cyc(t.block_sync_latency as f64),
            poll: cyc(t.poll_interval as f64),
            clock_read: cyc(t.clock_read_latency as f64),
            div_switch: cyc(t.divergence_switch_cycles as f64),
            wb_switch: cyc(t.warp_barrier_switch_cycles as f64),
            c1: cyc(1.0),
            c4: cyc(4.0),
            c20: cyc(20.0),
            grid_ramp: ramp(t.grid_release_per_warp),
            mgrid_ramp: ramp(t.mgrid_release_per_warp),
        }
    }

    /// The per-warp wake ramp of a grid or multi-grid release.
    fn release_ramp(&self, mgrid: bool) -> &[Ps] {
        if mgrid {
            &self.mgrid_ramp
        } else {
            &self.grid_ramp
        }
    }
}

/// Words per register-file page (64 KiB). Small pages keep each launch's
/// register file out of the allocator's large-block path: they are reused
/// from the heap across launches instead of being mapped, faulted in and
/// unmapped every time, and freeing them never raises the allocator's
/// large-block and trim thresholds (which would leave worker heaps holding
/// freed memory).
const REG_PAGE_WORDS: usize = 1 << 13;

/// A pre-resolved ALU operand (see [`Engine::alu_src`]).
#[derive(Clone, Copy)]
enum AluSrc {
    /// Flat offset of a register column in the register file.
    Col(usize),
    /// A lane-invariant value (immediate, kernel param, uniform special).
    Const(u64),
    /// A lane-affine special: value is `base.wrapping_add(lane)` in u32,
    /// widened to u64. Covers `Tid`, `LaneId`, and `GlobalTid` — every
    /// other special is warp-uniform.
    Lin(u32),
}

/// What executing one instruction for a group did.
enum Step {
    /// Group advanced; next step at `done`.
    Ready(Ps),
    /// Group parked at a barrier; the warp may still have other runnable
    /// lanes. `true` if it was a warp-level barrier (Volta switch cost).
    Parked { warp_barrier: bool },
}

impl<'a> Engine<'a> {
    /// An engine for `launch` with the instruments `opts` selects; `check`
    /// arms the racechecks (the options' switch or the launch's own flag).
    /// A zero fault plan arms nothing, so no fault hook ever fires.
    pub(crate) fn new(
        sys: &'a mut GpuSystem,
        launch: &'a GridLaunch,
        opts: &RunOptions,
        check: bool,
    ) -> Engine<'a> {
        let fault = opts.fault_plan().filter(|p| !p.is_zero()).map(|p| {
            let mut killed = p.killed_blocks.clone();
            killed.sort_unstable();
            killed.dedup();
            FaultState {
                plan: p.clone(),
                degraded: p.degrades_links().then(|| {
                    Arc::new(
                        sys.topology
                            .degraded(p.link_latency_mult_permille, p.link_bw_mult_permille),
                    )
                }),
                killed,
            }
        });
        let arch = sys.arch.clone();
        let ps_per_cycle = arch.clock().ps_per_cycle();
        let lat = LatTab::new(&arch, ps_per_cycle, launch.block_dim.div_ceil(WARP));
        let reg_layout = RegLayout::new(&launch.kernel.program);
        Engine {
            sys,
            launch,
            arch,
            ps_per_cycle,
            lat,
            reg_layout,
            reg_pages: Vec::new(),
            reg_top: 0,
            free_slots: Vec::new(),
            now: Ps::ZERO,
            q: EventQueue::new(),
            warps: Vec::new(),
            lane_pcs: Vec::new(),
            parked_at: Vec::new(),
            scheds: Vec::new(),
            watermarks: Vec::new(),
            blocks: Vec::new(),
            devs: Vec::new(),
            mgrid: MultiGridBar::default(),
            release: Release::default(),
            peer: HashMap::new(),
            instrs_executed: 0,
            warps_run: 0,
            trace: opts.trace_cap().map(|cap| (cap, Vec::new())),
            check,
            grace: None,
            prof: opts.wants_profile().then(|| ProfState {
                sms: Vec::new(),
                epochs: Vec::new(),
                epochs_dropped: 0,
            }),
            last_issue_start: Ps::ZERO,
            fault,
            watchdog: opts.watchdog_budget(),
            last_progress_at: Ps::ZERO,
        }
    }

    /// Convert a cycle count to integer picoseconds. A negative count is a
    /// timing-table bug, not a value to round to zero — assert in debug;
    /// the release build keeps only the clamp.
    fn cyc(&self, c: f64) -> Ps {
        debug_assert!(c >= 0.0, "negative cycle count {c} reached Engine::cyc");
        cyc_of(self.ps_per_cycle, c)
    }

    pub(crate) fn run_full(mut self) -> SimResult<RunArtifacts> {
        self.setup();
        while let Some((t, ev)) = self.q.pop() {
            debug_assert!(t >= self.now, "time went backwards");
            self.now = t;
            if self.watchdog_expired() {
                return Err(self.watchdog_error());
            }
            match ev {
                Ev::WarpStep(w, gen) => {
                    if self.warps[w as usize].gen == gen && !self.warps[w as usize].done {
                        if let Some(at) = self.step_warp(w)? {
                            self.schedule_warp(w, at);
                        }
                    }
                }
                Ev::StartBlock(b) => self.start_block(b),
            }
            if self.instrs_executed > self.sys.instr_limit {
                return Err(self.instr_limit_error());
            }
        }
        self.finish()
    }

    fn instr_limit_error(&self) -> SimError {
        SimError::InstrLimit {
            kernel: self.launch.kernel.name.clone(),
            limit: self.sys.instr_limit,
        }
    }

    /// Multi-grid release times from every rank's local arrival time — the
    /// master-device flag exchange of the paper's multi-grid barrier (§VI).
    fn mgrid_release_times(&self, arrivals: &[Ps]) -> Vec<Ps> {
        let topo = self.topo();
        let master = self.launch.devices[0];
        // Arrival: every rank's leader flags the master. A flag posted while
        // the link is flapped down waits out the rest of the down window.
        let mut master_done = Ps::ZERO;
        let mut serial = Ps::ZERO;
        for (r, &dev) in self.launch.devices.iter().enumerate() {
            let d = arrivals[r];
            master_done = master_done.max(d + self.fault_flap(d) + topo.flag_latency(dev, master));
            serial += topo.arrival_serial(master, dev);
        }
        master_done += serial;
        // Release: master flags every rank back.
        self.launch
            .devices
            .iter()
            .map(|&dev| master_done + topo.flag_latency(master, dev))
            .collect()
    }

    // ----- fault injection / watchdog -----------------------------------------

    /// Whether the armed watchdog's no-progress budget is exhausted at `now`.
    #[inline]
    fn watchdog_expired(&self) -> bool {
        match self.watchdog {
            Some(budget) => self.now.saturating_sub(self.last_progress_at) > budget,
            None => false,
        }
    }

    /// Structured livelock report: every unfinished warp with its PC and
    /// what it was waiting on, sorted by (rank, sm, block, warp).
    fn watchdog_error(&self) -> SimError {
        SimError::Watchdog {
            at: self.now,
            last_progress: self.last_progress_at,
            stuck: self.stuck_warps(),
            faults: self.fault_fingerprint(),
        }
    }

    /// Fingerprint of the armed fault plan (`None` when unfaulted), stamped
    /// into the Deadlock/Watchdog errors this engine constructs.
    fn fault_fingerprint(&self) -> Option<sim_core::FaultFingerprint> {
        self.fault.as_ref().map(|f| f.plan.fingerprint())
    }

    /// Every unfinished warp with its PC and wait kind, sorted by
    /// (rank, sm, block, warp).
    fn stuck_warps(&self) -> Vec<StuckWarp> {
        let mut stuck: Vec<StuckWarp> = self
            .warps
            .iter()
            .enumerate()
            .filter(|(_, w)| !w.done)
            .map(|(i, w)| {
                let waiting = if w.blk_wait != 0 {
                    match w.blk_kind {
                        BlockWaitKind::Grid => StuckKind::GridBarrier,
                        BlockWaitKind::MultiGrid => StuckKind::MultiGridBarrier,
                        _ => StuckKind::BlockBarrier,
                    }
                } else if w.wb_wait != 0 {
                    StuckKind::TileBarrier
                } else {
                    StuckKind::Spinning
                };
                // For a spinning warp this is the PC of the loop it keeps
                // revisiting; for a parked warp, the barrier site.
                let pc = iter_lanes(w.live())
                    .map(|l| self.lane_pc(i as u32, l))
                    .min()
                    .unwrap_or(0);
                StuckWarp {
                    rank: w.rank,
                    sm: w.sm,
                    block: self.blocks[w.block as usize].block_on_device,
                    warp: w.warp_in_block,
                    pc,
                    waiting,
                }
            })
            .collect();
        stuck.sort_unstable();
        stuck
    }

    /// Record that the lanes in `mask` of warp `w` moved (their `pcs` are
    /// already updated): forward progress iff some lane beat its own
    /// watermark. Per-lane watermarks keep a divergent forward jump (one
    /// lane reaching the exit label) from masking another lane's later,
    /// genuine progress. Only maintained while the watchdog is armed — the
    /// clean path pays one predictable branch.
    /// Record forward progress that the PC watermark cannot see: an
    /// operation whose *success* proves the system is live (a satisfied
    /// `wait.ge`, a CAS that exchanged) happening at an already-visited PC,
    /// e.g. each round of a spin-barrier loop. Livelocked spins never
    /// succeed, so they still starve the watchdog.
    #[inline]
    fn note_semantic_progress(&mut self) {
        if self.watchdog.is_some() {
            self.last_progress_at = self.now;
        }
    }

    /// Identity of `lane` of warp `w` for the global racecheck.
    fn grace_agent(&self, w: u32, lane: u32) -> GlobalAgent {
        let warp = &self.warps[w as usize];
        GlobalAgent {
            rank: warp.rank,
            block: self.blocks[warp.block as usize].block_on_device,
            thread: warp.warp_in_block * WARP + lane,
        }
    }

    /// A scope-appropriate synchronization event executed (atomic, fence,
    /// signal, satisfied wait, grid barrier): advance the global racecheck
    /// epoch. No-op when the racecheck is unarmed.
    #[inline]
    fn grace_sync(&mut self) {
        if let Some(g) = &mut self.grace {
            g.sync_event();
        }
    }

    #[inline]
    fn note_lanes(&mut self, w: u32, mask: u32) {
        if self.watchdog.is_some() {
            let mut progressed = false;
            for lane in iter_lanes(mask) {
                let pc = self.lane_pc(w, lane);
                let max = &mut self.watermarks[w as usize][(lane & 31) as usize];
                if pc > *max {
                    *max = pc;
                    progressed = true;
                }
            }
            if progressed {
                self.last_progress_at = self.now;
            }
        }
    }

    /// Scale a step's completion time by the warp's straggler multiplier.
    /// Identity without an armed plan.
    #[inline]
    fn fault_scaled(&self, w: u32, done: Ps) -> Ps {
        if self.fault.is_none() {
            return done;
        }
        let m = self.warps[w as usize].mult_permille;
        if m == 1000 || done <= self.now {
            return done;
        }
        self.now + Ps((done - self.now).0.saturating_mul(m as u64) / 1000)
    }

    /// Per-warp straggler multiplier, drawn from the plan's seed and the warp's
    /// stable coordinates — never from execution order.
    fn fault_warp_mult(&self, rank: u32, block_on_device: u32, wi: u32) -> u32 {
        let Some(f) = &self.fault else { return 1000 };
        let p = &f.plan;
        let straggles = p.straggler_permille > 0
            && fault::mix(
                p.seed,
                &[
                    fault::TAG_STRAGGLER,
                    rank as u64,
                    block_on_device as u64,
                    wi as u64,
                ],
            ) % 1000
                < p.straggler_permille as u64;
        if straggles {
            p.straggler_mult_permille.max(1)
        } else {
            1000
        }
    }

    /// Whether the plan kills `gb`'s arrival at grid-level barriers.
    fn fault_block_killed(&self, gb: u32) -> bool {
        let Some(f) = &self.fault else { return false };
        if f.killed.is_empty() {
            return false;
        }
        let b = &self.blocks[gb as usize];
        f.killed.binary_search(&(b.rank, b.block_on_device)).is_ok()
    }

    /// The interconnect the run sees: the plan's degraded copy when links
    /// are faulted, the system's otherwise.
    #[inline]
    fn topo(&self) -> &NodeTopology {
        match &self.fault {
            Some(f) => f.degraded.as_deref().unwrap_or(&self.sys.topology),
            None => &self.sys.topology,
        }
    }

    /// Wait until the links are back up if `at` lands in a flap's down
    /// window (a deterministic function of simulated time).
    fn fault_flap(&self, at: Ps) -> Ps {
        let Some(f) = &self.fault else {
            return Ps::ZERO;
        };
        let p = &f.plan;
        if p.flap_period_ns == 0 || p.flap_down_ns == 0 {
            return Ps::ZERO;
        }
        let period = Ps::from_ns(p.flap_period_ns).0;
        let down = Ps::from_ns(p.flap_down_ns).0.min(period);
        let phase = at.0 % period;
        if phase < down {
            Ps(down - phase)
        } else {
            Ps::ZERO
        }
    }

    fn setup(&mut self) {
        if self.check {
            self.grace = Some(GlobalRaceCheck::new());
        }
        let occ = self
            .arch
            .occupancy(self.launch.block_dim, self.launch.kernel.shared_words * 8);
        let nranks = self.launch.devices.len();
        if let Some(p) = &mut self.prof {
            p.sms = (0..nranks)
                .map(|rank| {
                    (0..self.arch.num_sms)
                        .map(|sm| SmProfile::empty(rank as u32, sm))
                        .collect()
                })
                .collect();
        }
        self.scheds = vec![
            Pipeline::new();
            nranks * (self.arch.num_sms * self.arch.schedulers_per_sm) as usize
        ];
        for (rank, &device_id) in self.launch.devices.iter().enumerate() {
            let sms = (0..self.arch.num_sms)
                .map(|_| SmExec {
                    barrier_unit: Pipeline::new(),
                    sync_unit: Pipeline::new(),
                    smem_port: Pipeline::new(),
                })
                .collect();
            let mem = &self.arch.memory;
            self.devs.push(DevExec {
                device_id,
                l2: Pipeline::new(),
                dram: Channel::new(mem.dram_effective_gbs(), self.cyc(mem.dram_latency as f64)),
                sms,
                pending: Vec::new(),
                resident: vec![0; self.arch.num_sms as usize],
                max_resident_per_sm: occ.blocks_per_sm.max(1),
                blocks_done: 0,
                end_time: Ps::ZERO,
                grid_bar: GridBar::default(),
            });
            // Create block records for this rank.
            for b in 0..self.launch.grid_dim {
                let sm = b % self.arch.num_sms;
                self.blocks.push(BlockRt {
                    rank: rank as u32,
                    sm,
                    block_on_device: b,
                    warp_start: 0,
                    nwarps: self.arch.warps_per_block(self.launch.block_dim),
                    live_warps: 0,
                    bar_arrived: 0,
                    bar_waiting: Vec::new(),
                    bar_last: Ps::ZERO,
                    started: false,
                    done: false,
                    smem: if self.check {
                        SharedMem::with_racecheck(self.launch.kernel.shared_words)
                    } else {
                        SharedMem::new(self.launch.kernel.shared_words)
                    },
                });
            }
        }
        self.mgrid.rank_done = vec![None; nranks];
        // Every block's warps are pushed exactly once; reserving up front
        // avoids doubling-growth copies of the warp records and their side
        // tables.
        let warps_per_block = self.arch.warps_per_block(self.launch.block_dim) as usize;
        let blocks_run = self.launch.grid_dim as usize * nranks;
        self.warps.reserve(blocks_run * warps_per_block);
        if self.watchdog.is_some() {
            self.watermarks.reserve(blocks_run * warps_per_block);
        }
        if self.prof.is_some() {
            self.parked_at.reserve(blocks_run * warps_per_block);
        }
        // Initial wave: fill residency round-robin; queue the rest.
        for rank in 0..nranks {
            let base = rank as u32 * self.launch.grid_dim;
            for b in 0..self.launch.grid_dim {
                let gb = base + b;
                let sm = self.blocks[gb as usize].sm as usize;
                if self.devs[rank].resident[sm] < self.devs[rank].max_resident_per_sm {
                    self.devs[rank].resident[sm] += 1;
                    self.prof_note_resident(rank, sm);
                    self.q.push(Ps::ZERO, Ev::StartBlock(gb));
                } else {
                    self.devs[rank].pending.push(gb);
                }
            }
            // Process pending queue FIFO.
            self.devs[rank].pending.reverse();
        }
    }

    fn start_block(&mut self, gb: u32) {
        let block_dim = self.launch.block_dim;
        let b = &mut self.blocks[gb as usize];
        debug_assert!(!b.started);
        b.started = true;
        b.warp_start = self.warps.len() as u32;
        b.live_warps = b.nwarps;
        let (rank, sm, wstart, nwarps, block_on_device) =
            (b.rank, b.sm, b.warp_start, b.nwarps, b.block_on_device);
        if let Some(p) = &mut self.prof {
            let c = &mut p.sms[rank as usize][sm as usize];
            c.blocks_started += 1;
            c.warps_started += nwarps as u64;
        }
        for wi in 0..nwarps {
            let lanes_here = (block_dim - wi * WARP).min(WARP);
            let w = Warp {
                present: if lanes_here == WARP {
                    FULL
                } else {
                    (1u32 << lanes_here) - 1
                },
                exited: 0,
                wb_wait: 0,
                blk_wait: 0,
                last_mask: 0,
                pc: 0,
                gen: 0,
                block: gb,
                regs: self.alloc_reg_slot(),
                rank,
                sm,
                sched: (rank * self.arch.num_sms + sm) * self.arch.schedulers_per_sm
                    + wi % self.arch.schedulers_per_sm,
                warp_in_block: wi,
                mult_permille: self.fault_warp_mult(rank, block_on_device, wi),
                wb_width: 0,
                blk_kind: BlockWaitKind::None,
                converged: true,
                prev_blocked_at_warp_barrier: false,
                coa_shfl_hot: false,
                done: false,
            };
            self.warps.push(w);
            if self.watchdog.is_some() {
                self.watermarks.push([0; 32]);
            }
            if self.prof.is_some() {
                self.parked_at.push(ParkedAt::default());
            }
            self.warps_run += 1;
            let widx = wstart + wi;
            self.schedule_warp(widx, self.now);
        }
    }

    fn schedule_warp(&mut self, w: u32, at: Ps) {
        let warp = &mut self.warps[w as usize];
        warp.gen = warp.gen.wrapping_add(1);
        self.q.push(at, Ev::WarpStep(w, warp.gen));
    }

    // ----- warp state: register slots and PCs ----------------------------------

    /// Claim a zeroed register slot: a retired warp's, else a new one at
    /// the top of the file, opening a fresh (zeroed) page when the slot
    /// would not fit in the current one.
    fn alloc_reg_slot(&mut self) -> u32 {
        let words = self.reg_layout.slot_words;
        if let Some(slot) = self.free_slots.pop() {
            // Kernels that touch no register have empty slots.
            if words != 0 {
                let at = slot as usize;
                self.reg_pages[at / REG_PAGE_WORDS][at % REG_PAGE_WORDS..][..words].fill(0);
            }
            return slot;
        }
        if self.reg_top % REG_PAGE_WORDS + words > REG_PAGE_WORDS {
            self.reg_top = self.reg_top.next_multiple_of(REG_PAGE_WORDS);
        }
        if self.reg_top + words > self.reg_pages.len() * REG_PAGE_WORDS {
            self.reg_pages
                .push(vec![0; REG_PAGE_WORDS].into_boxed_slice());
        }
        let slot = self.reg_top;
        self.reg_top += words;
        u32::try_from(slot).expect("register file exceeds u32 words")
    }

    /// The 32 lanes of one register, starting at flat offset `at`.
    #[inline]
    fn reg_col(&self, at: usize) -> &[u64] {
        &self.reg_pages[at / REG_PAGE_WORDS][at % REG_PAGE_WORDS..][..WARP as usize]
    }

    #[inline]
    fn reg_col_mut(&mut self, at: usize) -> &mut [u64] {
        &mut self.reg_pages[at / REG_PAGE_WORDS][at % REG_PAGE_WORDS..][..WARP as usize]
    }

    /// The one word of a warp-uniform register at flat offset `at`.
    #[inline]
    fn reg_word(&self, at: usize) -> u64 {
        self.reg_pages[at / REG_PAGE_WORDS][at % REG_PAGE_WORDS]
    }

    #[inline]
    fn reg_word_mut(&mut self, at: usize) -> &mut u64 {
        &mut self.reg_pages[at / REG_PAGE_WORDS][at % REG_PAGE_WORDS]
    }

    /// Flat offset of register `r` of warp `w`: its column or its word.
    #[inline]
    fn reg_at(&self, w: u32, r: Reg) -> usize {
        self.warps[w as usize].regs as usize + self.reg_layout.at[r as usize] as usize
    }

    #[inline]
    fn reg(&self, w: u32, lane: u32, r: Reg) -> u64 {
        let at = self.reg_at(w, r);
        if self.reg_layout.is_scalar(r) {
            self.reg_word(at)
        } else {
            self.reg_col(at)[(lane & 31) as usize]
        }
    }

    /// Write one lane of a register that may differ across lanes.
    #[inline]
    fn set_reg(&mut self, w: u32, lane: u32, r: Reg, v: u64) {
        debug_assert!(
            !self.reg_layout.is_scalar(r),
            "per-lane write to scalar r{r}"
        );
        let at = self.reg_at(w, r);
        self.reg_col_mut(at)[(lane & 31) as usize] = v;
    }

    /// Write `val(lane)` to register `d` for every lane of `group`. A
    /// warp-uniform register takes the value of the group's first lane:
    /// its writers yield one value for the whole warp.
    #[inline]
    fn write_dst(&mut self, w: u32, group: u32, d: Reg, val: impl Fn(usize) -> u64) {
        let at = self.reg_at(w, d);
        if self.reg_layout.is_scalar(d) {
            self.debug_scalar_write(w, group, d);
            *self.reg_word_mut(at) = val(group.trailing_zeros() as usize);
        } else {
            let col = self.reg_col_mut(at);
            for lane in iter_lanes(group) {
                let l = (lane & 31) as usize;
                col[l] = val(l);
            }
        }
    }

    /// The premises that make a warp-uniform register exact (see
    /// [`RegLayout`]): the group writing it is the whole warp, and no lane
    /// has exited.
    #[inline]
    fn debug_scalar_write(&self, w: u32, group: u32, d: Reg) {
        let warp = &self.warps[w as usize];
        debug_assert!(
            group == warp.live() && warp.live() == warp.present,
            "warp {w}: scalar r{d} written by group {group:#x} (live {:#x}, present {:#x})",
            warp.live(),
            warp.present
        );
    }

    #[inline]
    fn lane_pc(&self, w: u32, lane: u32) -> u32 {
        let warp = &self.warps[w as usize];
        if warp.converged {
            warp.pc
        } else {
            self.lane_pcs[w as usize][(lane & 31) as usize]
        }
    }

    /// The per-lane PCs of warp `w`, created on first use. A warp that has
    /// never written them still has every lane at its start, PC 0.
    fn lane_pcs_mut(&mut self, w: u32) -> &mut [u32; 32] {
        let w = w as usize;
        if self.lane_pcs.len() <= w {
            self.lane_pcs.resize(w + 1, [0; 32]);
        }
        &mut self.lane_pcs[w]
    }

    /// Leave the converged representation: copy the shared PC into every
    /// lane's slot, which is authoritative from now on.
    fn diverge(&mut self, w: u32) {
        let warp = &mut self.warps[w as usize];
        if warp.converged {
            warp.converged = false;
            let pc = warp.pc;
            *self.lane_pcs_mut(w) = [pc; 32];
        }
    }

    /// Move the lanes in `mask` to `to`. Moving every live lane of a
    /// converged warp keeps it converged; any other mask diverges it.
    fn set_pcs(&mut self, w: u32, mask: u32, to: u32) {
        if mask == 0 {
            return;
        }
        let warp = &mut self.warps[w as usize];
        if warp.converged && mask == warp.live() {
            warp.pc = to;
            if !SHADOW_LANE_PCS {
                return;
            }
        } else {
            self.diverge(w);
        }
        let pcs = self.lane_pcs_mut(w);
        for lane in iter_lanes(mask) {
            pcs[(lane & 31) as usize] = to;
        }
    }

    /// Move each lane in `mask` one past its own PC (lanes of a diverged
    /// warp may sit at different sites of the same barrier).
    fn bump_pcs(&mut self, w: u32, mask: u32) {
        let warp = &mut self.warps[w as usize];
        if warp.converged && mask == warp.live() {
            warp.pc += 1;
            if !SHADOW_LANE_PCS {
                return;
            }
        } else {
            self.diverge(w);
        }
        let pcs = self.lane_pcs_mut(w);
        for lane in iter_lanes(mask) {
            pcs[(lane & 31) as usize] += 1;
        }
    }

    // ----- resource charging --------------------------------------------------

    /// Issue through the warp's scheduler slot, then optionally a unit.
    fn charge_sched(&mut self, w: u32) -> Ps {
        let warp = &self.warps[w as usize];
        let interval = self.lat.issue_interval;
        let start = self.scheds[warp.sched as usize]
            .issue(self.now, interval, Ps::ZERO)
            .start;
        if let Some(p) = &mut self.prof {
            let c = &mut p.sms[warp.rank as usize][warp.sm as usize];
            c.stalls.issue_stall_ps += start.saturating_sub(self.now).0;
            c.issue_busy_ps += interval.0;
            c.instrs_issued += 1;
        }
        self.last_issue_start = start;
        start
    }

    // ----- main step ----------------------------------------------------------

    /// Execute one step of warp `w`. Returns the time the warp should next
    /// be stepped, or `None` when it is parked, retired, or a wake event
    /// already carries its schedule — otherwise `run_full` pushes the
    /// warp's next step.
    fn step_warp(&mut self, w: u32) -> SimResult<Option<Ps>> {
        let warp = &self.warps[w as usize];
        let runnable = warp.runnable();
        if runnable == 0 {
            return Ok(None); // Parked or done; a wake will reschedule.
        }
        let (min_pc, group) = if warp.converged {
            if SHADOW_LANE_PCS {
                let shadow = self.lane_pcs.get(w as usize).unwrap_or(&[0; 32]);
                debug_assert_eq!(
                    (warp.pc, runnable),
                    min_pc_group(shadow, runnable),
                    "warp {w}: converged selection differs from the min-PC scan"
                );
            }
            (warp.pc, runnable)
        } else {
            let (min_pc, group) = min_pc_group(&self.lane_pcs[w as usize], runnable);
            if group == warp.live() {
                // Every live lane is back at one PC: reconverge.
                let warp = &mut self.warps[w as usize];
                warp.converged = true;
                warp.pc = min_pc;
            }
            (min_pc, group)
        };
        let warp = &self.warps[w as usize];

        // Divergence / barrier-requeue switch costs: pay them as a delay and
        // re-enter (so simulated time never runs backwards for other events).
        let mut pre = Ps::ZERO;
        if warp.last_mask != 0 && warp.last_mask != group {
            pre += self.lat.div_switch;
            if warp.prev_blocked_at_warp_barrier {
                pre += self.lat.wb_switch;
            }
        }
        {
            let warp = &mut self.warps[w as usize];
            warp.last_mask = group;
            warp.prev_blocked_at_warp_barrier = false;
        }
        if !pre.is_zero() {
            // Switch costs count as issue stall: the warp holds no unit.
            let warp = &self.warps[w as usize];
            let (rank, sm) = (warp.rank as usize, warp.sm as usize);
            if let Some(p) = &mut self.prof {
                p.sms[rank][sm].stalls.issue_stall_ps += pre.0;
            }
            return Ok(Some(self.now + pre));
        }

        // Implicit exit at program end.
        if min_pc as usize >= self.launch.kernel.program.len() {
            self.retire_lanes(w, group);
            return Ok(None);
        }

        let instr = self.launch.kernel.program.instrs[min_pc as usize];
        self.instrs_executed += 1;
        if let Some((cap, events)) = &mut self.trace {
            if events.len() < *cap {
                let warp = &self.warps[w as usize];
                events.push(TraceEvent {
                    at: self.now,
                    rank: warp.rank,
                    sm: warp.sm,
                    block: self.blocks[warp.block as usize].block_on_device,
                    warp_in_block: warp.warp_in_block,
                    lanes: group,
                    pc: min_pc,
                    instr,
                });
            }
        }
        self.last_issue_start = self.now;
        let step = match self.exec(w, group, min_pc, instr) {
            Ok(step) => step,
            Err(e) => return Err(self.locate_fault(w, min_pc, &instr, e)),
        };
        match step {
            Step::Ready(done) => {
                let done = self.fault_scaled(w, done);
                if self.prof.is_some() {
                    self.prof_attribute_ready(w, &instr, done);
                }
                let warp = &self.warps[w as usize];
                if warp.runnable() != 0 {
                    return Ok(Some(done));
                }
                Ok(None)
            }
            Step::Parked { warp_barrier } => {
                let warp = &mut self.warps[w as usize];
                warp.prev_blocked_at_warp_barrier = warp_barrier;
                let still_parked = warp.wb_wait != 0 || warp.blk_wait != 0;
                if warp.runnable() != 0 && still_parked {
                    // Other divergent groups keep executing. (If the barrier
                    // released synchronously, the release already scheduled
                    // the wake — rescheduling would erase its latency.)
                    return Ok(Some(self.now));
                }
                Ok(None)
            }
        }
    }

    /// Prefix a memory fault with where it happened: the kernel, the pc and
    /// its instruction, and the warp's rank, block and index. Other errors
    /// pass unchanged.
    #[cold]
    fn locate_fault(&self, w: u32, pc: u32, instr: &Instr, e: SimError) -> SimError {
        let SimError::MemoryFault(msg) = e else {
            return e;
        };
        let warp = &self.warps[w as usize];
        SimError::MemoryFault(format!(
            "kernel {:?} pc {pc} `{}` (rank {} block {} warp {}): {msg}",
            self.launch.kernel.name,
            crate::disasm::instr_to_string(instr),
            warp.rank,
            self.blocks[warp.block as usize].block_on_device,
            warp.warp_in_block,
        ))
    }

    fn advance_pcs(&mut self, w: u32, mask: u32, from_pc: u32) {
        debug_assert!(iter_lanes(mask).all(|l| self.lane_pc(w, l) == from_pc));
        self.set_pcs(w, mask, from_pc + 1);
        self.note_lanes(w, mask);
    }

    /// Mark lanes exited; drive warp/block/grid completion bookkeeping.
    fn retire_lanes(&mut self, w: u32, mask: u32) {
        // Retirement is forward progress regardless of the PC watermark.
        if self.watchdog.is_some() {
            self.last_progress_at = self.now;
        }
        let warp = &mut self.warps[w as usize];
        warp.exited |= mask;
        let all_exited = warp.live() == 0;
        // Exits may complete a pending warp-level barrier...
        self.try_release_warp_barrier(w);
        // ...or turn the remaining lanes into a full block-barrier arrival.
        {
            let warp = &self.warps[w as usize];
            if !all_exited && warp.blk_wait != 0 && warp.blk_wait == warp.live() {
                let kind = warp.blk_kind;
                self.warp_arrives_at_block_barrier(w, kind);
            }
        }
        if all_exited {
            let warp = &mut self.warps[w as usize];
            if !warp.done {
                warp.done = true;
                // Recycle the register slot for the next started warp.
                let (slot, block) = (warp.regs, warp.block);
                self.free_slots.push(slot);
                self.warp_finished(block);
            }
        }
    }

    /// ...and a fully exited warp may complete a pending block barrier or
    /// finish the block.
    fn warp_finished(&mut self, gb: u32) {
        let (live, kind) = {
            let b = &mut self.blocks[gb as usize];
            b.live_warps -= 1;
            let kind = b
                .bar_waiting
                .first()
                .map(|&w| self.warps[w as usize].blk_kind)
                .filter(|_| b.bar_arrived == b.live_warps);
            (b.live_warps, kind)
        };
        if live == 0 {
            self.block_finished(gb);
        } else if let Some(kind) = kind {
            match kind {
                BlockWaitKind::Block => self.release_block_barrier(gb),
                BlockWaitKind::Grid | BlockWaitKind::MultiGrid => {
                    self.block_arrives_at_grid(gb, kind)
                }
                BlockWaitKind::None => {}
            }
        }
    }

    fn block_finished(&mut self, gb: u32) {
        let b = &mut self.blocks[gb as usize];
        debug_assert!(!b.done);
        b.done = true;
        let (rank, sm) = (b.rank as usize, b.sm as usize);
        let dev = &mut self.devs[rank];
        dev.blocks_done += 1;
        dev.end_time = dev.end_time.max(self.now);
        dev.resident[sm] -= 1;
        // Wave scheduling: start a pending block in the freed slot.
        if let Some(next) = dev.pending.pop() {
            let next_sm = self.blocks[next as usize].sm as usize;
            dev.resident[next_sm] += 1;
            self.prof_note_resident(rank, next_sm);
            self.q.push(self.now + self.lat.c20, Ev::StartBlock(next));
        }
    }

    // ----- profile hooks -------------------------------------------------------

    /// Record the current residency of `sm` as a potential high-water mark.
    fn prof_note_resident(&mut self, rank: usize, sm: usize) {
        if let Some(p) = &mut self.prof {
            let resident = self.devs[rank].resident[sm];
            let c = &mut p.sms[rank][sm];
            c.peak_resident_blocks = c.peak_resident_blocks.max(resident);
        }
    }

    /// Record a barrier-release instant (Perfetto instant event feed).
    fn prof_epoch(&mut self, rank: u32, scope: SyncScope, at: Ps) {
        if let Some(p) = &mut self.prof {
            if p.epochs.len() < EPOCH_CAP {
                p.epochs.push(BarrierEpoch {
                    at_ps: at.0,
                    rank,
                    scope,
                });
            } else {
                p.epochs_dropped += 1;
            }
        }
    }

    /// Attribute `ps` to a barrier-wait bucket of the warp's SM.
    fn prof_barrier_wait(&mut self, w: u32, scope: SyncScope, ps: u64) {
        let warp = &self.warps[w as usize];
        let (rank, sm) = (warp.rank as usize, warp.sm as usize);
        if let Some(p) = &mut self.prof {
            *p.sms[rank][sm].stalls.barrier_wait_mut(scope) += ps;
        }
    }

    /// After an instruction completed at `done`: attribute its post-issue
    /// latency (`done - issue start`) to the bucket its class belongs to.
    fn prof_attribute_ready(&mut self, w: u32, instr: &Instr, done: Ps) {
        use Instr::*;
        let warp = &self.warps[w as usize];
        let (rank, sm) = (warp.rank as usize, warp.sm as usize);
        let lat = done.saturating_sub(self.last_issue_start.max(self.now)).0;
        if let Some(p) = &mut self.prof {
            let c = &mut p.sms[rank][sm].stalls;
            match instr {
                LdShared { .. }
                | StShared { .. }
                | LdGlobal { .. }
                | StGlobal { .. }
                | MemStream { .. }
                | MemCombine { .. }
                | SmemStream { .. }
                | MemFence => c.mem_ps += lat,
                AtomicFAdd { .. }
                | AtomicCas { .. }
                | AtomicExch { .. }
                | AtomicIAdd { .. }
                | Signal { .. } => c.atomic_ps += lat,
                // Both the successful poll and every backed-off retry land
                // here: the whole time a warp spends on a flag is flag-wait.
                WaitGe { .. } => c.flag_wait_ps += lat,
                Nanosleep(..) => c.sleep_ps += lat,
                // A warp barrier that completed synchronously (converged
                // warp, or Pascal's fence semantics): its latency is barrier
                // cost, not wait.
                SyncTile { .. } | SyncCoalesced => c.tile_wait_ps += lat,
                _ => c.exec_ps += lat,
            }
        }
    }

    // ----- instruction execution ---------------------------------------------

    /// A resolved ALU source: column registers become a column offset into
    /// the register file; warp-uniform registers, immediates, kernel params,
    /// and warp-uniform specials become a single constant; lane-affine
    /// specials become a base the lane id is added to — all resolvable ONCE
    /// per instruction instead of per lane. Every arm reads its operands
    /// this way: resolved once, read per lane with [`Engine::src_val`].
    fn alu_src(&self, w: u32, op: Operand) -> AluSrc {
        match op {
            Operand::Reg(r) => {
                let at = self.reg_at(w, r);
                if self.reg_layout.is_scalar(r) {
                    AluSrc::Const(self.reg_word(at))
                } else {
                    AluSrc::Col(at)
                }
            }
            Operand::Imm(v) => AluSrc::Const(v),
            Operand::Param(p) => {
                let rank = self.warps[w as usize].rank as usize;
                AluSrc::Const(self.launch.params[rank][p as usize])
            }
            Operand::Sp(s) => {
                let warp = &self.warps[w as usize];
                let tid0 = warp.warp_in_block * WARP;
                match s {
                    Special::Tid => AluSrc::Lin(tid0),
                    Special::LaneId => AluSrc::Lin(0),
                    Special::WarpId => AluSrc::Const(warp.warp_in_block as u64),
                    Special::BlockId => {
                        let block = &self.blocks[warp.block as usize];
                        AluSrc::Const(block.block_on_device as u64)
                    }
                    Special::BlockDim => AluSrc::Const(self.launch.block_dim as u64),
                    Special::GridDim => AluSrc::Const(self.launch.grid_dim as u64),
                    Special::GpuRank => AluSrc::Const(warp.rank as u64),
                    Special::NumGpus => AluSrc::Const(self.launch.devices.len() as u64),
                    Special::GlobalTid => {
                        let block = &self.blocks[warp.block as usize];
                        AluSrc::Lin(
                            block
                                .block_on_device
                                .wrapping_mul(self.launch.block_dim)
                                .wrapping_add(tid0),
                        )
                    }
                    Special::GridThreads => {
                        AluSrc::Const((self.launch.grid_dim * self.launch.block_dim) as u64)
                    }
                }
            }
        }
    }

    /// Materialize a resolved source into one value per lane (a 256-byte
    /// stack buffer — cheap, and lets every consumer run one straight,
    /// vectorizable loop regardless of source kind).
    #[inline]
    fn fill_src(&self, src: AluSrc, out: &mut [u64; WARP as usize]) {
        match src {
            AluSrc::Col(c) => out.copy_from_slice(self.reg_col(c)),
            AluSrc::Const(v) => *out = [v; WARP as usize],
            AluSrc::Lin(base) => {
                for (l, o) in out.iter_mut().enumerate() {
                    *o = base.wrapping_add(l as u32) as u64;
                }
            }
        }
    }

    /// Value of a pre-resolved source for one lane (keeps the per-lane work
    /// of the lane loops down to a register read in the common
    /// uniform-operand case).
    #[inline]
    fn src_val(&self, lane: u32, src: AluSrc) -> u64 {
        match src {
            AluSrc::Const(v) => v,
            AluSrc::Col(c) => self.reg_col(c)[(lane & 31) as usize],
            AluSrc::Lin(base) => base.wrapping_add(lane) as u64,
        }
    }

    /// The lanes and first word of a global access that touches one run of
    /// consecutive words: `group` is one contiguous run of lanes, and `idx`
    /// reads `lo, lo + 1, …` over it without wrapping (in `u32` for a
    /// lane-affine special, as `src_val` computes it). An armed racecheck
    /// observes each lane, so it keeps every access on the per-lane loop.
    #[inline]
    fn coalesced(&self, group: u32, idx: AluSrc) -> Option<(Range<usize>, u64)> {
        if self.grace.is_some() || group == 0 {
            return None;
        }
        let first = group.trailing_zeros();
        let run = group >> first;
        if run & run.wrapping_add(1) != 0 {
            return None;
        }
        let lanes = first as usize..(first + run.count_ones()) as usize;
        let lo = match idx {
            AluSrc::Lin(base) => {
                let lo = base as u64 + first as u64;
                let last = lo + lanes.len() as u64 - 1;
                (last <= u32::MAX as u64).then_some(lo)?
            }
            AluSrc::Col(c) => {
                let col = &self.reg_col(c)[lanes.clone()];
                let consecutive = (0..)
                    .zip(col)
                    .all(|(k, &i)| col[0].checked_add(k) == Some(i));
                consecutive.then_some(col[0])?
            }
            AluSrc::Const(_) => return None,
        };
        Some((lanes, lo))
    }

    /// ALU op: `d = f(a, b)` for every lane in `group`. Unary ops pass
    /// `Imm(0)` as `b`, which takes the constant-operand loop.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn alu2(
        &mut self,
        w: u32,
        group: u32,
        pc: u32,
        d: Reg,
        a: Operand,
        b: Operand,
        lat: Ps,
        f: impl Fn(u64, u64) -> u64,
    ) -> SimResult<Step> {
        let start = self.charge_sched(w);
        let dcol = self.reg_at(w, d);
        if self.reg_layout.is_scalar(d) {
            let (x, y) = (
                scalar_src(self.alu_src(w, a), d),
                scalar_src(self.alu_src(w, b), d),
            );
            self.debug_scalar_write(w, group, d);
            *self.reg_word_mut(dcol) = f(x, y);
            self.advance_pcs(w, group, pc);
            return Ok(Step::Ready(start + lat));
        }
        // Materialize both sources (two 256-byte stack copies) so the
        // destination column may alias either one and the compute loop
        // vectorizes regardless of operand kinds.
        let mut av = [0u64; WARP as usize];
        self.fill_src(self.alu_src(w, a), &mut av);
        if let AluSrc::Const(c) = self.alu_src(w, b) {
            // Lane-invariant second operand: keep it scalar so the compiler
            // folds it straight into the vector loop.
            let dst = self.reg_col_mut(dcol);
            if group == FULL {
                for (o, &x) in dst.iter_mut().zip(av.iter()) {
                    *o = f(x, c);
                }
            } else {
                for lane in iter_lanes(group) {
                    let l = (lane & 31) as usize;
                    dst[l] = f(av[l], c);
                }
            }
            self.advance_pcs(w, group, pc);
            return Ok(Step::Ready(start + lat));
        }
        let mut bv = [0u64; WARP as usize];
        self.fill_src(self.alu_src(w, b), &mut bv);
        let dst = self.reg_col_mut(dcol);
        if group == FULL {
            for l in 0..WARP as usize {
                dst[l] = f(av[l], bv[l]);
            }
        } else {
            for lane in iter_lanes(group) {
                let l = (lane & 31) as usize;
                dst[l] = f(av[l], bv[l]);
            }
        }
        self.advance_pcs(w, group, pc);
        Ok(Step::Ready(start + lat))
    }

    /// The lane loop of every instruction served by the L2 atomic unit (the
    /// global atomics, `wait.ge` and `signal`). After the scheduler issue,
    /// each lane of `group` in order pays one L2 round trip and applies `op`
    /// to word `idx` of buffer `buf` with its two value operands (`Imm(0)`
    /// pads a missing one). `op` returns the old value, written to
    /// `dst_old`, and a flag. Returns the last round trip's completion and
    /// the lanes whose flag was set.
    fn l2_lanes<const N: usize>(
        &mut self,
        w: u32,
        group: u32,
        dst_old: Option<Reg>,
        ops: [Operand; N],
        op: impl Fn(&mut Buffer, u64, u64, u64) -> SimResult<(u64, bool)>,
    ) -> SimResult<(Ps, u32)> {
        let rank = self.warps[w as usize].rank as usize;
        let start = self.charge_sched(w);
        let mut src = [AluSrc::Const(0); 4];
        for (s, &o) in src.iter_mut().zip(&ops) {
            *s = self.alu_src(w, o);
        }
        let (int_ps, lat_ps) = (self.lat.l2_atomic_int, self.lat.global_atomic);
        let (mut done, mut flagged) = (start, 0u32);
        for lane in iter_lanes(group) {
            let [b, i, x, y] = src.map(|s| self.src_val(lane, s));
            done = done.max(self.devs[rank].l2.issue(start, int_ps, lat_ps).done);
            let (old, flag) = op(checked_buffer_mut(&mut self.sys.bufs, b as usize)?, i, x, y)?;
            if let Some(d) = dst_old {
                self.set_reg(w, lane, d, old);
            }
            flagged |= (flag as u32) << lane;
        }
        Ok((done, flagged))
    }

    fn exec(&mut self, w: u32, group: u32, pc: u32, instr: Instr) -> SimResult<Step> {
        use Instr::*;
        if !matches!(
            instr,
            Shfl {
                kind: ShflKind::Coalesced,
                ..
            }
        ) {
            self.warps[w as usize].coa_shfl_hot = false;
        }
        // The instruction is matched ONCE here; each arm runs its own lane
        // loop (the old code re-matched `instr` for every lane).
        match instr {
            IAdd(d, a, b) => self.alu2(w, group, pc, d, a, b, self.lat.alu, |x, y| {
                x.wrapping_add(y)
            }),
            ISub(d, a, b) => self.alu2(w, group, pc, d, a, b, self.lat.alu, |x, y| {
                x.wrapping_sub(y)
            }),
            IMul(d, a, b) => self.alu2(w, group, pc, d, a, b, self.lat.alu, |x, y| {
                x.wrapping_mul(y)
            }),
            IMin(d, a, b) => self.alu2(w, group, pc, d, a, b, self.lat.alu, |x, y| x.min(y)),
            IAnd(d, a, b) => self.alu2(w, group, pc, d, a, b, self.lat.alu, |x, y| x & y),
            CmpLt(d, a, b) => self.alu2(w, group, pc, d, a, b, self.lat.alu, |x, y| (x < y) as u64),
            CmpEq(d, a, b) => {
                self.alu2(w, group, pc, d, a, b, self.lat.alu, |x, y| (x == y) as u64)
            }
            Mov(d, a) => self.alu2(w, group, pc, d, a, Operand::Imm(0), self.lat.alu, |x, _| x),
            I2F(d, a) => self.alu2(w, group, pc, d, a, Operand::Imm(0), self.lat.alu, |x, _| {
                (x as f64).to_bits()
            }),
            FAdd(d, a, b) => self.alu2(w, group, pc, d, a, b, self.lat.fadd64, |x, y| {
                (f64::from_bits(x) + f64::from_bits(y)).to_bits()
            }),
            FAdd32(d, a, b) => self.alu2(w, group, pc, d, a, b, self.lat.fadd32, |x, y| {
                (f64::from_bits(x) + f64::from_bits(y)).to_bits()
            }),
            FMul(d, a, b) => self.alu2(w, group, pc, d, a, b, self.lat.fadd64, |x, y| {
                (f64::from_bits(x) * f64::from_bits(y)).to_bits()
            }),

            Bra(target) => {
                let start = self.charge_sched(w);
                self.set_pcs(w, group, target);
                self.note_lanes(w, group);
                Ok(Step::Ready(start + self.lat.alu))
            }
            BraIf(cond, target) | BraIfZ(cond, target) => {
                let start = self.charge_sched(w);
                let want_nonzero = matches!(instr, BraIf(..));
                let c = self.alu_src(w, cond);
                let mut taken = 0u32;
                for lane in iter_lanes(group) {
                    if (self.src_val(lane, c) != 0) == want_nonzero {
                        taken |= 1 << lane;
                    }
                }
                // A uniform outcome moves the whole group and keeps a
                // converged warp converged; a split diverges it.
                self.set_pcs(w, taken, target);
                self.set_pcs(w, group & !taken, pc + 1);
                self.note_lanes(w, group);
                Ok(Step::Ready(start + self.lat.alu))
            }
            Exit => {
                self.retire_lanes(w, group);
                Ok(Step::Ready(self.now + self.lat.c1))
            }

            LdShared {
                dst,
                addr,
                volatile,
            } => {
                let start = self.charge_sched(w);
                let warp = &self.warps[w as usize];
                let (rank, sm, block) = (warp.rank as usize, warp.sm as usize, warp.block);
                let port_int = self.lat.smem_port_int[group.count_ones() as usize];
                let port = self.devs[rank].sms[sm]
                    .smem_port
                    .issue(start, port_int, Ps::ZERO);
                let lat = if volatile {
                    self.lat.smem_ld_vol
                } else {
                    self.lat.smem_ld
                };
                self.blocks[block as usize].smem.racecheck_at(pc);
                let (ra, tid0) = (self.alu_src(w, addr), warp.warp_in_block * WARP);
                let mut vals = [0u64; WARP as usize];
                for lane in iter_lanes(group) {
                    let a = self.src_val(lane, ra);
                    let smem = &mut self.blocks[block as usize].smem;
                    vals[(lane & 31) as usize] = smem.load(tid0 + lane, a, volatile)?;
                }
                self.write_dst(w, group, dst, |l| vals[l]);
                self.advance_pcs(w, group, pc);
                Ok(Step::Ready(port.start + lat))
            }
            StShared {
                addr,
                val,
                volatile,
                pred,
            } => {
                let start = self.charge_sched(w);
                let warp = &self.warps[w as usize];
                let (rank, sm, block) = (warp.rank as usize, warp.sm as usize, warp.block);
                let port_int = self.lat.smem_port_int[group.count_ones() as usize];
                let port = self.devs[rank].sms[sm]
                    .smem_port
                    .issue(start, port_int, Ps::ZERO);
                self.blocks[block as usize].smem.racecheck_at(pc);
                let (ra, rv, tid0) = (
                    self.alu_src(w, addr),
                    self.alu_src(w, val),
                    warp.warp_in_block * WARP,
                );
                let rp = pred.map(|p| self.alu_src(w, p));
                for lane in iter_lanes(group) {
                    if rp.is_some_and(|p| self.src_val(lane, p) == 0) {
                        continue;
                    }
                    let (a, v) = (self.src_val(lane, ra), self.src_val(lane, rv));
                    self.blocks[block as usize]
                        .smem
                        .store(tid0 + lane, a, v, volatile)?;
                }
                self.advance_pcs(w, group, pc);
                let lat = if volatile {
                    self.lat.smem_st_vol
                } else {
                    self.lat.smem_st
                };
                Ok(Step::Ready(port.start + lat))
            }

            LdGlobal { dst, buf, idx } => {
                let start = self.charge_sched(w);
                let warp_rank = self.warps[w as usize].rank as usize;
                let local_dev = self.devs[warp_rank].device_id;
                let mut remote = false;
                let (rb, ri) = (self.alu_src(w, buf), self.alu_src(w, idx));
                // A buffer operand that is the same for the whole warp is
                // looked up and checked once; the lane loop only indexes it.
                let uniform = match rb {
                    AluSrc::Const(b) => Some(checked_buffer(&self.sys.bufs, b as usize)?),
                    _ => None,
                };
                // Collect loads first, then write the register column, so the
                // warp borrow doesn't alternate with the buffer borrow.
                let mut vals = [0u64; WARP as usize];
                // A warp-uniform buffer read over one run of consecutive
                // words inside it is one slice copy. Anything else, a fault
                // included, runs the per-lane loop.
                let run = uniform
                    .zip(self.coalesced(group, ri))
                    .filter(|(buffer, (lanes, lo))| {
                        buffer.range_end(*lo, lanes.len() as u64).is_ok()
                    });
                if let Some((buffer, (lanes, lo))) = run {
                    remote = buffer.device != local_dev;
                    buffer.read_into(lo as usize, &mut vals[lanes]);
                } else {
                    for lane in iter_lanes(group) {
                        let buffer = match uniform {
                            Some(buffer) => buffer,
                            None => {
                                let b = self.src_val(lane, rb) as usize;
                                checked_buffer(&self.sys.bufs, b)?
                            }
                        };
                        remote |= buffer.device != local_dev;
                        vals[(lane & 31) as usize] = buffer.load(self.src_val(lane, ri))?;
                    }
                }
                // Take the checker out of `self` for the loop: grace_agent
                // needs a fresh immutable borrow per lane.
                if let Some(mut g) = self.grace.take() {
                    g.at(pc);
                    for lane in iter_lanes(group) {
                        let b = self.src_val(lane, rb) as u32;
                        let i = self.src_val(lane, ri);
                        g.on_load(self.grace_agent(w, lane), b, i);
                    }
                    self.grace = Some(g);
                }
                self.write_dst(w, group, dst, |l| vals[l]);
                self.advance_pcs(w, group, pc);
                let mut done = start + self.lat.dram;
                if remote {
                    done += self.remote_flag_latency(local_dev);
                }
                Ok(Step::Ready(done))
            }
            StGlobal { buf, idx, val } => {
                let start = self.charge_sched(w);
                let (rb, ri, rv) = (
                    self.alu_src(w, buf),
                    self.alu_src(w, idx),
                    self.alu_src(w, val),
                );
                // A warp-uniform buffer written over one run of consecutive
                // words inside it is one slice copy, which densifies a small
                // synthetic buffer, or fails on a large one, exactly as the
                // first per-lane store would. Anything else, a fault
                // included, runs the per-lane loop.
                if let (AluSrc::Const(b), Some((lanes, lo))) = (rb, self.coalesced(group, ri)) {
                    let mut vals = [0u64; WARP as usize];
                    self.fill_src(rv, &mut vals);
                    let buffer = checked_buffer_mut(&mut self.sys.bufs, b as usize)?;
                    if let Ok(end) = buffer.range_end(lo, lanes.len() as u64) {
                        let words = lo as usize..end as usize;
                        buffer.words_mut()?[words].copy_from_slice(&vals[lanes]);
                        self.advance_pcs(w, group, pc);
                        return Ok(Step::Ready(start + self.lat.c4));
                    }
                }
                // Evaluate operands (immutable borrows) before the mutable
                // buffer stores.
                let mut stores = [(0usize, 0u64, 0u64); WARP as usize];
                let mut n = 0usize;
                for lane in iter_lanes(group) {
                    stores[n] = (
                        self.src_val(lane, rb) as usize,
                        self.src_val(lane, ri),
                        self.src_val(lane, rv),
                    );
                    n += 1;
                }
                match rb {
                    // A buffer operand that is the same for the whole warp is
                    // looked up and checked once.
                    AluSrc::Const(b) => {
                        let buffer = checked_buffer_mut(&mut self.sys.bufs, b as usize)?;
                        for &(_, i, v) in &stores[..n] {
                            buffer.store(i, v)?;
                        }
                    }
                    _ => {
                        for &(b, i, v) in &stores[..n] {
                            checked_buffer_mut(&mut self.sys.bufs, b)?.store(i, v)?;
                        }
                    }
                }
                if let Some(mut g) = self.grace.take() {
                    g.at(pc);
                    for (k, lane) in iter_lanes(group).enumerate() {
                        let (b, i, _) = stores[k];
                        g.on_store(self.grace_agent(w, lane), b as u32, i);
                    }
                    self.grace = Some(g);
                }
                self.advance_pcs(w, group, pc);
                // Stores are fire-and-forget: only issue cost.
                Ok(Step::Ready(start + self.lat.c4))
            }
            AtomicFAdd {
                dst_old,
                buf,
                idx,
                val,
            } => {
                let (done, _) =
                    self.l2_lanes(w, group, dst_old, [buf, idx, val], |m, i, v, _| {
                        let old = m.load(i)?;
                        m.store(i, (f64::from_bits(old) + f64::from_bits(v)).to_bits())?;
                        Ok((old, false))
                    })?;
                self.grace_sync();
                self.advance_pcs(w, group, pc);
                Ok(Step::Ready(done))
            }
            AtomicCas {
                dst_old,
                buf,
                idx,
                cmp,
                val,
            } => {
                let (done, won) =
                    self.l2_lanes(w, group, dst_old, [buf, idx, cmp, val], |m, i, c, v| {
                        let old = m.load(i)?;
                        let exchanged = old == c;
                        if exchanged {
                            m.store(i, v)?;
                        }
                        Ok((old, exchanged))
                    })?;
                if won != 0 {
                    // A *successful* CAS (a lock acquired) is semantic
                    // progress even inside a retry loop whose PCs the
                    // watermark has already seen; a CAS that only ever
                    // fails (the holder died) still starves the watchdog.
                    self.note_semantic_progress();
                }
                // Only an exchange that *won* synchronizes anything: one
                // epoch per winning lane. Failed CAS polls must not advance
                // the epoch or a spinning loser would mask the very race its
                // lock is meant to prevent.
                for _ in iter_lanes(won) {
                    self.grace_sync();
                }
                self.advance_pcs(w, group, pc);
                Ok(Step::Ready(done))
            }
            AtomicExch {
                dst_old,
                buf,
                idx,
                val,
            } => {
                let (done, _) =
                    self.l2_lanes(w, group, dst_old, [buf, idx, val], |m, i, v, _| {
                        let old = m.load(i)?;
                        m.store(i, v)?;
                        Ok((old, false))
                    })?;
                self.grace_sync();
                self.advance_pcs(w, group, pc);
                Ok(Step::Ready(done))
            }
            AtomicIAdd {
                dst_old,
                buf,
                idx,
                val,
            } => {
                let (done, _) =
                    self.l2_lanes(w, group, dst_old, [buf, idx, val], |m, i, v, _| {
                        let old = m.load(i)?;
                        m.store(i, old.wrapping_add(v))?;
                        Ok((old, false))
                    })?;
                self.grace_sync();
                self.advance_pcs(w, group, pc);
                Ok(Step::Ready(done))
            }
            WaitGe { buf, idx, target } => {
                // One poll of the flag cell(s): every active lane pays a full
                // L2 atomic round trip (the paper's measured global-atomic
                // latency — flag polls and atomics share the L2 atomic unit).
                let (done, seen) =
                    self.l2_lanes(w, group, None, [buf, idx, target], |m, i, t, _| {
                        Ok((0, m.load(i)? >= t))
                    })?;
                if seen == group {
                    // All active lanes saw their flags: fall through. A
                    // satisfied wait is semantic progress even when this PC
                    // was already visited (a barrier loop re-crossing the
                    // same wait each round) — only a wait that never sees
                    // its flag should starve the watchdog.
                    self.note_semantic_progress();
                    self.grace_sync();
                    self.advance_pcs(w, group, pc);
                    Ok(Step::Ready(done))
                } else {
                    // Spin with backoff: the PC does NOT advance, so the warp
                    // re-executes this instruction after the architecture's
                    // poll interval. The stationary PC watermark is exactly
                    // what the watchdog classifies as `StuckKind::Spinning`
                    // when the flag is never signalled. Each retry is one
                    // queue pop, and `run_full` checks the watchdog at every
                    // pop.
                    Ok(Step::Ready(done + self.lat.poll))
                }
            }
            Signal { buf, idx, val } => {
                // Release-store through the L2 atomic unit: an atomicExch
                // whose old value is discarded. The warp waits for the round
                // trip, like every other global atomic.
                let (done, _) = self.l2_lanes(w, group, None, [buf, idx, val], |m, i, v, _| {
                    m.store(i, v)?;
                    Ok((0, false))
                })?;
                self.grace_sync();
                self.advance_pcs(w, group, pc);
                Ok(Step::Ready(done))
            }

            Shfl {
                dst,
                val,
                kind,
                mode,
                width,
            } => {
                let start = self.charge_sched(w);
                let (int_ps, mut lat) = match kind {
                    ShflKind::Tile => (self.lat.shfl_tile_int, self.lat.shfl_tile_lat),
                    ShflKind::Coalesced => (self.lat.shfl_coa_int, self.lat.shfl_coa_lat),
                };
                if kind == ShflKind::Coalesced {
                    // Cold group descriptor: the software path rebuilds the
                    // member mask unless the previous instruction was also a
                    // coalesced shuffle (Table V vs Table II).
                    if !self.warps[w as usize].coa_shfl_hot {
                        lat = self.lat.shfl_coa_cold_lat;
                    }
                    self.warps[w as usize].coa_shfl_hot = true;
                } else {
                    self.warps[w as usize].coa_shfl_hot = false;
                }
                let warp = &self.warps[w as usize];
                let (rank, sm, nlanes) = (
                    warp.rank as usize,
                    warp.sm as usize,
                    warp.present.count_ones(),
                );
                let unit = self.devs[rank].sms[sm]
                    .sync_unit
                    .issue(start, int_ps, Ps::ZERO);
                debug_assert!(
                    !matches!(val, Operand::Reg(r) if self.reg_layout.is_scalar(r)),
                    "shuffle reads scalar {val:?}"
                );
                // Gather source values first (exchange happens "at once").
                let rv = self.alu_src(w, val);
                let mut vals = [0u64; WARP as usize];
                for lane in iter_lanes(group) {
                    let src_lane = match mode {
                        ShflMode::Down(delta) => {
                            let tile_end = (lane / width + 1) * width;
                            match lane.checked_add(delta) {
                                Some(l) if l < tile_end && l < nlanes => l,
                                _ => lane,
                            }
                        }
                        ShflMode::Idx(i) => {
                            let base = lane / width * width;
                            let l = base + (i % width);
                            if l < nlanes {
                                l
                            } else {
                                lane
                            }
                        }
                    };
                    vals[(lane & 31) as usize] = self.src_val(src_lane, rv);
                }
                self.write_dst(w, group, dst, |l| vals[l]);
                self.advance_pcs(w, group, pc);
                Ok(Step::Ready(unit.start + lat))
            }

            SyncTile { width } => self.warp_barrier(w, group, pc, width, ShflKind::Tile),
            SyncCoalesced => self.warp_barrier(w, group, pc, WARP, ShflKind::Coalesced),
            MemFence => {
                let start = self.charge_sched(w);
                self.fence_lanes(w, group);
                self.grace_sync();
                self.advance_pcs(w, group, pc);
                Ok(Step::Ready(start + self.lat.c4))
            }

            BarSync => self.block_level_barrier(w, group, BlockWaitKind::Block),
            GridSync => self.block_level_barrier(w, group, BlockWaitKind::Grid),
            MultiGridSync => self.block_level_barrier(w, group, BlockWaitKind::MultiGrid),

            Nanosleep(ns) => {
                let start = self.charge_sched(w);
                let ns = self.alu_src(w, ns);
                let max_ns = iter_lanes(group)
                    .map(|lane| self.src_val(lane, ns))
                    .max()
                    .unwrap_or(0);
                // The operand is kernel data: a wake past half the
                // picosecond timeline fails the launch instead of wrapping,
                // which leaves 2^63 ps of headroom for every later add.
                let wake = max_ns
                    .checked_mul(1_000)
                    .and_then(|ps| start.0.checked_add(ps))
                    .filter(|&wake| wake <= u64::MAX / 2)
                    .ok_or_else(|| {
                        SimError::ProgramError(format!(
                            "kernel {:?}: nanosleep of {max_ns} ns overflows the simulated clock",
                            self.launch.kernel.name
                        ))
                    })?;
                self.advance_pcs(w, group, pc);
                Ok(Step::Ready(Ps(wake)))
            }
            ReadClock(dst) => {
                let start = self.charge_sched(w);
                let done = start + self.lat.clock_read;
                let cycles = self.arch.clock().to_cycles_u64(done);
                self.write_dst(w, group, dst, |_| cycles);
                self.advance_pcs(w, group, pc);
                Ok(Step::Ready(done))
            }

            MemStream {
                acc,
                buf,
                start: st,
                stride,
                len,
                flops,
                eff_permille,
            } => self.mem_stream(w, group, pc, acc, buf, st, stride, len, flops, eff_permille),
            MemCombine {
                dst,
                a,
                b,
                start: st,
                stride,
                len,
            } => self.mem_combine(w, group, pc, dst, a, b, st, stride, len),
            SmemStream {
                acc,
                start: st,
                stride,
                len,
                flops,
            } => self.smem_stream(w, group, pc, acc, st, stride, len, flops),
        }
    }

    /// Vectorized `dst[i] = a[i] + b[i]`: exact elementwise math, bandwidth
    /// timing over local DRAM plus any peer links the operand buffers need.
    #[allow(clippy::too_many_arguments)]
    fn mem_combine(
        &mut self,
        w: u32,
        group: u32,
        pc: u32,
        dst: Operand,
        a: Operand,
        b: Operand,
        st: Operand,
        stride: Operand,
        len: Operand,
    ) -> SimResult<Step> {
        let start = self.charge_sched(w);
        let warp_rank = self.warps[w as usize].rank as usize;
        let local_dev = self.devs[warp_rank].device_id;
        let mut total_elems = 0u64;
        let mut remote: Vec<usize> = Vec::new();
        let (rd, ra, rb, rs, rk, rn) = (
            self.alu_src(w, dst),
            self.alu_src(w, a),
            self.alu_src(w, b),
            self.alu_src(w, st),
            self.alu_src(w, stride),
            self.alu_src(w, len),
        );
        for lane in iter_lanes(group) {
            let d = self.src_val(lane, rd) as usize;
            let ab = self.src_val(lane, ra) as usize;
            let bb = self.src_val(lane, rb) as usize;
            let s0 = self.src_val(lane, rs);
            let k = self.src_val(lane, rk).max(1);
            let n = self.src_val(lane, rn);
            for &buf in &[d, ab, bb] {
                let buffer = checked_buffer(&self.sys.bufs, buf)?;
                if n > buffer.len() {
                    return Err(SimError::MemoryFault(format!(
                        "combine cap {n} beyond buffer of {} words",
                        buffer.len()
                    )));
                }
                if buffer.device != local_dev {
                    remote.push(buffer.device);
                }
            }
            total_elems += mem::combine(&mut self.sys.bufs, d, ab, bb, s0, k, n)?;
        }
        self.advance_pcs(w, group, pc);
        // Traffic: one read per source, one write to dst.
        let bytes = total_elems * 8;
        let local_done = self.devs[warp_rank].dram.transfer(start, bytes * 3).done;
        let mut done = local_done;
        remote.sort_unstable();
        remote.dedup();
        let peer_start = start + self.fault_flap(start);
        for rd in remote {
            done = done.max(
                self.peer_channel(rd, local_dev)
                    .transfer(peer_start, bytes)
                    .done,
            );
        }
        Ok(Step::Ready(done))
    }

    /// Key for the peer channel between `remote` and `local`: NVLink pairs
    /// ride their own link; PCIe-routed (Far) traffic shares one ingress
    /// bus per destination device.
    fn peer_channel(&mut self, remote: usize, local: usize) -> &mut Channel {
        let topo = self.topo();
        let far = topo.link(remote, local) == gpu_node::LinkClass::Far;
        let key = if far {
            (usize::MAX, local)
        } else {
            (remote, local)
        };
        let lat = topo.flag_latency(remote, local);
        let bw = topo.peer_bandwidth_gbs(remote, local);
        self.peer
            .entry(key)
            .or_insert_with(|| Channel::new(bw.max(0.001), lat))
    }

    fn remote_flag_latency(&self, dev: usize) -> Ps {
        // One-way small-transfer latency to the nearest peer; used for the
        // rare single-word remote accesses.
        let topo = self.topo();
        (0..topo.num_gpus)
            .filter(|&g| g != dev)
            .map(|g| topo.flag_latency(dev, g))
            .min()
            .unwrap_or(Ps::ZERO)
    }

    // ----- warp-level (tile / coalesced) barriers ------------------------------

    /// Commit the pending shared-memory stores of the lanes in `mask` of
    /// warp `w` (the fence every sync instruction carries).
    fn fence_lanes(&mut self, w: u32, mask: u32) {
        let warp = &self.warps[w as usize];
        let (tid0, smem) = (
            warp.warp_in_block * WARP,
            &mut self.blocks[warp.block as usize].smem,
        );
        for lane in iter_lanes(mask) {
            smem.fence(tid0 + lane);
        }
    }

    fn warp_barrier(
        &mut self,
        w: u32,
        group: u32,
        pc: u32,
        width: u32,
        kind: ShflKind,
    ) -> SimResult<Step> {
        let t = &self.arch.timing;
        let full_warp_group = group == self.warps[w as usize].live() && group.count_ones() == WARP;
        let (interval, latency, blocking) = match kind {
            ShflKind::Tile => (
                self.lat.tile_sync_int,
                self.lat.tile_sync_lat,
                t.tile_sync.blocking,
            ),
            ShflKind::Coalesced => {
                if full_warp_group {
                    (
                        self.lat.coa_full_int,
                        self.lat.coa_full_lat,
                        t.coalesced_sync_full.blocking,
                    )
                } else {
                    (
                        self.lat.coa_part_int,
                        self.lat.coa_part_lat,
                        t.coalesced_sync_partial.blocking,
                    )
                }
            }
        };

        if !blocking {
            // Pascal: a fence, not a barrier (paper §VIII-A / Fig. 18 right).
            let start = self.charge_sched(w);
            let warp = &self.warps[w as usize];
            let (rank, sm) = (warp.rank as usize, warp.sm as usize);
            let unit = self.devs[rank].sms[sm]
                .sync_unit
                .issue(start, interval, Ps::ZERO);
            self.fence_lanes(w, group);
            self.advance_pcs(w, group, pc);
            return Ok(Step::Ready(unit.start + latency));
        }

        // Volta: park the group; release each width-tile once all its
        // non-exited lanes are waiting.
        {
            let warp = &mut self.warps[w as usize];
            let first = warp.wb_wait == 0;
            warp.wb_wait |= group;
            // Any width of 32 or more tiles the whole warp.
            warp.wb_width = width.min(WARP) as u8;
            if first && self.prof.is_some() {
                self.parked_at[w as usize].warp_barrier = self.now;
            }
        }
        let released = self.try_release_warp_barrier(w);
        if released & group != 0 {
            // This group's tile completed immediately (converged warp).
            let start = self.charge_sched(w);
            let warp = &self.warps[w as usize];
            let (rank, sm) = (warp.rank as usize, warp.sm as usize);
            let unit = self.devs[rank].sms[sm]
                .sync_unit
                .issue(start, interval, Ps::ZERO);
            Ok(Step::Ready(unit.start + latency))
        } else {
            Ok(Step::Parked { warp_barrier: true })
        }
    }

    /// Release any warp-barrier tiles whose non-exited lanes are all waiting.
    /// Returns the mask of released lanes (already advanced past the barrier).
    fn try_release_warp_barrier(&mut self, w: u32) -> u32 {
        let (width, live, waiting) = {
            let warp = &self.warps[w as usize];
            (warp.wb_width as u32, warp.live(), warp.wb_wait)
        };
        if waiting == 0 {
            return 0;
        }
        let width = width.max(1);
        let mut released = 0u32;
        let mut tile_base = 0;
        while tile_base < WARP {
            let tile: u32 = if width >= 32 {
                FULL
            } else {
                (((1u64 << width) - 1) as u32) << tile_base
            };
            let scope = tile & live;
            if scope != 0 && waiting & scope == scope {
                released |= scope;
            }
            tile_base += width;
        }
        if released != 0 {
            // Wait attribution: from the warp's first parked group to the
            // release (warp-granular; the release latency itself is counted
            // by the synchronous-completion path).
            if self.prof.is_some() {
                let parked_at = self.parked_at[w as usize].warp_barrier;
                let waited = self.now.saturating_sub(parked_at).0;
                self.prof_barrier_wait(w, SyncScope::Tile, waited);
            }
            let latency = self.lat.tile_sync_lat;
            // Commit stores of all released lanes; each advances past its own
            // barrier site (divergent code can sync at different PCs).
            self.fence_lanes(w, released);
            self.bump_pcs(w, released);
            self.note_lanes(w, released);
            {
                let warp = &mut self.warps[w as usize];
                warp.wb_wait &= !released;
            }
            // Wake the warp if it had no schedulable lanes until now.
            let at = self.now + latency;
            self.schedule_warp(w, at);
        }
        released
    }

    // ----- block / grid / multi-grid barriers ----------------------------------

    fn block_level_barrier(&mut self, w: u32, group: u32, kind: BlockWaitKind) -> SimResult<Step> {
        // The whole warp (its non-exited lanes) must converge on the barrier.
        {
            let warp = &mut self.warps[w as usize];
            let first = warp.blk_wait == 0;
            warp.blk_wait |= group;
            warp.blk_kind = kind;
            let converged_at_barrier = warp.blk_wait == warp.live();
            if first && self.prof.is_some() {
                self.parked_at[w as usize].block_barrier = self.now;
            }
            if !converged_at_barrier {
                // Divergent: other lanes must reach the barrier first.
                return Ok(Step::Parked {
                    warp_barrier: false,
                });
            }
        }
        self.warp_arrives_at_block_barrier(w, kind);
        Ok(Step::Parked {
            warp_barrier: false,
        })
    }

    /// A whole warp (all non-exited lanes) reached a block-level barrier:
    /// serialize its arrival at the SM barrier unit and release / escalate
    /// when it is the last one.
    fn warp_arrives_at_block_barrier(&mut self, w: u32, kind: BlockWaitKind) {
        let warp = &self.warps[w as usize];
        let (rank, sm, block) = (warp.rank as usize, warp.sm as usize, warp.block);
        if matches!(kind, BlockWaitKind::Grid | BlockWaitKind::MultiGrid)
            && self.fault_block_killed(block)
        {
            // A killed block never arrives: its warps stay parked, the queue
            // drains, and the run reports the paper's §VIII-B partial-arrival
            // hang as a structured `SimError::Deadlock`.
            return;
        }
        let arr_int = self.lat.block_arr_int;
        let arrival = self.devs[rank].sms[sm]
            .barrier_unit
            .issue(self.now, arr_int, Ps::ZERO);
        let arr_done = arrival.start + arr_int;
        let b = &mut self.blocks[block as usize];
        b.bar_arrived += 1;
        b.bar_waiting.push(w);
        b.bar_last = b.bar_last.max(arr_done);
        if b.bar_arrived == b.live_warps {
            match kind {
                BlockWaitKind::Block => self.release_block_barrier(block),
                BlockWaitKind::Grid | BlockWaitKind::MultiGrid => {
                    self.block_arrives_at_grid(block, kind)
                }
                BlockWaitKind::None => unreachable!(),
            }
        }
    }

    fn release_block_barrier(&mut self, gb: u32) {
        let release = {
            let b = &mut self.blocks[gb as usize];
            b.smem.fence_all();
            b.bar_last + self.lat.block_sync
        };
        let mut waiting = std::mem::take(&mut self.blocks[gb as usize].bar_waiting);
        self.blocks[gb as usize].bar_arrived = 0;
        self.blocks[gb as usize].bar_last = Ps::ZERO;
        if self.prof.is_some() {
            let rank = self.blocks[gb as usize].rank;
            self.prof_epoch(rank, SyncScope::Block, release);
        }
        for &w in &waiting {
            self.release_warp_from_block_barrier(w, release);
        }
        // Hand the (emptied) buffer back so the next epoch's arrivals don't
        // reallocate it.
        waiting.clear();
        self.blocks[gb as usize].bar_waiting = waiting;
    }

    fn release_warp_from_block_barrier(&mut self, w: u32, at: Ps) {
        if self.unpark(w, at) {
            self.schedule_warp(w, at);
        }
    }

    /// Move warp `w`'s lanes parked at a block-level barrier past it, to run
    /// again at `at`; false if none were parked there.
    fn unpark(&mut self, w: u32, at: Ps) -> bool {
        let warp = &mut self.warps[w as usize];
        let mask = std::mem::take(&mut warp.blk_wait);
        let kind = warp.blk_kind;
        warp.blk_kind = BlockWaitKind::None;
        if mask == 0 {
            return false;
        }
        if self.prof.is_some() {
            let scope = match kind {
                BlockWaitKind::Grid => SyncScope::Grid,
                BlockWaitKind::MultiGrid => SyncScope::MultiGrid,
                _ => SyncScope::Block,
            };
            let parked_at = self.parked_at[w as usize].block_barrier;
            self.prof_barrier_wait(w, scope, at.saturating_sub(parked_at).0);
        }
        let pc = self.lane_pc(w, mask.trailing_zeros());
        self.set_pcs(w, mask, pc + 1);
        self.note_lanes(w, mask);
        true
    }

    /// A block's warps are all parked on grid/multi-grid sync: its leader
    /// performs the arrival atomic, contended by every leader already
    /// spinning on the release flag.
    fn block_arrives_at_grid(&mut self, gb: u32, kind: BlockWaitKind) {
        let (rank, bar_last) = {
            let b = &self.blocks[gb as usize];
            (b.rank as usize, b.bar_last)
        };
        // Intra-block convergence first (same cost as a block barrier).
        let local = bar_last + self.lat.block_sync;
        let spinning = self.devs[rank].grid_bar.waiting.len() as f64;
        // Contended interval varies with the number of spinning leaders —
        // this one stays a live `cyc` conversion.
        let t = &self.arch.timing;
        let interval = t.l2_atomic_interval * (1.0 + t.poll_contention_per_block * spinning);
        let int_ps = self.cyc(interval);
        let lat_ps = self.lat.global_atomic;
        let iss = self.devs[rank].l2.issue(local, int_ps, lat_ps);
        let dev = &mut self.devs[rank];
        dev.grid_bar.arrived += 1;
        dev.grid_bar.waiting.push((gb, iss.done));
        if dev.grid_bar.arrived == self.launch.grid_dim {
            let local_done = dev
                .grid_bar
                .waiting
                .iter()
                .map(|&(_, d)| d)
                .max()
                .unwrap_or(self.now);
            match kind {
                BlockWaitKind::Grid => {
                    self.release_grid(rank, local_done, false);
                    self.wake_released(false);
                }
                BlockWaitKind::MultiGrid => self.rank_arrives_at_mgrid(rank, local_done),
                _ => unreachable!(),
            }
        }
    }

    /// All blocks of `rank` arrived: release their warps, to wake once the
    /// release flag is set at `release_flag`. Each leader polls the flag
    /// every `poll` cycles from its own arrival atomic's completion, reads it
    /// one L2 latency later, and releases its warps down the per-warp ramp.
    /// `mgrid` selects the heavier per-warp system-scope release cost and
    /// per-block fence cost. Each block's wakes become one train of
    /// `self.release`, which [`Engine::wake_released`] queues.
    fn release_grid(&mut self, rank: usize, release_flag: Ps, mgrid: bool) {
        // A grid (or multi-grid) barrier orders every agent of the launch:
        // one launch-wide epoch tick. Block barriers deliberately do NOT
        // bump the global epoch — they only order one block's threads, and
        // a launch-wide tick for them would hide true cross-block races.
        self.grace_sync();
        // The per-block system-scope fence cost only exists when the barrier
        // actually spans devices (a 1-GPU multi-grid launch degenerates to a
        // grid barrier, matching the paper's near-identical 1-GPU columns).
        let per_block_ns = if mgrid && self.launch.devices.len() > 1 {
            self.topo().mgrid_per_block_ns
        } else {
            0.0
        };
        let mut waiting = std::mem::take(&mut self.devs[rank].grid_bar.waiting);
        self.devs[rank].grid_bar.arrived = 0;
        // A release has at most one train per block of the launch: size the
        // buffers for that once, so that no release grows them.
        let spare = self.blocks.len() - self.release.trains.len();
        self.release.trains.reserve_exact(spare);
        self.release.blocks.reserve_exact(spare);
        let scope = if mgrid {
            SyncScope::MultiGrid
        } else {
            SyncScope::Grid
        };
        self.prof_epoch(rank as u32, scope, release_flag);
        let (poll, l2_lat) = (self.lat.poll, self.lat.l2);
        for (order, &(gb, atomic_done)) in waiting.iter().enumerate() {
            let wake_base = if release_flag <= atomic_done {
                atomic_done
            } else {
                let gap = (release_flag - atomic_done).0;
                let k = gap.div_ceil(poll.0.max(1));
                atomic_done + Ps(k * poll.0)
            } + l2_lat
                + Ps::from_ns_f64(per_block_ns * order as f64);
            let b = &mut self.blocks[gb as usize];
            b.smem.fence_all();
            b.bar_arrived = 0;
            b.bar_last = Ps::ZERO;
            let warps = std::mem::take(&mut b.bar_waiting);
            for (i, &w) in warps.iter().enumerate() {
                let at = wake_base + self.lat.release_ramp(mgrid)[i];
                let parked = self.unpark(w, at);
                debug_assert!(
                    parked,
                    "warp {w} arrived at a grid barrier with no lanes parked"
                );
            }
            self.release.trains.push((wake_base, warps.len() as u32));
            self.release.blocks.push(gb);
            // `wake_released` reads the list, then clears it.
            self.blocks[gb as usize].bar_waiting = warps;
        }
        // Hand the (emptied) buffer back for the next epoch's arrivals.
        waiting.clear();
        self.devs[rank].grid_bar.waiting = waiting;
    }

    /// Queue the wakes of the release made by [`Engine::release_grid`] (every
    /// rank of a multi-grid release together) in one hand-over, which makes
    /// them the queue's run when nothing else is pending, and empty the
    /// released blocks' waiting lists.
    fn wake_released(&mut self, mgrid: bool) {
        let (blocks, warps) = (&self.blocks, &mut self.warps);
        let wakes = self
            .release
            .blocks
            .iter()
            .flat_map(|&gb| &blocks[gb as usize].bar_waiting)
            .map(|&w| {
                let warp = &mut warps[w as usize];
                warp.gen = warp.gen.wrapping_add(1);
                Ev::WarpStep(w, warp.gen)
            });
        let ramp = self.lat.release_ramp(mgrid);
        self.q.hand_over(&self.release.trains, ramp, wakes);
        for &gb in &self.release.blocks {
            self.blocks[gb as usize].bar_waiting.clear();
        }
        self.release.trains.clear();
        self.release.blocks.clear();
    }

    /// One device finished its local multi-grid arrival; when all ranks have,
    /// run the inter-GPU flag exchange and release every rank.
    fn rank_arrives_at_mgrid(&mut self, rank: usize, local_done: Ps) {
        self.mgrid.rank_done[rank] = Some(local_done);
        self.mgrid.ranks_arrived += 1;
        if self.mgrid.ranks_arrived as usize != self.launch.devices.len() {
            return;
        }
        let arrivals: Vec<Ps> = self
            .mgrid
            .rank_done
            .iter()
            .map(|d| d.expect("rank arrived"))
            .collect();
        let releases = self.mgrid_release_times(&arrivals);
        self.mgrid.ranks_arrived = 0;
        self.mgrid.rank_done.iter_mut().for_each(|d| *d = None);
        for (r, release) in releases.into_iter().enumerate() {
            self.release_grid(r, release, true);
        }
        self.wake_released(true);
    }

    // ----- vectorized streams ---------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn mem_stream(
        &mut self,
        w: u32,
        group: u32,
        pc: u32,
        acc: u8,
        buf: Operand,
        st: Operand,
        stride: Operand,
        len: Operand,
        flops: u8,
        eff_permille: u16,
    ) -> SimResult<Step> {
        let start = self.charge_sched(w);
        let warp_rank = self.warps[w as usize].rank as usize;
        // Stream lengths are kernel data: 32 of them overflow a u64 sum.
        let mut total_elems = 0u128;
        let mut max_iters = 0u64;
        let mut remote_dev: Option<usize> = None;
        // Operands resolved once; the per-lane loop only reads registers.
        let (rb, rs, rk, rn) = (
            self.alu_src(w, buf),
            self.alu_src(w, st),
            self.alu_src(w, stride),
            self.alu_src(w, len),
        );
        // Phase 1 (immutable): sum each lane's stream into a stack buffer so
        // the accumulator write-back doesn't fight the buffer borrow.
        let mut sums = [0.0f64; WARP as usize];
        for lane in iter_lanes(group) {
            let b = self.src_val(lane, rb) as usize;
            let s = self.src_val(lane, rs);
            let k = self.src_val(lane, rk).max(1);
            let n = self.src_val(lane, rn);
            let buffer = checked_buffer(&self.sys.bufs, b)?;
            if buffer.device != self.devs[warp_rank].device_id {
                remote_dev = Some(buffer.device);
            }
            let (sum, cnt) = buffer.strided_sum(s, k, n)?;
            total_elems += cnt as u128;
            max_iters = max_iters.max(cnt);
            sums[(lane & 31) as usize] = sum;
        }
        // Phase 2 (mutable): fold the sums into the accumulator column.
        for lane in iter_lanes(group) {
            let old = f64::from_bits(self.reg(w, lane, acc));
            self.set_reg(w, lane, acc, (old + sums[(lane & 31) as usize]).to_bits());
        }
        self.advance_pcs(w, group, pc);
        // A stream that would complete past half the picosecond timeline
        // fails the launch before any channel is charged, the headroom a
        // `Nanosleep` keeps for every later add.
        let launch = self.launch;
        let overflow = || {
            SimError::ProgramError(format!(
                "kernel {:?}: a stream of {total_elems} words overflows the simulated clock",
                launch.kernel.name
            ))
        };
        // A sub-unity efficiency stretches the channel occupancy, modelling
        // less ideal access patterns of baseline implementations.
        let eff = eff_permille.clamp(1, 1000) as u128;
        let bytes = u64::try_from(total_elems * 8 * 1000 / eff).map_err(|_| overflow())?;
        // Little's-law per-warp floor: limited memory-level parallelism.
        let warp_bytes = bytes.min(max_iters.saturating_mul(8 * group.count_ones() as u64));
        let mem = &self.arch.memory;
        let floor_cycles = warp_bytes as f64 * mem.dram_latency as f64 / mem.warp_mlp_bytes as f64;
        let floor = self.cyc(floor_cycles);
        let tail = self.cyc((flops as u64 * self.arch.timing.fadd64_latency) as f64);
        let local_dev_id = self.devs[warp_rank].device_id;
        let (ch_start, ch) = match remote_dev {
            None => (start, &mut self.devs[warp_rank].dram),
            Some(rd) => (
                start + self.fault_flap(start),
                self.peer_channel(rd, local_dev_id),
            ),
        };
        // The channel's completion, as `transfer` computes it.
        let ch_done = [ch.latency(), ch.service_time(bytes)]
            .iter()
            .try_fold(ch_start.max(ch.next_free()).0, |t, d| t.checked_add(d.0));
        let done = ch_done
            .zip(start.0.checked_add(floor.0))
            .and_then(|(c, f)| c.max(f).checked_add(tail.0))
            .filter(|&t| t <= u64::MAX / 2)
            .ok_or_else(overflow)?;
        ch.transfer(ch_start, bytes);
        Ok(Step::Ready(Ps(done)))
    }

    #[allow(clippy::too_many_arguments)]
    fn smem_stream(
        &mut self,
        w: u32,
        group: u32,
        pc: u32,
        acc: u8,
        st: Operand,
        stride: Operand,
        len: Operand,
        flops: u8,
    ) -> SimResult<Step> {
        let start = self.charge_sched(w);
        let warp = &self.warps[w as usize];
        let (rank, sm, block) = (warp.rank as usize, warp.sm as usize, warp.block as usize);
        let warp_in_block = warp.warp_in_block;
        let mut total_elems = 0u64;
        let mut max_iters = 0u64;
        self.blocks[block].smem.racecheck_at(pc);
        let (rs, rk, rn) = (
            self.alu_src(w, st),
            self.alu_src(w, stride),
            self.alu_src(w, len),
        );
        for lane in iter_lanes(group) {
            let s = self.src_val(lane, rs);
            let k = self.src_val(lane, rk).max(1);
            let n = self.src_val(lane, rn);
            let tid = warp_in_block * WARP + lane;
            let cap = n.min(self.blocks[block].smem.len() as u64);
            let mut sum = 0.0f64;
            for i in mem::strided(s, k, cap) {
                sum += f64::from_bits(self.blocks[block].smem.load(tid, i, false)?);
            }
            let cnt = mem::strided_count(s, k, cap);
            total_elems += cnt;
            max_iters = max_iters.max(cnt);
            let old = f64::from_bits(self.reg(w, lane, acc));
            self.set_reg(w, lane, acc, (old + sum).to_bits());
        }
        self.advance_pcs(w, group, pc);
        let t = &self.arch.timing;
        // Dependent-loop floor per warp; port bandwidth cap across warps.
        let iter_cycles = t.smem_scan_iter_cycles + flops as f64 * t.smem_flop_extra_cycles;
        let loop_cycles = max_iters as f64 * iter_cycles;
        let bytes = total_elems as f64 * 8.0;
        let port_int = self.cyc(bytes / t.smem_bytes_per_cycle_sm);
        let port = self.devs[rank].sms[sm]
            .smem_port
            .issue(start, port_int, Ps::ZERO);
        let done = (port.start + port_int).max(start + self.cyc(loop_cycles));
        Ok(Step::Ready(done))
    }

    // ----- wrap-up ----------------------------------------------------------------

    /// Why each of this engine's unfinished blocks is stuck, keyed by
    /// (rank, sm, block) for deterministic ordering; never-started blocks
    /// have no SM and sort last per rank. Empty when the run completed.
    fn blocked_descriptors(&self) -> Vec<(u32, u32, u32, String)> {
        let mut blocked: Vec<(u32, u32, u32, String)> = Vec::new();
        for b in self.blocks.iter() {
            if b.done {
                continue;
            }
            if !b.started {
                blocked.push((
                    b.rank,
                    u32::MAX,
                    b.block_on_device,
                    format!(
                        "block {} (device rank {}) never started",
                        b.block_on_device, b.rank
                    ),
                ));
                continue;
            }
            // Describe why this block is stuck.
            let sm = self.warps[b.warp_start as usize].sm;
            let mut reasons = Vec::new();
            for wi in b.warp_start..b.warp_start + b.nwarps {
                let w = &self.warps[wi as usize];
                if w.done {
                    continue;
                }
                if w.wb_wait != 0 {
                    reasons.push(format!(
                        "warp {} lanes {:#010x} at warp barrier",
                        w.warp_in_block, w.wb_wait
                    ));
                } else if w.blk_wait != 0 {
                    let kind = match w.blk_kind {
                        BlockWaitKind::Block => "block barrier",
                        BlockWaitKind::Grid => "grid barrier",
                        BlockWaitKind::MultiGrid => "multi-grid barrier",
                        BlockWaitKind::None => "barrier",
                    };
                    reasons.push(format!("warp {} at {}", w.warp_in_block, kind));
                }
            }
            blocked.push((
                b.rank,
                sm,
                b.block_on_device,
                format!(
                    "block {} (device rank {}): {}",
                    b.block_on_device,
                    b.rank,
                    if reasons.is_empty() {
                        "stalled".to_string()
                    } else {
                        reasons.join(", ")
                    }
                ),
            ));
        }
        blocked.sort_unstable();
        blocked
    }

    fn finish(mut self) -> SimResult<RunArtifacts> {
        let blocked = self.blocked_descriptors();
        if !blocked.is_empty() {
            return Err(SimError::Deadlock {
                at: self.now,
                blocked: blocked.into_iter().map(|(_, _, _, s)| s).collect(),
                faults: self.fault_fingerprint(),
            });
        }
        // Blocks are created rank-major, so the hazard report is ordered
        // (rank, block) — deterministic across runs and --jobs values.
        let mut hazards = HazardReport::default();
        for b in &mut self.blocks {
            let (hz, dropped) = b.smem.take_hazards();
            hazards.dropped += dropped;
            for hazard in hz {
                hazards.records.push(HazardRecord {
                    rank: b.rank,
                    block: b.block_on_device,
                    hazard,
                });
            }
        }
        if let Some(g) = &mut self.grace {
            let (hz, dropped) = g.take_hazards();
            hazards.global = hz;
            hazards.global_dropped = dropped;
        }
        let device_durations: Vec<Ps> = self.devs.iter().map(|d| d.end_time).collect();
        let profile = self.prof.take().map(|p| {
            ProfileReport::from_parts(
                self.ps_per_cycle,
                self.launch.kernel.name.clone(),
                p.sms.into_iter().flatten().collect(),
                p.epochs,
                p.epochs_dropped,
            )
        });
        Ok(RunArtifacts {
            report: ExecReport {
                duration: device_durations.iter().copied().max().unwrap_or(Ps::ZERO),
                device_durations,
                blocks_run: self.blocks.len() as u64,
                warps_run: self.warps_run,
                instrs_executed: self.instrs_executed,
            },
            hazards: self.check.then_some(hazards),
            trace: self.trace.map(|(_, ev)| ev),
            profile,
        })
    }
}

/// Where a launch keeps each register in a warp's slot: one word for the
/// whole warp (*scalar*) or a 32-word column, one word per lane.
///
/// A register is scalar when every instruction that writes it yields one
/// value for the whole warp, no shuffle reads it, and the kernel has no
/// conditional branch whose condition may differ across lanes. The writes
/// that yield one value are ALU ops, `Mov` and `I2F` whose inputs are
/// immediates, params, specials other than `Tid`/`LaneId`/`GlobalTid`, or
/// scalar registers, plus `ReadClock` and `LdGlobal` with a uniform buffer
/// and index. Atomic old values, shared loads, shuffle results and stream
/// accumulators are columns, and so is every register of a kernel with a
/// lane-varying branch.
///
/// The premises make the rule exact. Without a lane-varying branch every
/// step's group is the warp's whole live mask and no lane exits early, so
/// each write reaches every lane at once. Without a shuffle read, no lane
/// can observe another lane's copy, an exited lane's included. The rule
/// deliberately ignores the verifier's divergence regions: under min-PC
/// scheduling one group can run past the join with a partial mask while
/// another is parked at a warp barrier inside the region.
struct RegLayout {
    /// Bit `r` is set when register `r` is scalar.
    scalar: u32,
    /// Offset of each register's column or word within a slot: columns
    /// first, in register order, then the scalar words.
    at: [u32; NUM_REGS],
    /// Words per warp slot: one per scalar register, 32 per column, for
    /// every register up to the highest index the program references.
    slot_words: usize,
}

const _: () = assert!(NUM_REGS <= 32, "RegLayout::scalar is a u32 mask");

impl RegLayout {
    /// Scan `program` once. Register indices must be below `NUM_REGS`,
    /// which launch validation guarantees.
    fn new(program: &Program) -> RegLayout {
        use crate::verify::{regs_used, written_reg};
        let mut nregs = 0usize;
        let mut shfl_read = 0u32;
        for i in &program.instrs {
            for r in regs_used(i) {
                nregs = nregs.max(r as usize + 1);
            }
            if let Instr::Shfl {
                val: Operand::Reg(r),
                ..
            } = *i
            {
                shfl_read |= 1 << r;
            }
        }
        // Greatest fixpoint: start from every register no shuffle reads and
        // drop any with a write that may differ across lanes, until no
        // write changes. Registers start zeroed, so one that is never
        // written stays scalar.
        let mut scalar = (((1u64 << nregs) - 1) as u32) & !shfl_read;
        loop {
            let before = scalar;
            for i in &program.instrs {
                if let Some(d) = written_reg(i) {
                    if !writes_uniform(i, scalar) {
                        scalar &= !(1 << d);
                    }
                }
            }
            if scalar == before {
                break;
            }
        }
        let lane_varying_branch = program.instrs.iter().any(|i| match *i {
            Instr::BraIf(c, _) | Instr::BraIfZ(c, _) => !uniform(c, scalar),
            _ => false,
        });
        if lane_varying_branch {
            scalar = 0;
        }
        let mut at = [0u32; NUM_REGS];
        let mut words = 0u32;
        for want_scalar in [false, true] {
            for (r, slot) in at.iter_mut().enumerate().take(nregs) {
                if (scalar & (1 << r) != 0) == want_scalar {
                    *slot = words;
                    words += if want_scalar { 1 } else { WARP };
                }
            }
        }
        RegLayout {
            scalar,
            at,
            slot_words: words as usize,
        }
    }

    #[inline]
    fn is_scalar(&self, r: Reg) -> bool {
        self.scalar & (1 << r) != 0
    }
}

/// Whether `op` has one value for the whole warp, given the `scalar` set.
fn uniform(op: Operand, scalar: u32) -> bool {
    match op {
        Operand::Reg(r) => scalar & (1 << r) != 0,
        Operand::Imm(_) | Operand::Param(_) => true,
        Operand::Sp(s) => !matches!(s, Special::Tid | Special::LaneId | Special::GlobalTid),
    }
}

/// Whether instruction `i` writes one value for the whole warp, given the
/// `scalar` set (see [`RegLayout`]).
fn writes_uniform(i: &Instr, scalar: u32) -> bool {
    use Instr::*;
    let u = |op| uniform(op, scalar);
    match *i {
        IAdd(_, a, b)
        | ISub(_, a, b)
        | IMul(_, a, b)
        | IMin(_, a, b)
        | IAnd(_, a, b)
        | CmpLt(_, a, b)
        | CmpEq(_, a, b)
        | FAdd(_, a, b)
        | FMul(_, a, b)
        | FAdd32(_, a, b) => u(a) && u(b),
        Mov(_, a) | I2F(_, a) => u(a),
        ReadClock(_) => true,
        LdGlobal { buf, idx, .. } => u(buf) && u(idx),
        _ => false,
    }
}

/// The value of a source that a scalar destination `d` reads. The layout
/// only makes `d` scalar when every source of its writes is uniform, so
/// anything else is a bug in [`RegLayout::new`].
#[inline]
fn scalar_src(src: AluSrc, d: Reg) -> u64 {
    match src {
        AluSrc::Const(v) => v,
        _ => panic!("scalar register r{d} written from a lane-varying source"),
    }
}

/// Buffer `b` named by a kernel's global-memory operand; a bad id faults.
/// A free function over the `bufs` field so it can run while other engine
/// fields are borrowed.
#[inline]
fn checked_buffer(bufs: &[Buffer], b: usize) -> SimResult<&Buffer> {
    bufs.get(b)
        .ok_or_else(|| SimError::MemoryFault(format!("bad buffer id {b}")))
}

/// [`checked_buffer`], for writing.
#[inline]
fn checked_buffer_mut(bufs: &mut [Buffer], b: usize) -> SimResult<&mut Buffer> {
    bufs.get_mut(b)
        .ok_or_else(|| SimError::MemoryFault(format!("bad buffer id {b}")))
}

/// Iterate the set lanes of a mask, ascending (bit-clearing walk — cost is
/// proportional to the popcount, not 32).
fn iter_lanes(mask: u32) -> Lanes {
    Lanes(mask)
}

struct Lanes(u32);

impl Iterator for Lanes {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.0 == 0 {
            return None;
        }
        let lane = self.0.trailing_zeros();
        self.0 &= self.0 - 1;
        Some(lane)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_lanes_yields_set_bits() {
        let lanes: Vec<u32> = iter_lanes(0b1010_0001).collect();
        assert_eq!(lanes, vec![0, 5, 7]);
        assert_eq!(iter_lanes(0).count(), 0);
        assert_eq!(iter_lanes(u32::MAX).count(), 32);
    }

    /// The scalar mask and slot words of each kernel's register layout.
    #[test]
    fn register_layout_keeps_one_word_per_warp_uniform_register() {
        use crate::isa::{Kernel, KernelBuilder, Operand::*};
        use crate::kernels::{self, SyncOp};
        let hand = |name: &str, emit: &dyn Fn(&mut KernelBuilder)| {
            let mut b = KernelBuilder::new(name);
            emit(&mut b);
            b.exit();
            b.build(0)
        };
        let mut cases: Vec<(String, Kernel, u32, usize)> = Vec::new();
        for op in [
            SyncOp::Tile(32),
            SyncOp::Tile(8),
            SyncOp::Coalesced,
            SyncOp::ShflTile,
            SyncOp::ShflCoalesced,
            SyncOp::Block,
            SyncOp::Grid,
            SyncOp::MultiGrid,
        ] {
            // `acc` is r0, the two clocks r1 and r2. A shuffle op reads
            // `acc`, which makes it a column.
            let shfl = matches!(op, SyncOp::ShflTile | SyncOp::ShflCoalesced);
            let (chain, thr) = if shfl {
                ((0b110, 32 + 2), (0b0, 32))
            } else {
                ((0b111, 3), (0b1, 1))
            };
            let name = format!("{op:?}");
            cases.push((
                format!("chain {name}"),
                kernels::sync_chain(op, 4),
                chain.0,
                chain.1,
            ));
            cases.push((
                format!("throughput {name}"),
                kernels::sync_throughput(op, 4),
                thr.0,
                thr.1,
            ));
        }
        // A branch on a lane-dependent condition: every register a column.
        cases.push((
            "coalesced partial".into(),
            kernels::coalesced_partial_chain(13, 4),
            0,
            3 * 32,
        ));
        cases.push(("warp probe".into(), kernels::warp_probe(), 0, 3 * 32));
        cases.push((
            "atomic old value".into(),
            hand("atomic", &|b| {
                b.atomic_iadd(Some(0), Param(0), Imm(0), Imm(1));
                b.mov(1, Imm(5));
            }),
            0b10,
            32 + 1,
        ));
        cases.push((
            "load by GlobalTid, load by immediate".into(),
            hand("loads", &|b| {
                b.push(Instr::LdGlobal {
                    dst: 0,
                    buf: Param(0),
                    idx: Sp(Special::GlobalTid),
                });
                b.push(Instr::LdGlobal {
                    dst: 1,
                    buf: Param(0),
                    idx: Imm(3),
                });
            }),
            0b10,
            32 + 1,
        ));
        // r2 is read but never written (zero in every lane); r1 is never
        // referenced but still below the highest index.
        cases.push((
            "read of a never-written register".into(),
            hand("unwritten", &|b| {
                b.mov(0, Sp(Special::Tid));
                b.push(Instr::StGlobal {
                    buf: Param(0),
                    idx: Reg(0),
                    val: Reg(2),
                });
            }),
            0b110,
            32 + 2,
        ));
        // Listed backwards, so r3 turns into a column only on the fourth
        // pass over the program.
        cases.push((
            "mov chain from a column".into(),
            hand("mov-chain", &|b| {
                b.mov(3, Reg(2));
                b.mov(2, Reg(1));
                b.mov(1, Reg(0));
                b.mov(0, Sp(Special::LaneId));
                b.mov(4, Reg(4));
            }),
            0b10000,
            4 * 32 + 1,
        ));
        for (name, kernel, scalar, words) in cases {
            let layout = RegLayout::new(&kernel.program);
            assert_eq!(
                (layout.scalar, layout.slot_words),
                (scalar, words),
                "{name}: (scalar mask, slot words)"
            );
        }
    }

    #[test]
    fn min_pc_group_picks_the_lowest_runnable_pc() {
        let mut pcs = [9u32; 32];
        pcs[3] = 4;
        pcs[7] = 4;
        pcs[8] = 2; // not runnable
        let runnable = !(1u32 << 8);
        assert_eq!(min_pc_group(&pcs, runnable), (4, (1 << 3) | (1 << 7)));
        assert_eq!(min_pc_group(&[5; 32], 0b1011), (5, 0b1011));
    }
}
