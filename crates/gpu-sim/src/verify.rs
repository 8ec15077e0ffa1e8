//! Static synchronization-hazard analysis over simulated programs — the
//! `cuda-memcheck --tool synccheck` analogue for [`crate::isa::Program`]s.
//!
//! Every micro-benchmark kernel in this repository is hand-built ISA where a
//! misplaced `bar.sync` or a divergent barrier silently corrupts the
//! measurement instead of failing loudly. This module makes those bug
//! classes (catalogued in "Characterizing and Detecting CUDA Program Bugs",
//! Wu et al.) fail at *check* time:
//!
//! * **Barrier divergence** — a block/grid/multi-grid barrier reachable
//!   under thread-dependent control flow (the §VIII-B deadlock class).
//!   Warp-level tile barriers under lane-divergence are reported at
//!   warning level (legal on Volta, deadlock on Pascal).
//! * **Def-before-use** — reads of registers that may be uninitialized on
//!   some path (the engine zero-fills them, so this corrupts measurements
//!   silently rather than crashing).
//! * **Shared-memory bounds** — constant addresses outside `shared_words`.
//! * **Unbound parameters** — `param(n)` slots never bound at launch
//!   ([`check_launch`]).
//! * **Unreachable code** — instructions after `exit` / unconditional `bra`
//!   that no path executes.
//!
//! The analysis is a classic CFG pipeline: basic blocks over the branch
//! instructions, post-dominators for reconvergence points, a register taint
//! lattice seeded from the thread-identity specials (`%tid`, `%lane`,
//! `%gtid`, `%bid`, `%gpu`), and divergent-region marking between each
//! tainted conditional branch and its immediate post-dominator. Every
//! diagnostic renders with [`crate::disasm`] context lines and serializes
//! for golden tests. The companion *dynamic* half (shared-memory racecheck)
//! lives in [`crate::mem`] / [`crate::engine`].

use crate::disasm::instr_to_string;
use crate::isa::{Instr, Kernel, Operand, Program, Reg, Special, NUM_REGS};
use serde::{Deserialize, Serialize};

/// Taint bit: the value varies between threads of one block.
pub const TAINT_THREAD: u8 = 1 << 0;
/// Taint bit: the value varies between blocks of one device grid.
pub const TAINT_BLOCK: u8 = 1 << 1;
/// Taint bit: the value varies between devices of a multi-device launch.
pub const TAINT_RANK: u8 = 1 << 2;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    Info,
    Warning,
    /// The kernel is wrong (deadlock or fault at run time); `checked()`
    /// launches are rejected.
    Error,
}

/// The hazard taxonomy (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum HazardClass {
    /// A block/grid/multi-grid barrier under divergence-relevant taint.
    BarrierDivergence,
    /// A warp tile barrier under lane-divergent control flow (legal on
    /// independent-thread-scheduling parts, deadlock on Pascal).
    WarpBarrierDivergence,
    /// A register read that may observe the engine's zero-fill.
    UninitRead,
    /// A constant shared-memory address outside `shared_words`.
    SharedOutOfBounds,
    /// A `param(n)` operand with no value bound at launch.
    UnboundParam,
    /// Instructions no path can execute.
    UnreachableCode,
    /// A branch target beyond the program (builder bug; `try_build`
    /// rejects these, but hand-assembled `Program`s can still carry them).
    InvalidBranch,
    /// A `wait.ge` flag spin: progress depends on another agent signalling
    /// the cell, which no static analysis here can prove. Intentional spins
    /// are allowlisted in synccheck; a genuinely missing signaller is
    /// caught at run time by the watchdog (`RunOptions::watchdog`).
    UnboundedSpin,
    /// A CAS-acquired lock still held on some path reaching `exit` — the
    /// next contender spins forever (Wu et al.'s unreleased-lock class).
    LockLeak,
    /// A release (`atom.exch`/`signal`) of a lock cell on a path where the
    /// lock is not held — a second unlock hands the mutex to two owners.
    DoubleUnlock,
    /// A global location accessed at multiple sites (at least one a write)
    /// under differing must-held locksets — the Eraser condition.
    InconsistentLockset,
}

impl HazardClass {
    /// Stable kebab-case slug used in rendered reports and suppressions.
    pub fn slug(&self) -> &'static str {
        match self {
            HazardClass::BarrierDivergence => "barrier-divergence",
            HazardClass::WarpBarrierDivergence => "warp-barrier-divergence",
            HazardClass::UninitRead => "uninit-read",
            HazardClass::SharedOutOfBounds => "shared-oob",
            HazardClass::UnboundParam => "unbound-param",
            HazardClass::UnreachableCode => "unreachable-code",
            HazardClass::InvalidBranch => "invalid-branch",
            HazardClass::UnboundedSpin => "unbounded-spin",
            HazardClass::LockLeak => "lock-leak",
            HazardClass::DoubleUnlock => "double-unlock",
            HazardClass::InconsistentLockset => "inconsistent-lockset",
        }
    }

    /// The classes produced by the lockset analysis (scored as one pass).
    pub fn is_lockset(&self) -> bool {
        matches!(
            self,
            HazardClass::LockLeak | HazardClass::DoubleUnlock | HazardClass::InconsistentLockset
        )
    }
}

/// One finding, with enough context to render and to suppress.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Diagnostic {
    pub class: HazardClass,
    pub severity: Severity,
    /// Instruction index the finding anchors to (`None` for whole-kernel
    /// findings).
    pub pc: Option<u32>,
    pub message: String,
}

impl Diagnostic {
    fn new(class: HazardClass, severity: Severity, pc: u32, message: String) -> Diagnostic {
        Diagnostic {
            class,
            severity,
            pc: Some(pc),
            message,
        }
    }

    /// Render with disassembly context lines around the anchor pc.
    pub fn render(&self, program: &Program) -> String {
        let sev = match self.severity {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        };
        let mut s = match self.pc {
            Some(pc) => format!("{sev}[{}] pc {pc}: {}\n", self.class.slug(), self.message),
            None => format!("{sev}[{}]: {}\n", self.class.slug(), self.message),
        };
        if let Some(pc) = self.pc {
            s.push_str(&context_lines(program, pc));
        }
        s
    }
}

/// Disassembly context: two lines either side of `pc`, anchor marked `>`.
pub fn context_lines(program: &Program, pc: u32) -> String {
    let lo = pc.saturating_sub(2) as usize;
    let hi = ((pc + 3) as usize).min(program.instrs.len());
    let mut out = String::new();
    for i in lo..hi {
        let mark = if i == pc as usize { '>' } else { ' ' };
        out.push_str(&format!(
            "  {mark} {i:>4}: {}\n",
            instr_to_string(&program.instrs[i])
        ));
    }
    out
}

/// True if any diagnostic is [`Severity::Error`].
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

/// Render a full per-kernel report (deterministic byte-for-byte).
pub fn render_report(kernel: &Kernel, diags: &[Diagnostic]) -> String {
    let mut s = format!("synccheck {:?}: {} finding(s)\n", kernel.name, diags.len());
    for d in diags {
        s.push_str(&d.render(&kernel.program));
    }
    s
}

/// Run every static check that needs no launch context.
pub fn check_kernel(kernel: &Kernel) -> Vec<Diagnostic> {
    Checker::new(&kernel.program, kernel.shared_words).run()
}

/// [`check_kernel`] plus launch-context checks: `bound_params` is the number
/// of parameter slots the launch binds (`GridLaunch::params[rank].len()`).
pub fn check_launch(kernel: &Kernel, bound_params: usize) -> Vec<Diagnostic> {
    let mut diags = check_kernel(kernel);
    let mut reported: Vec<u8> = Vec::new();
    for (pc, i) in kernel.program.instrs.iter().enumerate() {
        for op in input_operands(i) {
            if let Operand::Param(n) = op {
                if n as usize >= bound_params && !reported.contains(&n) {
                    reported.push(n);
                    diags.push(Diagnostic::new(
                        HazardClass::UnboundParam,
                        Severity::Error,
                        pc as u32,
                        format!(
                            "param{n} is read but the launch binds only {bound_params} \
                             parameter slot(s)"
                        ),
                    ));
                }
            }
        }
    }
    sort_diags(&mut diags);
    diags
}

fn sort_diags(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        a.pc.unwrap_or(u32::MAX)
            .cmp(&b.pc.unwrap_or(u32::MAX))
            .then(a.class.cmp(&b.class))
            .then(a.message.cmp(&b.message))
    });
}

// ---------------------------------------------------------------------------
// CFG construction
// ---------------------------------------------------------------------------

/// Virtual exit node index is `blocks.len()`.
#[derive(Debug)]
struct Cfg {
    blocks: Vec<BasicBlock>,
}

#[derive(Debug)]
struct BasicBlock {
    /// Instruction range `start..end`.
    start: usize,
    end: usize,
    /// Successor block indices (`blocks.len()` = virtual exit).
    succs: Vec<usize>,
    preds: Vec<usize>,
    reachable: bool,
}

impl Cfg {
    fn exit(&self) -> usize {
        self.blocks.len()
    }

    fn build(p: &Program, invalid: &mut Vec<Diagnostic>) -> Cfg {
        let n = p.instrs.len();
        let mut leader = vec![false; n + 1];
        if n > 0 {
            leader[0] = true;
        }
        for (i, instr) in p.instrs.iter().enumerate() {
            match instr {
                Instr::Bra(t) | Instr::BraIf(_, t) | Instr::BraIfZ(_, t) => {
                    if (*t as usize) <= n {
                        leader[*t as usize] = true;
                    } else {
                        invalid.push(Diagnostic::new(
                            HazardClass::InvalidBranch,
                            Severity::Error,
                            i as u32,
                            format!("branch target {t} beyond program of {n} instruction(s)"),
                        ));
                    }
                    leader[i + 1] = true;
                }
                Instr::Exit => leader[i + 1] = true,
                _ => {}
            }
        }
        let mut blocks = Vec::new();
        let mut block_of = vec![0usize; n];
        let mut start = 0usize;
        for (i, &lead) in leader.iter().enumerate().take(n) {
            if i > start && lead {
                blocks.push(BasicBlock {
                    start,
                    end: i,
                    succs: Vec::new(),
                    preds: Vec::new(),
                    reachable: false,
                });
                start = i;
            }
        }
        if n > 0 {
            blocks.push(BasicBlock {
                start,
                end: n,
                succs: Vec::new(),
                preds: Vec::new(),
                reachable: false,
            });
        }
        for (bi, b) in blocks.iter().enumerate() {
            block_of[b.start..b.end].fill(bi);
        }
        let exit = blocks.len();
        // `t == n` is the engine's implicit exit (pc past the program end).
        let target_block = |t: u32| -> usize {
            if (t as usize) < n {
                block_of[t as usize]
            } else {
                exit
            }
        };
        for bi in 0..blocks.len() {
            let last = blocks[bi].end - 1;
            let succs: Vec<usize> = match &p.instrs[last] {
                Instr::Bra(t) => vec![target_block(*t)],
                Instr::BraIf(_, t) | Instr::BraIfZ(_, t) => {
                    let fall = if blocks[bi].end < n {
                        block_of[blocks[bi].end]
                    } else {
                        exit
                    };
                    vec![target_block(*t), fall]
                }
                Instr::Exit => vec![exit],
                _ => {
                    if blocks[bi].end < n {
                        vec![block_of[blocks[bi].end]]
                    } else {
                        vec![exit]
                    }
                }
            };
            blocks[bi].succs = succs;
        }
        for bi in 0..blocks.len() {
            let succs = blocks[bi].succs.clone();
            for s in succs {
                if s < blocks.len() && !blocks[s].preds.contains(&bi) {
                    blocks[s].preds.push(bi);
                }
            }
        }
        // Reachability from the entry block.
        if !blocks.is_empty() {
            let mut stack = vec![0usize];
            while let Some(b) = stack.pop() {
                if blocks[b].reachable {
                    continue;
                }
                blocks[b].reachable = true;
                for &s in &blocks[b].succs {
                    if s < blocks.len() && !blocks[s].reachable {
                        stack.push(s);
                    }
                }
            }
        }
        Cfg { blocks }
    }

    /// Post-dominator sets over blocks + virtual exit, as bitsets in
    /// `Vec<u64>` words (programs here are small; O(n^2) dataflow is fine).
    fn post_dominators(&self) -> Vec<Vec<u64>> {
        let n = self.blocks.len() + 1; // + virtual exit
        let words = n.div_ceil(64);
        let full = {
            let mut v = vec![u64::MAX; words];
            let spare = words * 64 - n;
            if spare > 0 {
                *v.last_mut().unwrap() >>= spare;
            }
            v
        };
        let mut pdom: Vec<Vec<u64>> = vec![full.clone(); n];
        let exit = self.exit();
        pdom[exit] = vec![0; words];
        set_bit(&mut pdom[exit], exit);
        let mut changed = true;
        while changed {
            changed = false;
            for b in (0..self.blocks.len()).rev() {
                let mut new = full.clone();
                if self.blocks[b].succs.is_empty() {
                    new = pdom[exit].clone();
                } else {
                    for &s in &self.blocks[b].succs {
                        for (w, word) in new.iter_mut().enumerate() {
                            *word &= pdom[s][w];
                        }
                    }
                }
                set_bit(&mut new, b);
                if new != pdom[b] {
                    pdom[b] = new;
                    changed = true;
                }
            }
        }
        pdom
    }

    /// Immediate post-dominator of `b`: the strict post-dominator whose own
    /// set is exactly `pdom[b]` minus `b` (post-dominator sets form chains).
    fn ipdom(&self, pdom: &[Vec<u64>], b: usize) -> Option<usize> {
        let want = count_bits(&pdom[b]) - 1;
        let n = self.blocks.len() + 1;
        (0..n).find(|&p| p != b && get_bit(&pdom[b], p) && count_bits(&pdom[p]) == want)
    }
}

fn set_bit(v: &mut [u64], i: usize) {
    v[i / 64] |= 1u64 << (i % 64);
}
fn get_bit(v: &[u64], i: usize) -> bool {
    v[i / 64] & (1u64 << (i % 64)) != 0
}
fn count_bits(v: &[u64]) -> u32 {
    v.iter().map(|w| w.count_ones()).sum()
}

// ---------------------------------------------------------------------------
// Instruction operand helpers
// ---------------------------------------------------------------------------

/// Operands an instruction reads (register reads, specials, params,
/// immediates). The streaming accumulators are read-modify-write and appear
/// here as register reads.
pub(crate) fn input_operands(i: &Instr) -> Vec<Operand> {
    use Instr::*;
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
        | FAdd32(_, a, b) => {
            vec![a, b]
        }
        Mov(_, a) | I2F(_, a) => vec![a],
        Bra(_)
        | Exit
        | SyncTile { .. }
        | SyncCoalesced
        | BarSync
        | GridSync
        | MultiGridSync
        | MemFence => Vec::new(),
        BraIf(c, _) | BraIfZ(c, _) => vec![c],
        LdShared { addr, .. } => vec![addr],
        StShared {
            addr, val, pred, ..
        } => {
            let mut v = vec![addr, val];
            if let Some(p) = pred {
                v.push(p);
            }
            v
        }
        LdGlobal { buf, idx, .. } => vec![buf, idx],
        StGlobal { buf, idx, val } => vec![buf, idx, val],
        AtomicFAdd { buf, idx, val, .. } => vec![buf, idx, val],
        AtomicCas {
            buf, idx, cmp, val, ..
        } => vec![buf, idx, cmp, val],
        AtomicExch { buf, idx, val, .. } => vec![buf, idx, val],
        AtomicIAdd { buf, idx, val, .. } => vec![buf, idx, val],
        WaitGe { buf, idx, target } => vec![buf, idx, target],
        Signal { buf, idx, val } => vec![buf, idx, val],
        Shfl { val, .. } => vec![val],
        Nanosleep(ns) => vec![ns],
        ReadClock(_) => Vec::new(),
        MemStream {
            acc,
            buf,
            start,
            stride,
            len,
            ..
        } => vec![Operand::Reg(acc), buf, start, stride, len],
        MemCombine {
            dst,
            a,
            b,
            start,
            stride,
            len,
        } => vec![dst, a, b, start, stride, len],
        SmemStream {
            acc,
            start,
            stride,
            len,
            ..
        } => vec![Operand::Reg(acc), start, stride, len],
    }
}

/// The register an instruction writes, if any.
pub(crate) fn written_reg(i: &Instr) -> Option<Reg> {
    use Instr::*;
    match *i {
        IAdd(d, ..)
        | ISub(d, ..)
        | IMul(d, ..)
        | IMin(d, ..)
        | IAnd(d, ..)
        | CmpLt(d, ..)
        | CmpEq(d, ..)
        | Mov(d, ..)
        | I2F(d, ..)
        | FAdd(d, ..)
        | FMul(d, ..)
        | FAdd32(d, ..) => Some(d),
        LdShared { dst, .. } | LdGlobal { dst, .. } | Shfl { dst, .. } | ReadClock(dst) => {
            Some(dst)
        }
        AtomicFAdd { dst_old, .. }
        | AtomicCas { dst_old, .. }
        | AtomicExch { dst_old, .. }
        | AtomicIAdd { dst_old, .. } => dst_old,
        MemStream { acc, .. } | SmemStream { acc, .. } => Some(acc),
        _ => None,
    }
}

/// Every register an instruction writes or reads.
pub(crate) fn regs_used(i: &Instr) -> impl Iterator<Item = Reg> {
    let reads = input_operands(i).into_iter().filter_map(|op| match op {
        Operand::Reg(r) => Some(r),
        _ => None,
    });
    written_reg(i).into_iter().chain(reads)
}

fn special_taint(s: Special) -> u8 {
    match s {
        Special::Tid | Special::LaneId => TAINT_THREAD,
        // The global thread index varies both within and across blocks.
        Special::GlobalTid => TAINT_THREAD | TAINT_BLOCK,
        Special::BlockId => TAINT_BLOCK,
        Special::GpuRank => TAINT_RANK,
        // WarpId is warp-uniform; block/grid dims and counts are uniform
        // everywhere.
        _ => 0,
    }
}

// ---------------------------------------------------------------------------
// The checker
// ---------------------------------------------------------------------------

struct Checker<'a> {
    p: &'a Program,
    shared_words: u32,
    cfg: Cfg,
    diags: Vec<Diagnostic>,
}

impl<'a> Checker<'a> {
    fn new(p: &'a Program, shared_words: u32) -> Checker<'a> {
        let mut diags = Vec::new();
        let cfg = Cfg::build(p, &mut diags);
        Checker {
            p,
            shared_words,
            cfg,
            diags,
        }
    }

    fn run(mut self) -> Vec<Diagnostic> {
        if self.p.instrs.is_empty() {
            return self.diags;
        }
        self.check_unreachable();
        let div = self.divergence_map();
        self.check_barriers(&div);
        self.check_definite_assignment();
        self.check_shared_bounds();
        self.check_locksets();
        sort_diags(&mut self.diags);
        self.diags
    }

    fn check_unreachable(&mut self) {
        // Merge consecutive unreachable blocks into one finding per region.
        let mut bi = 0;
        while bi < self.cfg.blocks.len() {
            if self.cfg.blocks[bi].reachable {
                bi += 1;
                continue;
            }
            let start = self.cfg.blocks[bi].start;
            let mut end = self.cfg.blocks[bi].end;
            while bi + 1 < self.cfg.blocks.len()
                && !self.cfg.blocks[bi + 1].reachable
                && self.cfg.blocks[bi + 1].start == end
            {
                bi += 1;
                end = self.cfg.blocks[bi].end;
            }
            self.diags.push(Diagnostic::new(
                HazardClass::UnreachableCode,
                Severity::Warning,
                start as u32,
                format!(
                    "instruction(s) {start}..{} are unreachable (dead code after \
                     exit/unconditional branch)",
                    end - 1
                ),
            ));
            bi += 1;
        }
    }

    /// Per-register taint at block entry, to a fixpoint (may-analysis).
    fn taint_in(&self) -> Vec<[u8; NUM_REGS]> {
        let nb = self.cfg.blocks.len();
        let mut tin = vec![[0u8; NUM_REGS]; nb];
        let mut tout = vec![[0u8; NUM_REGS]; nb];
        let mut changed = true;
        while changed {
            changed = false;
            for b in 0..nb {
                if !self.cfg.blocks[b].reachable {
                    continue;
                }
                let mut state = [0u8; NUM_REGS];
                for &p in &self.cfg.blocks[b].preds {
                    for r in 0..NUM_REGS {
                        state[r] |= tout[p][r];
                    }
                }
                if state != tin[b] {
                    tin[b] = state;
                }
                for i in self.cfg.blocks[b].start..self.cfg.blocks[b].end {
                    step_taint(&mut state, &self.p.instrs[i]);
                }
                if state != tout[b] {
                    tout[b] = state;
                    changed = true;
                }
            }
        }
        tin
    }

    /// Accumulated divergence taint per block: for every conditional branch
    /// on a tainted condition, the blocks between the branch and its
    /// immediate post-dominator (the reconvergence point) inherit the
    /// condition's taint.
    fn divergence_map(&self) -> Vec<u8> {
        let tin = self.taint_in();
        let pdom = self.cfg.post_dominators();
        let mut div = vec![0u8; self.cfg.blocks.len()];
        for (b, &tin_b) in tin.iter().enumerate() {
            if !self.cfg.blocks[b].reachable {
                continue;
            }
            let last = self.cfg.blocks[b].end - 1;
            let cond = match &self.p.instrs[last] {
                Instr::BraIf(c, _) | Instr::BraIfZ(c, _) => *c,
                _ => continue,
            };
            let mut state = tin_b;
            for i in self.cfg.blocks[b].start..last {
                step_taint(&mut state, &self.p.instrs[i]);
            }
            let taint = operand_taint(&state, cond);
            if taint == 0 {
                continue;
            }
            let join = self.cfg.ipdom(&pdom, b);
            // Flood from the successors, stopping at the reconvergence
            // point. With no ipdom (infinite loops) everything reachable
            // from the branch stays divergent.
            let mut seen = vec![false; self.cfg.blocks.len() + 1];
            let mut stack: Vec<usize> = self.cfg.blocks[b].succs.clone();
            while let Some(x) = stack.pop() {
                if x >= self.cfg.blocks.len() || seen[x] || Some(x) == join {
                    continue;
                }
                seen[x] = true;
                div[x] |= taint;
                for &s in &self.cfg.blocks[x].succs {
                    stack.push(s);
                }
            }
        }
        div
    }

    fn check_barriers(&mut self, div: &[u8]) {
        for (bi, block) in self.cfg.blocks.iter().enumerate() {
            if !block.reachable {
                continue;
            }
            let d = div[bi];
            for pc in block.start..block.end {
                let (class, sev, msg) = match &self.p.instrs[pc] {
                    Instr::BarSync if d & TAINT_THREAD != 0 => (
                        HazardClass::BarrierDivergence,
                        Severity::Error,
                        "bar.sync is reachable under thread-dependent control flow; \
                         threads that skip it leave the block barrier waiting"
                            .to_string(),
                    ),
                    Instr::GridSync if d & (TAINT_THREAD | TAINT_BLOCK) != 0 => (
                        HazardClass::BarrierDivergence,
                        Severity::Error,
                        "grid.sync is reachable under thread- or block-dependent control \
                         flow; blocks that skip it deadlock the grid barrier (§VIII-B)"
                            .to_string(),
                    ),
                    Instr::MultiGridSync if d & (TAINT_THREAD | TAINT_BLOCK | TAINT_RANK) != 0 => (
                        HazardClass::BarrierDivergence,
                        Severity::Error,
                        "multi_grid.sync is reachable under thread-, block- or \
                             device-dependent control flow; ranks that skip it deadlock \
                             the multi-grid barrier (§VIII-B)"
                            .to_string(),
                    ),
                    Instr::SyncTile { width } if d & TAINT_THREAD != 0 => (
                        HazardClass::WarpBarrierDivergence,
                        Severity::Warning,
                        format!(
                            "tile barrier (width {width}) under lane-divergent control \
                             flow: converges on independent-thread-scheduling parts \
                             (Volta), deadlocks on lockstep parts (Pascal, §VIII-A)"
                        ),
                    ),
                    // SyncCoalesced synchronizes whatever group is currently
                    // converged, so divergence is legal by construction.
                    Instr::WaitGe { .. } => (
                        HazardClass::UnboundedSpin,
                        Severity::Warning,
                        "wait.ge spins until another agent raises the flag cell past \
                         the target; no static check can prove a matching signal \
                         exists — arm the watchdog (RunOptions::watchdog) so a missing \
                         signaller surfaces as SimError::Watchdog, not a hang"
                            .to_string(),
                    ),
                    _ => continue,
                };
                self.diags.push(Diagnostic::new(class, sev, pc as u32, msg));
            }
        }
    }

    /// Must-analysis of definitely-assigned registers; a read outside the
    /// set may observe the engine's zero-fill.
    fn check_definite_assignment(&mut self) {
        let nb = self.cfg.blocks.len();
        let all: u16 = if NUM_REGS >= 16 {
            u16::MAX
        } else {
            (1u16 << NUM_REGS) - 1
        };
        let mut ain = vec![all; nb];
        let mut aout = vec![all; nb];
        ain[0] = 0;
        let mut changed = true;
        while changed {
            changed = false;
            for b in 0..nb {
                if !self.cfg.blocks[b].reachable {
                    continue;
                }
                let mut state = if b == 0 { 0 } else { all };
                if b != 0 {
                    for &p in &self.cfg.blocks[b].preds {
                        if self.cfg.blocks[p].reachable {
                            state &= aout[p];
                        }
                    }
                }
                ain[b] = state;
                for i in self.cfg.blocks[b].start..self.cfg.blocks[b].end {
                    if let Some(d) = written_reg(&self.p.instrs[i]) {
                        state |= 1 << d;
                    }
                }
                if state != aout[b] {
                    aout[b] = state;
                    changed = true;
                }
            }
        }
        let mut reported: Vec<(u32, Reg)> = Vec::new();
        for (b, &ain_b) in ain.iter().enumerate().take(nb) {
            if !self.cfg.blocks[b].reachable {
                continue;
            }
            let mut state = ain_b;
            for pc in self.cfg.blocks[b].start..self.cfg.blocks[b].end {
                let instr = &self.p.instrs[pc];
                for op in input_operands(instr) {
                    if let Operand::Reg(r) = op {
                        if state & (1 << r) == 0 && !reported.contains(&(pc as u32, r)) {
                            reported.push((pc as u32, r));
                            self.diags.push(Diagnostic::new(
                                HazardClass::UninitRead,
                                Severity::Warning,
                                pc as u32,
                                format!(
                                    "r{r} is read but not assigned on every path from \
                                     kernel entry (the engine zero-fills it)"
                                ),
                            ));
                        }
                    }
                }
                if let Some(d) = written_reg(instr) {
                    state |= 1 << d;
                }
            }
        }
    }

    fn check_shared_bounds(&mut self) {
        for (pc, instr) in self.p.instrs.iter().enumerate() {
            let addr = match instr {
                Instr::LdShared { addr, .. } => Some(addr),
                Instr::StShared { addr, .. } => Some(addr),
                _ => None,
            };
            let Some(addr) = addr else { continue };
            let oob = match addr {
                Operand::Imm(a) => *a >= self.shared_words as u64,
                // Any access faults when the kernel declares no shared
                // memory at all, whatever the address register holds.
                _ => self.shared_words == 0,
            };
            if oob {
                let shown = match addr {
                    Operand::Imm(a) => format!("constant address {a}"),
                    _ => "dynamic address".to_string(),
                };
                self.diags.push(Diagnostic::new(
                    HazardClass::SharedOutOfBounds,
                    Severity::Error,
                    pc as u32,
                    format!(
                        "shared-memory access at {shown} outside the kernel's \
                         {} declared word(s)",
                        self.shared_words
                    ),
                ));
            }
        }
    }

    /// Must-held lockset analysis over the atomic ISA (the static companion
    /// to the global racecheck, after Stuart & Owens' atomics-built mutex).
    ///
    /// A lock is identified syntactically: a basic block whose terminating
    /// conditional branch tests the old value returned by an `atom.cas` is
    /// an acquire loop, and the edge taken when the CAS won (`bra.if`
    /// retries, so its fall-through wins; `bra.ifz` jumps to the critical
    /// section, so its taken edge wins) adds the CAS's `(buf, idx)` operand
    /// pair to the must-held set. `atom.exch` / `signal` to a known lock
    /// cell releases it. The sets flow forward (intersection at merges, the
    /// classic must-dataflow), and three findings come out:
    ///
    /// * [`HazardClass::DoubleUnlock`] — a release on a path where the lock
    ///   is not held (error: two owners after the next acquire).
    /// * [`HazardClass::LockLeak`] — an exit edge with a lock still held
    ///   (error: the next contender spins forever).
    /// * [`HazardClass::InconsistentLockset`] — a statically-addressed
    ///   global location accessed at 2+ sites, at least one a write, under
    ///   differing locksets (warning: the Eraser condition).
    fn check_locksets(&mut self) {
        let nb = self.cfg.blocks.len();
        if nb == 0 {
            return;
        }
        // Acquire edges: acquire[b] = (winning succ index, lock key index).
        let mut keys: Vec<(Operand, Operand)> = Vec::new();
        let mut acquire: Vec<Option<(usize, usize)>> = vec![None; nb];
        for (bi, acq) in acquire.iter_mut().enumerate() {
            let last = self.cfg.blocks[bi].end - 1;
            let (cond, edge) = match self.p.instrs[last] {
                // `bra.if old, retry`: nonzero old = lost, retry; the
                // fall-through (succ 1) holds the lock.
                Instr::BraIf(Operand::Reg(r), _) => (r, 1usize),
                // `bra.ifz old, crit`: zero old = won; taken edge (succ 0).
                Instr::BraIfZ(Operand::Reg(r), _) => (r, 0usize),
                _ => continue,
            };
            // The branch condition must come straight from a CAS in this
            // block (no intervening redefinition).
            for pc in (self.cfg.blocks[bi].start..last).rev() {
                if written_reg(&self.p.instrs[pc]) != Some(cond) {
                    continue;
                }
                if let Instr::AtomicCas {
                    dst_old: Some(_),
                    buf,
                    idx,
                    ..
                } = self.p.instrs[pc]
                {
                    let k = keys
                        .iter()
                        .position(|&p| p == (buf, idx))
                        .unwrap_or_else(|| {
                            keys.push((buf, idx));
                            keys.len() - 1
                        });
                    *acq = Some((edge, k));
                }
                break;
            }
        }
        if keys.is_empty() || keys.len() > 64 {
            return;
        }
        let release_key = |instr: &Instr| -> Option<usize> {
            let (buf, idx) = match *instr {
                Instr::AtomicExch { buf, idx, .. } => (buf, idx),
                Instr::Signal { buf, idx, .. } => (buf, idx),
                _ => return None,
            };
            keys.iter().position(|&p| p == (buf, idx))
        };
        let top = if keys.len() == 64 {
            u64::MAX
        } else {
            (1u64 << keys.len()) - 1
        };
        // Forward must-dataflow: entry starts empty, everything else at ⊤,
        // intersect over incoming edges (an acquire edge adds its key).
        let transfer = |mut state: u64, bi: usize, blocks: &[BasicBlock]| -> u64 {
            for pc in blocks[bi].start..blocks[bi].end {
                if let Some(k) = release_key(&self.p.instrs[pc]) {
                    state &= !(1u64 << k);
                }
            }
            state
        };
        let mut inset = vec![top; nb];
        inset[0] = 0;
        let mut changed = true;
        while changed {
            changed = false;
            for bi in 0..nb {
                if !self.cfg.blocks[bi].reachable {
                    continue;
                }
                let mut new = if bi == 0 { 0 } else { top };
                if bi != 0 {
                    for &p in &self.cfg.blocks[bi].preds {
                        if !self.cfg.blocks[p].reachable {
                            continue;
                        }
                        let out = transfer(inset[p], p, &self.cfg.blocks);
                        for (j, &s) in self.cfg.blocks[p].succs.iter().enumerate() {
                            if s != bi {
                                continue;
                            }
                            let mut edge = out;
                            if let Some((winning, k)) = acquire[p] {
                                if winning == j {
                                    edge |= 1u64 << k;
                                }
                            }
                            new &= edge;
                        }
                    }
                }
                if new != inset[bi] {
                    inset[bi] = new;
                    changed = true;
                }
            }
        }
        let lock_name = |k: usize| -> String {
            let (buf, idx) = keys[k];
            let part = |op: Operand| match op {
                Operand::Param(p) => format!("param{p}"),
                Operand::Imm(v) => format!("{v}"),
                Operand::Reg(r) => format!("r{r}"),
                Operand::Sp(s) => format!("%{s:?}"),
            };
            format!("{}[{}]", part(buf), part(idx))
        };
        // Final pass with the settled sets: double unlocks, exit leaks, and
        // per-location lockset consistency over statically-addressed sites.
        let mut sites: Vec<((Operand, Operand), u32, bool, u64)> = Vec::new();
        for bi in 0..nb {
            if !self.cfg.blocks[bi].reachable {
                continue;
            }
            let mut state = inset[bi];
            for pc in self.cfg.blocks[bi].start..self.cfg.blocks[bi].end {
                let instr = &self.p.instrs[pc];
                if let Some(k) = release_key(instr) {
                    if state & (1u64 << k) == 0 {
                        self.diags.push(Diagnostic::new(
                            HazardClass::DoubleUnlock,
                            Severity::Error,
                            pc as u32,
                            format!(
                                "lock {} released on a path where it is not \
                                 held (double unlock hands the mutex to two \
                                 owners)",
                                lock_name(k)
                            ),
                        ));
                    }
                    state &= !(1u64 << k);
                }
                let (loc, write) = match *instr {
                    Instr::LdGlobal { buf, idx, .. } => ((buf, idx), false),
                    Instr::StGlobal { buf, idx, .. } => ((buf, idx), true),
                    _ => continue,
                };
                // Only statically-addressed locations are comparable
                // across sites; register/special indices are per-thread.
                if matches!(loc.0, Operand::Param(_) | Operand::Imm(_))
                    && matches!(loc.1, Operand::Imm(_))
                {
                    sites.push((loc, pc as u32, write, state));
                }
            }
            // An exit edge with a lock still held leaks it.
            let exit = self.cfg.exit();
            for (j, &s) in self.cfg.blocks[bi].succs.iter().enumerate() {
                if s != exit {
                    continue;
                }
                let mut edge = state;
                if let Some((winning, k)) = acquire[bi] {
                    if winning == j {
                        edge |= 1u64 << k;
                    }
                }
                if edge != 0 {
                    let held: Vec<String> = (0..keys.len())
                        .filter(|k| edge & (1u64 << k) != 0)
                        .map(lock_name)
                        .collect();
                    self.diags.push(Diagnostic::new(
                        HazardClass::LockLeak,
                        Severity::Error,
                        (self.cfg.blocks[bi].end - 1) as u32,
                        format!(
                            "lock {} still held when this path exits (the \
                             next contender spins forever)",
                            held.join(", ")
                        ),
                    ));
                }
            }
        }
        // Eraser condition per location: 2+ sites, 1+ write, differing
        // must-held locksets. Anchored at the least-protected site.
        let mut locs: Vec<(Operand, Operand)> = Vec::new();
        for s in &sites {
            if !locs.contains(&s.0) {
                locs.push(s.0);
            }
        }
        for loc in locs {
            let group: Vec<_> = sites.iter().filter(|s| s.0 == loc).collect();
            if group.len() < 2 || !group.iter().any(|s| s.2) {
                continue;
            }
            if group.iter().all(|s| s.3 == group[0].3) {
                continue;
            }
            let anchor = group
                .iter()
                .min_by_key(|s| (s.3.count_ones(), s.1))
                .unwrap();
            let part = |op: Operand| match op {
                Operand::Param(p) => format!("param{p}"),
                Operand::Imm(v) => format!("{v}"),
                _ => unreachable!(),
            };
            self.diags.push(Diagnostic::new(
                HazardClass::InconsistentLockset,
                Severity::Warning,
                anchor.1,
                format!(
                    "global {}[{}] is accessed at {} site(s) (at least one a \
                     write) under inconsistent locksets",
                    part(loc.0),
                    part(loc.1),
                    group.len()
                ),
            ));
        }
    }
}

fn operand_taint(state: &[u8; NUM_REGS], op: Operand) -> u8 {
    match op {
        Operand::Reg(r) => state[r as usize],
        Operand::Sp(s) => special_taint(s),
        Operand::Imm(_) | Operand::Param(_) => 0,
    }
}

fn step_taint(state: &mut [u8; NUM_REGS], instr: &Instr) {
    let Some(d) = written_reg(instr) else { return };
    // Loads from memory and clock reads produce untracked values; everything
    // else propagates the union of its input taints. The streaming
    // accumulators keep their own taint (RMW) and ignore index taint: the
    // *data* summed from memory is untracked.
    let t = match instr {
        Instr::LdShared { .. }
        | Instr::LdGlobal { .. }
        | Instr::AtomicFAdd { .. }
        | Instr::AtomicCas { .. }
        | Instr::AtomicExch { .. }
        | Instr::AtomicIAdd { .. }
        | Instr::ReadClock(_) => 0,
        Instr::MemStream { acc, .. } | Instr::SmemStream { acc, .. } => state[*acc as usize],
        _ => input_operands(instr)
            .into_iter()
            .fold(0, |acc, op| acc | operand_taint(state, op)),
    };
    state[d as usize] = t;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{KernelBuilder, Operand::*};

    fn diag_classes(k: &Kernel) -> Vec<HazardClass> {
        check_kernel(k).into_iter().map(|d| d.class).collect()
    }

    #[test]
    fn clean_kernel_has_no_findings() {
        let mut b = KernelBuilder::new("clean");
        let r = b.reg();
        b.mov(r, Imm(1));
        b.bar_sync();
        b.iadd(r, Reg(r), Imm(1));
        b.exit();
        assert!(diag_classes(&b.build(0)).is_empty());
    }

    #[test]
    fn divergent_block_barrier_is_an_error() {
        let mut b = KernelBuilder::new("divbar");
        let c = b.reg();
        b.cmp_lt(c, Sp(crate::Special::Tid), Imm(16));
        b.bra_ifz(Reg(c), "out");
        b.bar_sync();
        b.label("out");
        b.exit();
        let diags = check_kernel(&b.build(0));
        assert!(diags
            .iter()
            .any(|d| d.class == HazardClass::BarrierDivergence
                && d.severity == Severity::Error
                && d.pc == Some(2)));
    }

    #[test]
    fn block_uniform_branch_around_bar_sync_is_clean() {
        // Divergence by BlockId only: every thread of a block takes the same
        // path, so bar.sync is safe (but grid.sync would not be).
        let mut b = KernelBuilder::new("blockuniform");
        let c = b.reg();
        b.cmp_lt(c, Sp(crate::Special::BlockId), Imm(2));
        b.bra_ifz(Reg(c), "out");
        b.bar_sync();
        b.label("out");
        b.exit();
        assert!(diag_classes(&b.build(0)).is_empty());
    }

    #[test]
    fn block_divergent_grid_sync_is_an_error() {
        let mut b = KernelBuilder::new("divgrid");
        let c = b.reg();
        b.cmp_lt(c, Sp(crate::Special::BlockId), Imm(2));
        b.bra_ifz(Reg(c), "out");
        b.grid_sync();
        b.label("out");
        b.exit();
        let diags = check_kernel(&b.build(0));
        assert!(diags
            .iter()
            .any(|d| d.class == HazardClass::BarrierDivergence));
    }

    #[test]
    fn rank_divergent_multi_grid_sync_is_an_error() {
        let mut b = KernelBuilder::new("divmgrid");
        let c = b.reg();
        b.cmp_eq(c, Sp(crate::Special::GpuRank), Imm(0));
        b.bra_ifz(Reg(c), "out");
        b.multi_grid_sync();
        b.label("out");
        b.exit();
        let diags = check_kernel(&b.build(0));
        assert!(diags
            .iter()
            .any(|d| d.class == HazardClass::BarrierDivergence));
    }

    #[test]
    fn barrier_after_reconvergence_is_clean() {
        let mut b = KernelBuilder::new("reconverged");
        let c = b.reg();
        let r = b.reg();
        b.cmp_lt(c, Sp(crate::Special::Tid), Imm(16));
        b.bra_ifz(Reg(c), "else");
        b.mov(r, Imm(1));
        b.bra("join");
        b.label("else");
        b.mov(r, Imm(2));
        b.label("join");
        b.bar_sync();
        b.exit();
        assert!(diag_classes(&b.build(0)).is_empty());
    }

    #[test]
    fn divergent_tile_sync_is_a_warning() {
        let mut b = KernelBuilder::new("divtile");
        let c = b.reg();
        b.cmp_lt(c, Sp(crate::Special::LaneId), Imm(16));
        b.bra_ifz(Reg(c), "out");
        b.push(Instr::SyncTile { width: 32 });
        b.label("out");
        b.exit();
        let diags = check_kernel(&b.build(0));
        assert!(diags
            .iter()
            .any(|d| d.class == HazardClass::WarpBarrierDivergence
                && d.severity == Severity::Warning));
    }

    #[test]
    fn wait_ge_is_an_unbounded_spin_warning_not_an_error() {
        let mut b = KernelBuilder::new("spinwait");
        b.wait_ge(Param(0), Imm(0), Imm(1));
        b.exit();
        let diags = check_launch(&b.build(0), 1);
        assert!(
            diags.iter().any(|d| d.class == HazardClass::UnboundedSpin
                && d.severity == Severity::Warning
                && d.pc == Some(0)),
            "{diags:?}"
        );
        // Warning, not Error: checked() launches must still run (the
        // watchdog, not the linter, decides whether the spin is live).
        assert!(!has_errors(&diags));
    }

    #[test]
    fn divergent_coalesced_sync_is_clean() {
        let mut b = KernelBuilder::new("divcoa");
        let c = b.reg();
        b.cmp_lt(c, Sp(crate::Special::LaneId), Imm(16));
        b.bra_ifz(Reg(c), "out");
        b.push(Instr::SyncCoalesced);
        b.label("out");
        b.exit();
        assert!(diag_classes(&b.build(0)).is_empty());
    }

    #[test]
    fn uninit_read_is_flagged_with_its_pc() {
        let mut b = KernelBuilder::new("uninit");
        let r = b.reg();
        let s = b.reg();
        b.mov(r, Imm(1));
        b.iadd(r, Reg(r), Reg(s)); // s never written
        b.exit();
        let diags = check_kernel(&b.build(0));
        let d = diags
            .iter()
            .find(|d| d.class == HazardClass::UninitRead)
            .expect("uninit read");
        assert_eq!(d.pc, Some(1));
        assert!(d.message.contains("r1"), "{}", d.message);
    }

    #[test]
    fn assignment_on_both_arms_is_clean() {
        let mut b = KernelBuilder::new("bothpaths");
        let c = b.reg();
        let r = b.reg();
        b.cmp_lt(c, Sp(crate::Special::Tid), Imm(1));
        b.bra_ifz(Reg(c), "else");
        b.mov(r, Imm(1));
        b.bra("join");
        b.label("else");
        b.mov(r, Imm(2));
        b.label("join");
        b.iadd(r, Reg(r), Imm(1));
        b.exit();
        assert!(!diag_classes(&b.build(0)).contains(&HazardClass::UninitRead));
    }

    #[test]
    fn assignment_on_one_arm_only_is_flagged() {
        let mut b = KernelBuilder::new("onepath");
        let c = b.reg();
        let r = b.reg();
        b.cmp_lt(c, Sp(crate::Special::Tid), Imm(1));
        b.bra_ifz(Reg(c), "join");
        b.mov(r, Imm(1));
        b.label("join");
        b.iadd(r, Reg(r), Imm(1));
        b.exit();
        assert!(diag_classes(&b.build(0)).contains(&HazardClass::UninitRead));
    }

    #[test]
    fn constant_shared_oob_is_an_error() {
        let mut b = KernelBuilder::new("smemoob");
        let r = b.reg();
        b.push(Instr::LdShared {
            dst: r,
            addr: Imm(8),
            volatile: false,
        });
        b.exit();
        let k = b.build(8); // words 0..=7 valid
        let diags = check_kernel(&k);
        assert!(diags
            .iter()
            .any(|d| d.class == HazardClass::SharedOutOfBounds && d.severity == Severity::Error));
        // In-bounds address is clean.
        let mut b = KernelBuilder::new("smemok");
        let r = b.reg();
        b.push(Instr::LdShared {
            dst: r,
            addr: Imm(7),
            volatile: false,
        });
        b.exit();
        assert!(diag_classes(&b.build(8)).is_empty());
    }

    #[test]
    fn any_shared_access_with_zero_words_is_an_error() {
        let mut b = KernelBuilder::new("nosmem");
        let r = b.reg();
        b.mov(r, Imm(0));
        b.push(Instr::StShared {
            addr: Reg(r),
            val: Imm(1),
            volatile: false,
            pred: None,
        });
        b.exit();
        assert!(diag_classes(&b.build(0)).contains(&HazardClass::SharedOutOfBounds));
    }

    #[test]
    fn unbound_param_is_flagged_at_launch_check() {
        let mut b = KernelBuilder::new("params");
        let r = b.reg();
        b.push(Instr::LdGlobal {
            dst: r,
            buf: Param(1),
            idx: Imm(0),
        });
        b.exit();
        let k = b.build(0);
        assert!(check_launch(&k, 2)
            .iter()
            .all(|d| d.class != HazardClass::UnboundParam));
        let diags = check_launch(&k, 1);
        assert!(diags
            .iter()
            .any(|d| d.class == HazardClass::UnboundParam && d.severity == Severity::Error));
    }

    #[test]
    fn dead_code_after_exit_is_a_warning() {
        let mut b = KernelBuilder::new("dead");
        b.exit();
        b.mov(0, Imm(1));
        b.mov(0, Imm(2));
        let diags = check_kernel(&b.build(0));
        let dead: Vec<_> = diags
            .iter()
            .filter(|d| d.class == HazardClass::UnreachableCode)
            .collect();
        assert_eq!(dead.len(), 1, "one merged region: {diags:?}");
        assert_eq!(dead[0].pc, Some(1));
    }

    #[test]
    fn branch_target_beyond_program_is_an_error() {
        let p = Program {
            instrs: vec![Instr::Bra(9), Instr::Exit],
        };
        let k = Kernel {
            name: "wild".into(),
            program: p,
            shared_words: 0,
            regs_per_thread: 0,
        };
        assert!(diag_classes(&k).contains(&HazardClass::InvalidBranch));
        // Branching exactly to program end is the implicit exit — legal.
        let k2 = Kernel {
            name: "toend".into(),
            program: Program {
                instrs: vec![Instr::Bra(1)],
            },
            shared_words: 0,
            regs_per_thread: 0,
        };
        assert!(diag_classes(&k2).is_empty());
    }

    #[test]
    fn loop_on_uniform_counter_is_clean() {
        let mut b = KernelBuilder::new("loop");
        let r = b.reg();
        let c = b.reg();
        b.mov(r, Imm(0));
        b.label("top");
        b.iadd(r, Reg(r), Imm(1));
        b.cmp_lt(c, Reg(r), Imm(10));
        b.bra_if(Reg(c), "top");
        b.bar_sync();
        b.exit();
        assert!(diag_classes(&b.build(0)).is_empty());
    }

    #[test]
    fn grid_stride_loop_with_barrier_inside_is_flagged() {
        // while (i < n) { ...; bar.sync; i += stride } where the trip count
        // is tid-dependent: classic divergent-barrier-in-loop.
        let mut b = KernelBuilder::new("divloop");
        let i = b.reg();
        let c = b.reg();
        b.mov(i, Sp(crate::Special::Tid));
        b.label("top");
        b.cmp_lt(c, Reg(i), Imm(100));
        b.bra_ifz(Reg(c), "out");
        b.bar_sync();
        b.iadd(i, Reg(i), Imm(32));
        b.bra("top");
        b.label("out");
        b.exit();
        let diags = check_kernel(&b.build(0));
        assert!(diags
            .iter()
            .any(|d| d.class == HazardClass::BarrierDivergence));
    }

    #[test]
    fn registry_kernels_are_clean_or_allowlisted() {
        use crate::kernels;
        // Every kernels.rs builder must be free of error-severity findings.
        let clean = [
            kernels::null_kernel(),
            kernels::sleep_kernel(100),
            kernels::fadd32_chain(4),
            kernels::sync_chain(kernels::SyncOp::Block, 4),
            kernels::sync_chain(kernels::SyncOp::Grid, 2),
            kernels::sync_chain(kernels::SyncOp::MultiGrid, 2),
            kernels::sync_throughput(kernels::SyncOp::Block, 4),
            kernels::coalesced_partial_chain(16, 4),
            kernels::coalesced_partial_throughput(16, 4),
            kernels::stream_kernel(2),
            kernels::smem_stream_kernel(64, 32),
            kernels::warp_probe(),
        ];
        for k in clean {
            let diags = check_kernel(&k);
            assert!(
                !has_errors(&diags),
                "{}: {:?}",
                k.name,
                diags
                    .iter()
                    .filter(|d| d.severity == Severity::Error)
                    .collect::<Vec<_>>()
            );
        }
        // warp_probe's only findings are the intentional divergent tile
        // barriers of Fig. 17 (allowlisted by the registry audit).
        let probe = check_kernel(&kernels::warp_probe());
        assert!(!probe.is_empty());
        assert!(probe
            .iter()
            .all(|d| d.class == HazardClass::WarpBarrierDivergence));
    }

    #[test]
    fn diagnostics_serialize_and_render_with_context() {
        let mut b = KernelBuilder::new("ser");
        let c = b.reg();
        b.cmp_lt(c, Sp(crate::Special::Tid), Imm(16));
        b.bra_ifz(Reg(c), "out");
        b.bar_sync();
        b.label("out");
        b.exit();
        let k = b.build(0);
        let diags = check_kernel(&k);
        let json = serde_json::to_string(&diags).unwrap();
        let back: Vec<Diagnostic> = serde_json::from_str(&json).unwrap();
        assert_eq!(diags, back);
        let rendered = render_report(&k, &diags);
        assert!(rendered.contains("barrier-divergence"), "{rendered}");
        assert!(rendered.contains("> "), "{rendered}");
        assert!(rendered.contains("bar.sync"), "{rendered}");
    }

    // --- CFG edge cases -------------------------------------------------

    #[test]
    fn branch_to_self_loop_terminates_analysis() {
        // A single-instruction block whose taken edge is itself: the
        // back-edge must not hang the dataflow fixpoints, and a uniform
        // self-loop followed by a barrier is clean.
        let mut b = KernelBuilder::new("selfloop");
        let c = b.reg();
        b.cmp_lt(c, Sp(crate::Special::BlockDim), Imm(1));
        b.label("spin");
        b.bra_if(Reg(c), "spin");
        b.bar_sync();
        b.exit();
        assert!(diag_classes(&b.build(0)).is_empty());
    }

    #[test]
    fn divergent_branch_to_self_flags_barrier_beyond_it() {
        // The same shape with a tid-dependent condition: lanes leave the
        // self-loop at different times; the analyzer must still converge
        // and treat the loop exit as the reconvergence point.
        let mut b = KernelBuilder::new("selfloop-div");
        let c = b.reg();
        b.cmp_lt(c, Sp(crate::Special::Tid), Imm(1));
        b.label("spin");
        b.bra_if(Reg(c), "spin");
        b.bar_sync();
        b.exit();
        let diags = check_kernel(&b.build(0));
        // The barrier sits at the branch's immediate post-dominator, i.e.
        // after reconvergence — whatever else is reported, it must not be
        // an error-severity divergence finding.
        assert!(!has_errors(&diags), "{diags:?}");
    }

    #[test]
    fn barrier_as_first_instruction_is_clean() {
        // The entry block opens with the barrier: there is no branch above
        // it, so the divergence state at pc 0 must be "uniform", not
        // uninitialized.
        let mut b = KernelBuilder::new("barrier-first");
        b.bar_sync();
        b.exit();
        assert!(diag_classes(&b.build(0)).is_empty());
        let mut b = KernelBuilder::new("grid-first");
        b.grid_sync();
        b.exit();
        assert!(diag_classes(&b.build(0)).is_empty());
    }

    #[test]
    fn back_edge_only_program_does_not_panic() {
        // No path reaches the exit: the virtual-exit post-dominator sets
        // are degenerate (nothing post-dominates anything reachable). The
        // analysis must terminate without panicking; findings are allowed,
        // errors about the unconditional infinite loop are not required.
        let mut b = KernelBuilder::new("foreverloop");
        let r = b.reg();
        b.label("top");
        b.iadd(r, Reg(r), Imm(1));
        b.bra("top");
        b.exit(); // dead code: build() wants a terminator, nothing reaches it
        let _ = check_kernel(&b.build(0));
    }

    #[test]
    fn empty_divergence_region_is_clean() {
        // Both edges of the divergent branch land on the same block
        // (ipdom == branch successor): the guarded region is empty, so a
        // barrier right at the join is uniform and must not be flagged.
        let mut b = KernelBuilder::new("emptyregion");
        let c = b.reg();
        b.cmp_lt(c, Sp(crate::Special::Tid), Imm(16));
        b.bra_ifz(Reg(c), "join");
        b.label("join");
        b.bar_sync();
        b.exit();
        assert!(diag_classes(&b.build(0)).is_empty());
    }

    #[test]
    fn branch_target_past_program_end_is_handled() {
        // A label defined after the last instruction resolves to one past
        // the end (an implicit exit) — the CFG must route that edge to the
        // virtual exit rather than index out of bounds.
        let mut b = KernelBuilder::new("offend");
        let c = b.reg();
        b.cmp_lt(c, Sp(crate::Special::Tid), Imm(16));
        b.bra_ifz(Reg(c), "end");
        b.exit();
        b.label("end");
        let _ = check_kernel(&b.build(0));
    }
}
