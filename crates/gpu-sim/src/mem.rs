//! Device memory buffers and the shared-memory visibility model.

use serde::{Deserialize, Serialize};
use sim_core::{SimError, SimResult};

/// Handle to a device buffer, global across all GPUs of a [`crate::GpuSystem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BufId(pub u32);

/// Backing contents of a buffer.
///
/// Dense buffers hold real 64-bit words (exact semantics, O(n) streaming).
/// Synthetic buffers describe f64 contents by a closed form so multi-gigabyte
/// reductions can be streamed in O(1) per thread — the workload-generation
/// substitute for the paper's giant device arrays.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum BufData {
    Dense(Vec<u64>),
    /// f64 value at index i is `a + b * i`; length `len` words.
    Linear {
        a: f64,
        b: f64,
        len: u64,
    },
}

/// A device memory allocation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Buffer {
    /// Owning device.
    pub device: usize,
    pub data: BufData,
}

impl Buffer {
    pub fn len(&self) -> u64 {
        match &self.data {
            BufData::Dense(v) => v.len() as u64,
            BufData::Linear { len, .. } => *len,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read one word (f64 bits for synthetic buffers).
    pub fn load(&self, idx: u64) -> SimResult<u64> {
        if idx >= self.len() {
            return Err(SimError::MemoryFault(format!(
                "load at {idx} beyond buffer of {} words",
                self.len()
            )));
        }
        Ok(match &self.data {
            BufData::Dense(v) => v[idx as usize],
            BufData::Linear { a, b, .. } => linear_word(*a, *b, idx),
        })
    }

    /// Write one word. Writing to a synthetic buffer densifies it first
    /// (allowed only for small synthetic buffers, as a guard against
    /// accidentally materializing gigabytes).
    pub fn store(&mut self, idx: u64, val: u64) -> SimResult<()> {
        if idx >= self.len() {
            return Err(SimError::MemoryFault(format!(
                "store at {idx} beyond buffer of {} words",
                self.len()
            )));
        }
        self.words_mut()?[idx as usize] = val;
        Ok(())
    }

    /// The words of a dense buffer, for writing: a synthetic buffer is
    /// densified first, within [`Buffer::store`]'s size limit.
    pub(crate) fn words_mut(&mut self) -> SimResult<&mut Vec<u64>> {
        if let BufData::Linear { a, b, len } = self.data {
            const DENSIFY_LIMIT: u64 = 1 << 22;
            if len > DENSIFY_LIMIT {
                return Err(SimError::MemoryFault(format!(
                    "store to synthetic buffer of {len} words (> {DENSIFY_LIMIT}) \
                     would materialize it"
                )));
            }
            self.data = BufData::Dense((0..len).map(|i| linear_word(a, b, i)).collect());
        }
        match &mut self.data {
            BufData::Dense(v) => Ok(v),
            BufData::Linear { .. } => unreachable!(),
        }
    }

    /// End of the word range `off..off + n`, if it lies inside the buffer.
    pub(crate) fn range_end(&self, off: u64, n: u64) -> SimResult<u64> {
        off.checked_add(n)
            .filter(|&end| end <= self.len())
            .ok_or_else(|| {
                SimError::MemoryFault(format!(
                    "{n} words at +{off} exceed buffer of {} words",
                    self.len()
                ))
            })
    }

    /// Fill `out` with the words from `off` on; the caller has checked the
    /// range.
    pub(crate) fn read_into(&self, off: usize, out: &mut [u64]) {
        match &self.data {
            BufData::Dense(v) => out.copy_from_slice(&v[off..off + out.len()]),
            BufData::Linear { a, b, .. } => {
                for (i, w) in (off as u64..).zip(out) {
                    *w = linear_word(*a, *b, i);
                }
            }
        }
    }

    /// Words `off..off + n`, in order (f64 bits for synthetic buffers).
    pub fn read(&self, off: u64, n: u64) -> SimResult<Vec<u64>> {
        self.range_end(off, n)?;
        let mut out = vec![0; n as usize];
        self.read_into(off as usize, &mut out);
        Ok(out)
    }

    /// Sum of f64 words at `start, start+stride, ...` below `len_cap`,
    /// plus the number of elements touched. Closed form for synthetic
    /// buffers; exact loop for dense ones.
    pub fn strided_sum(&self, start: u64, stride: u64, len_cap: u64) -> SimResult<(f64, u64)> {
        assert!(stride > 0, "stride must be positive");
        if len_cap > self.len() {
            return Err(SimError::MemoryFault(format!(
                "stream cap {len_cap} beyond buffer of {} words",
                self.len()
            )));
        }
        let n = strided_count(start, stride, len_cap);
        if n == 0 {
            return Ok((0.0, 0));
        }
        let s = match &self.data {
            BufData::Dense(v) => {
                strided(start, stride, len_cap).fold(0.0, |s, i| s + f64::from_bits(v[i as usize]))
            }
            BufData::Linear { a, b, .. } => {
                // sum_{k=0}^{n-1} (a + b(start + k*stride))
                //   = n*a + b*(n*start + stride*n(n-1)/2)
                let nf = n as f64;
                nf * a + b * (nf * start as f64 + stride as f64 * nf * (nf - 1.0) / 2.0)
            }
        };
        Ok((s, n))
    }
}

/// Word `idx` of the synthetic buffer `a + b * idx`, as f64 bits.
fn linear_word(a: f64, b: f64, idx: u64) -> u64 {
    (a + b * idx as f64).to_bits()
}

/// How many indices `start, start + stride, ...` lie below `cap`
/// (`stride > 0`).
pub(crate) fn strided_count(start: u64, stride: u64, cap: u64) -> u64 {
    if start >= cap {
        0
    } else {
        (cap - start).div_ceil(stride)
    }
}

/// The indices `start, start + stride, ...` below `cap`, ascending. The
/// count is fixed up front, so a stride taken from a kernel never wraps the
/// index back over lower words.
pub(crate) fn strided(start: u64, stride: u64, cap: u64) -> impl Iterator<Item = u64> {
    (0..strided_count(start, stride, cap)).map(move |k| start + k * stride)
}

/// Where [`combine`] reads a source's words.
enum Source<'a> {
    /// The source is `dst`: read the words moved out of it.
    Dst,
    Dense(&'a [u64]),
    Linear(f64, f64),
}

impl Source<'_> {
    fn of(bufs: &[Buffer], id: usize, dst: usize) -> Source<'_> {
        if id == dst {
            return Source::Dst;
        }
        match &bufs[id].data {
            BufData::Dense(v) => Source::Dense(v),
            BufData::Linear { a, b, .. } => Source::Linear(*a, *b),
        }
    }

    #[inline]
    fn get(&self, dst: &[u64], i: usize) -> f64 {
        f64::from_bits(match *self {
            Source::Dst => dst[i],
            Source::Dense(v) => v[i],
            Source::Linear(a, b) => linear_word(a, b, i as u64),
        })
    }
}

/// `dst[i] = a[i] + b[i]` in f64 for `i = start, start + stride, ...` below
/// `cap`, ascending, where `dst`, `a` and `b` index `bufs` and may name the
/// same buffer. Returns the number of elements. The caller has checked
/// `cap` against all three lengths.
///
/// `dst`'s words are moved out of its buffer for the loop and back after
/// it; a source that is `dst` reads the moved words. Every element thus
/// reads what a word-by-word `load`/`store` loop would, earlier writes
/// included. A synthetic `dst` densifies before the first write, as on
/// [`Buffer::store`].
pub(crate) fn combine(
    bufs: &mut [Buffer],
    dst: usize,
    a: usize,
    b: usize,
    start: u64,
    stride: u64,
    cap: u64,
) -> SimResult<u64> {
    let n = strided_count(start, stride, cap);
    if n == 0 {
        return Ok(0);
    }
    let mut out = std::mem::take(bufs[dst].words_mut()?);
    let (sa, sb) = (Source::of(bufs, a, dst), Source::of(bufs, b, dst));
    for i in strided(start, stride, cap) {
        let i = i as usize;
        out[i] = (sa.get(&out, i) + sb.get(&out, i)).to_bits();
    }
    bufs[dst].data = BufData::Dense(out);
    Ok(n)
}

/// One shared-memory word with the paper-motivated visibility rule: a
/// non-volatile store is visible to its own thread immediately but to other
/// threads only after the writer executes a fence-carrying instruction (any
/// sync). This makes the "nosync" warp reduction *incorrect* — Table V's
/// footnote — while tile/coalesced-sync and volatile versions stay correct.
#[derive(Debug, Clone, Copy, Default)]
struct SmemWord {
    committed: u64,
    /// Uncommitted store: (writer thread id within block, value).
    pending: Option<(u32, u64)>,
}

/// The data-race taxonomy of the racecheck shadow state, named for the
/// second access (the one that completes the hazard).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HazardKind {
    /// Read-after-write: a thread read a word another thread wrote in the
    /// same barrier epoch.
    Raw,
    /// Write-after-write: two threads wrote the same word in one epoch.
    Waw,
    /// Write-after-read: a thread overwrote a word another thread read in
    /// the same epoch.
    War,
}

impl HazardKind {
    pub fn slug(&self) -> &'static str {
        match self {
            HazardKind::Raw => "read-after-write",
            HazardKind::Waw => "write-after-write",
            HazardKind::War => "write-after-read",
        }
    }
}

/// One detected cross-thread shared-memory hazard.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Hazard {
    pub kind: HazardKind,
    /// Shared-memory word address.
    pub addr: u64,
    /// Thread (id within the block) that made the earlier access.
    pub first_thread: u32,
    /// Thread whose access completed the hazard.
    pub second_thread: u32,
    /// Barrier epoch (number of block barriers executed before the hazard).
    pub epoch: u32,
    /// Program counter of the second access, when the engine provided it.
    pub pc: Option<u32>,
}

/// Shadow state per word, for accesses by agents `A` (a thread id in shared
/// memory, a [`GlobalAgent`] in global memory): the most recent write and
/// the last two distinct readers of the current epoch. Tracking two readers
/// (not all) is the same approximation hardware racecheck tools make — it
/// catches every two-agent race and only under-reports *which* of
/// three-plus concurrent readers conflicted.
#[derive(Debug, Clone, Copy)]
struct Shadow<A> {
    /// (agent, epoch) of the most recent write.
    write: Option<(A, u32)>,
    /// (agent, epoch) of the most recent read.
    read: Option<(A, u32)>,
    /// A same-epoch reader distinct from `read`'s agent, if any.
    other_reader: Option<A>,
}

/// What one access raced with: the hazard's kind and the earlier agent.
type Race<A> = Option<(HazardKind, A)>;

impl<A: Copy + PartialEq> Shadow<A> {
    const EMPTY: Shadow<A> = Shadow {
        write: None,
        read: None,
        other_reader: None,
    };

    /// A load by `agent` in `epoch`: the same-epoch write it reads after.
    fn load(&mut self, agent: A, epoch: u32) -> [Race<A>; 2] {
        let raw = match self.write {
            Some((w, e)) if e == epoch && w != agent => Some((HazardKind::Raw, w)),
            _ => None,
        };
        match self.read {
            Some((r, e)) if e == epoch => {
                if r != agent {
                    self.other_reader = Some(r);
                }
            }
            _ => self.other_reader = None,
        }
        self.read = Some((agent, epoch));
        [raw, None]
    }

    /// A store by `agent` in `epoch`: the same-epoch write it overwrites,
    /// then the same-epoch read it follows.
    fn store(&mut self, agent: A, epoch: u32) -> [Race<A>; 2] {
        let waw = match self.write {
            Some((w, e)) if e == epoch && w != agent => Some((HazardKind::Waw, w)),
            _ => None,
        };
        let war = match self.read {
            Some((r, e)) if e == epoch && r != agent => Some(r),
            Some((_, e)) if e == epoch => self.other_reader.filter(|&o| o != agent),
            _ => None,
        };
        self.write = Some((agent, epoch));
        [waw, war.map(|r| (HazardKind::War, r))]
    }
}

/// Per-block (shared) or launch-wide (global) cap on stored hazard records
/// (a racing loop would otherwise allocate without bound; the overflow is
/// still counted).
pub const MAX_RECORDED_HAZARDS: usize = 64;

/// Hazard records, the first [`MAX_RECORDED_HAZARDS`] stored and the rest
/// counted.
#[derive(Debug, Clone)]
struct Records<H> {
    kept: Vec<H>,
    dropped: u32,
}

impl<H> Default for Records<H> {
    fn default() -> Records<H> {
        Records {
            kept: Vec::new(),
            dropped: 0,
        }
    }
}

impl<H> Records<H> {
    fn push(&mut self, h: H) {
        if self.kept.len() < MAX_RECORDED_HAZARDS {
            self.kept.push(h);
        } else {
            self.dropped += 1;
        }
    }

    /// Drain the stored records (in detection order) and the overflow count.
    fn take(&mut self) -> (Vec<H>, u32) {
        (
            std::mem::take(&mut self.kept),
            std::mem::take(&mut self.dropped),
        )
    }
}

/// Racecheck bookkeeping, allocated only in `checked()` launches.
#[derive(Debug, Clone)]
struct RaceCheck {
    shadow: Vec<Shadow<u32>>,
    /// Barrier epoch: bumped by [`SharedMem::fence_all`] (the block
    /// barrier), the only synchronization that orders *all* threads of the
    /// block. Warp-level syncs do not advance it, so warp-synchronized
    /// exchanges are reported — the same conservative stance as
    /// `cuda-memcheck --tool racecheck`.
    epoch: u32,
    /// Pc of the access being executed, provided by the engine.
    pc: Option<u32>,
    hazards: Records<Hazard>,
}

impl RaceCheck {
    /// Record what an access by `thread` to `addr` raced with.
    fn record(&mut self, thread: u32, addr: u64, races: [Race<u32>; 2]) {
        for (kind, first) in races.into_iter().flatten() {
            self.hazards.push(Hazard {
                kind,
                addr,
                first_thread: first,
                second_thread: thread,
                epoch: self.epoch,
                pc: self.pc,
            });
        }
    }
}

/// Per-block shared memory.
#[derive(Debug, Clone)]
pub struct SharedMem {
    words: Vec<SmemWord>,
    race: Option<RaceCheck>,
}

impl SharedMem {
    pub fn new(words: u32) -> SharedMem {
        SharedMem {
            words: vec![SmemWord::default(); words as usize],
            race: None,
        }
    }

    /// Shared memory with the racecheck shadow state enabled.
    pub fn with_racecheck(words: u32) -> SharedMem {
        SharedMem {
            words: vec![SmemWord::default(); words as usize],
            race: Some(RaceCheck {
                shadow: vec![Shadow::EMPTY; words as usize],
                epoch: 0,
                pc: None,
                hazards: Records::default(),
            }),
        }
    }

    /// Tell the racecheck shadow which instruction the next access belongs
    /// to (diagnostic context only; a no-op without racecheck).
    pub fn racecheck_at(&mut self, pc: u32) {
        if let Some(rc) = &mut self.race {
            rc.pc = Some(pc);
        }
    }

    /// Drain recorded hazards, returning them with the count of hazards
    /// dropped beyond [`MAX_RECORDED_HAZARDS`].
    pub fn take_hazards(&mut self) -> (Vec<Hazard>, u32) {
        match &mut self.race {
            Some(rc) => rc.hazards.take(),
            None => (Vec::new(), 0),
        }
    }

    pub fn len(&self) -> usize {
        self.words.len()
    }

    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    fn check(&self, thread: u32, addr: u64) -> SimResult<usize> {
        if (addr as usize) < self.words.len() {
            Ok(addr as usize)
        } else {
            Err(SimError::MemoryFault(format!(
                "thread {thread}: shared access at word {addr} beyond the block's \
                 {} shared word(s)",
                self.words.len()
            )))
        }
    }

    /// Load as seen by `thread`.
    pub fn load(&mut self, thread: u32, addr: u64, volatile: bool) -> SimResult<u64> {
        let i = self.check(thread, addr)?;
        if let Some(rc) = &mut self.race {
            let races = rc.shadow[i].load(thread, rc.epoch);
            rc.record(thread, addr, races);
        }
        let w = &self.words[i];
        Ok(match w.pending {
            // A thread always sees its own pending store; a volatile load
            // still cannot see *another* thread's uncommitted store.
            Some((t, v)) if t == thread => v,
            _ => {
                let _ = volatile; // volatile affects timing, not visibility.
                w.committed
            }
        })
    }

    /// Store by `thread`. Volatile stores commit immediately.
    pub fn store(&mut self, thread: u32, addr: u64, val: u64, volatile: bool) -> SimResult<()> {
        let i = self.check(thread, addr)?;
        if let Some(rc) = &mut self.race {
            let races = rc.shadow[i].store(thread, rc.epoch);
            rc.record(thread, addr, races);
        }
        if volatile {
            self.words[i].committed = val;
            self.words[i].pending = None;
        } else {
            self.words[i].pending = Some((thread, val));
        }
        Ok(())
    }

    /// Commit all pending stores by `thread` (the effect of a fence or any
    /// synchronization instruction executed by that thread).
    pub fn fence(&mut self, thread: u32) {
        for w in &mut self.words {
            if let Some((t, v)) = w.pending {
                if t == thread {
                    w.committed = v;
                    w.pending = None;
                }
            }
        }
    }

    /// Commit everything (block barrier: every participant fences). With
    /// racecheck on, this also advances the barrier epoch: accesses on
    /// opposite sides of a block barrier are ordered and never conflict.
    pub fn fence_all(&mut self) {
        for w in &mut self.words {
            if let Some((_, v)) = w.pending {
                w.committed = v;
                w.pending = None;
            }
        }
        if let Some(rc) = &mut self.race {
            rc.epoch += 1;
        }
    }
}

/// Identity of an agent in the global-memory racecheck: global memory is
/// visible across blocks and devices, so a plain thread id is not enough to
/// tell two accessors apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GlobalAgent {
    /// Device rank within the system.
    pub rank: u32,
    /// Block index on that device.
    pub block: u32,
    /// Thread id within the block.
    pub thread: u32,
}

/// One detected cross-agent global-memory hazard.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GlobalHazard {
    pub kind: HazardKind,
    /// Device buffer the racing accesses hit.
    pub buf: u32,
    /// Word index within the buffer.
    pub idx: u64,
    /// Agent that made the earlier access.
    pub first: GlobalAgent,
    /// Agent whose access completed the hazard.
    pub second: GlobalAgent,
    /// Synchronization epoch both accesses fell into.
    pub epoch: u32,
    /// Program counter of the second access, when the engine provided it.
    pub pc: Option<u32>,
}

/// Launch-wide racecheck over plain global loads and stores.
///
/// The same shadow as the shared-memory racecheck, with two deliberate
/// differences:
///
/// * **Scope.** One instance covers the whole launch (all blocks, all
///   devices), because global memory is the medium every cross-block
///   primitive communicates through.
/// * **Epoch rules.** The single launch-wide epoch advances on events that
///   order *global* accesses: grid/multi-grid barriers, memory fences, and
///   every successful atomic or flag operation (`atom.*`, satisfied
///   `wait.ge`, `signal`). Block barriers do *not* advance it — they only
///   order threads of one block, and bumping a launch-wide counter for them
///   would hide true cross-block races. Atomic accesses themselves are
///   never recorded in the shadow: they are the synchronization, not the
///   race. The cost of the coarse launch-wide epoch is missed reports (an
///   unrelated atomic can separate two racing plain accesses), never false
///   ones on correctly flag-synchronized handoffs.
#[derive(Debug, Clone, Default)]
pub struct GlobalRaceCheck {
    shadow: std::collections::HashMap<(u32, u64), Shadow<GlobalAgent>>,
    epoch: u32,
    pc: Option<u32>,
    hazards: Records<GlobalHazard>,
}

impl GlobalRaceCheck {
    pub fn new() -> GlobalRaceCheck {
        GlobalRaceCheck::default()
    }

    /// Record the pc of the access about to execute (for reports).
    pub fn at(&mut self, pc: u32) {
        self.pc = Some(pc);
    }

    /// A scope-appropriate synchronization event executed: advance the
    /// launch-wide epoch so accesses separated by it never conflict.
    pub fn sync_event(&mut self) {
        self.epoch += 1;
    }

    /// Drain recorded hazards (insertion order — the engine's deterministic
    /// execution order) and the overflow count.
    pub fn take_hazards(&mut self) -> (Vec<GlobalHazard>, u32) {
        self.hazards.take()
    }

    pub fn on_load(&mut self, agent: GlobalAgent, buf: u32, idx: u64) {
        let word = self.shadow.entry((buf, idx)).or_insert(Shadow::EMPTY);
        let races = word.load(agent, self.epoch);
        self.record(agent, buf, idx, races);
    }

    pub fn on_store(&mut self, agent: GlobalAgent, buf: u32, idx: u64) {
        let word = self.shadow.entry((buf, idx)).or_insert(Shadow::EMPTY);
        let races = word.store(agent, self.epoch);
        self.record(agent, buf, idx, races);
    }

    /// Record what an access by `agent` to `buf[idx]` raced with.
    fn record(&mut self, agent: GlobalAgent, buf: u32, idx: u64, races: [Race<GlobalAgent>; 2]) {
        for (kind, first) in races.into_iter().flatten() {
            self.hazards.push(GlobalHazard {
                kind,
                buf,
                idx,
                first,
                second: agent,
                epoch: self.epoch,
                pc: self.pc,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense(vals: &[f64]) -> Buffer {
        Buffer {
            device: 0,
            data: BufData::Dense(vals.iter().map(|v| v.to_bits()).collect()),
        }
    }

    #[test]
    fn dense_load_store_round_trip() {
        let mut b = dense(&[1.0, 2.0, 3.0]);
        assert_eq!(f64::from_bits(b.load(1).unwrap()), 2.0);
        b.store(1, 9.5f64.to_bits()).unwrap();
        assert_eq!(f64::from_bits(b.load(1).unwrap()), 9.5);
    }

    #[test]
    fn out_of_bounds_faults() {
        let b = dense(&[1.0]);
        assert!(matches!(b.load(1), Err(SimError::MemoryFault(_))));
        let mut b = dense(&[1.0]);
        assert!(b.store(5, 0).is_err());
    }

    #[test]
    fn linear_buffer_matches_dense_sum() {
        let lin = Buffer {
            device: 0,
            data: BufData::Linear {
                a: 0.5,
                b: 0.25,
                len: 1000,
            },
        };
        let vals: Vec<f64> = (0..1000).map(|i| 0.5 + 0.25 * i as f64).collect();
        let den = dense(&vals);
        for (start, stride) in [(0u64, 1u64), (3, 7), (999, 1), (0, 999), (5, 128)] {
            let (a, na) = lin.strided_sum(start, stride, 1000).unwrap();
            let (b, nb) = den.strided_sum(start, stride, 1000).unwrap();
            assert_eq!(na, nb, "count start={start} stride={stride}");
            assert!((a - b).abs() < 1e-6 * b.abs().max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn strided_sum_start_beyond_cap_is_empty() {
        let b = dense(&[1.0, 2.0]);
        let (s, n) = b.strided_sum(5, 1, 2).unwrap();
        assert_eq!((s, n), (0.0, 0));
    }

    #[test]
    fn strided_sum_rejects_cap_beyond_len() {
        let b = dense(&[1.0, 2.0]);
        assert!(b.strided_sum(0, 1, 3).is_err());
    }

    #[test]
    fn huge_synthetic_store_is_rejected() {
        let mut b = Buffer {
            device: 0,
            data: BufData::Linear {
                a: 0.0,
                b: 1.0,
                len: 1 << 30,
            },
        };
        assert!(b.store(0, 0).is_err());
    }

    #[test]
    fn small_synthetic_densifies_on_store() {
        let mut b = Buffer {
            device: 0,
            data: BufData::Linear {
                a: 1.0,
                b: 0.0,
                len: 4,
            },
        };
        b.store(2, 7.0f64.to_bits()).unwrap();
        assert_eq!(f64::from_bits(b.load(2).unwrap()), 7.0);
        assert_eq!(f64::from_bits(b.load(0).unwrap()), 1.0);
    }

    #[test]
    fn smem_own_store_visible_others_stale() {
        let mut s = SharedMem::new(4);
        s.store(0, 2, 5, false).unwrap();
        assert_eq!(s.load(0, 2, false).unwrap(), 5, "own store visible");
        assert_eq!(s.load(1, 2, false).unwrap(), 0, "other thread sees stale");
        // Volatile load does not reveal another thread's pending store.
        assert_eq!(s.load(1, 2, true).unwrap(), 0);
    }

    #[test]
    fn smem_fence_commits_only_own_stores() {
        let mut s = SharedMem::new(4);
        s.store(0, 0, 10, false).unwrap();
        s.store(1, 1, 11, false).unwrap();
        s.fence(0);
        assert_eq!(s.load(2, 0, false).unwrap(), 10);
        assert_eq!(s.load(2, 1, false).unwrap(), 0);
        s.fence_all();
        assert_eq!(s.load(2, 1, false).unwrap(), 11);
    }

    #[test]
    fn smem_volatile_store_commits_immediately() {
        let mut s = SharedMem::new(2);
        s.store(0, 0, 42, true).unwrap();
        assert_eq!(s.load(1, 0, false).unwrap(), 42);
    }

    #[test]
    fn smem_bounds_fault_names_thread_and_capacity() {
        let mut s = SharedMem::new(2);
        let err = s.load(7, 2, false).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("thread 7"), "{msg}");
        assert!(msg.contains("word 2"), "{msg}");
        assert!(msg.contains("2 shared word(s)"), "{msg}");
        let err = s.store(3, 9, 0, false).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("thread 3"), "{msg}");
        assert!(msg.contains("word 9"), "{msg}");
    }

    #[test]
    fn racecheck_flags_cross_thread_raw() {
        let mut s = SharedMem::with_racecheck(4);
        s.racecheck_at(5);
        s.store(0, 1, 42, false).unwrap();
        s.load(1, 1, false).unwrap();
        let (hz, dropped) = s.take_hazards();
        assert_eq!(dropped, 0);
        assert_eq!(hz.len(), 1, "{hz:?}");
        assert_eq!(hz[0].kind, HazardKind::Raw);
        assert_eq!((hz[0].first_thread, hz[0].second_thread), (0, 1));
        assert_eq!(hz[0].addr, 1);
        assert_eq!(hz[0].pc, Some(5));
    }

    #[test]
    fn racecheck_flags_waw_and_war() {
        let mut s = SharedMem::with_racecheck(4);
        s.store(0, 2, 1, false).unwrap();
        s.store(1, 2, 2, false).unwrap(); // WAW 0→1
        let (hz, _) = s.take_hazards();
        assert_eq!(hz.len(), 1, "{hz:?}");
        assert_eq!(hz[0].kind, HazardKind::Waw);

        let mut s = SharedMem::with_racecheck(4);
        s.load(0, 3, false).unwrap();
        s.store(1, 3, 9, false).unwrap(); // WAR 0→1
        let (hz, _) = s.take_hazards();
        assert!(hz
            .iter()
            .any(|h| h.kind == HazardKind::War && h.first_thread == 0 && h.second_thread == 1));
    }

    #[test]
    fn racecheck_same_thread_and_cross_epoch_are_clean() {
        let mut s = SharedMem::with_racecheck(4);
        // Same thread: write then read, no hazard.
        s.store(0, 0, 1, false).unwrap();
        s.load(0, 0, false).unwrap();
        // Cross-thread but separated by a block barrier: ordered.
        s.store(1, 1, 2, false).unwrap();
        s.fence_all();
        s.load(2, 1, false).unwrap();
        s.store(3, 1, 7, false).unwrap();
        // (thread 2 read and thread 3 wrote in the *same* post-barrier
        // epoch — that WAR is real and must still be flagged.)
        let (hz, _) = s.take_hazards();
        assert_eq!(hz.len(), 1, "{hz:?}");
        assert_eq!(hz[0].kind, HazardKind::War);
        assert_eq!(hz[0].epoch, 1);
    }

    #[test]
    fn racecheck_war_survives_own_read_in_between() {
        // Thread 1 reads, thread 2 reads, then thread 2 writes: the write
        // still races with thread 1's read even though thread 2's own read
        // was the most recent.
        let mut s = SharedMem::with_racecheck(2);
        s.load(1, 0, false).unwrap();
        s.load(2, 0, false).unwrap();
        s.store(2, 0, 5, false).unwrap();
        let (hz, _) = s.take_hazards();
        assert!(
            hz.iter()
                .any(|h| h.kind == HazardKind::War && h.first_thread == 1),
            "{hz:?}"
        );
    }

    #[test]
    fn racecheck_caps_recorded_hazards() {
        let mut s = SharedMem::with_racecheck(1);
        for t in 0..(MAX_RECORDED_HAZARDS as u32 + 10) {
            s.store(t, 0, t as u64, false).unwrap();
        }
        let (hz, dropped) = s.take_hazards();
        assert_eq!(hz.len(), MAX_RECORDED_HAZARDS);
        assert!(dropped > 0);
    }

    #[test]
    fn unchecked_smem_records_nothing() {
        let mut s = SharedMem::new(2);
        s.store(0, 0, 1, false).unwrap();
        s.store(1, 0, 2, false).unwrap();
        let (hz, dropped) = s.take_hazards();
        assert!(hz.is_empty());
        assert_eq!(dropped, 0);
    }

    // --- global racecheck ---

    fn agent(block: u32, thread: u32) -> GlobalAgent {
        GlobalAgent {
            rank: 0,
            block,
            thread,
        }
    }

    #[test]
    fn global_waw_between_blocks_is_flagged() {
        let mut g = GlobalRaceCheck::new();
        g.at(4);
        g.on_store(agent(0, 0), 1, 7);
        g.on_store(agent(1, 0), 1, 7);
        let (hz, dropped) = g.take_hazards();
        assert_eq!(dropped, 0);
        assert_eq!(hz.len(), 1);
        assert_eq!(hz[0].kind, HazardKind::Waw);
        assert_eq!((hz[0].buf, hz[0].idx), (1, 7));
        assert_eq!(hz[0].pc, Some(4));
    }

    #[test]
    fn global_raw_and_war_are_flagged() {
        let mut g = GlobalRaceCheck::new();
        g.on_store(agent(0, 0), 0, 0);
        g.on_load(agent(1, 0), 0, 0);
        let (hz, _) = g.take_hazards();
        assert_eq!(hz.len(), 1);
        assert_eq!(hz[0].kind, HazardKind::Raw);

        let mut g = GlobalRaceCheck::new();
        g.on_load(agent(0, 0), 0, 0);
        g.on_store(agent(1, 0), 0, 0);
        let (hz, _) = g.take_hazards();
        assert_eq!(hz.len(), 1);
        assert_eq!(hz[0].kind, HazardKind::War);
    }

    #[test]
    fn same_agent_and_distinct_words_are_not_races() {
        let mut g = GlobalRaceCheck::new();
        g.on_store(agent(0, 3), 0, 0);
        g.on_store(agent(0, 3), 0, 0); // same thread rewrites its word
        g.on_store(agent(1, 3), 0, 1); // different word
        g.on_store(agent(1, 3), 2, 0); // different buffer
        let (hz, dropped) = g.take_hazards();
        assert!(hz.is_empty(), "{hz:?}");
        assert_eq!(dropped, 0);
    }

    #[test]
    fn sync_event_separates_epochs() {
        // A store handed off through a sync event (fence/atomic/grid
        // barrier in the engine) is ordered: no hazard across the bump.
        let mut g = GlobalRaceCheck::new();
        g.on_store(agent(0, 0), 0, 0);
        g.sync_event();
        g.on_load(agent(1, 0), 0, 0);
        g.on_store(agent(1, 0), 0, 0);
        let (hz, _) = g.take_hazards();
        assert!(hz.is_empty(), "{hz:?}");
    }

    #[test]
    fn second_reader_is_tracked_when_writer_is_the_last_reader() {
        // Two readers in the same epoch, then one of them writes: a
        // single-reader shadow would only remember the writer itself and
        // miss the conflict; the two-reader approximation keeps the other
        // reader and reports the WAR against it.
        let mut g = GlobalRaceCheck::new();
        g.on_load(agent(0, 0), 0, 0);
        g.on_load(agent(1, 0), 0, 0);
        g.on_store(agent(1, 0), 0, 0);
        let (hz, _) = g.take_hazards();
        assert_eq!(hz.len(), 1, "{hz:?}");
        assert_eq!(hz[0].kind, HazardKind::War);
        assert_eq!(hz[0].first, agent(0, 0));
    }

    #[test]
    fn global_racecheck_caps_recorded_hazards() {
        let mut g = GlobalRaceCheck::new();
        g.on_store(agent(0, 0), 0, 0);
        for t in 0..(MAX_RECORDED_HAZARDS as u32 + 10) {
            g.on_store(agent(1, t), 0, 0);
        }
        let (hz, dropped) = g.take_hazards();
        assert_eq!(hz.len(), MAX_RECORDED_HAZARDS);
        assert!(dropped > 0);
    }
}
