//! The host-side runtime model.
//!
//! Reproduces the launch-path semantics the paper measures in §IV and §VI:
//!
//! * **Traditional** stream launches: the CPU call costs `overhead_ns`; a
//!   saturated stream leaves an `overhead_ns` gap between back-to-back
//!   kernels (what the kernel-fusion method recovers as "launch overhead");
//!   a kernel occupies the stream for at least `floor_ns` (the null-kernel
//!   "total latency" floor of Table I).
//! * **Cooperative** launches: same shape, different constants.
//! * **Cooperative multi-device** launches: additionally gate on *all*
//!   participating devices' streams having drained, plus a per-extra-GPU
//!   serialization — the steep implicit-barrier line of Fig. 9.
//! * **Host threads** with OpenMP-style barriers (Fig. 6's pattern), and
//!   `cudaDeviceSynchronize` per thread.
//!
//! Host timestamps carry seeded Gaussian jitter so the uncertainty analysis
//! of §IX-D (Eq. 8) has real variance to chew on; device-side clocks remain
//! exact.

use gpu_arch::LaunchPath;
use gpu_sim::{
    BufId, ExecReport, GpuSystem, GridLaunch, HazardReport, LaunchKind, ProfileReport, RunOptions,
    TraceEvent,
};
use sim_core::{Ps, SimError, SimResult, SmallRng};

/// Per-device stream state (the default stream; the paper's benchmarks use
/// one stream per device).
#[derive(Debug, Clone, Copy, Default)]
struct Stream {
    /// When the stream's last enqueued work finishes.
    busy_until: Ps,
    /// Whether at least one kernel has been enqueued since the last drain
    /// observation (governs the back-to-back gap and completion cost).
    has_tail: bool,
    /// Launch path of the most recent kernel (for completion cost).
    tail_path: LaunchPath,
    /// When the most recent kernel began (stream pipeline interval).
    last_begin: Ps,
}

/// A launched kernel's timing as seen from the host.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchRecord {
    /// Device-side execution duration (excludes all launch overhead).
    pub exec: ExecReport,
    /// When the kernel began on its stream(s).
    pub begin: Ps,
    /// When the stream(s) will have completed it (includes the floor).
    pub end: Ps,
}

/// Everything a host-side launch produced: the stream timing plus whatever
/// optional evidence the [`RunOptions`] armed — the host mirror of
/// [`gpu_sim::RunArtifacts`].
#[derive(Debug, Clone)]
pub struct LaunchArtifacts {
    /// Host-visible stream timing of the launch.
    pub record: LaunchRecord,
    /// Shared-memory hazard evidence (`Some` iff checking was requested).
    pub hazards: Option<HazardReport>,
    /// Recorded execution steps (`Some` iff tracing was requested).
    pub trace: Option<Vec<TraceEvent>>,
    /// Syncprof counters (`Some` iff profiling was requested).
    pub profile: Option<ProfileReport>,
}

impl LaunchArtifacts {
    /// Whether no hazard evidence was collected: checking either wasn't
    /// armed, or was armed and found nothing.
    pub fn is_clean(&self) -> bool {
        self.hazards.as_ref().is_none_or(|h| h.is_clean())
    }
}

/// The simulated host: one process, any number of host threads, one default
/// stream per device.
///
/// ```
/// use cuda_rt::HostSim;
/// use gpu_arch::GpuArch;
/// use gpu_sim::{kernels, GpuSystem, GridLaunch, RunOptions};
///
/// let mut arch = GpuArch::v100();
/// arch.num_sms = 2;
/// let mut h = HostSim::new(GpuSystem::single(arch)).without_jitter();
/// let l = GridLaunch::single(kernels::sleep_kernel(10_000), 1, 32, vec![]);
/// h.launch(0, &l, &RunOptions::new()).unwrap();
/// h.device_synchronize(0, 0);
/// // 10 us of execution plus the launch path's overhead and floor.
/// assert!(h.now(0).as_us() > 10.0 && h.now(0).as_us() < 25.0);
/// ```
#[derive(Debug)]
pub struct HostSim {
    pub sys: GpuSystem,
    streams: Vec<Stream>,
    /// Copy-engine ports per device: peer copies are DMA transfers that
    /// overlap with kernels and with each other, one outbound and one
    /// inbound transfer in flight per device (full duplex).
    tx_busy: Vec<Ps>,
    rx_busy: Vec<Ps>,
    /// Virtual clock per host thread.
    threads: Vec<Ps>,
    rng: SmallRng,
    /// Host-timer jitter sigma (ns); `None` disables jitter.
    jitter: Option<f64>,
}

impl HostSim {
    pub fn new(sys: GpuSystem) -> HostSim {
        HostSim::with_threads(sys, 1)
    }

    /// A host with `nthreads` OS threads (e.g. one per GPU for the paper's
    /// CPU-side barrier pattern).
    pub fn with_threads(sys: GpuSystem, nthreads: usize) -> HostSim {
        assert!(nthreads >= 1);
        let n = sys.num_gpus();
        let jit = sys.arch.host.host_timer_jitter_ns;
        HostSim {
            sys,
            streams: vec![Stream::default(); n],
            tx_busy: vec![Ps::ZERO; n],
            rx_busy: vec![Ps::ZERO; n],
            threads: vec![Ps::ZERO; nthreads],
            rng: SmallRng::seed_from_u64(0x5CA1AB1E),
            jitter: (jit > 0.0).then_some(jit),
        }
    }

    /// Disable host-timer jitter (for deterministic tests).
    pub fn without_jitter(mut self) -> HostSim {
        self.jitter = None;
        self
    }

    /// The exact virtual time of a host thread.
    pub fn now(&self, thread: usize) -> Ps {
        self.threads[thread]
    }

    /// A host-side timestamp in nanoseconds, with measurement jitter — what
    /// `std::chrono` / `gettimeofday` would return in the paper's harness.
    pub fn timestamp(&mut self, thread: usize) -> f64 {
        let base = self.threads[thread].as_ns();
        match self.jitter {
            Some(sigma) => base + self.rng.normal(0.0, sigma),
            None => base,
        }
    }

    fn path(&self, kind: LaunchKind) -> LaunchPath {
        let h = &self.sys.arch.host;
        match kind {
            LaunchKind::Traditional => h.traditional,
            LaunchKind::Cooperative => h.cooperative,
            LaunchKind::CooperativeMultiDevice => h.cooperative_multi,
        }
    }

    /// Driver dispatch cost paid when a kernel enters an *idle* stream, and
    /// the completion-detection cost paid by the synchronize that observes
    /// the stream drain. Together with the launch-call overhead they add up
    /// to the launch path's Table-I floor: an isolated launch+sync of a null
    /// kernel costs `overhead_ns + floor_ns`, while pipelined back-to-back
    /// kernels pay only the `overhead_ns` gap (which is why the paper's
    /// kernel-fusion method must use long-enough kernels, §IX-B).
    fn dispatch_cost(&self, path: LaunchPath) -> Ps {
        let body = path
            .floor_ns
            .saturating_sub(self.sys.arch.host.device_sync_ns);
        Ps::from_ns(body * 3 / 5)
    }

    fn completion_cost(&self, path: LaunchPath) -> Ps {
        let body = path
            .floor_ns
            .saturating_sub(self.sys.arch.host.device_sync_ns);
        Ps::from_ns(body - body * 3 / 5)
    }

    /// Asynchronously launch a kernel from `thread`. The device-side
    /// simulation runs eagerly (memory effects apply immediately), but the
    /// stream timing models when it would really execute.
    ///
    /// `opts` arms the same instruments as [`GpuSystem::execute`] — hazard
    /// checking, tracing, profiling — without changing the stream timing.
    /// Detected hazards come back as *data* in [`LaunchArtifacts::hazards`];
    /// `launch` only errors on invalid launches, faults, deadlock, or
    /// static-lint rejections. The stream timing covers every device of
    /// `launch.devices`.
    pub fn launch(
        &mut self,
        thread: usize,
        launch: &GridLaunch,
        opts: &RunOptions,
    ) -> SimResult<LaunchArtifacts> {
        let path = self.path(launch.kind);
        let arts = self.sys.execute(launch, opts)?;
        let exec = arts.report;
        // CPU-side cost of the launch call.
        self.threads[thread] += Ps::from_ns(path.overhead_ns);
        let now = self.threads[thread];

        let begin = match launch.kind {
            LaunchKind::CooperativeMultiDevice => {
                // Gate: waits for ALL previous operations in every
                // participating device's stream, plus per-GPU serialization.
                let all_busy = launch
                    .devices
                    .iter()
                    .map(|&d| self.streams[d].busy_until)
                    .max()
                    .unwrap_or(Ps::ZERO);
                let gate = Ps::from_ns(
                    self.sys.arch.host.multi_gate_per_gpu_ns * (launch.devices.len() as u64 - 1),
                );
                let saturated = launch
                    .devices
                    .iter()
                    .any(|&d| self.streams[d].has_tail && self.streams[d].busy_until > now);
                if saturated {
                    all_busy + gate + Ps::from_ns(path.overhead_ns)
                } else {
                    now.max(all_busy) + gate + self.dispatch_cost(path)
                }
            }
            _ => {
                let d = launch.devices[0];
                let s = self.streams[d];
                if s.has_tail && s.busy_until > now {
                    // Back-to-back in a saturated stream: the launch gap,
                    // but never faster than the per-kernel pipeline interval
                    // the driver needs (§IX-B: short kernels over-report).
                    let pipeline =
                        s.last_begin + Ps::from_ns(self.sys.arch.host.stream_pipeline_interval_ns);
                    (s.busy_until + Ps::from_ns(path.overhead_ns)).max(pipeline)
                } else {
                    now.max(s.busy_until) + self.dispatch_cost(path)
                }
            }
        };

        let mut end = Ps::ZERO;
        for (r, &d) in launch.devices.iter().enumerate() {
            let e = begin + exec.device_durations[r];
            self.streams[d].busy_until = e;
            self.streams[d].has_tail = true;
            self.streams[d].tail_path = path;
            self.streams[d].last_begin = begin;
            end = end.max(e);
        }
        Ok(LaunchArtifacts {
            record: LaunchRecord { exec, begin, end },
            hazards: arts.hazards,
            trace: arts.trace,
            profile: arts.profile,
        })
    }

    /// `cudaDeviceSynchronize`: block `thread` until `device`'s stream is
    /// drained, then pay completion detection.
    pub fn device_synchronize(&mut self, thread: usize, device: usize) {
        let s = self.streams[device];
        let sync = Ps::from_ns(self.sys.arch.host.device_sync_ns);
        let completion = if s.has_tail {
            self.completion_cost(s.tail_path)
        } else {
            Ps::ZERO
        };
        self.threads[thread] = self.threads[thread].max(s.busy_until) + completion + sync;
        self.streams[device].has_tail = false;
    }

    /// OpenMP-style barrier among the given host threads (all of them when
    /// empty): everyone leaves at the max clock plus the barrier cost.
    pub fn omp_barrier(&mut self, threads: &[usize]) {
        let ids: Vec<usize> = if threads.is_empty() {
            (0..self.threads.len()).collect()
        } else {
            threads.to_vec()
        };
        let max = ids.iter().map(|&t| self.threads[t]).max().unwrap();
        let h = &self.sys.arch.host;
        let cost =
            Ps::from_ns(h.omp_barrier_ns + h.omp_barrier_per_thread_ns * (ids.len() as u64 - 1));
        for t in ids {
            self.threads[t] = max + cost;
        }
    }

    /// `cudaMemcpyPeer`-style copy of `words` 64-bit words. Copies the data
    /// and charges the link time to both devices' streams and the thread.
    pub fn memcpy_peer(
        &mut self,
        thread: usize,
        dst: BufId,
        src: BufId,
        words: u64,
    ) -> SimResult<()> {
        self.memcpy_peer_at(thread, dst, 0, src, 0, words)
    }

    /// [`Self::memcpy_peer`] with word offsets into both buffers.
    pub fn memcpy_peer_at(
        &mut self,
        thread: usize,
        dst: BufId,
        dst_off: u64,
        src: BufId,
        src_off: u64,
        words: u64,
    ) -> SimResult<()> {
        let (src_dev, dst_dev) = {
            let s = self.sys.buffer(src);
            let d = self.sys.buffer(dst);
            if !fits(src_off, words, s.len()) || !fits(dst_off, words, d.len()) {
                return Err(SimError::MemoryFault(format!(
                    "peer copy of {words} words at +{src_off}/+{dst_off} exceeds buffer sizes {} / {}",
                    s.len(),
                    d.len()
                )));
            }
            (s.device, d.device)
        };
        self.sys.copy_words(dst, dst_off, src, src_off, words)?;
        // Stream-ordered start (default-stream semantics), but the transfer
        // itself runs on the copy engines: concurrent copies between
        // disjoint device pairs overlap, as on real hardware.
        let t = self.sys.peer_copy_time(src_dev, dst_dev, words * 8);
        let begin = self.threads[thread]
            .max(self.streams[src_dev].busy_until)
            .max(self.streams[dst_dev].busy_until)
            .max(self.tx_busy[src_dev])
            .max(self.rx_busy[dst_dev]);
        let end = begin + t;
        self.tx_busy[src_dev] = end;
        self.rx_busy[dst_dev] = end;
        self.threads[thread] = end;
        Ok(())
    }
}

/// Whether `words` words starting at word `off` lie inside a buffer of `len`
/// words. A range whose end overflows `u64` never does.
fn fits(off: u64, words: u64, len: u64) -> bool {
    off.checked_add(words).is_some_and(|end| end <= len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_arch::GpuArch;
    use gpu_node::NodeTopology;
    use gpu_sim::kernels;

    fn host() -> HostSim {
        let mut arch = GpuArch::v100();
        arch.num_sms = 4;
        HostSim::new(GpuSystem::single(arch)).without_jitter()
    }

    #[test]
    fn null_kernel_total_latency_is_floor_plus_overhead() {
        let mut h = host();
        let k = kernels::null_kernel();
        let l = GridLaunch::single(k, 1, 32, vec![]);
        // Warm-up.
        h.launch(0, &l, &RunOptions::new()).unwrap();
        h.device_synchronize(0, 0);
        let t0 = h.now(0);
        let n = 5;
        for _ in 0..n {
            h.launch(0, &l, &RunOptions::new()).unwrap();
            h.device_synchronize(0, 0);
        }
        let per = (h.now(0) - t0).as_ns() / n as f64;
        // Table I: 7807 + 1081 = 8888 ns per isolated null kernel.
        assert!((per - 8888.0).abs() < 300.0, "got {per}");
    }

    #[test]
    fn saturated_stream_gap_equals_overhead() {
        // The kernel-fusion protocol: N sleep kernels vs one N-times-longer
        // kernel; the difference per kernel is the launch overhead.
        let mut h = host();
        let short = GridLaunch::single(kernels::sleep_kernel(10_000), 1, 32, vec![]);
        let long = GridLaunch::single(kernels::sleep_kernel(50_000), 1, 32, vec![]);
        h.launch(0, &short, &RunOptions::new()).unwrap();
        h.device_synchronize(0, 0);
        let t0 = h.now(0);
        for _ in 0..5 {
            h.launch(0, &short, &RunOptions::new()).unwrap();
        }
        h.device_synchronize(0, 0);
        let five = (h.now(0) - t0).as_ns();
        let t1 = h.now(0);
        h.launch(0, &long, &RunOptions::new()).unwrap();
        h.device_synchronize(0, 0);
        let one = (h.now(0) - t1).as_ns();
        let overhead = (five - one) / 4.0;
        assert!(
            (overhead - 1081.0).abs() < 200.0,
            "fusion overhead {overhead}"
        );
    }

    #[test]
    fn multi_device_gate_grows_with_gpu_count() {
        let mut arch = GpuArch::v100();
        arch.num_sms = 2;
        let sys = GpuSystem::new(arch, NodeTopology::dgx1_v100());
        let mut h = HostSim::new(sys).without_jitter();
        let mut last = 0.0;
        for n in [2usize, 4, 8] {
            let devices: Vec<usize> = (0..n).collect();
            let params = vec![vec![]; n];
            let l = GridLaunch::multi(kernels::null_kernel(), 1, 32, devices, params);
            let t0 = h.now(0);
            h.launch(0, &l, &RunOptions::new()).unwrap();
            for d in 0..n {
                h.device_synchronize(0, d);
            }
            let took = (h.now(0) - t0).as_ns();
            assert!(took > last, "gate should grow: {took} !> {last}");
            last = took;
        }
    }

    #[test]
    fn omp_barrier_aligns_threads() {
        let mut arch = GpuArch::v100();
        arch.num_sms = 2;
        let sys = GpuSystem::new(arch, NodeTopology::dgx1_v100());
        let mut h = HostSim::with_threads(sys, 4).without_jitter();
        h.threads[2] += Ps::from_ns(5_000);
        h.omp_barrier(&[]);
        let t0 = h.now(0);
        assert!(h.threads.iter().all(|&t| t == t0));
        assert!(t0.as_ns() >= 5_000.0);
    }

    #[test]
    fn peer_copy_moves_data_and_time() {
        let mut arch = GpuArch::v100();
        arch.num_sms = 2;
        let sys = GpuSystem::new(arch, NodeTopology::dgx1_v100());
        let mut h = HostSim::new(sys).without_jitter();
        let a = h.sys.alloc_f64(0, &[1.0, 2.0, 3.0]);
        let b = h.sys.alloc(1, 3);
        let t0 = h.now(0);
        h.memcpy_peer(0, b, a, 3).unwrap();
        assert_eq!(h.sys.read_f64(b), vec![1.0, 2.0, 3.0]);
        assert!(h.now(0) > t0);
    }

    #[test]
    fn timestamp_jitter_is_seeded_and_bounded() {
        let mut arch = GpuArch::v100();
        arch.num_sms = 1;
        let stamps = || {
            let mut h = HostSim::new(GpuSystem::single(arch.clone()));
            h.threads[0] += Ps::from_ns(1_000_000);
            (0..32).map(|_| h.timestamp(0)).collect::<Vec<f64>>()
        };
        let a = stamps();
        assert_eq!(a, stamps(), "same seed, same jitter");
        assert!(a.iter().any(|&v| v != 1_000_000.0), "jitter is armed");
        for v in &a {
            assert!((v - 1_000_000.0).abs() < 300.0, "jitter too large: {v}");
        }
    }

    fn divergent_barrier_launch() -> GridLaunch {
        use gpu_sim::isa::{Operand::*, Special};
        use gpu_sim::KernelBuilder;
        let mut b = KernelBuilder::new("divergent");
        let c = b.reg();
        b.cmp_lt(c, Sp(Special::Tid), Imm(16));
        b.bra_ifz(Reg(c), "out");
        b.bar_sync();
        b.label("out");
        b.exit();
        GridLaunch::single(b.build(0), 1, 32, vec![])
    }

    #[test]
    fn checked_launch_rejects_divergent_barrier_and_passes_clean_kernels() {
        let mut h = host();
        let check = RunOptions::new().check();
        let clean = GridLaunch::single(kernels::null_kernel(), 1, 32, vec![]);
        let arts = h.launch(0, &clean, &check).unwrap();
        assert!(arts.is_clean());
        assert!(arts.hazards.is_some(), "checking was armed");
        h.device_synchronize(0, 0);

        let bad = divergent_barrier_launch();
        let err = h.launch(0, &bad, &check).unwrap_err();
        assert!(err.to_string().contains("barrier-divergence"), "{err}");
        // The unchecked path still accepts it (Volta converges).
        h.launch(0, &bad, &RunOptions::new()).unwrap();
    }

    #[test]
    fn launch_can_arm_trace_and_profile_together() {
        let mut h = host();
        let out = h.sys.alloc(0, 2 * 64);
        let l = GridLaunch::single(
            kernels::sync_chain(kernels::SyncOp::Block, 4),
            2,
            64,
            vec![out.0 as u64],
        );
        let arts = h
            .launch(0, &l, &RunOptions::new().trace(10_000).profile())
            .unwrap();
        assert!(!arts.trace.as_ref().unwrap().is_empty());
        let profile = arts.profile.unwrap();
        assert!(profile.barrier_wait_ps(gpu_sim::SyncScope::Block) > 0);
        // Instruments must not move the stream clock.
        let plain = h.launch(0, &l, &RunOptions::new()).unwrap();
        assert_eq!(plain.record.exec, arts.record.exec);
    }

    #[test]
    fn memcpy_peer_rejects_oversized_copy() {
        let mut h = host();
        let a = h.sys.alloc(0, 2);
        let b = h.sys.alloc(0, 8);
        let err = h.memcpy_peer(0, b, a, 4).unwrap_err();
        assert_eq!(
            err.to_string(),
            "memory fault: peer copy of 4 words at +0/+0 exceeds buffer sizes 2 / 8"
        );
    }

    #[test]
    fn copies_at_overflowing_offsets_fault_instead_of_wrapping() {
        let mut h = host();
        let a = h.sys.alloc(0, 8);
        let b = h.sys.alloc(0, 8);
        let far = u64::MAX - 1;
        let faults = [
            h.memcpy_peer_at(0, b, 0, a, far, 4).unwrap_err(),
            h.memcpy_peer_at(0, b, far, a, 0, 4).unwrap_err(),
        ];
        for err in faults {
            assert!(matches!(err, SimError::MemoryFault(_)), "{err}");
        }
        // Nothing was copied and no transfer time was charged.
        assert_eq!(h.sys.read_u64(b), vec![0; 8]);
        assert_eq!(h.now(0), Ps::ZERO);
    }
}
