//! # synccheck
//!
//! The registry-wide synchronization audit: every kernel builder in
//! [`gpu_sim::kernels`] is linted with the static analyzer
//! ([`gpu_sim::verify`]) under its canonical launch shape, and — where a
//! small representative launch exists — executed with the dynamic
//! shared-memory racecheck ([`gpu_sim::GridLaunch::checked`]).
//!
//! Intentionally divergent probes (the paper's Fig. 17 clock-around-
//! divergence experiment) are suppressed through an explicit, commented
//! [`ALLOWLIST`]; everything else must come back clean, and `repro --check`
//! fails CI otherwise. The [`fixtures`] module holds seeded known-bad
//! kernels that the test suite uses to prove the checker actually fires.

use gpu_sim::engine::HazardReport;
use gpu_sim::kernels::{self, SyncOp};
use gpu_sim::verify::{check_launch, Diagnostic, HazardClass};
use gpu_sim::{GpuSystem, GridLaunch, Kernel, RunOptions};
use serde::{Deserialize, Serialize};
use sim_core::SimResult;

pub mod corpus;
pub mod fixtures;

/// One allowlisted (kernel, hazard-class, pc-set) triple with the reason it
/// is intentional. Suppressions are exact-match on all three keys: a new
/// hazard class in an allowlisted kernel still fails the audit, and so does
/// the *same* class at a program counter the allowlist does not name (e.g.
/// a second, unreviewed spin loop added to an allowlisted kernel).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Suppression {
    /// `Kernel::name` the suppression applies to.
    pub kernel: &'static str,
    pub class: HazardClass,
    /// Exact program counters the suppression covers. A finding with no pc
    /// anchor is never suppressed.
    pub pcs: &'static [u32],
    /// Why the pattern is intentional — rendered in the audit report.
    pub reason: &'static str,
}

/// Intentionally divergent registry kernels.
pub const ALLOWLIST: &[Suppression] = &[
    // Fig. 17 measures *when* each lane of a divergent warp arrives at and
    // leaves a tile barrier: 32 branch arms each read the clock around a
    // `SyncTile`. The lane-divergent barrier is the experiment, not a bug
    // (it converges on Volta and is the Fig. 18 deadlock demo on Pascal).
    Suppression {
        kernel: "warp-probe",
        class: HazardClass::WarpBarrierDivergence,
        // One `SyncTile` per branch arm: 32 arms of 6 instructions each,
        // with the barrier third in its arm.
        pcs: &[
            3, 9, 15, 21, 27, 33, 39, 45, 51, 57, 63, 69, 75, 81, 87, 93, 99, 105, 111, 117, 123,
            129, 135, 141, 147, 153, 159, 165, 171, 177, 183, 187,
        ],
        reason: "Fig. 17 intentionally times a tile barrier inside 32 divergent \
                 branch arms; divergence is the quantity being measured",
    },
    // The fine-grained primitives (Stuart & Owens style) spin on purpose:
    // `wait.ge` has no static proof of a matching signaller, but every
    // chain below is self-contained (all participants live in one launch)
    // and the measurement harness arms the watchdog, which converts a
    // missing signal into `SimError::Watchdog` instead of a hang.
    Suppression {
        kernel: "semaphore-chain",
        class: HazardClass::UnboundedSpin,
        // The four `wait.ge` sites of the acquire/release rounds.
        pcs: &[8, 15, 22, 29],
        reason: "oversubscribed tickets wait on the release counter; the \
                 permit holders in the same launch are the signallers",
    },
    Suppression {
        kernel: "spin-barrier-chain",
        class: HazardClass::UnboundedSpin,
        // The single arrival-count spin.
        pcs: &[7],
        reason: "each round spins until all grid_dim arrivals land; every \
                 block in the launch arrives each round",
    },
    Suppression {
        kernel: "flag-pingpong",
        class: HazardClass::UnboundedSpin,
        // The two waits: block 0's and block 1's.
        pcs: &[8, 10],
        reason: "blocks 0 and 1 alternate signal/wait on two flag cells; \
                 each wait's signaller is the peer block",
    },
];

fn suppression_for(
    kernel: &str,
    class: HazardClass,
    pc: Option<u32>,
) -> Option<&'static Suppression> {
    let pc = pc?;
    ALLOWLIST
        .iter()
        .find(|s| s.kernel == kernel && s.class == class && s.pcs.contains(&pc))
}

/// A registry kernel plus its canonical launch context.
pub struct AuditEntry {
    pub kernel: Kernel,
    /// Parameter slots the canonical launch binds (for the unbound-param
    /// check).
    pub bound_params: usize,
    /// Builds a small representative system + launch for the dynamic
    /// racecheck.
    pub dynamic: fn(Kernel) -> (GpuSystem, GridLaunch),
}

fn small_arch() -> gpu_arch::GpuArch {
    let mut arch = gpu_arch::GpuArch::v100();
    arch.num_sms = 4;
    arch
}

/// Single-device launch with one output buffer of `words` words as param 0.
fn single_with_out(kernel: Kernel, grid: u32, block: u32, words: u64) -> (GpuSystem, GridLaunch) {
    let mut sys = GpuSystem::single(small_arch());
    let out = sys.alloc(0, words);
    (
        sys,
        GridLaunch::single(kernel, grid, block, vec![out.0 as u64]),
    )
}

fn dyn_plain(kernel: Kernel) -> (GpuSystem, GridLaunch) {
    (
        GpuSystem::single(small_arch()),
        GridLaunch::single(kernel, 2, 64, vec![]),
    )
}

fn dyn_clocked(kernel: Kernel) -> (GpuSystem, GridLaunch) {
    // chain_kernel shapes store cycles to param(0)[global_tid].
    single_with_out(kernel, 2, 64, 2 * 64)
}

fn dyn_clocked_warp(kernel: Kernel) -> (GpuSystem, GridLaunch) {
    // Per-lane probes (coalesced-partial) store to param(0)[lane_id], so a
    // representative launch is a single warp: wider shapes would overwrite
    // each other's slots and report that overwrite as the hazard it is.
    single_with_out(kernel, 1, 32, 64)
}

fn dyn_clocked_coop(kernel: Kernel) -> (GpuSystem, GridLaunch) {
    let (sys, launch) = single_with_out(kernel, 2, 64, 2 * 64);
    (sys, launch.cooperative())
}

fn dyn_multi(kernel: Kernel) -> (GpuSystem, GridLaunch) {
    let mut sys = GpuSystem::new(small_arch(), gpu_node::NodeTopology::dgx1_v100());
    let params: Vec<Vec<u64>> = (0..2)
        .map(|d| vec![sys.alloc(d, 2 * 64).0 as u64])
        .collect();
    (sys, GridLaunch::multi(kernel, 2, 64, vec![0, 1], params))
}

fn dyn_warp_probe(kernel: Kernel) -> (GpuSystem, GridLaunch) {
    let mut sys = GpuSystem::single(small_arch());
    let starts = sys.alloc(0, 32);
    let ends = sys.alloc(0, 32);
    (
        sys,
        GridLaunch::single(kernel, 1, 32, vec![starts.0 as u64, ends.0 as u64]),
    )
}

fn dyn_stream(kernel: Kernel) -> (GpuSystem, GridLaunch) {
    let mut sys = GpuSystem::single(small_arch());
    let n = 4096u64;
    let input = sys.alloc_linear(0, 1.0, 0.0, n);
    let out = sys.alloc(0, 2 * 64);
    (
        sys,
        GridLaunch::single(kernel, 2, 64, vec![input.0 as u64, n, out.0 as u64]),
    )
}

fn dyn_smem_stream(kernel: Kernel) -> (GpuSystem, GridLaunch) {
    single_with_out(kernel, 1, 64, 64)
}

/// Primitive-chain launch: per-block clocks as param 0, `cells` zeroed flag
/// cells as param 1, one 32-thread block per participating SM.
fn single_with_sync(kernel: Kernel, grid: u32, cells: u64) -> (GpuSystem, GridLaunch) {
    let mut sys = GpuSystem::single(small_arch());
    let out = sys.alloc(0, grid as u64);
    let sync = sys.alloc(0, cells);
    (
        sys,
        GridLaunch::single(kernel, grid, 32, vec![out.0 as u64, sync.0 as u64]),
    )
}

fn dyn_mutex(kernel: Kernel) -> (GpuSystem, GridLaunch) {
    single_with_sync(kernel, 4, 1)
}

fn dyn_semaphore(kernel: Kernel) -> (GpuSystem, GridLaunch) {
    single_with_sync(kernel, 4, 2)
}

fn dyn_spin_barrier(kernel: Kernel) -> (GpuSystem, GridLaunch) {
    single_with_sync(kernel, 4, 1)
}

fn dyn_pingpong(kernel: Kernel) -> (GpuSystem, GridLaunch) {
    single_with_sync(kernel, 2, 2)
}

/// The full kernel registry under canonical launch shapes — every builder
/// exported by [`gpu_sim::kernels`], each at least once.
pub fn registry() -> Vec<AuditEntry> {
    let mut entries: Vec<AuditEntry> = Vec::new();
    let mut push =
        |kernel: Kernel, bound_params: usize, dynamic: fn(Kernel) -> (GpuSystem, GridLaunch)| {
            entries.push(AuditEntry {
                kernel,
                bound_params,
                dynamic,
            });
        };
    push(kernels::null_kernel(), 0, dyn_plain);
    push(kernels::sleep_kernel(500), 0, dyn_plain);
    push(kernels::fadd32_chain(32), 1, dyn_clocked);
    push(kernels::sync_chain(SyncOp::Tile(32), 8), 1, dyn_clocked);
    push(kernels::sync_chain(SyncOp::Coalesced, 8), 1, dyn_clocked);
    push(kernels::sync_chain(SyncOp::ShflTile, 8), 1, dyn_clocked);
    push(
        kernels::sync_chain(SyncOp::ShflCoalesced, 8),
        1,
        dyn_clocked,
    );
    push(kernels::sync_chain(SyncOp::Block, 8), 1, dyn_clocked);
    push(kernels::sync_chain(SyncOp::Grid, 4), 1, dyn_clocked_coop);
    push(kernels::sync_chain(SyncOp::MultiGrid, 2), 1, dyn_multi);
    push(kernels::sync_throughput(SyncOp::Block, 8), 0, dyn_plain);
    push(kernels::sync_throughput(SyncOp::Tile(16), 8), 0, dyn_plain);
    push(kernels::coalesced_partial_chain(16, 8), 1, dyn_clocked_warp);
    push(kernels::coalesced_partial_throughput(16, 8), 0, dyn_plain);
    push(kernels::warp_probe(), 2, dyn_warp_probe);
    push(kernels::stream_kernel(2), 3, dyn_stream);
    push(kernels::stream_kernel_eff(0, 700), 3, dyn_stream);
    push(kernels::smem_stream_kernel(64, 32), 1, dyn_smem_stream);
    push(kernels::mutex_chain(4), 2, dyn_mutex);
    push(kernels::semaphore_chain(2, 4), 2, dyn_semaphore);
    push(kernels::spin_barrier_chain(4), 2, dyn_spin_barrier);
    push(kernels::flag_pingpong_chain(4), 2, dyn_pingpong);
    entries
}

/// One static finding with its suppression status.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AuditFinding {
    pub diagnostic: Diagnostic,
    pub suppressed: bool,
    /// The allowlist reason when suppressed.
    pub reason: Option<String>,
}

/// Outcome of the dynamic racecheck for one registry kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RacecheckOutcome {
    /// The checked run completed; the report may still carry hazards.
    Ran(HazardReport),
    /// The checked run itself failed (simulation error).
    Failed(String),
}

/// The audit result for one registry kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelAudit {
    pub name: String,
    pub findings: Vec<AuditFinding>,
    pub racecheck: RacecheckOutcome,
}

impl KernelAudit {
    pub fn unsuppressed(&self) -> usize {
        self.findings.iter().filter(|f| !f.suppressed).count()
            + match &self.racecheck {
                RacecheckOutcome::Ran(hz) if !hz.is_clean() => hz.total().max(1),
                RacecheckOutcome::Failed(_) => 1,
                _ => 0,
            }
    }
}

/// The whole registry's audit, in registry order (deterministic).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AuditReport {
    pub kernels: Vec<KernelAudit>,
}

impl AuditReport {
    /// Count of findings/hazards not covered by the [`ALLOWLIST`]. Zero is
    /// the CI gate.
    pub fn unsuppressed(&self) -> usize {
        self.kernels.iter().map(|k| k.unsuppressed()).sum()
    }

    /// Byte-deterministic JSON of the full audit (the `--check --out`
    /// artifact): serial audit order, no timestamps, no host paths.
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("audit report serializes");
        s.push('\n');
        s
    }

    /// [`ALLOWLIST`] entries that suppressed nothing in this audit — the pc
    /// they name drifted, or the kernel was fixed. Stale entries are
    /// reported (not gated) so the allowlist gets pruned instead of rotting.
    pub fn stale_suppressions(&self) -> Vec<&'static Suppression> {
        ALLOWLIST
            .iter()
            .filter(|s| {
                !self.kernels.iter().any(|k| {
                    k.name == s.kernel
                        && k.findings.iter().any(|f| {
                            f.suppressed
                                && f.diagnostic.class == s.class
                                && f.diagnostic.pc.is_some_and(|p| s.pcs.contains(&p))
                        })
                })
            })
            .collect()
    }

    /// Render the report section (byte-deterministic: serial audit order,
    /// no timestamps, no paths).
    pub fn render(&self) -> String {
        let mut s = String::from("# synccheck registry audit\n\n");
        for k in &self.kernels {
            let dynamic = match &k.racecheck {
                RacecheckOutcome::Ran(hz) if hz.is_clean() => "clean".to_string(),
                RacecheckOutcome::Ran(hz) => format!("{} hazard(s)", hz.total()),
                RacecheckOutcome::Failed(e) => format!("failed ({e})"),
            };
            if k.findings.is_empty() {
                s.push_str(&format!("{}: clean (racecheck: {dynamic})\n", k.name));
                continue;
            }
            let suppressed = k.findings.iter().filter(|f| f.suppressed).count();
            s.push_str(&format!(
                "{}: {} finding(s), {} allowlisted (racecheck: {dynamic})\n",
                k.name,
                k.findings.len(),
                suppressed
            ));
            for f in &k.findings {
                let mark = if f.suppressed { "allow" } else { "FAIL " };
                let pc = f
                    .diagnostic
                    .pc
                    .map(|p| format!("pc {p}"))
                    .unwrap_or_else(|| "kernel".into());
                s.push_str(&format!(
                    "  [{mark}] {} at {pc}: {}\n",
                    f.diagnostic.class.slug(),
                    f.diagnostic.message
                ));
                if let Some(r) = &f.reason {
                    s.push_str(&format!("          allowlisted: {r}\n"));
                }
            }
        }
        for stale in self.stale_suppressions() {
            s.push_str(&format!(
                "warning: stale allowlist entry {} / {} (pcs {:?}) suppressed nothing\n",
                stale.kernel,
                stale.class.slug(),
                stale.pcs
            ));
        }
        s.push_str(&format!(
            "\n{} kernel(s) audited, {} unsuppressed violation(s)\n",
            self.kernels.len(),
            self.unsuppressed()
        ));
        s
    }
}

/// Audit one kernel: static lint under its launch context, then the dynamic
/// racecheck.
pub fn audit_entry(entry: &AuditEntry) -> KernelAudit {
    let diags = check_launch(&entry.kernel, entry.bound_params);
    let findings = diags
        .into_iter()
        .map(|diagnostic| {
            let sup = suppression_for(&entry.kernel.name, diagnostic.class, diagnostic.pc);
            AuditFinding {
                suppressed: sup.is_some(),
                reason: sup.map(|s| s.reason.to_string()),
                diagnostic,
            }
        })
        .collect();
    let (mut sys, launch) = (entry.dynamic)(entry.kernel.clone());
    let racecheck = match run_racecheck(&mut sys, &launch) {
        Ok(hz) => RacecheckOutcome::Ran(hz),
        Err(e) => RacecheckOutcome::Failed(e.to_string()),
    };
    KernelAudit {
        name: entry.kernel.name.clone(),
        findings,
        racecheck,
    }
}

fn run_racecheck(sys: &mut GpuSystem, launch: &GridLaunch) -> SimResult<HazardReport> {
    // The audit's static pass already reported lint findings (suppressed or
    // not); here we only want the dynamic shadow state, so bypass the
    // static gate by keeping the launch unchecked and asking for the report.
    sys.execute(launch, &RunOptions::new().check())
        .map(|arts| arts.hazards.expect("checking was armed"))
}

/// Run the audit over the whole registry, serially (the report must be
/// byte-identical whatever `--jobs` the caller runs experiments with).
pub fn audit() -> AuditReport {
    AuditReport {
        kernels: registry().iter().map(audit_entry).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::mem::HazardKind;
    use gpu_sim::verify::{check_kernel, Severity as S};

    #[test]
    fn registry_audit_has_zero_unsuppressed_violations() {
        let report = audit();
        assert_eq!(
            report.unsuppressed(),
            0,
            "registry must be clean or allowlisted:\n{}",
            report.render()
        );
    }

    #[test]
    fn no_allowlist_entry_is_stale() {
        // Every (kernel, class, pc) in the allowlist must still suppress a
        // live finding; otherwise the entry names a pc that drifted.
        let report = audit();
        let stale = report.stale_suppressions();
        assert!(
            stale.is_empty(),
            "stale allowlist entries: {:?}",
            stale
                .iter()
                .map(|s| (s.kernel, s.class.slug(), s.pcs))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn suppression_requires_matching_pc() {
        // The allowlist key is (kernel, class, pc): the same class at an
        // unlisted pc — or with no pc anchor at all — must not be covered.
        assert!(
            suppression_for("warp-probe", HazardClass::WarpBarrierDivergence, Some(3)).is_some()
        );
        assert!(
            suppression_for("warp-probe", HazardClass::WarpBarrierDivergence, Some(4)).is_none()
        );
        assert!(suppression_for("warp-probe", HazardClass::WarpBarrierDivergence, None).is_none());
        assert!(
            suppression_for("spin-barrier-chain", HazardClass::UnboundedSpin, Some(7)).is_some()
        );
        assert!(
            suppression_for("spin-barrier-chain", HazardClass::UnboundedSpin, Some(8)).is_none()
        );
        assert!(suppression_for(
            "spin-barrier-chain",
            HazardClass::WarpBarrierDivergence,
            Some(7)
        )
        .is_none());
    }

    #[test]
    fn warp_probe_findings_are_allowlisted_not_absent() {
        let report = audit();
        let probe = report
            .kernels
            .iter()
            .find(|k| k.name == "warp-probe")
            .expect("warp-probe in registry");
        assert!(
            !probe.findings.is_empty(),
            "Fig. 17 divergence must be seen"
        );
        assert!(probe.findings.iter().all(|f| f.suppressed));
        assert!(probe
            .findings
            .iter()
            .all(|f| f.reason.as_deref().is_some_and(|r| r.contains("Fig. 17"))));
    }

    #[test]
    fn primitive_spin_warnings_are_allowlisted_not_absent() {
        let report = audit();
        for name in ["semaphore-chain", "spin-barrier-chain", "flag-pingpong"] {
            let k = report
                .kernels
                .iter()
                .find(|k| k.name == name)
                .unwrap_or_else(|| panic!("{name} in registry"));
            assert!(
                k.findings
                    .iter()
                    .any(|f| f.diagnostic.class == HazardClass::UnboundedSpin),
                "{name}: the wait.ge spin must be seen by the linter"
            );
            assert!(
                k.findings.iter().all(|f| f.suppressed),
                "{name}: {:?}",
                k.findings
            );
        }
        // The mutex spins through a CAS retry branch, not wait.ge — no
        // suppression should be needed for it.
        let mutex = report
            .kernels
            .iter()
            .find(|k| k.name == "mutex-chain")
            .expect("mutex-chain in registry");
        assert!(mutex.findings.is_empty(), "{:?}", mutex.findings);
    }

    #[test]
    fn spin_livelock_fixture_warns_statically_and_trips_the_watchdog() {
        use sim_core::{Ps, SimError};

        let k = fixtures::spin_livelock_kernel();
        let diags = check_kernel(&k);
        assert!(
            diags
                .iter()
                .any(|d| d.class == HazardClass::UnboundedSpin && d.severity == S::Warning),
            "{diags:?}"
        );

        let (mut sys, launch) = fixtures::spin_livelock_launch();
        let watchdog = Ps::from_ns(100_000);
        match sys.execute(&launch, &RunOptions::new().watchdog(watchdog)) {
            Err(SimError::Watchdog { at, stuck, .. }) => {
                assert!(at >= watchdog);
                assert!(!stuck.is_empty());
            }
            other => panic!("expected watchdog, got {other:?}"),
        }
    }

    #[test]
    fn audit_render_is_deterministic_and_serializable() {
        let a = audit();
        let b = audit();
        assert_eq!(a, b);
        assert_eq!(a.render(), b.render());
        let json = serde_json::to_string(&a).unwrap();
        let back: AuditReport = serde_json::from_str(&json).unwrap();
        assert_eq!(a, back);
        assert!(a.render().contains("unsuppressed violation(s)"));
    }

    #[test]
    fn every_registry_entry_gets_a_dynamic_run() {
        // Keeping the dynamic column populated is part of the audit's value.
        let report = audit();
        for k in &report.kernels {
            match &k.racecheck {
                RacecheckOutcome::Ran(hz) => assert!(hz.is_clean(), "{}: {hz:?}", k.name),
                RacecheckOutcome::Failed(e) => panic!("{}: dynamic run failed: {e}", k.name),
            }
        }
    }

    #[test]
    fn fixtures_are_flagged_with_their_hazard_class() {
        let k = fixtures::divergent_barrier_kernel();
        let diags = check_kernel(&k);
        assert!(
            diags
                .iter()
                .any(|d| d.class == HazardClass::BarrierDivergence && d.severity == S::Error),
            "{diags:?}"
        );

        let k = fixtures::uninit_read_kernel();
        let diags = check_kernel(&k);
        assert!(
            diags.iter().any(|d| d.class == HazardClass::UninitRead),
            "{diags:?}"
        );

        let k = fixtures::oob_shared_kernel();
        let diags = check_kernel(&k);
        assert!(
            diags
                .iter()
                .any(|d| d.class == HazardClass::SharedOutOfBounds && d.severity == S::Error),
            "{diags:?}"
        );
    }

    #[test]
    fn smem_race_fixture_trips_dynamic_racecheck() {
        let (mut sys, launch) = fixtures::smem_race_launch();
        let hazards = sys
            .execute(&launch, &RunOptions::new().check())
            .unwrap()
            .hazards
            .unwrap();
        assert!(!hazards.is_clean());
        assert!(hazards
            .records
            .iter()
            .any(|r| r.hazard.kind == HazardKind::Raw || r.hazard.kind == HazardKind::Waw));
    }

    #[test]
    fn fixture_reports_render_with_disassembly_context() {
        let k = fixtures::divergent_barrier_kernel();
        let diags = check_kernel(&k);
        let rendered = gpu_sim::verify::render_report(&k, &diags);
        assert!(rendered.contains("bar.sync"), "{rendered}");
        assert!(rendered.contains(">"), "{rendered}");
    }
}
