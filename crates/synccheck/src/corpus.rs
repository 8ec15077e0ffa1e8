//! The seeded CUDA-bug corpus and its detection scorecard.
//!
//! Wu et al. ("Characterizing and Detecting CUDA Program Bugs") taxonomize
//! the synchronization bugs real CUDA code ships; this module ports that
//! taxonomy onto the simulated ISA as pairs of *buggy* kernels and *clean
//! twins* (correct kernels a sound pass must not flag), then scores every
//! static and dynamic detection pass against the corpus:
//!
//! * `verify` — error-severity findings of the static CFG lint
//!   (barrier divergence etc.), excluding the lockset classes.
//! * `lockset` — the static must-lockset analysis (lock-leak,
//!   double-unlock, inconsistent-lockset) at any severity.
//! * `smem-racecheck` — the dynamic shared-memory shadow.
//! * `global-racecheck` — the launch-wide global-memory shadow.
//! * `watchdog` / `deadlock` — the run failing with
//!   [`SimError::Watchdog`] / [`SimError::Deadlock`].
//!
//! The scorecard ([`scorecard`]) runs serially and contains only integers
//! and fixed-order vectors, so its JSON rendering is byte-identical
//! whatever `--jobs` the caller set — CI diffs it and gates on per-class
//! recall against the committed `SCORECARD.json` baseline.

use crate::small_arch;
use gpu_sim::kernels;
use gpu_sim::verify::{check_launch, Severity};
use gpu_sim::{GpuSystem, GridLaunch, Kernel, RunArtifacts, RunOptions};
use serde::{Deserialize, Serialize};
use sim_core::{Ps, SimError, SimResult};

/// Watchdog budget for corpus runs: comfortably above the longest
/// deliberate `nanosleep` in any corpus kernel (50 µs), far below the
/// engine's instruction limit.
pub const WATCHDOG_BUDGET_NS: u64 = 500_000;

/// The Wu et al. bug classes the corpus spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BugClass {
    /// A barrier not every participating thread reaches.
    BarrierDivergence,
    /// Data handed between blocks with no release/acquire ordering.
    MissingFence,
    /// Plain conflicting accesses to global memory across blocks.
    CrossBlockRace,
    /// Spin-flag state reused/reset while peers may still observe it.
    AbaSpinFlag,
    /// Lock-leak / double-unlock / inconsistent locksets on CAS mutexes.
    LockMisuse,
    /// Readiness signalled before the data it guards is written.
    SignalBeforeInit,
    /// A wait no signaller ever satisfies.
    Livelock,
}

impl BugClass {
    pub const ALL: [BugClass; 7] = [
        BugClass::BarrierDivergence,
        BugClass::MissingFence,
        BugClass::CrossBlockRace,
        BugClass::AbaSpinFlag,
        BugClass::LockMisuse,
        BugClass::SignalBeforeInit,
        BugClass::Livelock,
    ];

    pub fn slug(&self) -> &'static str {
        match self {
            BugClass::BarrierDivergence => "barrier-divergence",
            BugClass::MissingFence => "missing-fence",
            BugClass::CrossBlockRace => "cross-block-race",
            BugClass::AbaSpinFlag => "aba-spin-flag",
            BugClass::LockMisuse => "lock-misuse",
            BugClass::SignalBeforeInit => "signal-before-init",
            BugClass::Livelock => "livelock",
        }
    }
}

/// The detection passes scored against the corpus, in report order.
pub const PASSES: [&str; 6] = [
    "verify",
    "lockset",
    "smem-racecheck",
    "global-racecheck",
    "watchdog",
    "deadlock",
];

/// One corpus entry: a kernel builder plus its canonical launch shape.
pub struct CorpusCase {
    /// Corpus case name (unique; usually the kernel name).
    pub name: &'static str,
    pub class: BugClass,
    /// `true` for seeded bugs, `false` for clean twins.
    pub buggy: bool,
    pub kernel: fn() -> Kernel,
    /// Blocks in the launch (32 threads each; params `[out, cells]`).
    pub grid: u32,
    /// Zeroed flag/data cells bound as `param1`.
    pub cells: u64,
    /// Launch cooperatively (kernels with grid barriers).
    pub cooperative: bool,
}

fn case(
    name: &'static str,
    class: BugClass,
    buggy: bool,
    kernel: fn() -> Kernel,
    grid: u32,
    cells: u64,
) -> CorpusCase {
    CorpusCase {
        name,
        class,
        buggy,
        kernel,
        grid,
        cells,
        cooperative: false,
    }
}

/// The corpus, in fixed scoring order: 20 seeded bugs and 12 clean twins
/// over the 7 [`BugClass`]es. Registry builders double as clean twins where
/// they are exactly the correct version of a seeded bug.
pub fn corpus() -> Vec<CorpusCase> {
    fn mutex2() -> Kernel {
        kernels::mutex_chain(2)
    }
    fn spin_barrier2() -> Kernel {
        kernels::spin_barrier_chain(2)
    }
    fn pingpong2() -> Kernel {
        kernels::flag_pingpong_chain(2)
    }
    fn semaphore22() -> Kernel {
        kernels::semaphore_chain(2, 2)
    }
    use BugClass::*;
    let mut cases = vec![
        // --- barrier divergence ---
        case(
            "bug-bd-divergent-barrier",
            BarrierDivergence,
            true,
            kernels::bug_bd_divergent_barrier,
            1,
            1,
        ),
        case(
            "bug-bd-barrier-divergent-loop",
            BarrierDivergence,
            true,
            kernels::bug_bd_barrier_divergent_loop,
            1,
            1,
        ),
        CorpusCase {
            name: "bug-bd-grid-sync-divergent",
            class: BarrierDivergence,
            buggy: true,
            kernel: kernels::bug_bd_grid_sync_divergent,
            grid: 4,
            cells: 1,
            cooperative: true,
        },
        case(
            "clean-bd-uniform-loop-barrier",
            BarrierDivergence,
            false,
            kernels::clean_bd_uniform_loop_barrier,
            2,
            1,
        ),
        case(
            "clean-bd-block-uniform-barrier",
            BarrierDivergence,
            false,
            kernels::clean_bd_block_uniform_barrier,
            2,
            1,
        ),
        // --- missing fence ---
        case(
            "bug-mf-plain-flag-handoff",
            MissingFence,
            true,
            kernels::bug_mf_plain_flag_handoff,
            2,
            2,
        ),
        case(
            "bug-mf-read-no-wait",
            MissingFence,
            true,
            kernels::bug_mf_read_no_wait,
            2,
            2,
        ),
        case(
            "bug-mf-broadcast-no-sync",
            MissingFence,
            true,
            kernels::bug_mf_broadcast_no_sync,
            4,
            4,
        ),
        case(
            "clean-mf-signal-handoff",
            MissingFence,
            false,
            kernels::clean_mf_signal_handoff,
            2,
            2,
        ),
        // --- cross-block races ---
        case(
            "bug-cbr-rmw-counter",
            CrossBlockRace,
            true,
            kernels::bug_cbr_rmw_counter,
            4,
            1,
        ),
        case(
            "bug-cbr-waw-broadcast",
            CrossBlockRace,
            true,
            kernels::bug_cbr_waw_broadcast,
            4,
            1,
        ),
        case(
            "bug-cbr-strided-overlap",
            CrossBlockRace,
            true,
            kernels::bug_cbr_strided_overlap,
            4,
            4,
        ),
        case(
            "clean-cbr-atomic-counter",
            CrossBlockRace,
            false,
            kernels::clean_cbr_atomic_counter,
            4,
            1,
        ),
        case(
            "clean-cbr-disjoint-slots",
            CrossBlockRace,
            false,
            kernels::clean_cbr_disjoint_slots,
            4,
            4,
        ),
        // --- ABA / flag reuse ---
        case(
            "bug-aba-barrier-reset",
            AbaSpinFlag,
            true,
            kernels::bug_aba_barrier_reset,
            4,
            1,
        ),
        case(
            "bug-aba-plain-lock",
            AbaSpinFlag,
            true,
            kernels::bug_aba_plain_lock,
            2,
            2,
        ),
        case(
            "clean-aba-spin-barrier",
            AbaSpinFlag,
            false,
            spin_barrier2,
            4,
            1,
        ),
        case(
            "clean-aba-cas-lock",
            AbaSpinFlag,
            false,
            kernels::clean_aba_cas_lock,
            4,
            2,
        ),
        // --- lock misuse ---
        case(
            "bug-lm-lock-leak",
            LockMisuse,
            true,
            kernels::bug_lm_lock_leak,
            2,
            2,
        ),
        case(
            "bug-lm-double-unlock",
            LockMisuse,
            true,
            kernels::bug_lm_double_unlock,
            2,
            2,
        ),
        case(
            "bug-lm-leak-one-path",
            LockMisuse,
            true,
            kernels::bug_lm_leak_one_path,
            2,
            2,
        ),
        case(
            "bug-lm-inconsistent-lockset",
            LockMisuse,
            true,
            kernels::bug_lm_inconsistent_lockset,
            2,
            2,
        ),
        case("clean-lm-mutex-chain", LockMisuse, false, mutex2, 4, 1),
        case(
            "clean-lm-conditional-release",
            LockMisuse,
            false,
            kernels::clean_lm_conditional_release,
            2,
            2,
        ),
        // --- signal before init ---
        case(
            "bug-sbi-signal-before-store",
            SignalBeforeInit,
            true,
            kernels::bug_sbi_signal_before_store,
            2,
            2,
        ),
        case(
            "bug-sbi-partial-init",
            SignalBeforeInit,
            true,
            kernels::bug_sbi_partial_init,
            2,
            3,
        ),
        case(
            "clean-sbi-store-then-signal",
            SignalBeforeInit,
            false,
            kernels::clean_sbi_store_then_signal,
            2,
            3,
        ),
        // --- livelock ---
        case(
            "bug-lv-lost-signal",
            Livelock,
            true,
            kernels::bug_lv_lost_signal,
            2,
            2,
        ),
        case(
            "bug-lv-circular-wait",
            Livelock,
            true,
            kernels::bug_lv_circular_wait,
            2,
            2,
        ),
        case(
            "bug-lv-insufficient-signal",
            Livelock,
            true,
            kernels::bug_lv_insufficient_signal,
            4,
            1,
        ),
        case("clean-lv-flag-pingpong", Livelock, false, pingpong2, 2, 2),
        case("clean-lv-semaphore", Livelock, false, semaphore22, 4, 2),
    ];
    // Keep the advertised shape honest if someone edits the table.
    let buggy = cases.iter().filter(|c| c.buggy).count();
    let clean = cases.len() - buggy;
    assert!(buggy >= 20, "corpus shrank below 20 buggy cases ({buggy})");
    assert!(clean >= 10, "corpus shrank below 10 clean twins ({clean})");
    cases.sort_by(|a, b| a.name.cmp(b.name));
    cases
}

/// Per-case scoring record: which passes fired and how the run ended.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CaseResult {
    pub name: String,
    pub class: String,
    pub buggy: bool,
    /// How the dynamic run ended: `ran`, `rejected-static` (the checked
    /// launch was refused, fallback run shown in parentheses), `watchdog`,
    /// `deadlock`, or `error: ...`.
    pub outcome: String,
    /// Passes (from [`PASSES`]) that detected this case.
    pub detected_by: Vec<String>,
}

/// Confusion counts and permille precision/recall for one (pass, class).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassScore {
    pub class: String,
    /// Buggy cases of this class the pass flagged.
    pub hits: u32,
    /// Buggy cases of this class the pass missed.
    pub misses: u32,
    /// Clean twins of this class the pass wrongly flagged.
    pub false_alarms: u32,
    /// Clean twins of this class the pass correctly passed.
    pub clean_passes: u32,
    /// `hits * 1000 / (hits + false_alarms)` (1000 when the pass never
    /// fired on this class).
    pub precision_permille: u32,
    /// `hits * 1000 / (hits + misses)` (1000 when the class has no bugs).
    pub recall_permille: u32,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PassScore {
    pub pass: String,
    pub classes: Vec<ClassScore>,
}

/// The full scorecard: corpus shape, per-case results, per-pass scores.
/// All-integer and fixed-order, so the JSON is byte-deterministic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scorecard {
    pub buggy_cases: u32,
    pub clean_cases: u32,
    pub cases: Vec<CaseResult>,
    pub passes: Vec<PassScore>,
}

fn permille(num: u32, den: u32) -> u32 {
    // An undefined ratio (pass never fires on the class, or the class has
    // no bugs) scores a full 1000, not a division by zero.
    (num * 1000).checked_div(den).unwrap_or(1000)
}

/// Run `kernel` as case `c` on a fresh small system, with zeroed
/// `[out, cells]` buffers bound as params 0 and 1, the watchdog armed, and
/// the racechecks armed when `check` is set.
fn run_case(c: &CorpusCase, kernel: &Kernel, check: bool) -> SimResult<RunArtifacts> {
    let mut sys = GpuSystem::single(small_arch());
    let out = sys.alloc(0, c.grid as u64);
    let cells = sys.alloc(0, c.cells);
    let launch = GridLaunch::single(
        kernel.clone(),
        c.grid,
        32,
        vec![out.0 as u64, cells.0 as u64],
    );
    let launch = if c.cooperative {
        launch.cooperative()
    } else {
        launch
    };
    let opts = RunOptions::new().watchdog(Ps::from_ns(WATCHDOG_BUDGET_NS));
    sys.execute(&launch, &if check { opts.check() } else { opts })
}

fn score_case(c: &CorpusCase) -> CaseResult {
    let kernel = (c.kernel)();
    let mut detected: Vec<&str> = Vec::new();
    // Static passes, under the launch's bound parameters.
    let diags = check_launch(&kernel, 2);
    if diags
        .iter()
        .any(|d| d.severity == Severity::Error && !d.class.is_lockset())
    {
        detected.push("verify");
    }
    if diags.iter().any(|d| d.class.is_lockset()) {
        detected.push("lockset");
    }
    // Dynamic passes: one checked, watchdog-armed run. Kernels the static
    // gate refuses get an unchecked fallback run so the watchdog/deadlock
    // detectors are still scored (the racechecks need the checked engine).
    let outcome = match run_case(c, &kernel, true) {
        Ok(arts) => {
            let hz = arts.hazards.expect("checking was armed");
            if !hz.records.is_empty() || hz.dropped > 0 {
                detected.push("smem-racecheck");
            }
            if !hz.global.is_empty() || hz.global_dropped > 0 {
                detected.push("global-racecheck");
            }
            "ran".to_string()
        }
        Err(SimError::Watchdog { .. }) => {
            detected.push("watchdog");
            "watchdog".to_string()
        }
        Err(SimError::Deadlock { .. }) => {
            detected.push("deadlock");
            "deadlock".to_string()
        }
        Err(SimError::InvalidLaunch(_)) => match run_case(c, &kernel, false) {
            Ok(_) => "rejected-static (fallback ran)".to_string(),
            Err(SimError::Watchdog { .. }) => {
                detected.push("watchdog");
                "rejected-static (fallback watchdog)".to_string()
            }
            Err(SimError::Deadlock { .. }) => {
                detected.push("deadlock");
                "rejected-static (fallback deadlock)".to_string()
            }
            Err(e) => format!("rejected-static (fallback error: {e})"),
        },
        Err(e) => format!("error: {e}"),
    };
    // Report in PASSES order whatever the detection order was.
    let detected_by = PASSES
        .iter()
        .filter(|p| detected.contains(p))
        .map(|p| p.to_string())
        .collect();
    CaseResult {
        name: c.name.to_string(),
        class: c.class.slug().to_string(),
        buggy: c.buggy,
        outcome,
        detected_by,
    }
}

/// Run the whole corpus serially and score every pass per class.
pub fn scorecard() -> Scorecard {
    let corpus = corpus();
    let cases: Vec<CaseResult> = corpus.iter().map(score_case).collect();
    let passes = PASSES
        .iter()
        .map(|pass| {
            let classes = BugClass::ALL
                .iter()
                .map(|class| {
                    let mut s = ClassScore {
                        class: class.slug().to_string(),
                        hits: 0,
                        misses: 0,
                        false_alarms: 0,
                        clean_passes: 0,
                        precision_permille: 0,
                        recall_permille: 0,
                    };
                    for r in cases.iter().filter(|r| r.class == class.slug()) {
                        let fired = r.detected_by.iter().any(|p| p == pass);
                        match (r.buggy, fired) {
                            (true, true) => s.hits += 1,
                            (true, false) => s.misses += 1,
                            (false, true) => s.false_alarms += 1,
                            (false, false) => s.clean_passes += 1,
                        }
                    }
                    s.precision_permille = permille(s.hits, s.hits + s.false_alarms);
                    s.recall_permille = permille(s.hits, s.hits + s.misses);
                    s
                })
                .collect();
            PassScore {
                pass: pass.to_string(),
                classes,
            }
        })
        .collect();
    Scorecard {
        buggy_cases: cases.iter().filter(|c| c.buggy).count() as u32,
        clean_cases: cases.iter().filter(|c| !c.buggy).count() as u32,
        cases,
        passes,
    }
}

impl Scorecard {
    /// Byte-deterministic JSON (the tracked `SCORECARD.json` artifact).
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("scorecard serializes");
        s.push('\n');
        s
    }

    pub fn from_json(s: &str) -> Result<Scorecard, String> {
        serde_json::from_str(s).map_err(|e| e.to_string())
    }

    /// Human summary (also byte-deterministic).
    pub fn render(&self) -> String {
        let fmt = |p: u32| format!("{}.{:03}", p / 1000, p % 1000);
        let mut s = String::from("# synccheck bug-corpus scorecard\n\n");
        s.push_str(&format!(
            "{} buggy case(s), {} clean twin(s), {} class(es), {} pass(es)\n\n",
            self.buggy_cases,
            self.clean_cases,
            BugClass::ALL.len(),
            self.passes.len()
        ));
        s.push_str(&format!(
            "{:<18} {:<22} {:>3} {:>3} {:>3} {:>3} {:>9} {:>7}\n",
            "pass", "class", "tp", "fn", "fp", "tn", "precision", "recall"
        ));
        for p in &self.passes {
            for c in &p.classes {
                s.push_str(&format!(
                    "{:<18} {:<22} {:>3} {:>3} {:>3} {:>3} {:>9} {:>7}\n",
                    p.pass,
                    c.class,
                    c.hits,
                    c.misses,
                    c.false_alarms,
                    c.clean_passes,
                    fmt(c.precision_permille),
                    fmt(c.recall_permille)
                ));
            }
        }
        s.push_str("\nundetected buggy case(s):\n");
        let mut any = false;
        for c in self
            .cases
            .iter()
            .filter(|c| c.buggy && c.detected_by.is_empty())
        {
            s.push_str(&format!("  {} [{}] ({})\n", c.name, c.class, c.outcome));
            any = true;
        }
        if !any {
            s.push_str("  none\n");
        }
        s
    }

    /// Per-class recall regressions against a baseline scorecard: every
    /// (pass, class) present in the baseline must still exist and must not
    /// have lost recall. Returns human-readable violations (empty = pass).
    pub fn recall_regressions(&self, baseline: &Scorecard) -> Vec<String> {
        let mut bad = Vec::new();
        for bp in &baseline.passes {
            let Some(cp) = self.passes.iter().find(|p| p.pass == bp.pass) else {
                bad.push(format!("pass {} missing from current scorecard", bp.pass));
                continue;
            };
            for bc in &bp.classes {
                let Some(cc) = cp.classes.iter().find(|c| c.class == bc.class) else {
                    bad.push(format!("class {} missing from pass {}", bc.class, bp.pass));
                    continue;
                };
                if cc.recall_permille < bc.recall_permille {
                    bad.push(format!(
                        "{} / {}: recall {} dropped below baseline {}",
                        bp.pass, bc.class, cc.recall_permille, bc.recall_permille
                    ));
                }
            }
        }
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_shape_meets_floor() {
        let c = corpus();
        let buggy = c.iter().filter(|k| k.buggy).count();
        let clean = c.len() - buggy;
        assert!(buggy >= 20, "want >= 20 buggy, got {buggy}");
        assert!(clean >= 10, "want >= 10 clean, got {clean}");
        let mut classes: Vec<&str> = c.iter().map(|k| k.class.slug()).collect();
        classes.sort_unstable();
        classes.dedup();
        assert!(classes.len() >= 6, "want >= 6 classes, got {classes:?}");
        // Names are unique (they key the scorecard).
        let mut names: Vec<&str> = c.iter().map(|k| k.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate corpus case names");
    }

    #[test]
    fn every_buggy_case_is_detected_by_some_pass() {
        let sc = scorecard();
        let missed: Vec<&str> = sc
            .cases
            .iter()
            .filter(|c| c.buggy && c.detected_by.is_empty())
            .map(|c| c.name.as_str())
            .collect();
        assert!(missed.is_empty(), "undetected bugs: {missed:?}");
    }

    #[test]
    fn clean_twins_trigger_no_pass_at_all() {
        // The headline soundness claim: zero false alarms on every clean
        // twin, for every static and dynamic pass.
        let sc = scorecard();
        for c in sc.cases.iter().filter(|c| !c.buggy) {
            assert!(
                c.detected_by.is_empty(),
                "clean twin {} flagged by {:?}",
                c.name,
                c.detected_by
            );
            assert_eq!(
                c.outcome, "ran",
                "clean twin {} outcome {}",
                c.name, c.outcome
            );
        }
        for p in &sc.passes {
            for cl in &p.classes {
                assert_eq!(
                    cl.false_alarms, 0,
                    "{} / {} has false alarms",
                    p.pass, cl.class
                );
                assert_eq!(cl.precision_permille, 1000);
            }
        }
    }

    /// The global racecheck closes a gap: whole bug classes none of the
    /// seed-state passes (verify, smem-racecheck, watchdog, deadlock) see.
    #[test]
    fn global_racecheck_detects_classes_seed_passes_miss() {
        let sc = scorecard();
        let seed = ["verify", "smem-racecheck", "watchdog", "deadlock"];
        for class in ["missing-fence", "cross-block-race", "signal-before-init"] {
            let bugs: Vec<&CaseResult> = sc
                .cases
                .iter()
                .filter(|c| c.buggy && c.class == class)
                .collect();
            assert!(!bugs.is_empty());
            for b in bugs {
                assert!(
                    b.detected_by.iter().any(|p| p == "global-racecheck"),
                    "{} missed by global-racecheck",
                    b.name
                );
                assert!(
                    !b.detected_by.iter().any(|p| seed.contains(&p.as_str())),
                    "{} unexpectedly caught by a seed pass: {:?}",
                    b.name,
                    b.detected_by
                );
            }
        }
    }

    /// The lockset pass closes a gap of its own: double-unlock is invisible
    /// to every dynamic pass (the run completes normally) and to the seed
    /// static lint.
    #[test]
    fn lockset_detects_bugs_no_other_pass_sees() {
        let sc = scorecard();
        for name in ["bug-lm-double-unlock", "bug-lm-leak-one-path"] {
            let c = sc.cases.iter().find(|c| c.name == name).unwrap();
            assert_eq!(c.detected_by, vec!["lockset".to_string()], "{name}");
        }
        let lockset = sc.passes.iter().find(|p| p.pass == "lockset").unwrap();
        let lm = lockset
            .classes
            .iter()
            .find(|c| c.class == "lock-misuse")
            .unwrap();
        assert_eq!(
            lm.recall_permille, 1000,
            "lockset must catch all lock-misuse bugs"
        );
    }

    #[test]
    fn scorecard_is_deterministic_and_round_trips() {
        let a = scorecard();
        let b = scorecard();
        assert_eq!(a.to_json(), b.to_json(), "scorecard JSON not byte-stable");
        let back = Scorecard::from_json(&a.to_json()).unwrap();
        assert_eq!(back, a);
        assert_eq!(a.render(), b.render());
    }

    /// FNV-1a over a byte string.
    fn digest(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The scorecard keeps only which passes fired. This pins what the
    /// racechecks report in each case's checked scoring run: the number of
    /// records, the number dropped past the cap, and a digest of the whole
    /// `HazardReport` (agents, epochs, addresses, PCs), or of the error the
    /// run ended in.
    #[test]
    fn hazard_reports_are_pinned() {
        const PINNED: &str = "\
bug-aba-barrier-reset: records=3 dropped=0 33dd0a352289cd80
bug-aba-plain-lock: records=10 dropped=0 92c965d7482f169e
bug-bd-barrier-divergent-loop: error=InvalidLaunch b1267478b0eab601
bug-bd-divergent-barrier: error=InvalidLaunch af9bdefd497802a0
bug-bd-grid-sync-divergent: error=InvalidLaunch 9ebfd9a0ba8a6f48
bug-cbr-rmw-counter: records=7 dropped=0 245ade253045c416
bug-cbr-strided-overlap: records=64 dropped=60 3c3e10925f372c6e
bug-cbr-waw-broadcast: records=3 dropped=0 b3dd098d002d06cf
bug-lm-double-unlock: error=InvalidLaunch 8f9f19ba1b5b7ba3
bug-lm-inconsistent-lockset: records=1 dropped=0 ce4fea718a204597
bug-lm-leak-one-path: error=InvalidLaunch 022fce5cbd9eab83
bug-lm-lock-leak: error=InvalidLaunch 34ee2c7fd466389c
bug-lv-circular-wait: error=Watchdog 26f1d45e8b6caee1
bug-lv-insufficient-signal: error=Watchdog ccb6173f0da8b974
bug-lv-lost-signal: error=Watchdog 82edd2e2406b93bf
bug-mf-broadcast-no-sync: records=12 dropped=0 1e7ee18f6890d32a
bug-mf-plain-flag-handoff: records=3 dropped=0 cac11d1ddd9b3183
bug-mf-read-no-wait: records=1 dropped=0 16f4f45045ad9b55
bug-sbi-partial-init: records=1 dropped=0 2db57a351560baf2
bug-sbi-signal-before-store: records=1 dropped=0 5e60d3b18e0833a8
clean-aba-cas-lock: records=0 dropped=0 09a7a5ded1d6eda6
clean-aba-spin-barrier: records=0 dropped=0 09a7a5ded1d6eda6
clean-bd-block-uniform-barrier: records=0 dropped=0 09a7a5ded1d6eda6
clean-bd-uniform-loop-barrier: records=0 dropped=0 09a7a5ded1d6eda6
clean-cbr-atomic-counter: records=0 dropped=0 09a7a5ded1d6eda6
clean-cbr-disjoint-slots: records=0 dropped=0 09a7a5ded1d6eda6
clean-lm-conditional-release: records=0 dropped=0 09a7a5ded1d6eda6
clean-lm-mutex-chain: records=0 dropped=0 09a7a5ded1d6eda6
clean-lv-flag-pingpong: records=0 dropped=0 09a7a5ded1d6eda6
clean-lv-semaphore: records=0 dropped=0 09a7a5ded1d6eda6
clean-mf-signal-handoff: records=0 dropped=0 09a7a5ded1d6eda6
clean-sbi-store-then-signal: records=0 dropped=0 09a7a5ded1d6eda6
";
        let actual: String = corpus()
            .iter()
            .map(|c| match run_case(c, &(c.kernel)(), true) {
                Ok(arts) => {
                    let hz = arts.hazards.expect("checking was armed");
                    format!(
                        "{}: records={} dropped={} {:016x}\n",
                        c.name,
                        hz.total(),
                        hz.dropped + hz.global_dropped,
                        digest(format!("{hz:?}").as_bytes())
                    )
                }
                Err(e) => {
                    let text = format!("{e:?}");
                    let kind = text.split([' ', '{', '(']).next().unwrap_or_default();
                    format!(
                        "{}: error={kind} {:016x}\n",
                        c.name,
                        digest(text.as_bytes())
                    )
                }
            })
            .collect();
        assert_eq!(actual, PINNED);
    }

    #[test]
    fn recall_regression_gate_fires_on_drops_and_missing_entries() {
        let sc = scorecard();
        assert!(sc.recall_regressions(&sc).is_empty());
        // A baseline demanding more recall than we deliver must fail.
        let mut inflated = sc.clone();
        inflated.passes[0].classes[1].recall_permille = 1000;
        let viol = scorecard().recall_regressions(&inflated);
        assert!(
            viol.iter().any(|v| v.contains("dropped below baseline")),
            "{viol:?}"
        );
        // A baseline pass we no longer report must fail too.
        let mut current = sc.clone();
        current.passes.remove(0);
        let viol = current.recall_regressions(&sc);
        assert!(viol.iter().any(|v| v.contains("missing")), "{viol:?}");
    }
}
