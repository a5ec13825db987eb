//! Byzantine campaigns: seeded misbehavior against the FaB-style
//! [`FastBft`] baseline, judged by honest-only oracles.
//!
//! The flat fuzzer and the sharded campaign inject *crash* faults; this
//! campaign injects *Byzantine* ones. Per iteration it picks a seeded
//! coalition of up to `f` victims, assigns each one of the four
//! [`ByzBehavior::MALICIOUS`] behaviors — equivocation (the same
//! step's sends split into two conflicting halves), payload forgery,
//! ballot lying, or selective silence —
//! via [`ByzPlan`], wraps every process's [`FastBft`] in the injection
//! layer, and drives the system through a seeded interleaving of
//! deliveries and timer fires on the untimed [`ManualExecutor`] —
//! including the view changes that suspicion timers provoke, so forged
//! `Promise`s reach real recovery quorums.
//!
//! The oracle judges **honest processes only**: Agreement, Validity
//! (against the proposal pool — a forged payload is not a proposal, so
//! an honest decision on one is a Validity violation) and Integrity.
//! What the coalition itself claims to decide is not a property of the
//! protocol.
//!
//! Process 0 — the ballot-0 coordinator and first Ω leader — is never a
//! victim: without signatures a Byzantine *coordinator* can fabricate
//! the fast proposal itself, which no quorum arithmetic detects (see
//! the unsigned-BFT caveat in `twostep-baselines::fab`). Victims are
//! drawn from `{1, …, n−1}`, the acceptor/recovery roles whose
//! misbehavior the FaB quorums are sized to absorb.
//!
//! Everything is deterministic: an iteration is fully described by
//! `(root seed, iteration index)`, which is what a failure reports and
//! what the `--replay`-style line re-runs.

use twostep_baselines::FastBft;
use twostep_byz::{ByzBehavior, ByzPlan, ByzProtocol};
use twostep_sim::ManualExecutor;
use twostep_telemetry::ObserverHandle;
use twostep_types::{ByzConfig, ProcessId, SystemConfig};

use crate::oracle::Verdict;
use crate::SplitMix64;

/// Every process's protocol in a Byzantine campaign: the real FastBft
/// under the injection wrapper (honest processes pass through).
pub type WrappedFastBft = ByzProtocol<u64, FastBft<u64>>;

/// Ceiling on chaos steps per iteration: view-change retries regenerate
/// messages forever, so quiescence alone cannot terminate the loop.
const STEP_BUDGET: u32 = 10_000;

/// Parameters of one Byzantine campaign.
#[derive(Debug, Clone)]
pub struct ByzFuzzConfig {
    /// The Byzantine configuration (variant, `n`, `f`) under test.
    pub byz: ByzConfig,
    /// Root seed; iteration `i` uses stream seed `stream(seed, i)`.
    pub seed: u64,
    /// Number of iterations to run.
    pub iters: u64,
}

/// Everything one iteration produced, as the oracle needs it.
#[derive(Debug, Clone)]
pub struct ByzRun {
    /// Who misbehaved and how.
    pub plan: ByzPlan,
    /// The initial values, one per process — the Validity pool.
    pub proposed: Vec<u64>,
    /// Every decide event, in order (honest and Byzantine processes).
    pub decide_log: Vec<(ProcessId, u64)>,
}

/// A violation found by a Byzantine campaign.
#[derive(Debug, Clone)]
pub struct ByzFailure {
    /// The iteration (0-based) that failed.
    pub iteration: u64,
    /// Its stream seed — with the campaign parameters this replays the
    /// iteration exactly.
    pub stream_seed: u64,
    /// The victim coalition of the failing iteration.
    pub victims: Vec<(ProcessId, ByzBehavior)>,
    /// What was violated, among the honest processes.
    pub verdict: Verdict,
}

/// The result of a Byzantine campaign.
#[derive(Debug, Clone)]
pub struct ByzFuzzOutcome {
    /// Iterations actually executed (equals `iters` on a clean run).
    pub iterations_run: u64,
    /// Decide events by *honest* processes across all iterations — a
    /// clean pass with zero honest decisions would be vacuous, so
    /// callers should insist this is positive.
    pub decisions: u64,
    /// The first violation, if any.
    pub failure: Option<ByzFailure>,
}

impl ByzFuzzOutcome {
    /// True if no violation was found.
    pub fn is_clean(&self) -> bool {
        self.failure.is_none()
    }
}

/// Picks the seeded victim coalition: 1..=f distinct processes, never
/// process 0 (the unsigned-BFT caveat above).
fn pick_victims(rng: &mut SplitMix64, n: usize, f: usize) -> Vec<ProcessId> {
    let count = 1 + rng.below(f as u64) as usize;
    let mut victims: Vec<ProcessId> = Vec::new();
    while victims.len() < count {
        let v = ProcessId::new(1 + rng.below(n as u64 - 1) as u32);
        if !victims.contains(&v) {
            victims.push(v);
        }
    }
    victims
}

/// Fires one seeded armed timer somewhere in the system (scanning from
/// a seeded start so no process is starved). Returns false when no
/// process has any timer armed.
fn fire_seeded_timer(exec: &mut ManualExecutor<u64, WrappedFastBft>, rng: &mut SplitMix64) -> bool {
    let n = exec.config().n();
    let start = rng.below(n as u64) as usize;
    for k in 0..n {
        let p = ProcessId::new(((start + k) % n) as u32);
        let timers = exec.armed_timers(p);
        if !timers.is_empty() {
            let t = timers[rng.below(timers.len() as u64) as usize];
            exec.fire_timer(p, t);
            return true;
        }
    }
    false
}

/// Executes one seeded iteration. Deterministic: the same
/// `(config, stream_seed)` always yields the same [`ByzRun`].
pub fn run_byzantine_iteration(
    fc: &ByzFuzzConfig,
    stream_seed: u64,
    observer: &ObserverHandle,
) -> ByzRun {
    let byz = fc.byz;
    let n = byz.n();
    let mut rng = SplitMix64::new(stream_seed);

    let mut plan = ByzPlan::honest(stream_seed);
    for v in pick_victims(&mut rng, n, byz.f()) {
        let malicious = ByzBehavior::MALICIOUS;
        let behavior = malicious[rng.below(malicious.len() as u64) as usize];
        plan = plan.with(v, behavior);
    }

    // Initial values stay far below the forgery bit pattern, so a
    // decided forgery is both outside the pool and visibly corrupt.
    let proposed: Vec<u64> = (0..n).map(|_| 1 + rng.below(999)).collect();

    // The executor only reads n and the crash sets from its config;
    // n ≥ 3f+1 makes (n, f, f) a valid crash-model configuration.
    let sim = SystemConfig::new(n, byz.f(), byz.f()).expect("n >= 3f+1 is a valid crash config");
    let values = proposed.clone();
    let build_plan = plan.clone();
    let obs = observer.clone();
    let mut exec: ManualExecutor<u64, WrappedFastBft> = ManualExecutor::new(sim, move |q| {
        build_plan.wrap_observed(FastBft::new(byz, q, values[q.index()]), obs.clone())
    });
    exec.start_all();

    // Chaos: deliver pending messages in seeded order, interleaving
    // seeded timer fires (heartbeats, suspicion, ballot retries) so
    // recovery paths run with the coalition's corruption in flight.
    let mut steps = 0u32;
    loop {
        steps += 1;
        if steps > STEP_BUDGET {
            break;
        }
        let ids = exec.pending_matching(|_| true);
        if ids.is_empty() {
            if !fire_seeded_timer(&mut exec, &mut rng) {
                break;
            }
            continue;
        }
        exec.deliver(ids[rng.below(ids.len() as u64) as usize]);
        if rng.chance(1, 10) {
            fire_seeded_timer(&mut exec, &mut rng);
        }
    }

    ByzRun {
        plan,
        proposed,
        decide_log: exec.decide_log().to_vec(),
    }
}

/// The honest-only oracle: Agreement, Validity and Integrity over the
/// decisions of processes the plan left honest. Byzantine processes'
/// own decide events are ignored — a traitor claiming a wrong decision
/// is not a protocol violation.
pub fn check_byzantine(run: &ByzRun) -> Option<Verdict> {
    let honest: Vec<(ProcessId, u64)> = run
        .decide_log
        .iter()
        .copied()
        .filter(|(p, _)| run.plan.behavior_of(*p).is_honest())
        .collect();
    if let Some(&(p0, v0)) = honest.first() {
        for &(p, v) in &honest {
            if v != v0 {
                return Some(Verdict::Agreement(format!(
                    "honest {p0} decided {v0} but honest {p} decided {v}"
                )));
            }
        }
    }
    for &(p, v) in &honest {
        if !run.proposed.contains(&v) {
            return Some(Verdict::Validity(format!(
                "honest {p} decided {v}, which no process proposed (forged payload?)"
            )));
        }
    }
    for (i, &(p, v)) in honest.iter().enumerate() {
        if honest[..i].iter().any(|&(q, _)| q == p) {
            return Some(Verdict::Integrity(format!(
                "honest {p} decided more than once (last value {v})"
            )));
        }
    }
    None
}

/// Runs a Byzantine campaign, stopping at the first violation.
pub fn fuzz_byzantine(fc: &ByzFuzzConfig, observer: &ObserverHandle) -> ByzFuzzOutcome {
    let mut decisions = 0u64;
    for i in 0..fc.iters {
        let stream_seed = SplitMix64::stream(fc.seed, i);
        let run = run_byzantine_iteration(fc, stream_seed, observer);
        decisions += run
            .decide_log
            .iter()
            .filter(|(p, _)| run.plan.behavior_of(*p).is_honest())
            .count() as u64;
        if let Some(verdict) = check_byzantine(&run) {
            return ByzFuzzOutcome {
                iterations_run: i + 1,
                decisions,
                failure: Some(ByzFailure {
                    iteration: i,
                    stream_seed,
                    victims: run.plan.byzantine().collect(),
                    verdict,
                }),
            };
        }
    }
    ByzFuzzOutcome {
        iterations_run: fc.iters,
        decisions,
        failure: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twostep_types::ByzVariant;

    fn minimal() -> ByzConfig {
        ByzConfig::minimal_fast(ByzVariant::Fab, 1).unwrap()
    }

    #[test]
    fn iterations_are_deterministic() {
        let fc = ByzFuzzConfig {
            byz: minimal(),
            seed: 11,
            iters: 1,
        };
        let seed = SplitMix64::stream(fc.seed, 0);
        let obs = ObserverHandle::default();
        let a = run_byzantine_iteration(&fc, seed, &obs);
        let b = run_byzantine_iteration(&fc, seed, &obs);
        assert_eq!(a.decide_log, b.decide_log);
        assert_eq!(a.proposed, b.proposed);
        let va: Vec<_> = a.plan.byzantine().collect();
        let vb: Vec<_> = b.plan.byzantine().collect();
        assert_eq!(va, vb);
    }

    #[test]
    fn process_zero_is_never_a_victim() {
        for seed in 0..200 {
            let mut rng = SplitMix64::new(seed);
            for v in pick_victims(&mut rng, 6, 1) {
                assert_ne!(v, ProcessId::new(0), "seed {seed}");
            }
        }
    }

    #[test]
    fn forged_decision_is_a_validity_violation() {
        // A synthetic run in which the only honest decide is a value
        // nobody proposed (the forgery bit pattern): Agreement holds
        // vacuously, so the oracle must flag Validity.
        let run = ByzRun {
            plan: ByzPlan::honest(0),
            proposed: vec![1, 2, 3],
            decide_log: vec![(ProcessId::new(0), 0x8000_0000_0000_0001)],
        };
        let verdict = check_byzantine(&run).expect("forged decision must be flagged");
        assert_eq!(verdict.property(), "validity");
    }

    #[test]
    fn byzantine_decisions_are_not_judged() {
        let fc = ByzFuzzConfig {
            byz: minimal(),
            seed: 5,
            iters: 1,
        };
        let obs = ObserverHandle::default();
        let mut run = run_byzantine_iteration(&fc, SplitMix64::stream(5, 0), &obs);
        let (victim, _) = run.plan.byzantine().next().expect("one victim");
        let before = check_byzantine(&run);
        run.decide_log.push((victim, u64::MAX));
        assert_eq!(check_byzantine(&run), before, "traitor claims are ignored");
    }

    #[test]
    fn small_campaign_is_clean_and_decides() {
        let fc = ByzFuzzConfig {
            byz: minimal(),
            seed: 9,
            iters: 15,
        };
        let out = fuzz_byzantine(&fc, &ObserverHandle::default());
        assert!(out.is_clean(), "unexpected violation: {:?}", out.failure);
        assert_eq!(out.iterations_run, 15);
        assert!(out.decisions > 0, "campaign never decided anything");
    }

    #[test]
    fn floor_config_campaigns_are_clean() {
        // n = 3f+1 = 4: the REVIEW.md corner where a promise quorum's
        // intersection with an accepting quorum holds a single
        // guaranteed-honest reporter (Fab), and where the Tight
        // quorum can exclude the coordinator. Both must stay clean now
        // that slow reports are certificate-pinned and Tight recovery
        // waits for the coordinator.
        for variant in [ByzVariant::Fab, ByzVariant::Tight] {
            let fc = ByzFuzzConfig {
                byz: ByzConfig::new(4, 1, variant).unwrap(),
                seed: 21,
                iters: 15,
            };
            let out = fuzz_byzantine(&fc, &ObserverHandle::default());
            assert!(
                out.is_clean(),
                "{variant:?} floor violation: {:?}",
                out.failure
            );
            assert!(out.decisions > 0, "{variant:?} floor campaign was vacuous");
        }
    }

    #[test]
    fn tight_variant_campaign_is_clean() {
        let fc = ByzFuzzConfig {
            byz: ByzConfig::minimal_fast(ByzVariant::Tight, 2).unwrap(),
            seed: 13,
            iters: 8,
        };
        let out = fuzz_byzantine(&fc, &ObserverHandle::default());
        assert!(out.is_clean(), "unexpected violation: {:?}", out.failure);
        assert!(out.decisions > 0);
    }
}
