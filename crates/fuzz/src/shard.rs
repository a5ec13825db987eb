//! Sharded campaigns: `k` independent consensus groups on shared nodes,
//! with a shard-leader node crash/restart injected mid-load.
//!
//! The sharded runtime multiplexes every consensus group over the same
//! physical nodes, so its failure model is *correlated*: a node crash
//! removes one replica from **every** group at once, and the crashed
//! node leads at least one of them (leaders rotate `s mod n`). This
//! campaign fuzzes exactly that scenario, which the single-group fuzzer
//! cannot express: per-iteration it spawns one [`ManualExecutor`] per
//! shard, injects shard-encoded load, interleaves deliveries across the
//! groups, crashes the leader node of a seeded shard in all groups at
//! once, keeps delivering and firing timers while it is down, restarts
//! it (state intact, as a real process restart would be), and drains.
//!
//! The oracle is per shard: each group's decide log is judged by the
//! same `twostep-verify` checkers the flat fuzzer uses — Agreement,
//! Validity (against that shard's own proposal pool) and Integrity —
//! plus an explicit cross-shard leakage check made possible by encoding
//! the owning shard into every proposed value. Everything is
//! deterministic: an iteration is fully described by `(root seed,
//! iteration index)`, which is what a failure reports.

use twostep_core::{OmegaMode, TwoStepBuilder};
use twostep_sim::ManualExecutor;
use twostep_types::{ProcessId, SystemConfig};

use crate::case::{FuzzProtocol, RunReport};
use crate::oracle::{check_safety, Verdict};
use crate::SplitMix64;

/// Shard `s` proposes values in `[s * STRIDE, (s+1) * STRIDE)`, so a
/// decided value names its owning shard — the leakage oracle's handle.
pub const SHARD_STRIDE: u64 = 1_000_000;

/// Encodes `payload` as a value owned by `shard`.
pub fn shard_value(shard: usize, payload: u64) -> u64 {
    debug_assert!(payload < SHARD_STRIDE);
    shard as u64 * SHARD_STRIDE + payload
}

/// The shard a decided value belongs to, per the encoding.
pub fn shard_of_value(value: u64) -> usize {
    (value / SHARD_STRIDE) as usize
}

/// Parameters of one sharded campaign.
#[derive(Debug, Clone)]
pub struct ShardFuzzConfig {
    /// Number of consensus groups (≥ 2 — one group is the flat fuzzer).
    pub shards: usize,
    /// Per-group system configuration (groups share nodes, so also the
    /// physical node count).
    pub cfg: SystemConfig,
    /// Root seed; iteration `i` uses stream seed `stream(seed, i)`.
    pub seed: u64,
    /// Number of iterations to run.
    pub iters: u64,
}

impl ShardFuzzConfig {
    /// A campaign over `shards` groups with the given root seed.
    ///
    /// # Panics
    ///
    /// Panics if `shards < 2`.
    pub fn new(shards: usize, cfg: SystemConfig, seed: u64, iters: u64) -> Self {
        assert!(shards >= 2, "a sharded campaign needs at least 2 shards");
        ShardFuzzConfig {
            shards,
            cfg,
            seed,
            iters,
        }
    }

    /// The node leading shard `s`: the runtime's round-robin `s mod n`.
    pub fn leader_of(&self, shard: usize) -> ProcessId {
        ProcessId::new((shard % self.cfg.n()) as u32)
    }
}

/// A violation found by a sharded campaign.
#[derive(Debug, Clone)]
pub struct ShardFailure {
    /// The iteration (0-based) that failed.
    pub iteration: u64,
    /// Its stream seed — together with the campaign parameters this
    /// replays the iteration exactly.
    pub stream_seed: u64,
    /// The shard whose oracle flagged the run.
    pub shard: u32,
    /// What was violated.
    pub verdict: Verdict,
}

/// The result of a sharded campaign.
#[derive(Debug, Clone)]
pub struct ShardFuzzOutcome {
    /// Iterations actually executed (equals `iters` on a clean run).
    pub iterations_run: u64,
    /// Decide events observed across all iterations and shards — a
    /// clean pass with zero decisions would be vacuous, so callers
    /// should insist this is positive.
    pub decisions: u64,
    /// The first violation, if any.
    pub failure: Option<ShardFailure>,
}

impl ShardFuzzOutcome {
    /// True if no violation was found.
    pub fn is_clean(&self) -> bool {
        self.failure.is_none()
    }
}

/// Judges one iteration's per-shard reports: leakage first (a value
/// decided outside its owning shard), then the standard safety oracle
/// per shard.
pub fn check_sharded(reports: &[RunReport]) -> Option<(u32, Verdict)> {
    for (s, report) in reports.iter().enumerate() {
        for &(p, v) in &report.decide_log {
            if shard_of_value(v) != s {
                return Some((
                    s as u32,
                    Verdict::Agreement(format!(
                        "{p} in shard {s} decided {v}, which belongs to shard {} — \
                         cross-shard leakage",
                        shard_of_value(v)
                    )),
                ));
            }
        }
        if let Some(verdict) = check_safety(FuzzProtocol::Object, report) {
            return Some((s as u32, verdict));
        }
    }
    None
}

/// Executes one seeded iteration and reports per shard. Deterministic:
/// the same `(config, stream_seed)` always yields the same reports.
pub fn run_sharded_iteration(fc: &ShardFuzzConfig, stream_seed: u64) -> Vec<RunReport> {
    let cfg = fc.cfg;
    let n = cfg.n();
    let k = fc.shards;
    let mut rng = SplitMix64::new(stream_seed);

    // One executor per group; shard s's Ω statically trusts the node
    // the runtime's rotation assigns it (s mod n), so the crash below
    // hits a real group leader.
    let mut groups: Vec<ManualExecutor<u64, _>> = (0..k)
        .map(|s| {
            let leader = fc.leader_of(s);
            ManualExecutor::new(cfg, move |q| {
                TwoStepBuilder::new(cfg)
                    .omega(OmegaMode::Static(leader))
                    .object::<u64>(q)
            })
        })
        .collect();
    for g in &mut groups {
        g.start_all();
    }

    // Load: each shard gets 1–3 proposals of shard-encoded values from
    // seeded proposers. Concurrent proposers within a group are the
    // interesting case — the fast path must arbitrate them.
    let mut proposed: Vec<Vec<u64>> = vec![Vec::new(); k];
    for (s, pool) in proposed.iter_mut().enumerate() {
        let count = 1 + rng.below(3);
        for _ in 0..count {
            let proposer = ProcessId::new(rng.below(n as u64) as u32);
            let value = shard_value(s, 1 + rng.below(99));
            if groups[s].propose(proposer, value) {
                pool.push(value);
            }
        }
    }

    // Mid-load: interleave a seeded prefix of deliveries across groups,
    // so the crash lands while commits are in flight.
    let pre = 4 + rng.below(10);
    for _ in 0..pre {
        step_random(&mut groups, &mut rng);
    }

    // The correlated fault: the leader node of a seeded shard crashes —
    // in every group at once, because groups share physical nodes.
    let victim = fc.leader_of(rng.below(k as u64) as usize);
    for g in &mut groups {
        g.crash(victim);
    }

    // Chaos while the node is down: deliveries plus seeded timer fires
    // (retry/recovery paths) in the surviving replicas.
    let mid = 4 + rng.below(10);
    for _ in 0..mid {
        step_random(&mut groups, &mut rng);
        if rng.chance(1, 3) {
            fire_random_timer(&mut groups, &mut rng, victim);
        }
    }

    // The node restarts with its pre-crash state (a process restart,
    // not a fresh replica) and the system drains to quiescence.
    for g in &mut groups {
        g.restart(victim);
    }
    for g in &mut groups {
        drain(g);
    }

    groups
        .iter()
        .zip(&proposed)
        .map(|(g, pool)| RunReport {
            decide_log: g.decide_log().to_vec(),
            decisions: g.decisions().to_vec(),
            proposed: pool.clone(),
            alive: g.alive(),
        })
        .collect()
}

/// Delivers one seeded pending message in one seeded group (no-op if
/// that group is quiescent — mirroring `Action::DeliverIdx`).
fn step_random<P: twostep_types::protocol::Protocol<u64>>(
    groups: &mut [ManualExecutor<u64, P>],
    rng: &mut SplitMix64,
) {
    let g = &mut groups[rng.below(groups.len() as u64) as usize];
    let ids: Vec<_> = g.pending().iter().map(|m| m.id).collect();
    if !ids.is_empty() {
        g.deliver(ids[rng.below(ids.len() as u64) as usize]);
    }
}

/// Fires one seeded armed timer at one seeded surviving replica.
fn fire_random_timer<P: twostep_types::protocol::Protocol<u64>>(
    groups: &mut [ManualExecutor<u64, P>],
    rng: &mut SplitMix64,
    down: ProcessId,
) {
    let g = &mut groups[rng.below(groups.len() as u64) as usize];
    let p = ProcessId::new(rng.below(g.config().n() as u64) as u32);
    if p == down {
        return;
    }
    let timers = g.armed_timers(p);
    if !timers.is_empty() {
        g.fire_timer(p, timers[rng.below(timers.len() as u64) as usize]);
    }
}

/// Delivers every pending message, repeatedly, until the group is
/// quiescent (bounded — a protocol that floods forever is a bug this
/// would surface as non-quiescence, not a hang).
fn drain<P: twostep_types::protocol::Protocol<u64>>(g: &mut ManualExecutor<u64, P>) {
    for _ in 0..64 {
        let pending = g.pending_matching(|_| true);
        if pending.is_empty() {
            break;
        }
        for id in pending {
            g.deliver(id);
        }
    }
}

/// Runs a sharded campaign, stopping at the first violation.
pub fn fuzz_sharded(fc: &ShardFuzzConfig) -> ShardFuzzOutcome {
    let mut decisions = 0u64;
    for i in 0..fc.iters {
        let stream_seed = SplitMix64::stream(fc.seed, i);
        let reports = run_sharded_iteration(fc, stream_seed);
        decisions += reports
            .iter()
            .map(|r| r.decide_log.len() as u64)
            .sum::<u64>();
        if let Some((shard, verdict)) = check_sharded(&reports) {
            return ShardFuzzOutcome {
                iterations_run: i + 1,
                decisions,
                failure: Some(ShardFailure {
                    iteration: i,
                    stream_seed,
                    shard,
                    verdict,
                }),
            };
        }
    }
    ShardFuzzOutcome {
        iterations_run: fc.iters,
        decisions,
        failure: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal() -> SystemConfig {
        SystemConfig::minimal_object(1, 1).unwrap()
    }

    #[test]
    fn value_encoding_roundtrips() {
        for shard in 0..8 {
            let v = shard_value(shard, 42);
            assert_eq!(shard_of_value(v), shard);
        }
    }

    #[test]
    fn iterations_are_deterministic() {
        let fc = ShardFuzzConfig::new(4, minimal(), 11, 1);
        let seed = SplitMix64::stream(fc.seed, 0);
        let a = run_sharded_iteration(&fc, seed);
        let b = run_sharded_iteration(&fc, seed);
        assert_eq!(a.len(), b.len());
        for (ra, rb) in a.iter().zip(&b) {
            assert_eq!(ra.decide_log, rb.decide_log);
            assert_eq!(ra.proposed, rb.proposed);
            assert_eq!(ra.alive, rb.alive);
        }
    }

    #[test]
    fn leaked_value_is_flagged() {
        let fc = ShardFuzzConfig::new(2, minimal(), 1, 1);
        let mut reports = run_sharded_iteration(&fc, SplitMix64::stream(1, 0));
        // Forge a decide of a shard-1 value inside shard 0.
        reports[0]
            .decide_log
            .push((ProcessId::new(0), shard_value(1, 5)));
        let (shard, verdict) = check_sharded(&reports).expect("leak must be flagged");
        assert_eq!(shard, 0);
        assert!(verdict.detail().contains("cross-shard leakage"));
    }

    #[test]
    fn small_campaign_is_clean_and_decides() {
        let fc = ShardFuzzConfig::new(3, minimal(), 5, 25);
        let out = fuzz_sharded(&fc);
        assert!(out.is_clean(), "unexpected violation: {:?}", out.failure);
        assert_eq!(out.iterations_run, 25);
        assert!(out.decisions > 0, "campaign never committed anything");
    }
}
