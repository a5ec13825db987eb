//! Cross-engine consistency: the same protocol code must behave
//! identically whether driven by the deterministic simulator, the
//! manual step executor, or real threads — that is the architectural
//! bet of this repository.

use std::time::Duration as WallDuration;

use twostep::core::{Msg, ObjectConsensus, OmegaMode, TaskConsensus, TwoStepBuilder};
use twostep::runtime::{Cluster, ClusterBuilder};
use twostep::sim::{ManualExecutor, SyncRunner};
use twostep::types::protocol::Protocol;
use twostep::types::{ProcessId, SystemConfig, Time};

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

/// The same favored fast path, in the simulator and replayed manually,
/// reaches the same decision with the same vote structure.
#[test]
fn simulator_and_manual_agree_on_the_fast_path() {
    let cfg = SystemConfig::minimal_task(1, 1).unwrap();
    let witness = p(2);

    // Simulator.
    let sim_outcome = SyncRunner::new(cfg)
        .favoring(witness)
        .run(|q| TaskConsensus::new(cfg, q, 10 * (u64::from(q.as_u32()) + 1)));
    assert_eq!(sim_outcome.decision_of(witness), Some(&30));
    assert_eq!(
        sim_outcome.decision_time_of(witness),
        Some(Time::ZERO + twostep::types::Duration::deltas(2))
    );

    // Manual replay of the same schedule.
    let mut ex = ManualExecutor::new(cfg, |q| {
        TwoStepBuilder::new(cfg)
            .omega(OmegaMode::Static(p(0)))
            .task(q, 10 * (u64::from(q.as_u32()) + 1))
    });
    ex.start_all();
    for target in [p(0), p(1)] {
        for id in ex.pending_matching(|m| {
            m.from == witness && m.to == target && matches!(m.msg, Msg::Propose(_))
        }) {
            ex.deliver(id);
        }
        for id in ex.pending_matching(|m| {
            m.from == target && m.to == witness && matches!(m.msg, Msg::TwoB(..))
        }) {
            ex.deliver(id);
        }
    }
    assert_eq!(ex.decision_of(witness), Some(&30));
    // White-box: same final vote state for the witness in both engines.
    let sim_proc = &sim_outcome.procs[witness.index()];
    assert_eq!(sim_proc.inner().decided_value(), Some(&30));
    assert_eq!(ex.process(witness).inner().decided_value(), Some(&30));
}

/// The threaded runtime reaches the same decision as the simulator on
/// the lone-proposer object scenario.
#[test]
fn simulator_and_threads_agree_on_object_consensus() {
    let cfg = SystemConfig::minimal_object(2, 2).unwrap();
    let proposer = p(4);

    let sim_outcome = SyncRunner::new(cfg).run_object(
        |q| ObjectConsensus::<u64>::new(cfg, q),
        vec![(proposer, 42, Time::ZERO)],
    );
    assert_eq!(sim_outcome.decision_of(proposer), Some(&42));

    let cluster = object_cluster(cfg, ClusterBuilder::in_memory);
    cluster.proxy_client(proposer).propose(42);
    for q in cfg.process_ids() {
        assert_eq!(
            cluster.await_decision(0, q, WallDuration::from_secs(5)),
            Some(42),
            "{q}"
        );
    }
    assert!(cluster.agreement());
}

/// A one-group threaded cluster of object-protocol instances.
fn object_cluster(
    cfg: SystemConfig,
    transport: fn(ClusterBuilder) -> ClusterBuilder,
) -> Cluster<u64> {
    transport(ClusterBuilder::new(cfg).wall_delta(WallDuration::from_millis(10)))
        .build(|q| ObjectConsensus::new(cfg, q))
        .expect("cluster build")
}

/// TCP and in-memory transports produce identical decisions for the
/// same scenario.
#[test]
fn transports_agree() {
    let cfg = SystemConfig::minimal_object(1, 1).unwrap();
    for (tcp, transport) in [
        (false, ClusterBuilder::in_memory as fn(_) -> _),
        (true, ClusterBuilder::tcp),
    ] {
        let cluster = object_cluster(cfg, transport);
        cluster.proxy_client(p(1)).propose(77);
        assert_eq!(
            cluster.await_decision(0, p(1), WallDuration::from_secs(10)),
            Some(77),
            "tcp={tcp}"
        );
        assert!(cluster.agreement(), "tcp={tcp}");
    }
}

/// Crash-under-load over threads: the object protocol keeps its
/// guarantees with e processes crashed at startup.
#[test]
fn threaded_cluster_with_crashes_decides() {
    let cfg = SystemConfig::minimal_object(2, 2).unwrap();
    let mut cluster = object_cluster(cfg, ClusterBuilder::in_memory);
    cluster.crash(p(0));
    cluster.crash(p(1));
    cluster.proxy_client(p(4)).propose(9);
    for i in 2..5u32 {
        assert_eq!(
            cluster.await_decision(0, p(i), WallDuration::from_secs(10)),
            Some(9),
            "p{i}"
        );
    }
    assert!(cluster.agreement());
}

/// Replays the synchronous-round schedule on a [`ManualExecutor`]:
/// round `k` delivers exactly the messages pending at its start (new
/// sends wait for round `k+1`), with `victim` crashing right before its
/// crash round's deliveries — the manual mirror of
/// `SimulationBuilder::crash_at` just below a round boundary.
fn drain_rounds<V: twostep::types::Value, P: Protocol<V>>(
    ex: &mut ManualExecutor<V, P>,
    crash: Option<(usize, ProcessId)>,
    max_rounds: usize,
) {
    for round in 0..max_rounds {
        if let Some((crash_round, victim)) = crash {
            if round == crash_round {
                ex.crash(victim);
            }
        }
        let pending = ex.pending_matching(|_| true);
        if pending.is_empty() {
            break;
        }
        for id in pending {
            ex.deliver(id);
        }
    }
}

/// The first decision of every process, as the simulator's trace
/// records it — the comparison key for cross-engine equivalence.
fn decision_table<P: Protocol<u64>>(
    outcome: &twostep::sim::RunOutcome<u64, P>,
) -> Vec<Option<u64>> {
    (0..outcome.cfg.n() as u32)
        .map(|i| outcome.trace.first_decision(p(i)).map(|(v, _)| v))
        .collect()
}

/// The object variant under a *seeded* schedule — proposer, crash
/// victim and crash round all derived from the seed — produces the same
/// decision trace whether the synchronous-round simulator or the manual
/// executor drives it. A failing seed is replayable alone via
/// TWOSTEP_SEED=<seed>.
#[test]
fn seeded_object_schedules_match_across_engines() {
    use twostep::sim::SimulationBuilder;
    use twostep::types::{Duration, DELTA};

    for seed in twostep::sim::test_seeds(0..8) {
        let cfg = SystemConfig::minimal_object(2, 2).unwrap();
        let n = cfg.n() as u64;
        let proposer = p((seed % n) as u32);
        let victim = p(((seed + 2) % n) as u32);
        let crash_round = 1 + (seed % 3) as usize;
        let value = 100 + seed;
        // Manual drain round k delivers what the simulator delivers at
        // (k+1)Δ — the proposal broadcast lands at Δ. Crash one unit
        // below that boundary so the victim still processes the
        // previous round's deliveries but none of this round's;
        // `drain_rounds` crashes at the same point.
        let crash_time = Time::from_units((crash_round as u64 + 1) * DELTA.units() - 1);

        let mut sim = SimulationBuilder::new(cfg)
            .crash_at(victim, crash_time)
            .build(|q| ObjectConsensus::<u64>::new(cfg, q));
        sim.schedule_propose(proposer, value, Time::ZERO);
        let outcome = sim.run_until_all_decided(Time::ZERO + Duration::deltas(60));
        assert!(
            outcome.agreement(),
            "seed {seed}: simulator violated agreement"
        );

        let mut ex = ManualExecutor::new(cfg, |q| ObjectConsensus::<u64>::new(cfg, q));
        ex.start_all();
        ex.propose(proposer, value);
        drain_rounds(&mut ex, Some((crash_round, victim)), 20);
        assert!(ex.agreement(), "seed {seed}: manual run violated agreement");

        let manual: Vec<Option<u64>> = ex.decisions().iter().map(|d| d.as_ref().copied()).collect();
        assert_eq!(
            decision_table(&outcome),
            manual,
            "seed {seed}: engines diverged (proposer {proposer}, victim {victim} \
             crashing before round {crash_round})"
        );
    }
}

/// The Paxos baseline under the same seeded schedule shape also matches
/// across engines: a seeded non-coordinator crashes at the start
/// (Definition 2 style) and every survivor must converge on the
/// coordinator's value in both engines.
#[test]
fn seeded_paxos_schedules_match_across_engines() {
    use twostep::baselines::Paxos;
    use twostep::types::ProcessSet;

    for seed in twostep::sim::test_seeds(0..8) {
        let cfg = SystemConfig::minimal_task(2, 2).unwrap();
        let n = cfg.n() as u64;
        // p0 is Paxos's ballot-0 coordinator; crash anyone else.
        let victim = p((1 + seed % (n - 1)) as u32);
        let values: Vec<u64> = (0..n).map(|i| 10 * (i + 1) + seed % 7).collect();

        let crashed: ProcessSet = [victim].into_iter().collect();
        let outcome = SyncRunner::new(cfg)
            .crashed(crashed)
            .run(|q| Paxos::new(cfg, q, values[q.index()]));
        assert!(outcome.agreement(), "seed {seed}");

        let mut ex = ManualExecutor::new(cfg, |q| Paxos::new(cfg, q, values[q.index()]));
        ex.crash(victim);
        ex.start_all();
        drain_rounds(&mut ex, None, 20);
        assert!(ex.agreement(), "seed {seed}");

        let manual: Vec<Option<u64>> = ex.decisions().iter().map(|d| d.as_ref().copied()).collect();
        assert_eq!(
            decision_table(&outcome),
            manual,
            "seed {seed}: engines diverged (victim {victim})"
        );
        // Both engines must have decided the coordinator's value.
        assert_eq!(ex.decision_of(p(0)), Some(&values[0]), "seed {seed}");
    }
}

/// A batched SMR proposal decides identically in the simulator and on
/// the manual executor: same log (same batches in the same slots), same
/// applied command stream, same final KV state.
#[test]
fn batched_smr_agrees_across_engines() {
    use twostep::sim::SimulationBuilder;
    use twostep::smr::{KvCommand, KvStore, SmrReplicaBuilder};
    use twostep::types::Duration;

    let cfg = SystemConfig::minimal_object(1, 1).unwrap();
    let batch = 4usize;
    let cmds: Vec<KvCommand> = (0..batch)
        .map(|i| KvCommand::put(format!("k{i}"), format!("v{i}")))
        .collect();
    let make = |q: ProcessId| {
        SmrReplicaBuilder::new(cfg, q)
            .batch(batch)
            .build::<KvCommand, KvStore>()
    };

    // Simulator: the burst fills one batch, which flushes immediately.
    let mut sim = SimulationBuilder::new(cfg).build(make);
    for c in &cmds {
        sim.schedule_propose(p(0), c.clone(), Time::ZERO);
    }
    let outcome = sim.run_until(Time::ZERO + Duration::deltas(60), |s| {
        (0..3).all(|i| s.process(p(i)).applied() >= batch as u64)
    });

    // Manual executor: same burst, rounds drained to quiescence.
    let mut ex = ManualExecutor::new(cfg, make);
    ex.start_all();
    for c in &cmds {
        ex.propose(p(0), c.clone());
    }
    drain_rounds(&mut ex, None, 20);

    for q in cfg.process_ids() {
        let sim_r = &outcome.procs[q.index()];
        let man_r = ex.process(q);
        assert_eq!(man_r.applied(), batch as u64, "{q}: applied commands");
        assert_eq!(sim_r.applied(), man_r.applied(), "{q}: applied diverged");
        assert_eq!(sim_r.log(), man_r.log(), "{q}: logs diverged");
        for (i, _) in cmds.iter().enumerate() {
            assert_eq!(
                sim_r.state().get(&format!("k{i}")),
                man_r.state().get(&format!("k{i}")),
                "{q}: state diverged at k{i}"
            );
        }
    }
}

/// Four independent consensus groups — one per shard, each with its
/// rotated leader, exactly as [`twostep::runtime::Cluster`]
/// deploys them — driven by the manual executor under seeded
/// schedules. Two guarantees are pinned per seed: every group reaches
/// Agreement on its own log (survivor logs and applied streams are
/// identical, even with a seeded non-leader replica crashing
/// mid-schedule), and no command ever surfaces in a group other than
/// the one its key routes to.
#[test]
fn seeded_sharded_groups_agree_without_leakage() {
    use twostep::runtime::ShardRouter;
    use twostep::smr::{KvCommand, KvStore, SmrReplicaBuilder};

    const SHARDS: usize = 4;
    let router = ShardRouter::new(SHARDS);

    for seed in twostep::sim::test_seeds(0..6) {
        let cfg = SystemConfig::minimal_object(1, 1).unwrap();
        let n = cfg.n();

        let mut groups: Vec<_> = (0..SHARDS as u32)
            .map(|s| {
                ManualExecutor::new(cfg, move |q| {
                    SmrReplicaBuilder::new(cfg, q)
                        .pipeline(16)
                        .leader_rotation(s)
                        .build::<KvCommand, KvStore>()
                })
            })
            .collect();
        for g in &mut groups {
            g.start_all();
        }

        // Seeded command population, partitioned by the real router:
        // each command is proposed only at its shard's group leader,
        // mirroring the sharded cluster's leader-routed client.
        let mut expected: Vec<Vec<(String, String)>> = vec![Vec::new(); SHARDS];
        for i in 0..12u64 {
            let key = format!("s{seed}-k{i}");
            let value = format!("v{}", seed * 100 + i);
            let shard = router.route(key.as_bytes()) as usize;
            let leader = p((shard % n) as u32);
            groups[shard].propose(leader, KvCommand::put(key.as_str(), value.as_str()));
            expected[shard].push((key, value));
        }

        // A seeded non-leader replica of one seeded group crashes mid-
        // schedule; with f = 1 the group keeps both its quorums, so the
        // schedule must still drain to a full commit.
        let crash_shard = (seed as usize) % SHARDS;
        let leader_ix = crash_shard % n;
        let victim = p(((leader_ix + 1 + seed as usize % (n - 1)) % n) as u32);
        let crash_round = 1 + (seed % 3) as usize;

        // (`ManualExecutor::agreement` is the single-decree check — all
        // decide events equal — which doesn't apply to a multi-slot
        // log; SMR Agreement is per-slot log equality, asserted below.)
        for (s, g) in groups.iter_mut().enumerate() {
            let crash = (s == crash_shard).then_some((crash_round, victim));
            drain_rounds(g, crash, 40);
        }

        for (s, g) in groups.iter().enumerate() {
            let survivors: Vec<ProcessId> = cfg
                .process_ids()
                .filter(|&q| !(s == crash_shard && q == victim))
                .collect();
            let reference = g.process(survivors[0]);
            assert_eq!(
                reference.applied(),
                expected[s].len() as u64,
                "seed {seed}: shard {s} applied the wrong number of commands"
            );
            for &q in &survivors[1..] {
                let replica = g.process(q);
                assert_eq!(
                    reference.log(),
                    replica.log(),
                    "seed {seed}: shard {s} logs diverged at {q}"
                );
                assert_eq!(
                    reference.applied(),
                    replica.applied(),
                    "seed {seed}: shard {s} applied stream diverged at {q}"
                );
            }
            // No leakage: a shard's state holds exactly the keys the
            // router sends it; every other shard's keys are absent.
            for (t, cmds) in expected.iter().enumerate() {
                for (key, value) in cmds {
                    let got = reference.state().get(key);
                    if t == s {
                        assert_eq!(
                            got,
                            Some(value.as_str()),
                            "seed {seed}: shard {s} lost its own key {key}"
                        );
                    } else {
                        assert!(
                            got.is_none(),
                            "seed {seed}: key {key} of shard {t} leaked into shard {s}"
                        );
                    }
                }
            }
        }
    }
}

/// The protocol state machine is engine-agnostic by construction: this
/// asserts the Protocol trait object view used by all engines exposes
/// the same decision.
#[test]
fn protocol_trait_surface_is_consistent() {
    let cfg = SystemConfig::minimal_task(1, 1).unwrap();
    let outcome = SyncRunner::new(cfg)
        .favoring(p(2))
        .run(|q| TaskConsensus::new(cfg, q, u64::from(q.as_u32())));
    for q in cfg.process_ids() {
        let via_trait = outcome.procs[q.index()].decision();
        let via_outcome = outcome.decision_of(q).copied();
        assert_eq!(via_trait, via_outcome, "{q}");
    }
}
