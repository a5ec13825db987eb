//! End-to-end state-machine replication over the deterministic
//! simulator and the threaded runtime.

use std::time::Duration as WallDuration;

use twostep_sim::{DeliveryOrder, SimulationBuilder};
use twostep_smr::{KvCommand, KvStore, SmrReplica, SmrReplicaBuilder};
use twostep_types::{Duration, ProcessId, SystemConfig, Time};

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

type Replica = SmrReplica<KvCommand, KvStore>;

fn replica(cfg: SystemConfig, q: ProcessId) -> Replica {
    SmrReplicaBuilder::new(cfg, q).build()
}

#[test]
fn single_proxy_commands_commit_in_order() {
    let cfg = SystemConfig::minimal_object(1, 1).unwrap();
    let mut sim = SimulationBuilder::new(cfg).build(|q| replica(cfg, q));
    let cmds = [
        KvCommand::put("a", "1"),
        KvCommand::put("b", "2"),
        KvCommand::put("a", "3"),
    ];
    for (k, c) in cmds.iter().enumerate() {
        sim.schedule_propose(p(0), c.clone(), Time::from_units(k as u64 * 100));
    }
    let outcome = sim.run_until(Time::ZERO + Duration::deltas(120), |s| {
        (0..3).all(|i| s.process(p(i)).applied() >= 3)
    });
    for i in 0..3u32 {
        let r = &outcome.procs[i as usize];
        assert_eq!(r.applied(), 3, "p{i} applied prefix");
        assert_eq!(r.state().get("a"), Some("3"), "p{i}");
        assert_eq!(r.state().get("b"), Some("2"), "p{i}");
    }
    // Logs identical across replicas.
    let log0 = outcome.procs[0].log().clone();
    for i in 1..3 {
        assert_eq!(outcome.procs[i].log(), &log0);
    }
    // Decide events carry the applied stream, identical per replica.
    let per_proc: Vec<Vec<KvCommand>> = (0..3)
        .map(|i| {
            outcome
                .trace
                .decisions()
                .into_iter()
                .filter(|(q, _, _)| q.index() == i)
                .map(|(_, c, _)| c)
                .collect()
        })
        .collect();
    assert_eq!(per_proc[0], per_proc[1]);
    assert_eq!(per_proc[1], per_proc[2]);
}

#[test]
fn contending_proxies_converge_to_one_log() {
    // A failing seed is replayable alone via TWOSTEP_SEED=<seed>.
    for seed in twostep_sim::test_seeds(0..8) {
        let cfg = SystemConfig::minimal_object(2, 2).unwrap();
        let n = cfg.n();
        let mut sim = SimulationBuilder::new(cfg)
            .delivery_order(DeliveryOrder::randomized(seed))
            .build(|q| replica(cfg, q));
        // Every replica proposes one command at roughly the same time.
        for i in 0..n as u32 {
            sim.schedule_propose(
                p(i),
                KvCommand::put(format!("k{i}"), format!("v{i}")),
                Time::from_units(u64::from(i) * 7),
            );
        }
        let outcome = sim.run_until(Time::ZERO + Duration::deltas(300), |s| {
            (0..n).all(|i| s.process(p(i as u32)).applied() >= n as u64)
        });
        // All n commands committed; logs agree on the common prefix.
        let longest = outcome.procs.iter().max_by_key(|r| r.applied()).unwrap();
        assert!(
            longest.applied() >= n as u64,
            "seed {seed}: only {} commands applied",
            longest.applied()
        );
        for r in &outcome.procs {
            for (slot, cmd) in r.log() {
                assert_eq!(
                    longest.log().get(slot),
                    Some(cmd),
                    "seed {seed}: divergent slot {slot}"
                );
            }
        }
        // Every key present in the final state of the longest replica.
        for i in 0..n {
            assert_eq!(
                longest.state().get(&format!("k{i}")),
                Some(format!("v{i}").as_str()),
                "seed {seed}: lost command k{i}"
            );
        }
    }
}

#[test]
fn replica_crash_does_not_stop_the_log() {
    let cfg = SystemConfig::minimal_object(2, 2).unwrap(); // n = 5, f = 2
    let mut sim = SimulationBuilder::new(cfg)
        .crash_at(p(4), Time::from_units(1))
        .build(|q| replica(cfg, q));
    sim.schedule_propose(p(0), KvCommand::put("x", "1"), Time::ZERO);
    sim.schedule_propose(
        p(1),
        KvCommand::put("y", "2"),
        Time::ZERO + Duration::deltas(1),
    );
    let outcome = sim.run_until(Time::ZERO + Duration::deltas(200), |s| {
        (0..4).all(|i| s.process(p(i)).applied() >= 2)
    });
    for i in 0..4u32 {
        let r = &outcome.procs[i as usize];
        assert!(r.applied() >= 2, "p{i} applied {}", r.applied());
        assert_eq!(r.state().get("x"), Some("1"));
        assert_eq!(r.state().get("y"), Some("2"));
    }
}

#[test]
fn lost_slot_is_retried_in_fresh_slot() {
    // Two proxies race: one of them must lose a slot and re-propose; in
    // the end both commands are in the log exactly once.
    let cfg = SystemConfig::minimal_object(1, 1).unwrap();
    let mut sim = SimulationBuilder::new(cfg).build(|q| replica(cfg, q));
    sim.schedule_propose(p(0), KvCommand::put("a", "0"), Time::ZERO);
    sim.schedule_propose(p(2), KvCommand::put("b", "2"), Time::ZERO);
    let outcome = sim.run_until(Time::ZERO + Duration::deltas(200), |s| {
        (0..3).all(|i| s.process(p(i)).applied() >= 2)
    });
    let log = outcome.procs[0].log();
    assert!(log.len() >= 2, "both commands committed, log = {log:?}");
    let cmds: Vec<&KvCommand> = log.values().flat_map(|b| b.iter()).collect();
    let a = cmds
        .iter()
        .filter(|c| matches!(c, KvCommand::Put { key, .. } if key == "a"))
        .count();
    let b = cmds
        .iter()
        .filter(|c| matches!(c, KvCommand::Put { key, .. } if key == "b"))
        .count();
    assert_eq!((a, b), (1, 1), "each command exactly once: {log:?}");
}

#[test]
fn kv_over_threaded_runtime() {
    use twostep_runtime::ClusterBuilder;

    let cfg = SystemConfig::minimal_object(1, 1).unwrap();
    let cluster = ClusterBuilder::new(cfg)
        .wall_delta(WallDuration::from_millis(10))
        .build(|q| replica(cfg, q))
        .expect("in-memory build cannot fail");
    let command = KvCommand::put("city", "huatulco");
    cluster.proxy_client(p(0)).propose(command.clone());
    // The decide stream reports applied commands.
    for q in cfg.process_ids() {
        let decided = cluster.await_decision(0, q, WallDuration::from_secs(10));
        assert_eq!(decided.as_ref(), Some(&command), "{q}");
    }
    assert!(cluster.agreement());
}

#[test]
fn pipelined_proxy_commits_faster_than_serial() {
    // Depth-4 pipeline: four commands proposed in one burst all sit in
    // distinct slots immediately, so all four commit within the latency
    // of roughly one consensus round instead of four.
    let cfg = SystemConfig::minimal_object(1, 1).unwrap();
    let run = |depth: usize| {
        let mut sim = SimulationBuilder::new(cfg).build(|q| {
            SmrReplicaBuilder::new(cfg, q)
                .pipeline(depth)
                .build::<KvCommand, KvStore>()
        });
        for i in 0..4u64 {
            sim.schedule_propose(p(0), KvCommand::put(format!("k{i}"), "v"), Time::ZERO);
        }
        let outcome = sim.run_until(Time::ZERO + Duration::deltas(200), |s| {
            s.process(p(0)).applied() >= 4
        });
        (outcome.procs[0].applied(), outcome.end_time)
    };
    let (applied_serial, t_serial) = run(1);
    let (applied_piped, t_piped) = run(4);
    assert_eq!(applied_serial, 4);
    assert_eq!(applied_piped, 4);
    assert!(
        t_piped < t_serial,
        "pipelining must shorten the burst: piped {t_piped:?} vs serial {t_serial:?}"
    );
    // The pipelined burst completes in ~one fast round (≤ 4Δ margin).
    assert!(
        t_piped <= Time::ZERO + Duration::deltas(4),
        "piped burst took {t_piped:?}"
    );
}

#[test]
fn pipelined_logs_remain_consistent_under_contention() {
    for seed in twostep_sim::test_seeds(0..6) {
        let cfg = SystemConfig::minimal_object(2, 2).unwrap();
        let n = cfg.n();
        let mut sim = SimulationBuilder::new(cfg)
            .delivery_order(DeliveryOrder::randomized(seed))
            .build(|q| {
                SmrReplicaBuilder::new(cfg, q)
                    .pipeline(3)
                    .build::<KvCommand, KvStore>()
            });
        let mut total = 0u64;
        for i in 0..n as u32 {
            for k in 0..2u64 {
                sim.schedule_propose(
                    p(i),
                    KvCommand::put(format!("k{i}-{k}"), "v"),
                    Time::from_units(k * 50),
                );
                total += 1;
            }
        }
        let outcome = sim.run_until(Time::ZERO + Duration::deltas(400), |s| {
            (0..n).all(|i| s.process(p(i as u32)).applied() >= total)
        });
        let longest = outcome.procs.iter().max_by_key(|r| r.applied()).unwrap();
        assert!(
            longest.applied() >= total,
            "seed {seed}: {}/{} applied",
            longest.applied(),
            total
        );
        for r in &outcome.procs {
            for (slot, cmd) in r.log() {
                assert_eq!(
                    longest.log().get(slot),
                    Some(cmd),
                    "seed {seed} slot {slot}"
                );
            }
        }
        // Exactly-once, across batch boundaries.
        let mut seen = std::collections::BTreeSet::new();
        for cmd in longest.log().values().flat_map(|b| b.iter()) {
            assert!(seen.insert(cmd.clone()), "seed {seed}: duplicate {cmd:?}");
        }
    }
}

#[test]
fn pipeline_depth_accessor_and_validation() {
    let cfg = SystemConfig::minimal_object(1, 1).unwrap();
    let r: Replica = SmrReplicaBuilder::new(cfg, p(0)).pipeline(8).build();
    assert_eq!(r.pipeline_depth(), 8);
    let r = replica(cfg, p(0));
    assert_eq!(r.pipeline_depth(), 1);
}

#[test]
#[should_panic(expected = "pipeline depth")]
fn zero_pipeline_depth_rejected() {
    let cfg = SystemConfig::minimal_object(1, 1).unwrap();
    let _: Replica = SmrReplicaBuilder::new(cfg, p(0)).pipeline(0).build();
}

#[test]
fn batched_proxy_commits_all_commands() {
    // Batch 4 over a 6-command burst: commands grouped into batches and
    // applied in submission order.
    let cfg = SystemConfig::minimal_object(1, 1).unwrap();
    let mut sim = SimulationBuilder::new(cfg).build(|q| {
        SmrReplicaBuilder::new(cfg, q)
            .batch(4)
            .build::<KvCommand, KvStore>()
    });
    for i in 0..6u64 {
        sim.schedule_propose(
            p(0),
            KvCommand::put(format!("k{i}"), format!("{i}")),
            Time::ZERO,
        );
    }
    let outcome = sim.run_until(Time::ZERO + Duration::deltas(200), |s| {
        (0..3).all(|i| s.process(p(i)).applied() >= 6)
    });
    for i in 0..3u32 {
        let r = &outcome.procs[i as usize];
        assert_eq!(r.applied(), 6, "p{i} applied all commands");
        for k in 0..6u64 {
            assert_eq!(
                r.state().get(&format!("k{k}")),
                Some(format!("{k}").as_str())
            );
        }
    }
    // Fewer slots than commands: batching actually grouped something.
    assert!(
        outcome.procs[0].applied_slots() < 6,
        "6 commands should need fewer than 6 slots at batch size 4, used {}",
        outcome.procs[0].applied_slots()
    );
}

#[test]
fn interleaved_batched_proxies_never_reorder_own_commands() {
    // Several proxies stream keyed commands concurrently with batching
    // on; in the committed log, each client's own commands appear in
    // exactly their submission order (batching may interleave clients
    // but never reorders within one client). Pipeline depth stays 1:
    // with deeper pipelines a lost slot's re-proposal can land behind a
    // later in-flight slot, which is a pipelining property, not a
    // batching one.
    for seed in twostep_sim::test_seeds(0..6) {
        let cfg = SystemConfig::minimal_object(2, 2).unwrap();
        let n = cfg.n();
        let per_client = 5u64;
        let mut sim = SimulationBuilder::new(cfg)
            .delivery_order(DeliveryOrder::randomized(seed))
            .build(|q| {
                SmrReplicaBuilder::new(cfg, q)
                    .batch(3)
                    .build::<KvCommand, KvStore>()
            });
        let total = per_client * n as u64;
        for i in 0..n as u32 {
            for s in 0..per_client {
                sim.schedule_propose(
                    p(i),
                    KvCommand::put(format!("c{i}-{s}"), "v"),
                    Time::from_units(s * 13 + u64::from(i)),
                );
            }
        }
        let outcome = sim.run_until(Time::ZERO + Duration::deltas(500), |s| {
            (0..n).all(|i| s.process(p(i as u32)).applied() >= total)
        });
        let longest = outcome.procs.iter().max_by_key(|r| r.applied()).unwrap();
        assert!(
            longest.applied() >= total,
            "seed {seed}: {}/{total} applied",
            longest.applied()
        );
        // Per-client order: flatten the log and check each client's
        // sequence numbers are strictly increasing.
        for r in &outcome.procs {
            let mut next: Vec<u64> = vec![0; n];
            for cmd in r.log().values().flat_map(|b| b.iter()) {
                let KvCommand::Put { key, .. } = cmd else {
                    continue;
                };
                let (c, s) = key[1..].split_once('-').expect("key shape c{i}-{s}");
                let (c, s): (usize, u64) = (c.parse().unwrap(), s.parse().unwrap());
                assert_eq!(
                    s, next[c],
                    "seed {seed}: client {c} saw {s} before {}",
                    next[c]
                );
                next[c] += 1;
            }
        }
    }
}
