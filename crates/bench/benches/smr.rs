//! Microbench: end-to-end KV-SMR commit over the threaded in-memory
//! runtime (real threads, codec, channels), plus a simulator-side
//! commit for reference.

use std::time::Duration as WallDuration;

use criterion::{criterion_group, criterion_main, Criterion};

use twostep_runtime::{Cluster, ClusterBuilder};
use twostep_sim::SimulationBuilder;
use twostep_smr::{KvCommand, KvStore, SmrReplica, SmrReplicaBuilder};
use twostep_types::{Duration, ProcessId, SystemConfig, Time};

type Replica = SmrReplica<KvCommand, KvStore>;

fn replica(cfg: SystemConfig, q: ProcessId) -> Replica {
    SmrReplicaBuilder::new(cfg, q).build()
}

fn bench_smr(c: &mut Criterion) {
    let cfg = SystemConfig::minimal_object(1, 1).unwrap();

    // Simulator-side: one full command commit across 3 replicas.
    c.bench_function("smr/simulated_commit_n3", |b| {
        b.iter(|| {
            let mut sim = SimulationBuilder::new(cfg).build(|q| replica(cfg, q));
            sim.schedule_propose(ProcessId::new(0), KvCommand::put("k", "v"), Time::ZERO);
            let outcome = sim.run_until(Time::ZERO + Duration::deltas(30), |s| {
                s.process(ProcessId::new(0)).applied() >= 1
            });
            std::hint::black_box(outcome.procs[0].applied())
        })
    });

    // Threaded runtime: cluster setup + one committed command. This is a
    // coarse end-to-end number (thread spawn + commit + teardown).
    c.bench_function("smr/threaded_commit_n3", |b| {
        b.iter(|| {
            let cluster: Cluster<KvCommand> = ClusterBuilder::new(cfg)
                .wall_delta(WallDuration::from_millis(5))
                .build_smr::<KvCommand, KvStore>()
                .expect("in-memory build cannot fail");
            let client = cluster.proxy_client(ProcessId::new(0));
            let d = client.submit_and_wait(KvCommand::put("k", "v"), WallDuration::from_secs(10));
            std::hint::black_box(d)
        })
    });
}

criterion_group!(benches, bench_smr);
criterion_main!(benches);
