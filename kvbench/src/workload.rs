//! The workloads, and how each one is deployed.
//!
//! Why each exists is written next to it and in README.md.

use std::sync::Arc;
use std::time::Duration;

use twostep_runtime::{Cluster, ClusterBuilder, ProxyClient, RuntimeError, ShardedCluster};
use twostep_smr::{KvCommand, SmrReplicaBuilder};
use twostep_telemetry::{Metrics, ObserverHandle};
use twostep_types::{ProcessId, SystemConfig};

use crate::ledger::{Ledger, StampedKv};
use crate::trace::{ProbeStamps, StepTotals, Traced};

/// One deployment shape plus its nominal open-loop rate.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// The name `--workload` selects.
    pub name: &'static str,
    /// Processes, fast threshold and resilience of each group.
    pub n: usize,
    /// See [`Workload::n`].
    pub e: usize,
    /// See [`Workload::n`].
    pub f: usize,
    /// Consensus groups; above one, clients are leader-routed.
    pub shards: usize,
    /// Commands per slot.
    pub batch: usize,
    /// Slots in flight per proxy.
    pub depth: usize,
    /// Reactor sockets instead of the in-memory transport.
    pub reactor: bool,
    /// Emulated one-way link latency.
    pub link_delay: Duration,
    /// Wall-clock length of one Δ.
    pub delta: Duration,
    /// The proxy every client submits to (one-shard workloads).
    pub proxy: u32,
    /// Processes crashed before any load.
    pub crashed: &'static [u32],
    /// Nominal open-loop rate, commands per second.
    pub rate: f64,
    /// Whether the traced run reconciles probe stages.
    pub reconcile: bool,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    // Every command is its own two-step slot, so per-hop costs dominate:
    // the control channel, node wake-up, the codec per message and
    // decision routing. Batching is bypassed.
    Workload {
        name: "fastpath-unbatched",
        n: 3,
        e: 1,
        f: 1,
        shards: 1,
        batch: 1,
        depth: 1,
        reactor: false,
        link_delay: Duration::ZERO,
        delta: Duration::from_millis(2),
        proxy: 0,
        crashed: &[],
        rate: 1500.0,
        reconcile: true,
    },
    // Link latency and the batch pump dominate; stresses SMR batching,
    // shard routing and tagging, framing and the reactor. Δ stays at
    // 10 ms: at 2 ms the 2Δ fast-path window equals the round trip over
    // 2 ms links and slots spuriously take the slow path.
    Workload {
        name: "sharded-batched-reactor",
        n: 3,
        e: 1,
        f: 1,
        shards: 4,
        batch: 16,
        depth: 8,
        reactor: true,
        link_delay: Duration::from_millis(2),
        delta: Duration::from_millis(10),
        proxy: 0,
        crashed: &[],
        rate: 16000.0,
        reconcile: false,
    },
    // With 3 of 5 processes alive the fast quorum n−e = 4 cannot form,
    // so every slot goes through Ω re-election, ballots and the
    // recovery rule: the only workload where core's slow path and the
    // timers dominate.
    Workload {
        name: "slowpath-degraded",
        n: 5,
        e: 1,
        f: 2,
        shards: 1,
        batch: 8,
        depth: 4,
        reactor: false,
        link_delay: Duration::ZERO,
        delta: Duration::from_millis(2),
        proxy: 1,
        crashed: &[0, 2],
        rate: 1000.0,
        reconcile: false,
    },
];

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The traced run's instruments.
#[derive(Debug)]
pub struct Hooks {
    /// Observer aggregating every replica, node and transport event.
    pub metrics: Arc<Metrics>,
    /// Probe stamps taken inside the proxy (one-shard workloads).
    pub probes: Arc<ProbeStamps>,
    /// Wrapped-call totals (one-shard workloads).
    pub totals: Arc<StepTotals>,
}

/// A running deployment of a workload.
pub enum Deployment {
    /// One consensus group.
    Single(Cluster<KvCommand>),
    /// Several groups over the same nodes.
    Sharded(ShardedCluster<KvCommand>),
}

impl Deployment {
    /// A client as the workload's users see it: pinned to the proxy, or
    /// leader-routed when sharded.
    pub fn client(&self, w: &Workload) -> ProxyClient<KvCommand> {
        match self {
            Deployment::Single(c) => c.proxy_client(ProcessId::new(w.proxy)),
            Deployment::Sharded(c) => c.client(),
        }
    }
}

impl Workload {
    /// Builds the workload's cluster over `ledger`, with the traced
    /// run's instruments when `hooks` is given, and crashes the
    /// processes the workload runs without.
    ///
    /// # Errors
    ///
    /// Socket setup failures of the reactor transport.
    pub fn deploy(
        &self,
        ledger: &Arc<Ledger>,
        hooks: Option<&Hooks>,
    ) -> Result<Deployment, RuntimeError> {
        let cfg = SystemConfig::new(self.n, self.e, self.f).expect("workload configs are valid");
        let obs = hooks.map_or(ObserverHandle::none(), |h| {
            ObserverHandle::from(Arc::clone(&h.metrics))
        });
        let mut builder = ClusterBuilder::new(cfg)
            .wall_delta(self.delta)
            .link_delay(self.link_delay)
            .batch(self.batch)
            .pipeline(self.depth)
            .observed(obs.clone());
        if self.reactor {
            builder = builder.reactor();
        }
        ledger.install();
        if self.shards > 1 {
            let cluster = builder
                .shards(self.shards)
                .build_sharded_smr::<KvCommand, StampedKv>()?;
            return Ok(Deployment::Sharded(cluster));
        }
        let mut cluster = match hooks {
            None => builder.build_smr::<KvCommand, StampedKv>()?,
            Some(h) => {
                let (batch, depth, proxy) = (self.batch, self.depth, self.proxy);
                builder.build(|p| {
                    let replica = SmrReplicaBuilder::new(cfg, p)
                        .pipeline(depth)
                        .batch(batch)
                        .observed(obs.clone())
                        .build::<KvCommand, StampedKv>();
                    Traced::new(
                        replica,
                        p == ProcessId::new(proxy),
                        Arc::clone(ledger),
                        Arc::clone(&h.probes),
                        Arc::clone(&h.totals),
                    )
                })?
            }
        };
        for &p in self.crashed {
            cluster.crash(ProcessId::new(p));
        }
        Ok(Deployment::Single(cluster))
    }

    /// Replicas left running in each group.
    pub fn live(&self) -> usize {
        self.n - self.crashed.len()
    }
}
