//! Fluent construction of whole clusters.

use std::sync::Arc;
use std::time::Duration as WallDuration;

use twostep_smr::{Routable, SmrReplicaBuilder, StateMachine};
use twostep_telemetry::ObserverHandle;
use twostep_types::protocol::Protocol;
use twostep_types::{ProcessId, SystemConfig, Value};

use crate::cluster::{Cluster, ClusterShared};
use crate::node::{spawn_node, NodeOptions};
use crate::proxy::RouteFn;
use crate::shard::ShardRouter;
use crate::transport::{delayed_inbox, Backend};
use crate::RuntimeError;

/// Builder for [`Cluster`] — the one construction path for every
/// deployment shape.
///
/// One fluent chain: config up front, then transport choice, observer
/// and batching/pipeline/shard knobs, then [`ClusterBuilder::build`]
/// with a protocol factory, [`ClusterBuilder::build_smr`] for the
/// batteries-included SMR deployment, or
/// [`ClusterBuilder::build_sharded_smr`] for `k` SMR groups. Every
/// variant runs the same assembly; the first two deploy one group.
/// Client handles come from [`Cluster::proxy_client`] and
/// [`Cluster::client`].
///
/// ```rust
/// use std::time::Duration;
/// use twostep_runtime::ClusterBuilder;
/// use twostep_smr::{KvCommand, KvStore};
/// use twostep_types::{ProcessId, SystemConfig};
///
/// let cfg = SystemConfig::minimal_object(1, 1)?;
/// let cluster = ClusterBuilder::new(cfg)
///     .wall_delta(Duration::from_millis(5))
///     .batch(16)
///     .pipeline(8)
///     .build_smr::<KvCommand, KvStore>()
///     .expect("in-memory build cannot fail");
/// let client = cluster.proxy_client(ProcessId::new(0));
/// client.propose(KvCommand::put("k", "v"));
/// # Ok::<(), twostep_types::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ClusterBuilder {
    cfg: SystemConfig,
    wall_delta: WallDuration,
    link_delay: WallDuration,
    transport: Backend,
    obs: ObserverHandle,
    shard_obs: Vec<ObserverHandle>,
    batch: usize,
    pipeline: usize,
    shards: usize,
}

impl ClusterBuilder {
    /// Starts a builder for `cfg`: in-memory transport, `Δ` = 10ms, no
    /// observer, batch size 1 and pipeline depth 1 (the unbatched seed
    /// semantics).
    pub fn new(cfg: SystemConfig) -> Self {
        ClusterBuilder {
            cfg,
            wall_delta: WallDuration::from_millis(10),
            link_delay: WallDuration::ZERO,
            transport: Backend::InMemory,
            obs: ObserverHandle::none(),
            shard_obs: Vec::new(),
            batch: 1,
            pipeline: 1,
            shards: 1,
        }
    }

    /// Sets the wall-clock duration of one `Δ`; it bounds the
    /// protocol's timeouts (fast-path window `2Δ`, ballot retry `5Δ`)
    /// and the SMR pump tick (`2Δ`).
    #[must_use]
    pub fn wall_delta(mut self, wall_delta: WallDuration) -> Self {
        self.wall_delta = wall_delta;
        self
    }

    /// Emulates a one-way link latency: every payload is held for
    /// `delay` on the receive side before the node sees it, on every
    /// transport (two delay-line threads per node; on the socket
    /// backends, on top of the real, tiny localhost latency), so a
    /// given `link_delay` is comparable across all three backends. Zero
    /// (the default) adds nothing.
    ///
    /// Use this to measure pipelining/sharding effects: with instant
    /// links a single consensus group is CPU-bound and extra in-flight
    /// capacity buys nothing, while under a wall-clock link latency the
    /// deployment behaves like a LAN/WAN one, where capacity hides
    /// latency.
    #[must_use]
    pub fn link_delay(mut self, delay: WallDuration) -> Self {
        self.link_delay = delay;
        self
    }

    /// Deploys over localhost TCP with the blocking writer-thread
    /// transport (real sockets, framing and the binary codec on every
    /// hop; one writer thread per destination, one read thread per
    /// accepted connection).
    #[must_use]
    pub fn tcp(mut self) -> Self {
        self.transport = Backend::Tcp;
        self
    }

    /// Deploys over localhost TCP with the reactor transport
    /// ([`crate::ReactorTransport`]): the same wire format as
    /// [`ClusterBuilder::tcp`], moved by **one** non-blocking event-loop
    /// thread per node instead of a thread per connection — vectored
    /// writes, reusable read buffers, timer-heap reconnect backoff.
    #[must_use]
    pub fn reactor(mut self) -> Self {
        self.transport = Backend::Reactor;
        self
    }

    /// Deploys over the in-memory transport (the default).
    #[must_use]
    pub fn in_memory(mut self) -> Self {
        self.transport = Backend::InMemory;
        self
    }

    /// Attaches telemetry hooks: nodes report per-kind wire bytes and
    /// decision latency, TCP transports report drops/reconnects, and
    /// [`ClusterBuilder::build_smr`] passes the handle through to every
    /// replica (batch sizes, queue depths, protocol paths).
    #[must_use]
    pub fn observed(mut self, obs: ObserverHandle) -> Self {
        self.obs = obs;
        self
    }

    /// Groups up to `size` commands per consensus slot (SMR builds
    /// only; see [`SmrReplicaBuilder::batch`]).
    #[must_use]
    pub fn batch(mut self, size: usize) -> Self {
        self.batch = size;
        self
    }

    /// Keeps up to `depth` batches in flight concurrently (SMR builds
    /// only; see [`SmrReplicaBuilder::pipeline`]).
    #[must_use]
    pub fn pipeline(mut self, depth: usize) -> Self {
        self.pipeline = depth;
        self
    }

    /// Hash-partitions the key space across `k` independent consensus
    /// groups ([`ClusterBuilder::build_sharded_smr`] only;
    /// [`ClusterBuilder::build`] and [`ClusterBuilder::build_smr`]
    /// always deploy one group). Every node hosts one
    /// replica of every group on its existing thread and transport
    /// endpoint; group `s`'s leader preference is rotated to node
    /// `s mod n`, spreading leader load round-robin.
    #[must_use]
    pub fn shards(mut self, k: usize) -> Self {
        self.shards = k;
        self
    }

    /// Attaches per-shard engine telemetry: shard `s` reports its
    /// decision latencies, wire bytes and protocol paths to
    /// `handles[s]` (missing entries fall back to the
    /// [`ClusterBuilder::observed`] handle). Pair with
    /// `twostep_telemetry`'s `ShardedMetrics::handles`.
    #[must_use]
    pub fn shard_observers(mut self, handles: Vec<ObserverHandle>) -> Self {
        self.shard_obs = handles;
        self
    }

    /// Builds a cluster running `make(p)` at each process.
    ///
    /// The batching/pipeline knobs do not apply here — they configure
    /// replicas built by [`ClusterBuilder::build_smr`]; a custom
    /// protocol factory wires its own knobs. The observer *is* applied
    /// at the node and transport layers; pass the same handle into
    /// `make` for protocol-level events.
    ///
    /// # Errors
    ///
    /// Propagates socket setup failures on the TCP transport; the
    /// in-memory build is infallible.
    pub fn build<V, P, F>(self, mut make: F) -> Result<Cluster<V>, RuntimeError>
    where
        V: Value,
        P: Protocol<V> + 'static,
        F: FnMut(ProcessId) -> P,
    {
        self.deploy(ShardRouter::new(1), Arc::new(|_| 0), |p, _, _| make(p))
    }

    /// Builds a cluster of SMR replicas replicating state machine `S`
    /// over command type `C`, with this builder's batching/pipeline
    /// knobs and observer applied to every replica.
    ///
    /// The cluster's value type is the *command*: proposals are single
    /// commands, decide events are single applied commands, and the
    /// replicas batch internally.
    ///
    /// # Errors
    ///
    /// Propagates socket setup failures on the TCP transport; the
    /// in-memory build is infallible.
    pub fn build_smr<C, S>(self) -> Result<Cluster<C>, RuntimeError>
    where
        C: Value + Ord,
        S: StateMachine<C> + 'static,
    {
        let (cfg, obs, batch, pipeline) = (self.cfg, self.obs.clone(), self.batch, self.pipeline);
        self.build(move |p| {
            SmrReplicaBuilder::new(cfg, p)
                .pipeline(pipeline)
                .batch(batch)
                .observed(obs.clone())
                .build::<C, S>()
        })
    }

    /// Builds a sharded cluster: [`ClusterBuilder::shards`] independent
    /// SMR groups, each replicating its own instance of `S` over the
    /// partition of the command space that hashes to it. The
    /// batching/pipeline knobs apply per group, so total in-flight
    /// capacity scales with the shard count.
    ///
    /// Commands pick their group via [`Routable::route_key`] hashed by
    /// the cluster's [`ShardRouter`]. A one-shard build is wire- and
    /// semantics-compatible with [`ClusterBuilder::build_smr`].
    ///
    /// # Errors
    ///
    /// Propagates socket setup failures on the TCP transport; the
    /// in-memory build is infallible.
    pub fn build_sharded_smr<C, S>(self) -> Result<Cluster<C>, RuntimeError>
    where
        C: Value + Ord + Routable,
        S: StateMachine<C> + 'static,
    {
        let router = ShardRouter::new(self.shards);
        let route = Arc::new(move |c: &C| router.route(c.route_key().as_ref()));
        let (cfg, batch, pipeline) = (self.cfg, self.batch, self.pipeline);
        self.deploy(router, route, move |p, s, obs| {
            SmrReplicaBuilder::new(cfg, p)
                .pipeline(pipeline)
                .batch(batch)
                .leader_rotation(s)
                .observed(obs.clone())
                .build::<C, S>()
        })
    }

    /// Deploys `router.shards()` groups: node `p` hosts
    /// `make(p, s, obs)` for every shard `s`, where `obs` is the shard's
    /// [`ClusterBuilder::shard_observers`] entry, else the cluster-wide
    /// one. Each node sits behind one inbox (delayed by the link
    /// latency) and one transport endpoint of the chosen backend.
    fn deploy<V, P, F>(
        self,
        router: ShardRouter,
        route: RouteFn<V>,
        mut make: F,
    ) -> Result<Cluster<V>, RuntimeError>
    where
        V: Value,
        P: Protocol<V> + 'static,
        F: FnMut(ProcessId, u32, &ObserverHandle) -> P,
    {
        let (senders, inboxes): (Vec<_>, Vec<_>) = (0..self.cfg.n())
            .map(|_| {
                let (tx, rx) = crossbeam::channel::unbounded();
                (delayed_inbox(self.link_delay, tx), rx)
            })
            .unzip();
        let transports = self.transport.spawn_all(senders, &self.obs)?;
        let observers: Vec<ObserverHandle> = (0..router.shards())
            .map(|s| self.shard_obs.get(s).unwrap_or(&self.obs).clone())
            .collect();
        let shared = ClusterShared::new(router.shards(), self.cfg.n());
        let nodes = inboxes
            .into_iter()
            .zip(transports)
            .enumerate()
            .map(|(i, (inbox, transport))| {
                let p = ProcessId::new(i as u32);
                let instances = (0..router.shards() as u32)
                    .map(|s| make(p, s, &observers[s as usize]))
                    .collect();
                let opts = NodeOptions {
                    wall_delta: self.wall_delta,
                    shared: Arc::clone(&shared),
                    observers: observers.clone(),
                };
                spawn_node(instances, inbox, transport, opts)
            })
            .collect();
        Ok(Cluster::new(
            self.cfg, router, nodes, shared, route, self.obs,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use twostep_smr::{KvCommand, KvStore};

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn smr_cluster_commits_through_proxy_client() {
        let cfg = SystemConfig::minimal_object(1, 1).unwrap();
        let cluster = ClusterBuilder::new(cfg)
            .wall_delta(Duration::from_millis(5))
            .batch(4)
            .pipeline(2)
            .build_smr::<KvCommand, KvStore>()
            .unwrap();
        let client = cluster.proxy_client(p(0));
        let latency =
            client.submit_and_wait(KvCommand::put("answer", "42"), Duration::from_secs(10));
        assert!(latency.is_some(), "command never committed");
    }

    #[test]
    fn sharded_smr_cluster_commits_across_shards() {
        let cfg = SystemConfig::minimal_object(1, 1).unwrap();
        let cluster = ClusterBuilder::new(cfg)
            .shards(4)
            .wall_delta(Duration::from_millis(5))
            .batch(4)
            .pipeline(2)
            .build_sharded_smr::<KvCommand, KvStore>()
            .unwrap();
        assert_eq!(cluster.shards(), 4);
        let client = cluster.client();
        let router = cluster.router();
        let mut shards_hit = std::collections::BTreeSet::new();
        for i in 0..12 {
            let cmd = KvCommand::put(format!("key-{i}"), format!("v{i}"));
            let shard = client.shard_of(&cmd);
            assert_eq!(shard, router.route(format!("key-{i}").as_bytes()));
            shards_hit.insert(shard);
            assert!(
                client
                    .submit_and_wait(cmd, Duration::from_secs(10))
                    .is_some(),
                "command {i} never committed in shard {shard}"
            );
        }
        assert!(shards_hit.len() > 1, "12 keys should span multiple shards");
        assert!(cluster.agreement(), "per-shard agreement must hold");
    }

    #[test]
    fn sharded_cluster_routes_same_key_to_same_shard() {
        let cfg = SystemConfig::minimal_object(1, 1).unwrap();
        let cluster = ClusterBuilder::new(cfg)
            .shards(8)
            .wall_delta(Duration::from_millis(5))
            .build_sharded_smr::<KvCommand, KvStore>()
            .unwrap();
        let client = cluster.client();
        let put = KvCommand::put("stable-key", "1");
        let del = KvCommand::delete("stable-key");
        assert_eq!(
            client.shard_of(&put),
            client.shard_of(&del),
            "all operations on one key share one log"
        );
    }

    #[test]
    fn builder_over_reactor_reaches_agreement() {
        let cfg = SystemConfig::minimal_object(1, 1).unwrap();
        let cluster = ClusterBuilder::new(cfg)
            .reactor()
            .wall_delta(Duration::from_millis(10))
            .build_smr::<KvCommand, KvStore>()
            .unwrap();
        let client = cluster.proxy_client(p(0));
        assert!(client
            .submit_and_wait(KvCommand::put("k", "v"), Duration::from_secs(10))
            .is_some());
    }

    #[test]
    fn sharded_builder_over_reactor_commits_across_shards() {
        let cfg = SystemConfig::minimal_object(1, 1).unwrap();
        let cluster = ClusterBuilder::new(cfg)
            .reactor()
            .shards(4)
            .wall_delta(Duration::from_millis(5))
            .batch(4)
            .pipeline(2)
            .build_sharded_smr::<KvCommand, KvStore>()
            .unwrap();
        let client = cluster.client();
        for i in 0..8 {
            assert!(
                client
                    .submit_and_wait(
                        KvCommand::put(format!("rk-{i}"), format!("v{i}")),
                        Duration::from_secs(10)
                    )
                    .is_some(),
                "command {i} never committed over the reactor backend"
            );
        }
        assert!(cluster.agreement());
    }

    #[test]
    fn builder_over_tcp_reaches_agreement() {
        let cfg = SystemConfig::minimal_object(1, 1).unwrap();
        let cluster = ClusterBuilder::new(cfg)
            .tcp()
            .wall_delta(Duration::from_millis(10))
            .build_smr::<KvCommand, KvStore>()
            .unwrap();
        let client = cluster.proxy_client(p(0));
        assert!(client
            .submit_and_wait(KvCommand::put("k", "v"), Duration::from_secs(10))
            .is_some());
    }
}
