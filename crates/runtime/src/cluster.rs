//! A whole deployment: `n` nodes × `k` consensus groups, a transport,
//! and client-side helpers.
//!
//! Every deployment is sharded: a one-group cluster is the `k = 1`
//! case of the same code path (see [`crate::shard`] for the key→shard
//! map and leader rotation).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration as WallDuration, Instant};

use crossbeam::channel::{Receiver, Sender};
use parking_lot::Mutex;

use twostep_telemetry::ObserverHandle;
use twostep_types::{ProcessId, SystemConfig, Value};

use crate::node::NodeHandle;
use crate::proxy::{ProxyClient, RouteFn};
use crate::shard::ShardRouter;

/// One registered value-waiter (see [`ClusterShared::register_waiter`]).
struct Waiter {
    proxy: ProcessId,
    token: u64,
    tx: Sender<Instant>,
}

/// One decide event as a tap receives it:
/// `(deciding process, shard, value, wall-clock instant)`.
pub(crate) type DecideEvent<V> = (ProcessId, u32, V, Instant);

/// First decision per shard per process, indexed `[shard][process]`.
type FirstDecisions<V> = Vec<Vec<Option<(V, Instant)>>>;

/// Decision state shared between the cluster handle, its nodes (which
/// route their decisions into it) and any [`ProxyClient`]s. Every index
/// is `(shard, process)`.
pub(crate) struct ClusterShared<V> {
    /// First decision per shard per process (the per-shard
    /// agreement-checking cache).
    observed: Mutex<FirstDecisions<V>>,
    /// Live subscribers receiving **every** decide event.
    taps: Mutex<Vec<Sender<DecideEvent<V>>>>,
    /// Clients blocked on one specific value committing at one specific
    /// proxy, keyed by `(shard, value)`. One hash lookup per decide
    /// event, however many clients wait — fanning every event to every
    /// client caps the whole cluster's commit rate once closed-loop
    /// clients multiply. The shard in the key keeps groups isolated: a
    /// value committing in shard `j` can never wake a waiter registered
    /// under shard `i ≠ j`, even when the values collide.
    waiters: Mutex<HashMap<(u32, V), Vec<Waiter>>>,
    next_token: AtomicU64,
}

impl<V: Value> ClusterShared<V> {
    /// Fresh shared state for `shards` consensus groups over `n` nodes.
    pub(crate) fn new(shards: usize, n: usize) -> Arc<Self> {
        Arc::new(ClusterShared {
            observed: Mutex::new(vec![vec![None; n]; shards]),
            taps: Mutex::new(Vec::new()),
            waiters: Mutex::new(HashMap::new()),
            next_token: AtomicU64::new(0),
        })
    }

    /// Routes one decide event, called by the deciding node's thread:
    /// caches each `(shard, process)`'s first decision, wakes the
    /// matching `(shard, value)` waiters, then fans the event out to all
    /// live taps (dead taps are pruned as they are discovered).
    pub(crate) fn route_decision(&self, p: ProcessId, shard: u32, v: V, at: Instant) {
        {
            let mut observed = self.observed.lock();
            if let Some(row) = observed.get_mut(shard as usize) {
                let slot = &mut row[p.index()];
                if slot.is_none() {
                    *slot = Some((v.clone(), at));
                }
            }
        }
        {
            let mut waiters = self.waiters.lock();
            let key = (shard, v.clone());
            if let Some(list) = waiters.get_mut(&key) {
                list.retain(|w| {
                    if w.proxy == p {
                        let _ = w.tx.send(at);
                        false
                    } else {
                        true
                    }
                });
                if list.is_empty() {
                    waiters.remove(&key);
                }
            }
        }
        let mut taps = self.taps.lock();
        taps.retain(|tap| tap.send((p, shard, v.clone(), at)).is_ok());
    }

    /// Registers interest in `value` committing in `shard` at `proxy`;
    /// the returned receiver yields the commit's wall-clock instant. The
    /// token identifies this registration for
    /// [`ClusterShared::deregister_waiter`].
    pub(crate) fn register_waiter(
        &self,
        shard: u32,
        value: V,
        proxy: ProcessId,
    ) -> (u64, Receiver<Instant>) {
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = crossbeam::channel::unbounded();
        self.waiters
            .lock()
            .entry((shard, value))
            .or_default()
            .push(Waiter { proxy, token, tx });
        (token, rx)
    }

    /// Drops a registration that timed out without being woken.
    pub(crate) fn deregister_waiter(&self, shard: u32, value: &V, token: u64) {
        let mut waiters = self.waiters.lock();
        // The key is rebuilt by clone because HashMap's borrowed-key
        // lookup cannot borrow through a tuple of owned parts.
        let key = (shard, value.clone());
        if let Some(list) = waiters.get_mut(&key) {
            list.retain(|w| w.token != token);
            if list.is_empty() {
                waiters.remove(&key);
            }
        }
    }

    /// The first decision of `(shard, p)` observed so far.
    pub(crate) fn first_decision(&self, shard: u32, p: ProcessId) -> Option<(V, Instant)> {
        self.observed
            .lock()
            .get(shard as usize)
            .and_then(|row| row[p.index()].clone())
    }

    /// All first decisions of one shard, by process.
    pub(crate) fn shard_decisions(&self, shard: u32) -> Vec<Option<V>> {
        self.observed
            .lock()
            .get(shard as usize)
            .map(|row| {
                row.iter()
                    .map(|slot| slot.as_ref().map(|(v, _)| v.clone()))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Subscribes a tap receiving every decide event from now on.
    pub(crate) fn subscribe(&self) -> Receiver<DecideEvent<V>> {
        let (tx, rx) = crossbeam::channel::unbounded();
        self.taps.lock().push(tx);
        rx
    }
}

/// A running deployment: `n` nodes × `k` consensus groups.
///
/// Construct with [`ClusterBuilder`](crate::ClusterBuilder):
/// [`build`](crate::ClusterBuilder::build) and
/// [`build_smr`](crate::ClusterBuilder::build_smr) deploy one group,
/// [`shards`](crate::ClusterBuilder::shards) followed by
/// [`build_sharded_smr`](crate::ClusterBuilder::build_sharded_smr)
/// deploys `k`. Decisions are indexed by `(shard, process)`; a
/// one-group cluster has shard 0 only.
///
/// ```rust
/// use std::time::Duration;
/// use twostep_runtime::ClusterBuilder;
/// use twostep_smr::{KvCommand, KvStore};
/// use twostep_types::SystemConfig;
///
/// let cfg = SystemConfig::minimal_object(1, 1)?;
/// let cluster = ClusterBuilder::new(cfg)
///     .shards(4)
///     .wall_delta(Duration::from_millis(5))
///     .build_sharded_smr::<KvCommand, KvStore>()
///     .expect("in-memory build cannot fail");
/// let client = cluster.client();
/// client.submit_and_wait(KvCommand::put("k", "v"), Duration::from_secs(10));
/// # Ok::<(), twostep_types::ConfigError>(())
/// ```
pub struct Cluster<V: Value> {
    cfg: SystemConfig,
    router: ShardRouter,
    nodes: Vec<NodeHandle<V>>,
    shared: Arc<ClusterShared<V>>,
    route: RouteFn<V>,
    obs: ObserverHandle,
}

/// Another name for [`Cluster`], kept only because the repository
/// benchmark (`kvbench/`) imports it.
pub type ShardedCluster<V> = Cluster<V>;

impl<V: Value> Cluster<V> {
    /// Wraps freshly spawned nodes that route their decisions into
    /// `shared`.
    pub(crate) fn new(
        cfg: SystemConfig,
        router: ShardRouter,
        nodes: Vec<NodeHandle<V>>,
        shared: Arc<ClusterShared<V>>,
        route: RouteFn<V>,
        obs: ObserverHandle,
    ) -> Self {
        Cluster {
            cfg,
            router,
            nodes,
            shared,
            route,
            obs,
        }
    }

    /// The deployed configuration (per group — all groups share it).
    pub fn config(&self) -> SystemConfig {
        self.cfg
    }

    /// Number of consensus groups.
    pub fn shards(&self) -> usize {
        self.router.shards()
    }

    /// The key→shard router.
    pub fn router(&self) -> ShardRouter {
        self.router
    }

    /// The node that leads shard `s` when nothing is suspected: the
    /// round-robin assignment `s mod n`.
    pub fn leader_of(&self, shard: u32) -> ProcessId {
        ProcessId::new(shard % self.cfg.n() as u32)
    }

    /// A leader-routed client: each command is submitted at (and
    /// awaited on) the node leading its shard, so every proposal starts
    /// on the fast path of its group.
    pub fn client(&self) -> ProxyClient<V> {
        self.client_of(|s| self.leader_of(s))
    }

    /// A client pinned to proxy `p` for every shard: commands are
    /// routed to their shard's replica *on node `p`* regardless of who
    /// leads the group. Non-leader proposals reach the group leader by
    /// forwarding, trading a hop for locality. Any number of clients
    /// may share one proxy.
    pub fn proxy_client(&self, p: ProcessId) -> ProxyClient<V> {
        self.client_of(|_| p)
    }

    /// A client submitting shard `s`'s commands at node `proxy(s)`.
    fn client_of(&self, proxy: impl Fn(u32) -> ProcessId) -> ProxyClient<V> {
        let targets = (0..self.shards() as u32)
            .map(|s| {
                let p = proxy(s);
                (p, self.nodes[p.index()].control())
            })
            .collect();
        ProxyClient::sharded(
            Arc::new(targets),
            Arc::clone(&self.route),
            Arc::clone(&self.shared),
            self.obs.clone(),
        )
    }

    /// Crashes node `p`: every group loses its replica at `p` at once —
    /// the physical-node failure model.
    pub fn crash(&mut self, p: ProcessId) {
        self.nodes[p.index()].crash();
    }

    /// The first decision of `(shard, p)` observed so far, without
    /// blocking.
    pub fn decision_of(&self, shard: u32, p: ProcessId) -> Option<V> {
        self.shared.first_decision(shard, p).map(|(v, _)| v)
    }

    /// All first decisions of `shard`, by process.
    pub fn shard_decisions(&self, shard: u32) -> Vec<Option<V>> {
        self.shared.shard_decisions(shard)
    }

    /// Whether every shard's observed first decisions agree — Agreement
    /// holds per group; values across groups legitimately differ.
    pub fn agreement(&self) -> bool {
        (0..self.shards() as u32).all(|s| {
            let decisions = self.shard_decisions(s);
            let mut iter = decisions.iter().flatten();
            iter.next().is_none_or(|first| iter.all(|v| v == first))
        })
    }

    /// Waits until `(shard, p)` decides or `timeout` elapses; returns
    /// the value.
    pub fn await_decision(&self, shard: u32, p: ProcessId, timeout: WallDuration) -> Option<V> {
        // Subscribe before checking the cache so an event landing in
        // between is seen either way (no lost wakeup).
        let rx = self.shared.subscribe();
        if let Some(v) = self.decision_of(shard, p) {
            return Some(v);
        }
        let deadline = Instant::now() + timeout;
        loop {
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            match rx.recv_timeout(deadline - now) {
                Ok((q, s, v, _)) if q == p && s == shard => return Some(v),
                Ok(_) => {}
                Err(_) => return None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClusterBuilder;
    use serde::{Deserialize, Serialize};
    use twostep_types::protocol::{Effects, Protocol, TimerId};
    use twostep_types::ProtocolKind;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[derive(Debug, Clone, Serialize, Deserialize)]
    struct Gossip(u64);

    /// Decides the first value it hears (own proposal or gossip).
    #[derive(Debug)]
    struct Relay {
        me: ProcessId,
        n: usize,
        decided: Option<u64>,
    }

    impl Protocol<u64> for Relay {
        type Message = Gossip;
        fn id(&self) -> ProcessId {
            self.me
        }
        fn on_start(&mut self, _: &mut Effects<u64, Gossip>) {}
        fn on_propose(&mut self, v: u64, eff: &mut Effects<u64, Gossip>) {
            if self.decided.is_none() {
                self.decided = Some(v);
                eff.decide(v);
                eff.broadcast_others(Gossip(v), self.n, self.me);
            }
        }
        fn on_message(&mut self, _: ProcessId, m: Gossip, eff: &mut Effects<u64, Gossip>) {
            if self.decided.is_none() {
                self.decided = Some(m.0);
                eff.decide(m.0);
            }
        }
        fn on_timer(&mut self, _: TimerId, _: &mut Effects<u64, Gossip>) {}
        fn decision(&self) -> Option<u64> {
            self.decided
        }
    }

    /// A one-group cluster of `Relay`s over `builder`'s transport.
    fn relay_cluster(builder: impl FnOnce(ClusterBuilder) -> ClusterBuilder) -> Cluster<u64> {
        let cfg = SystemConfig::for_protocol(ProtocolKind::TaskTwoStep, 3, 1, 1).unwrap();
        let n = cfg.n();
        builder(ClusterBuilder::new(cfg).wall_delta(WallDuration::from_millis(10)))
            .build(|q| Relay {
                me: q,
                n,
                decided: None,
            })
            .expect("cluster build")
    }

    #[test]
    fn in_memory_cluster_propagates_decision() {
        let cluster = relay_cluster(|b| b);
        cluster.proxy_client(p(1)).propose(55);
        for q in cluster.config().process_ids() {
            assert_eq!(
                cluster.await_decision(0, q, WallDuration::from_secs(5)),
                Some(55)
            );
        }
        assert_eq!(cluster.shard_decisions(0), vec![Some(55); 3]);
        assert!(cluster.agreement());
    }

    #[test]
    fn crash_is_silent() {
        let mut cluster = relay_cluster(|b| b);
        cluster.crash(p(0));
        cluster.proxy_client(p(0)).propose(1); // swallowed
        assert_eq!(
            cluster.await_decision(0, p(1), WallDuration::from_millis(300)),
            None
        );
        cluster.proxy_client(p(1)).propose(2);
        assert_eq!(
            cluster.await_decision(0, p(2), WallDuration::from_secs(5)),
            Some(2)
        );
        assert_eq!(cluster.decision_of(0, p(0)), None);
    }

    #[test]
    fn proxy_client_sees_own_proxy_decisions() {
        let cluster = relay_cluster(|b| b);
        let client = cluster.proxy_client(p(1));
        let latency = client.submit_and_wait(61, WallDuration::from_secs(5));
        assert!(latency.is_some(), "client never saw its command commit");
        assert_eq!(cluster.decision_of(0, p(1)), Some(61));
    }

    // The (shard, value) waiter key is what keeps groups isolated at the
    // client layer: colliding values in different shards must never wake
    // each other's waiters. Driven as a property over shard pairs,
    // values and proxies because the bug class (keying by value alone)
    // only shows when values collide across shards.
    mod waiter_isolation {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn decides_never_wake_waiters_of_other_shards(
                deciding in 0u32..4,
                bystander in 0u32..4,
                value in any::<u64>(),
                proxy in 0u32..3,
            ) {
                prop_assume!(deciding != bystander);
                let shared: Arc<ClusterShared<u64>> = ClusterShared::new(4, 3);
                let at = p(proxy);
                let (_tok_b, rx_bystander) = shared.register_waiter(bystander, value, at);
                let (_tok_d, rx_deciding) = shared.register_waiter(deciding, value, at);
                shared.route_decision(at, deciding, value, Instant::now());
                // The matching waiter wakes...
                prop_assert!(
                    rx_deciding.try_recv().is_ok(),
                    "waiter on the deciding shard was never woken"
                );
                // ...and because routing is synchronous, the same-valued
                // waiter under the other shard has already been passed
                // over, not merely not-yet-woken.
                prop_assert!(
                    rx_bystander.try_recv().is_err(),
                    "a decide in shard {deciding} woke a waiter registered under shard {bystander}"
                );
                // The bystander's registration is still live: a decide
                // in *its* shard reaches it.
                shared.route_decision(at, bystander, value, Instant::now());
                prop_assert!(
                    rx_bystander.try_recv().is_ok(),
                    "bystander's registration was lost"
                );
            }

            #[test]
            fn decides_only_wake_the_matching_proxy(
                shard in 0u32..4,
                value in any::<u64>(),
                deciding_proxy in 0u32..3,
                other_proxy in 0u32..3,
            ) {
                prop_assume!(deciding_proxy != other_proxy);
                let shared: Arc<ClusterShared<u64>> = ClusterShared::new(4, 3);
                let (_tok_o, rx_other) =
                    shared.register_waiter(shard, value, p(other_proxy));
                let (_tok_d, rx_deciding) =
                    shared.register_waiter(shard, value, p(deciding_proxy));
                shared.route_decision(p(deciding_proxy), shard, value, Instant::now());
                prop_assert!(rx_deciding.try_recv().is_ok());
                prop_assert!(
                    rx_other.try_recv().is_err(),
                    "a decide at proxy {deciding_proxy} woke a waiter bound to proxy {other_proxy}"
                );
            }
        }
    }

    #[test]
    fn tcp_cluster_end_to_end() {
        let cluster = relay_cluster(ClusterBuilder::tcp);
        cluster.proxy_client(p(2)).propose(77);
        for q in cluster.config().process_ids() {
            assert_eq!(
                cluster.await_decision(0, q, WallDuration::from_secs(10)),
                Some(77)
            );
        }
        assert!(cluster.agreement());
    }
}
