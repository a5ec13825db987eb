//! One node per OS thread, hosting one protocol instance per consensus
//! group.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration as WallDuration, Instant};

use bytes::Bytes;
use crossbeam::channel::{Receiver, Sender};

use twostep_telemetry::ObserverHandle;
use twostep_types::protocol::{Effects, Protocol, TimerId};
use twostep_types::{ProcessId, Value, DELTA};

use crate::cluster::ClusterShared;
use crate::codec;
use crate::transport::Transport;

/// Control events a node accepts besides network traffic.
#[derive(Debug)]
pub(crate) enum Control<V> {
    /// A client proposal addressed to one consensus group (shard) of
    /// this node — the *proxy* role from the paper's introduction.
    /// Proposals to shards the node does not host are dropped.
    ProposeAt(u32, V),
    /// Stop the node immediately — models a crash (no clean handover).
    Shutdown,
}

/// Handle to a spawned node.
#[derive(Debug)]
pub(crate) struct NodeHandle<V> {
    control: Sender<Control<V>>,
    join: Option<JoinHandle<()>>,
}

impl<V> NodeHandle<V> {
    /// A clone of the control channel, for client handles that outlive
    /// borrows of the node (see `ProxyClient`).
    pub(crate) fn control(&self) -> Sender<Control<V>> {
        self.control.clone()
    }

    /// Crashes the node: it stops processing immediately.
    pub(crate) fn crash(&mut self) {
        let _ = self.control.send(Control::Shutdown);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

impl<V> Drop for NodeHandle<V> {
    fn drop(&mut self) {
        self.crash();
    }
}

/// Engine-level options for [`spawn_node`].
pub(crate) struct NodeOptions<V> {
    /// Wall-clock length of one `Δ`: protocol timer delays (virtual
    /// units where `Δ` = [`DELTA`]) are scaled by `wall_delta / Δ`.
    pub wall_delta: WallDuration,
    /// The cluster's decision state: every `decide(v)` is routed into
    /// it from this node's thread, tagged with the deciding shard (see
    /// [`ClusterShared::route_decision`]).
    pub shared: Arc<ClusterShared<V>>,
    /// Engine telemetry per shard: shard `s` reports its per-kind
    /// encoded sizes (`bytes_sent`) and its first decision latency in
    /// wall-clock **microseconds** since node start
    /// (`decision_latency`) to `observers[s]`. Protocol-level events
    /// are reported by the protocol instances themselves.
    pub observers: Vec<ObserverHandle>,
}

/// Spawns one OS thread hosting `shards.len()` independent protocol
/// instances multiplexed over one transport endpoint: every physical
/// node runs one replica of *every* consensus group.
///
/// * `inbox` — frames from the transport's receive side, split with
///   [`codec::frame_messages`] and dispatched message by message to
///   the shard their [`codec::tag_shard`] envelope names. A malformed
///   frame or envelope is dropped, and so is traffic for a shard this
///   node does not host (reported to the observer).
/// * `transport` — used for this node's sends (self-sends included).
///   One protocol step's sends are tagged with their shard, grouped per
///   destination and handed to [`Transport::send_many`] as a burst.
///
/// Between events the thread parks in `select!` on the inbox and the
/// control channel until a message arrives, either channel
/// disconnects, or the earliest armed timer is due.
///
/// # Panics
///
/// Panics if `shards` is empty, the instances disagree on their process
/// id, or `opts.observers` does not have one entry per shard.
pub(crate) fn spawn_node<V, P, T>(
    mut shards: Vec<P>,
    inbox: Receiver<(ProcessId, Bytes)>,
    transport: T,
    opts: NodeOptions<V>,
) -> NodeHandle<V>
where
    V: Value,
    P: Protocol<V> + 'static,
    T: Transport,
{
    assert!(!shards.is_empty(), "a node hosts at least one shard");
    let id = shards[0].id();
    assert!(
        shards.iter().all(|s| s.id() == id),
        "all shard instances on one node share its process id"
    );
    assert_eq!(opts.observers.len(), shards.len(), "one observer per shard");
    let (control_tx, control_rx) = crossbeam::channel::unbounded::<Control<V>>();
    let join = thread::Builder::new()
        .name(format!("twostep-node-{id}"))
        .spawn(move || {
            let mut node = NodeCtx {
                id,
                transport,
                wall_delta: opts.wall_delta,
                timers: Timers::default(),
                shared: opts.shared,
                decided: vec![false; shards.len()],
                obs: opts.observers,
                started: Instant::now(),
            };
            for (s, shard) in shards.iter_mut().enumerate() {
                let mut eff = Effects::new();
                shard.on_start(&mut eff);
                node.apply(s as u32, eff.drain());
            }

            loop {
                // Fire the timers due by now first, in deadline order.
                let now = Instant::now();
                while let Some((s, t)) = node.timers.pop_due(now) {
                    let mut eff = Effects::new();
                    shards[s as usize].on_timer(t, &mut eff);
                    node.apply(s, eff);
                }
                // With no timer armed, wait for traffic alone.
                let wait = node.timers.next_deadline().map_or(WallDuration::MAX, |at| {
                    at.saturating_duration_since(Instant::now())
                });

                crossbeam::channel::select! {
                    recv(inbox) -> msg => match msg {
                        Ok((from, payload)) => {
                            // A frame may carry many messages; a
                            // malformed frame is dropped whole, a
                            // malformed message only itself. The
                            // messages are iterated in place — no
                            // per-message allocation on the hot path.
                            if let Ok(msgs) = codec::frame_messages(&payload) {
                                for m in msgs {
                                    node.dispatch(&mut shards, from, m);
                                }
                            }
                        }
                        Err(_) => break, // transport torn down
                    },
                    recv(control_rx) -> ctl => match ctl {
                        Ok(Control::ProposeAt(s, v)) => {
                            if let Some(shard) = shards.get_mut(s as usize) {
                                let mut eff = Effects::new();
                                shard.on_propose(v, &mut eff);
                                node.apply(s, eff);
                            }
                        }
                        Ok(Control::Shutdown) | Err(_) => break,
                    },
                    default(wait) => {}
                }
            }
        })
        .expect("spawn node thread");

    NodeHandle {
        control: control_tx,
        join: Some(join),
    }
}

/// A node's armed protocol timers, keyed by `(shard, timer)`.
#[derive(Default)]
struct Timers {
    /// Deadline min-heap. An entry is live only while `armed` still
    /// maps its key to its deadline: a re-arm or a cancel leaves the
    /// old entry behind, and it is discarded when it reaches the top.
    heap: BinaryHeap<Reverse<(Instant, u32, TimerId)>>,
    /// The current deadline of every armed timer.
    armed: HashMap<(u32, TimerId), Instant>,
}

impl Timers {
    /// Arms `key` for `at`, replacing any earlier deadline it had.
    fn arm(&mut self, key: (u32, TimerId), at: Instant) {
        self.armed.insert(key, at);
        self.heap.push(Reverse((at, key.0, key.1)));
    }

    fn cancel(&mut self, key: (u32, TimerId)) {
        self.armed.remove(&key);
    }

    /// The earliest live deadline, discarding invalidated entries on
    /// the way.
    fn next_deadline(&mut self) -> Option<Instant> {
        while let Some(&Reverse((at, s, t))) = self.heap.peek() {
            if self.armed.get(&(s, t)) == Some(&at) {
                return Some(at);
            }
            self.heap.pop();
        }
        None
    }

    /// Disarms and returns the earliest timer if it is due by `now`.
    fn pop_due(&mut self, now: Instant) -> Option<(u32, TimerId)> {
        if self.next_deadline()? > now {
            return None;
        }
        let Reverse((_, s, t)) = self.heap.pop()?;
        self.armed.remove(&(s, t));
        Some((s, t))
    }
}

/// The per-thread engine state shared by every effect application.
struct NodeCtx<V, T> {
    id: ProcessId,
    transport: T,
    wall_delta: WallDuration,
    timers: Timers,
    shared: Arc<ClusterShared<V>>,
    decided: Vec<bool>,
    obs: Vec<ObserverHandle>,
    started: Instant,
}

impl<V: Value, T: Transport> NodeCtx<V, T> {
    /// Routes one decoded-off-the-wire payload to its shard's instance.
    ///
    /// The payload is a borrowed slice into the transport frame: shard
    /// untagging ([`codec::split_shard_ref`]) and message decoding both
    /// read it in place, so dispatch allocates nothing beyond what the
    /// decoded message itself owns.
    fn dispatch<P: Protocol<V>>(&mut self, shards: &mut [P], from: ProcessId, payload: &[u8]) {
        let Ok((shard, inner)) = codec::split_shard_ref(payload) else {
            return; // missing or truncated shard envelope: drop it
        };
        let Some(instance) = shards.get_mut(shard as usize) else {
            // Traffic for a group this node does not host — a peer with
            // a different shard map. Observable, not fatal.
            self.obs[0].message_dropped(self.id, from);
            return;
        };
        if let Ok(decoded) = codec::from_bytes::<P::Message>(inner) {
            let mut eff = Effects::new();
            instance.on_message(from, decoded, &mut eff);
            self.apply(shard, eff);
        }
    }

    fn apply<M: std::fmt::Debug + serde::Serialize>(&mut self, shard: u32, eff: Effects<V, M>) {
        let s = shard as usize;
        for v in eff.decisions {
            let at = Instant::now();
            if !self.decided[s] {
                self.decided[s] = true;
                // Wall-clock latency since node start, in microseconds.
                let us = at.duration_since(self.started).as_micros();
                self.obs[s].decision_latency(self.id, u64::try_from(us).unwrap_or(u64::MAX));
            }
            self.shared.route_decision(self.id, shard, v, at);
        }
        // Group the step's sends per destination (preserving each
        // destination's order) so a coalescing transport can flush one
        // burst per peer instead of one frame per message.
        let mut by_dest: Vec<(ProcessId, Vec<Bytes>)> = Vec::new();
        for (to, msg) in eff.sends {
            match codec::to_bytes(&msg) {
                Ok(bytes) => {
                    if self.obs[s].is_attached() {
                        self.obs[s].bytes_sent(self.id, &msg_kind(&msg), bytes.len());
                    }
                    let payload = codec::tag_shard(shard, &Bytes::from(bytes));
                    match by_dest.iter_mut().find(|(d, _)| *d == to) {
                        Some((_, burst)) => burst.push(payload),
                        None => by_dest.push((to, vec![payload])),
                    }
                }
                Err(_) => {
                    // Unencodable messages indicate a bug in the value
                    // type; drop rather than poison the node.
                    debug_assert!(false, "failed to encode outgoing message");
                }
            }
        }
        for (to, burst) in by_dest {
            self.transport.send_many(self.id, to, burst);
        }
        for (timer, delay) in eff.timer_sets {
            let wall = self
                .wall_delta
                .mul_f64(delay.units() as f64 / DELTA.units() as f64);
            self.timers.arm((shard, timer), Instant::now() + wall);
        }
        for timer in eff.timer_cancels {
            self.timers.cancel((shard, timer));
        }
    }
}

/// The wire kind of a message: its `Debug` rendering up to the first
/// payload delimiter (`(`, `{` or space) — e.g. `Vote(…)` → `"Vote"`.
fn msg_kind<M: std::fmt::Debug>(msg: &M) -> String {
    let full = format!("{msg:?}");
    let cut = full
        .find(['(', '{', ' '])
        .map(|i| full[..i].trim_end().to_string());
    cut.unwrap_or(full)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::DecideEvent;
    use crate::transport::InMemoryTransport;
    use serde::{Deserialize, Serialize};

    #[derive(Debug, Clone, Serialize, Deserialize)]
    struct Echo(u64);

    /// Decides any proposed value; echoes messages back to the sender;
    /// decides 999 when its timer fires.
    #[derive(Debug)]
    struct Toy {
        me: ProcessId,
        decided: Option<u64>,
    }

    impl Protocol<u64> for Toy {
        type Message = Echo;
        fn id(&self) -> ProcessId {
            self.me
        }
        fn on_start(&mut self, eff: &mut Effects<u64, Echo>) {
            eff.set_timer(TimerId(9), twostep_types::Duration::deltas(4));
        }
        fn on_propose(&mut self, v: u64, eff: &mut Effects<u64, Echo>) {
            self.decided = Some(v);
            eff.decide(v);
        }
        fn on_message(&mut self, from: ProcessId, m: Echo, eff: &mut Effects<u64, Echo>) {
            if m.0 < 10 {
                eff.send(from, Echo(m.0 + 100));
            } else {
                self.decided = Some(m.0);
                eff.decide(m.0);
            }
        }
        fn on_timer(&mut self, _: TimerId, eff: &mut Effects<u64, Echo>) {
            if self.decided.is_none() {
                self.decided = Some(999);
                eff.decide(999);
            }
        }
        fn decision(&self) -> Option<u64> {
            self.decided
        }
    }

    /// One step of a [`Scripted`] proposal.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        /// Arm timer `.0` for `.1` Δ from now; re-arming moves it.
        Arm(u64, u64),
        Cancel(u64),
        /// Hold the node thread, so that armed timers fall due together.
        Busy(WallDuration),
    }

    /// Runs `script[v]` when `v` is proposed; decides `t` each time
    /// timer `t` fires.
    #[derive(Debug)]
    struct Scripted {
        me: ProcessId,
        script: Vec<Vec<Step>>,
    }

    impl Protocol<u64> for Scripted {
        type Message = Echo;
        fn id(&self) -> ProcessId {
            self.me
        }
        fn on_start(&mut self, _: &mut Effects<u64, Echo>) {}
        fn on_propose(&mut self, v: u64, eff: &mut Effects<u64, Echo>) {
            for step in &self.script[v as usize] {
                match *step {
                    Step::Arm(t, d) => {
                        eff.set_timer(TimerId(t), twostep_types::Duration::deltas(d));
                    }
                    Step::Cancel(t) => eff.cancel_timer(TimerId(t)),
                    Step::Busy(d) => thread::sleep(d),
                }
            }
        }
        fn on_message(&mut self, _: ProcessId, _: Echo, _: &mut Effects<u64, Echo>) {}
        fn on_timer(&mut self, t: TimerId, eff: &mut Effects<u64, Echo>) {
            eff.decide(t.0);
        }
        fn decision(&self) -> Option<u64> {
            None
        }
    }

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    /// Decision state for `shards` groups over `n` nodes, plus a tap
    /// that sees every decision the nodes route into it.
    fn decisions(shards: usize, n: usize) -> (Arc<ClusterShared<u64>>, Receiver<DecideEvent<u64>>) {
        let shared = ClusterShared::new(shards, n);
        let tap = shared.subscribe();
        (shared, tap)
    }

    /// A node hosting `instances`, routing decisions into `shared`.
    fn spawn_with<P: Protocol<u64> + 'static>(
        instances: Vec<P>,
        inbox: Receiver<(ProcessId, Bytes)>,
        transport: InMemoryTransport,
        wall_delta: WallDuration,
        shared: &Arc<ClusterShared<u64>>,
    ) -> NodeHandle<u64> {
        let observers = vec![ObserverHandle::none(); instances.len()];
        spawn_node(
            instances,
            inbox,
            transport,
            NodeOptions {
                wall_delta,
                shared: Arc::clone(shared),
                observers,
            },
        )
    }

    /// A node hosting `shards` independent `Toy` instances.
    fn spawn_toy(
        me: ProcessId,
        shards: usize,
        inbox: Receiver<(ProcessId, Bytes)>,
        transport: InMemoryTransport,
        wall_delta: WallDuration,
        shared: &Arc<ClusterShared<u64>>,
    ) -> NodeHandle<u64> {
        let toys = (0..shards).map(|_| Toy { me, decided: None }).collect();
        spawn_with(toys, inbox, transport, wall_delta, shared)
    }

    /// A one-shard node running `script`, and a tap on its decisions.
    fn spawn_scripted(
        script: Vec<Vec<Step>>,
        wall_delta: WallDuration,
    ) -> (NodeHandle<u64>, Receiver<DecideEvent<u64>>) {
        let (transport, mut inboxes) = InMemoryTransport::new(1);
        let (shared, tap) = decisions(1, 1);
        let me = p(0);
        let node = spawn_with(
            vec![Scripted { me, script }],
            inboxes.remove(0),
            transport,
            wall_delta,
            &shared,
        );
        (node, tap)
    }

    fn propose(node: &NodeHandle<u64>, shard: u32, v: u64) {
        node.control().send(Control::ProposeAt(shard, v)).unwrap();
    }

    /// `msg` encoded in its shard envelope, as a node sends it.
    fn wire(shard: u32, msg: Echo) -> Bytes {
        codec::tag_shard(shard, &Bytes::from(codec::to_bytes(&msg).unwrap()))
    }

    const DELTA_10MS: WallDuration = WallDuration::from_millis(10);

    #[test]
    fn propose_reaches_protocol_and_decision_reported() {
        let (transport, mut inboxes) = InMemoryTransport::new(1);
        let (shared, drx) = decisions(1, 1);
        let node = spawn_toy(p(0), 1, inboxes.remove(0), transport, DELTA_10MS, &shared);
        propose(&node, 0, 42);
        let (who, shard, v, _) = drx.recv_timeout(WallDuration::from_secs(5)).unwrap();
        assert_eq!((who, shard, v), (p(0), 0, 42));
    }

    #[test]
    fn messages_roundtrip_through_codec_and_transport() {
        let (transport, mut inboxes) = InMemoryTransport::new(2);
        let (shared, drx) = decisions(1, 2);
        let rx1 = inboxes.pop().unwrap();
        let rx0 = inboxes.pop().unwrap();
        let _n0 = spawn_toy(p(0), 1, rx0, transport.clone(), DELTA_10MS, &shared);
        let _n1 = spawn_toy(p(1), 1, rx1, transport.clone(), DELTA_10MS, &shared);
        // Inject Echo(5) to node 1 as if from node 0: node 1 replies
        // Echo(105) to node 0, which decides 105.
        transport.send(p(0), p(1), wire(0, Echo(5)));
        let (who, _, v, _) = drx.recv_timeout(WallDuration::from_secs(5)).unwrap();
        assert_eq!((who, v), (p(0), 105));
    }

    #[test]
    fn coalesced_inbox_frames_are_dispatched_per_message() {
        let (transport, mut inboxes) = InMemoryTransport::new(1);
        let (shared, drx) = decisions(1, 1);
        let _node = spawn_toy(
            p(0),
            1,
            inboxes.remove(0),
            transport.clone(),
            DELTA_10MS,
            &shared,
        );
        // Two deciding messages coalesced into one transport payload:
        // both must reach the protocol, in order.
        transport.send_many(p(0), p(0), vec![wire(0, Echo(11)), wire(0, Echo(12))]);
        let (_, _, v1, _) = drx.recv_timeout(WallDuration::from_secs(5)).unwrap();
        let (_, _, v2, _) = drx.recv_timeout(WallDuration::from_secs(5)).unwrap();
        assert_eq!((v1, v2), (11, 12));
    }

    #[test]
    fn sharded_node_routes_proposals_and_tags_decisions() {
        let (transport, mut inboxes) = InMemoryTransport::new(1);
        let (shared, drx) = decisions(3, 1);
        let node = spawn_toy(p(0), 3, inboxes.remove(0), transport, DELTA_10MS, &shared);
        propose(&node, 2, 7);
        let (who, shard, v, _) = drx.recv_timeout(WallDuration::from_secs(5)).unwrap();
        assert_eq!((who, shard, v), (p(0), 2, 7));
        // Proposals to unhosted shards are dropped, not crashed.
        propose(&node, 9, 1);
        propose(&node, 1, 3);
        let (_, shard, v, _) = drx.recv_timeout(WallDuration::from_secs(5)).unwrap();
        assert_eq!((shard, v), (1, 3));
    }

    #[test]
    fn sharded_nodes_tag_wire_traffic_per_shard() {
        let (transport, mut inboxes) = InMemoryTransport::new(2);
        let (shared, drx) = decisions(2, 2);
        let rx1 = inboxes.pop().unwrap();
        let rx0 = inboxes.pop().unwrap();
        let _n0 = spawn_toy(p(0), 2, rx0, transport.clone(), DELTA_10MS, &shared);
        let _n1 = spawn_toy(p(1), 2, rx1, transport.clone(), DELTA_10MS, &shared);
        // Inject Echo(5) tagged for shard 1 of node 1, as if from node 0:
        // node 1's shard 1 replies Echo(105), tagged for shard 1, and
        // node 0's shard 1 decides 105.
        transport.send(p(0), p(1), wire(1, Echo(5)));
        let (who, shard, v, _) = drx.recv_timeout(WallDuration::from_secs(5)).unwrap();
        assert_eq!((who, shard, v), (p(0), 1, 105));
    }

    #[test]
    fn timer_fires_at_wall_deadline() {
        let (transport, mut inboxes) = InMemoryTransport::new(1);
        let (shared, drx) = decisions(1, 1);
        let started = Instant::now();
        // Δ = 5ms → timer at 20ms.
        let delta = WallDuration::from_millis(5);
        let _node = spawn_toy(p(0), 1, inboxes.remove(0), transport, delta, &shared);
        let (_, _, v, at) = drx.recv_timeout(WallDuration::from_secs(5)).unwrap();
        assert_eq!(v, 999);
        let elapsed = at.duration_since(started);
        assert!(
            elapsed >= WallDuration::from_millis(15),
            "fired too early: {elapsed:?}"
        );
    }

    /// Δ long enough that a descheduled test thread cannot let a timer
    /// fall due before the next proposal reaches the node.
    const DELTA_50MS: WallDuration = WallDuration::from_millis(50);

    #[test]
    fn rearming_a_timer_moves_its_deadline() {
        let (node, tap) = spawn_scripted(
            vec![
                vec![Step::Arm(1, 2)],
                vec![Step::Arm(1, 8), Step::Arm(2, 4)],
            ],
            DELTA_50MS,
        );
        propose(&node, 0, 0);
        let rearmed = Instant::now();
        propose(&node, 0, 1);
        // Timer 1's first deadline (2Δ) passes unfired: timer 2 (4Δ)
        // comes first, then timer 1 at its new deadline (8Δ), once.
        let (_, _, first, _) = tap.recv_timeout(WallDuration::from_secs(5)).unwrap();
        assert_eq!(first, 2, "timer 1 fired at its old deadline");
        let (_, _, second, at) = tap.recv_timeout(WallDuration::from_secs(5)).unwrap();
        assert_eq!(second, 1);
        let after = at.duration_since(rearmed);
        assert!(after >= DELTA_50MS * 8, "fired {after:?} after the re-arm");
        assert!(tap.recv_timeout(DELTA_50MS * 4).is_err(), "fired twice");
    }

    #[test]
    fn a_cancelled_timer_never_fires() {
        let (node, tap) = spawn_scripted(
            vec![
                vec![Step::Arm(1, 1)],
                vec![Step::Cancel(1), Step::Arm(2, 3)],
            ],
            DELTA_50MS,
        );
        propose(&node, 0, 0);
        propose(&node, 0, 1);
        let (_, _, v, _) = tap.recv_timeout(WallDuration::from_secs(5)).unwrap();
        assert_eq!(v, 2, "the cancelled timer fired");
        assert!(tap.recv_timeout(DELTA_50MS * 4).is_err());
    }

    #[test]
    fn timers_due_together_fire_in_deadline_order() {
        // Timer 1 is armed first and has the smaller id, but timer 2
        // has the earlier deadline; both are due when the busy step
        // hands the thread back.
        let (node, tap) = spawn_scripted(
            vec![
                vec![Step::Arm(1, 2), Step::Arm(2, 1)],
                vec![Step::Busy(DELTA_10MS * 5)],
            ],
            DELTA_10MS,
        );
        propose(&node, 0, 0);
        propose(&node, 0, 1);
        let fired: Vec<u64> = (0..2)
            .map(|_| tap.recv_timeout(WallDuration::from_secs(5)).unwrap().2)
            .collect();
        assert_eq!(fired, [2, 1]);
    }

    #[test]
    fn crash_stops_processing() {
        let (transport, mut inboxes) = InMemoryTransport::new(1);
        let (shared, drx) = decisions(1, 1);
        let mut node = spawn_toy(p(0), 1, inboxes.remove(0), transport, DELTA_10MS, &shared);
        node.crash();
        let _ = node.control().send(Control::ProposeAt(0, 42));
        assert!(drx.recv_timeout(WallDuration::from_millis(300)).is_err());
    }

    #[test]
    fn malformed_frames_are_dropped() {
        // Inputs go straight into the inbox, bypassing the transport's
        // framing. A long Δ keeps the toy's fallback timer out of the
        // way.
        let (inbox_tx, inbox) = crossbeam::channel::unbounded();
        let (transport, _inboxes) = InMemoryTransport::new(1);
        let (shared, drx) = decisions(1, 1);
        let delta = WallDuration::from_secs(10);
        let node = spawn_toy(p(0), 1, inbox, transport, delta, &shared);
        let bare = Bytes::from(codec::to_bytes(&Echo(11)).unwrap());
        let packed = codec::pack_frame(&[wire(0, Echo(12))]);
        let malformed = [
            // Garbage.
            Bytes::from_static(b"\xFF\xFF"),
            // A truncated frame (valid magic, missing body).
            Bytes::from(packed[..6].to_vec()),
            // An unframed message.
            wire(0, Echo(13)),
            // A frame whose message lacks its shard envelope.
            codec::pack_frame(&[bare]),
            // A frame for a shard this node does not host.
            codec::pack_frame(&[wire(7, Echo(14))]),
        ];
        for payload in malformed {
            inbox_tx.send((p(0), payload)).unwrap();
        }
        // A well-formed frame queued behind them is the first decision.
        inbox_tx.send((p(0), packed)).unwrap();
        let (_, _, v, _) = drx.recv_timeout(WallDuration::from_secs(5)).unwrap();
        assert_eq!(v, 12);
        // The node survives and still handles proposals.
        propose(&node, 0, 7);
        let (_, _, v, _) = drx.recv_timeout(WallDuration::from_secs(5)).unwrap();
        assert_eq!(v, 7);
    }
}
