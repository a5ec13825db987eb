//! Backend-agnostic transport conformance suite.
//!
//! One parameterized harness runs every scenario against all three
//! transport backends — in-memory channels, blocking TCP, and the
//! non-blocking reactor — pinning the contract the runtime node relies
//! on regardless of which backend a cluster deploys:
//!
//! * **Delivery**: every ordered `(sender, receiver)` pair works,
//!   self-sends included, with the correct sender identity attached.
//! * **FIFO per peer**: one sender's messages toward one receiver
//!   arrive in send order, whether sent singly or in bursts, and
//!   interleaved senders never corrupt each other's order.
//! * **One frame layout**: every inbox payload is a frame, and a
//!   [`Transport::send_many`] burst keeps message boundaries and order;
//!   consumers see individual messages by iterating frames in place
//!   ([`codec::frame_messages`] — exactly what the runtime node does
//!   with every inbox payload).
//! * **Shard-tag routing**: [`codec::tag_shard`] envelopes cross the
//!   wire byte-identically, nested inside coalesced frames, surviving
//!   the socket backends' partial reads.
//! * **Degenerate payloads**: empty and multi-hundred-KiB messages
//!   survive (the latter exercises the reactor's partial-write
//!   resumption and read-buffer growth).
//! * **Frame bounds**: a burst longer than [`MAX_FRAME_LEN`] arrives
//!   whole and in order; the socket backends split it into frames the
//!   read side accepts, and drop (and report) only a message too long
//!   for any frame.
//! * **Retry-once semantics** (socket backends): a send to a dead peer
//!   records exactly one drop per message after the single reconnect
//!   attempt; a live peer that tears down established connections is
//!   healed by redialing under load, observably (`reconnected`).
//!
//! The reconnect regression for the reactor's seeded single-drop case
//! lives here too: with a fault injected at a seed-chosen point in a
//! message stream, nothing is lost and order is preserved.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver};

use twostep_runtime::codec;
use twostep_runtime::{
    InMemoryTransport, ReactorTransport, TcpTransport, Transport, MAX_FRAME_LEN,
};
use twostep_telemetry::{Metrics, ObserverHandle};
use twostep_types::ProcessId;

const RECV_TIMEOUT: Duration = Duration::from_secs(5);

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Backend {
    Memory,
    BlockingTcp,
    Reactor,
}

const ALL_BACKENDS: [Backend; 3] = [Backend::Memory, Backend::BlockingTcp, Backend::Reactor];
const SOCKET_BACKENDS: [Backend; 2] = [Backend::BlockingTcp, Backend::Reactor];

/// A deployed transport fabric: one handle and one inbox per process.
struct Deployment {
    transports: Vec<Box<dyn Transport>>,
    inboxes: Vec<Receiver<(ProcessId, Bytes)>>,
    /// Concrete reactor handles, for fault injection; empty slots on
    /// other backends.
    reactors: Vec<Option<ReactorTransport>>,
}

impl Deployment {
    fn send(&self, from: usize, to: usize, payload: &[u8]) {
        self.transports[from].send(p(from as u32), p(to as u32), Bytes::from(payload.to_vec()));
    }

    fn send_many(&self, from: usize, to: usize, payloads: Vec<Bytes>) {
        self.transports[from].send_many(p(from as u32), p(to as u32), payloads);
    }

    /// Receives at `node` until `n` individual messages have arrived,
    /// iterating coalesced frames in place — the consumer-side contract
    /// shared by every backend (and exactly what the runtime node does).
    fn recv_messages(&self, node: usize, n: usize) -> Vec<(ProcessId, Vec<u8>)> {
        let mut out = Vec::new();
        let deadline = Instant::now() + RECV_TIMEOUT;
        while out.len() < n {
            let left = deadline.saturating_duration_since(Instant::now());
            let (from, payload) = self.inboxes[node]
                .recv_timeout(left)
                .unwrap_or_else(|_| panic!("timed out with {}/{n} messages", out.len()));
            for m in codec::frame_messages(&payload).expect("malformed frame on the wire") {
                out.push((from, m.to_vec()));
            }
        }
        assert_eq!(out.len(), n, "trailing messages beyond the expected {n}");
        out
    }
}

/// Deploys `n` processes over `backend`, all reporting to `obs`.
fn deploy_observed(backend: Backend, n: usize, obs: &ObserverHandle) -> Deployment {
    match backend {
        Backend::Memory => {
            let (transport, inboxes) = InMemoryTransport::new(n);
            Deployment {
                transports: (0..n)
                    .map(|_| Box::new(transport.clone()) as Box<dyn Transport>)
                    .collect(),
                inboxes,
                reactors: (0..n).map(|_| None).collect(),
            }
        }
        Backend::BlockingTcp | Backend::Reactor => {
            let mut listeners = Vec::with_capacity(n);
            let mut addrs = Vec::with_capacity(n);
            for _ in 0..n {
                let (l, a) = TcpTransport::bind_ephemeral().expect("bind");
                listeners.push(l);
                addrs.push(a);
            }
            let mut transports: Vec<Box<dyn Transport>> = Vec::with_capacity(n);
            let mut inboxes = Vec::with_capacity(n);
            let mut reactors = Vec::with_capacity(n);
            for (i, listener) in listeners.into_iter().enumerate() {
                let (tx, rx) = unbounded();
                match backend {
                    Backend::BlockingTcp => {
                        transports.push(Box::new(TcpTransport::spawn(
                            p(i as u32),
                            addrs.clone(),
                            listener,
                            tx,
                            obs.clone(),
                        )));
                        reactors.push(None);
                    }
                    Backend::Reactor => {
                        let t = ReactorTransport::spawn(
                            p(i as u32),
                            addrs.clone(),
                            listener,
                            tx,
                            obs.clone(),
                        )
                        .expect("spawn reactor");
                        transports.push(Box::new(t.clone()));
                        reactors.push(Some(t));
                    }
                    Backend::Memory => unreachable!(),
                }
                inboxes.push(rx);
            }
            Deployment {
                transports,
                inboxes,
                reactors,
            }
        }
    }
}

fn deploy(backend: Backend, n: usize) -> Deployment {
    deploy_observed(backend, n, &ObserverHandle::none())
}

#[test]
fn conformance_delivery_every_ordered_pair() {
    for backend in ALL_BACKENDS {
        let n = 3;
        let d = deploy(backend, n);
        for from in 0..n {
            for to in 0..n {
                d.send(from, to, format!("{from}->{to}").as_bytes());
            }
        }
        for to in 0..n {
            let mut got = d.recv_messages(to, n);
            got.sort();
            let want: Vec<(ProcessId, Vec<u8>)> = (0..n)
                .map(|from| (p(from as u32), format!("{from}->{to}").into_bytes()))
                .collect();
            assert_eq!(got, want, "{backend:?}: delivery to node {to}");
        }
    }
}

#[test]
fn conformance_fifo_per_peer_across_send_shapes() {
    for backend in ALL_BACKENDS {
        let d = deploy(backend, 2);
        // Mix single sends and bursts; sequence numbers must come out
        // strictly in order regardless of how flushes coalesce them.
        let mut seq = 0u32;
        while seq < 200 {
            if seq.is_multiple_of(3) {
                let burst: Vec<Bytes> = (0..5.min(200 - seq))
                    .map(|k| Bytes::from((seq + k).to_le_bytes().to_vec()))
                    .collect();
                seq += burst.len() as u32;
                d.send_many(0, 1, burst);
            } else {
                d.send(0, 1, &seq.to_le_bytes());
                seq += 1;
            }
        }
        let got = d.recv_messages(1, 200);
        for (i, (from, msg)) in got.iter().enumerate() {
            assert_eq!(*from, p(0));
            let got_seq = u32::from_le_bytes(msg[..4].try_into().unwrap());
            assert_eq!(
                got_seq, i as u32,
                "{backend:?}: message {i} arrived out of order"
            );
        }
    }
}

#[test]
fn conformance_interleaved_senders_keep_their_own_order() {
    for backend in ALL_BACKENDS {
        let n = 3;
        let d = deploy(backend, n);
        for seq in 0..100u32 {
            d.send(0, 1, &seq.to_le_bytes());
            d.send(2, 1, &seq.to_le_bytes());
        }
        let got = d.recv_messages(1, 200);
        let mut next = [0u32; 3];
        for (from, msg) in got {
            let seq = u32::from_le_bytes(msg[..4].try_into().unwrap());
            let f = from.index();
            assert_eq!(
                seq, next[f],
                "{backend:?}: sender {f} delivered out of order"
            );
            next[f] += 1;
        }
        assert_eq!(next, [100, 0, 100]);
    }
}

#[test]
fn conformance_burst_keeps_boundaries_and_order() {
    for backend in ALL_BACKENDS {
        let d = deploy(backend, 2);
        // Variable-size messages, including empty, in one burst.
        let burst: Vec<Bytes> = (0..17u8)
            .map(|i| Bytes::from(vec![i; i as usize]))
            .collect();
        d.send_many(0, 1, burst.clone());
        let got = d.recv_messages(1, burst.len());
        for (want, (from, msg)) in burst.iter().zip(&got) {
            assert_eq!(*from, p(0), "{backend:?}");
            assert_eq!(msg, &want.to_vec(), "{backend:?}: boundary corrupted");
        }
    }
}

#[test]
fn conformance_empty_and_large_payloads_survive() {
    for backend in ALL_BACKENDS {
        let d = deploy(backend, 2);
        d.send(0, 1, b"");
        // Large enough to force several partial writes and read-buffer
        // growth on the socket backends.
        let big: Vec<u8> = (0..300_000u32).map(|i| (i % 251) as u8).collect();
        d.send(0, 1, &big);
        let got = d.recv_messages(1, 2);
        assert_eq!(got[0], (p(0), Vec::new()), "{backend:?}: empty payload");
        assert_eq!(got[1].1.len(), big.len(), "{backend:?}: large payload size");
        assert_eq!(got[1].1, big, "{backend:?}: large payload bytes");
    }
}

#[test]
fn conformance_shard_tags_survive_transit_byte_identically() {
    for backend in ALL_BACKENDS {
        let d = deploy(backend, 2);
        let shards = [0u32, 1, 7, 4096, u32::MAX];
        let burst: Vec<Bytes> = shards
            .iter()
            .map(|&s| {
                let inner = Bytes::from(format!("shard-{s}-payload").into_bytes());
                codec::tag_shard(s, &inner)
            })
            .collect();
        d.send_many(0, 1, burst.clone());
        let got = d.recv_messages(1, shards.len());
        for (i, (&want_shard, (_, msg))) in shards.iter().zip(&got).enumerate() {
            assert_eq!(
                msg,
                &burst[i].to_vec(),
                "{backend:?}: envelope bytes changed"
            );
            let (shard, inner) = codec::split_shard_ref(msg).expect("tagged envelope");
            assert_eq!(shard, want_shard, "{backend:?}: shard id corrupted");
            assert_eq!(
                inner,
                format!("shard-{want_shard}-payload").as_bytes(),
                "{backend:?}: inner payload corrupted"
            );
        }
    }
}

#[test]
fn conformance_bursts_past_the_frame_bound_all_arrive() {
    for backend in ALL_BACKENDS {
        // Any two fit one frame, all three do not.
        let burst: Vec<Bytes> = (0..3u8)
            .map(|i| Bytes::from(vec![i; MAX_FRAME_LEN / 3]))
            .collect();
        let d = deploy(backend, 2);
        d.send_many(0, 1, burst.clone());
        let got = d.recv_messages(1, burst.len());
        for (i, (want, (_, msg))) in burst.iter().zip(&got).enumerate() {
            assert!(msg[..] == want[..], "{backend:?}: message {i} changed");
        }
    }
}

#[test]
fn conformance_message_too_long_for_any_frame_is_dropped_and_reported() {
    for backend in SOCKET_BACKENDS {
        let (metrics, obs) = Metrics::shared();
        let d = deploy_observed(backend, 2, &obs);
        // A frame is an 8-byte header plus a 4-byte length per message.
        let largest = MAX_FRAME_LEN - 12;
        d.send_many(
            0,
            1,
            vec![
                Bytes::from(vec![1u8; largest + 1]),
                Bytes::from(vec![2u8; largest]),
                Bytes::from_static(b"after"),
            ],
        );
        let got = d.recv_messages(1, 2);
        assert_eq!(got[0].1.len(), largest, "{backend:?}: largest message");
        assert_eq!(got[1].1, b"after", "{backend:?}: later message");
        assert_eq!(metrics.snapshot().dropped, 1, "{backend:?}: one drop");
    }
}

#[test]
fn conformance_dead_peer_costs_one_drop_per_message_after_one_retry() {
    for backend in SOCKET_BACKENDS {
        let (metrics, obs) = Metrics::shared();
        // Deploy 2 processes where nothing listens at peer 1's address:
        // both socket backends must record exactly one drop per message
        // after the single reconnect attempt. Port 0 refuses every dial
        // and no listener can hold it; a port bound and released here
        // could be re-bound by a concurrent test, which would then
        // receive these messages.
        let (l0, a0) = TcpTransport::bind_ephemeral().unwrap();
        let a1 = SocketAddr::from(([127, 0, 0, 1], 0));
        let (tx0, _rx0) = unbounded();
        let transport: Box<dyn Transport> = match backend {
            Backend::BlockingTcp => Box::new(TcpTransport::spawn(
                p(0),
                vec![a0, a1],
                l0,
                tx0,
                obs.clone(),
            )),
            Backend::Reactor => {
                Box::new(ReactorTransport::spawn(p(0), vec![a0, a1], l0, tx0, obs.clone()).unwrap())
            }
            Backend::Memory => unreachable!(),
        };
        transport.send_many(
            p(0),
            p(1),
            vec![Bytes::from_static(b"x"), Bytes::from_static(b"y")],
        );
        let deadline = Instant::now() + RECV_TIMEOUT;
        loop {
            let snap = metrics.snapshot();
            if snap.dropped >= 2 {
                assert_eq!(snap.dropped, 2, "{backend:?}: one drop per message");
                assert_eq!(snap.reconnects, 0, "{backend:?}: nothing to reconnect to");
                break;
            }
            assert!(
                Instant::now() < deadline,
                "{backend:?}: drops never recorded (got {})",
                snap.dropped
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

#[test]
fn conformance_reconnect_heals_under_load() {
    for backend in SOCKET_BACKENDS {
        let (metrics, obs) = Metrics::shared();
        let d = deploy_observed(backend, 2, &obs);
        match backend {
            Backend::BlockingTcp => {
                // Established connections to peer 1 are torn down as
                // soon as its (dropped) inbox rejects a delivery; the
                // sender's writer must redial and record the heal.
                drop(d.inboxes.into_iter().nth(1));
                let deadline = Instant::now() + RECV_TIMEOUT;
                loop {
                    d.transports[0].send(p(0), p(1), Bytes::from_static(b"probe"));
                    if metrics.snapshot().reconnects > 0 {
                        break;
                    }
                    assert!(
                        Instant::now() < deadline,
                        "blocking tcp: no reconnect recorded under load"
                    );
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
            Backend::Reactor => {
                // Inject connection failures mid-stream; every message
                // must still arrive, in order, with heals recorded.
                let reactor = d.reactors[0].as_ref().unwrap();
                for seq in 0..100u32 {
                    if seq % 25 == 10 {
                        reactor.inject_write_failure(p(1));
                    }
                    d.send(0, 1, &seq.to_le_bytes());
                }
                let got = d.recv_messages(1, 100);
                for (i, (_, msg)) in got.iter().enumerate() {
                    let seq = u32::from_le_bytes(msg[..4].try_into().unwrap());
                    assert_eq!(seq, i as u32, "reactor: lost or reordered under faults");
                }
                let snap = metrics.snapshot();
                assert!(
                    snap.reconnects > 0,
                    "reactor: injected failures never healed"
                );
                assert_eq!(snap.dropped, 0, "reactor: single faults must not drop");
            }
            Backend::Memory => unreachable!(),
        }
    }
}

/// Seeded reconnect regression: one injected connection drop at a
/// seed-chosen point in a 200-message stream loses nothing and keeps
/// order. Pins the retry-once backoff fix on the reactor path — before
/// it, the in-flight frame died with the connection.
#[test]
fn reactor_seeded_single_drop_loses_no_messages() {
    // Deterministic LCG over the documented seed; change the seed and
    // the injection point moves, the property must hold regardless.
    const SEED: u64 = 0xD1CE_2025;
    let inject_at = {
        let next = SEED
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (next >> 33) % 200
    };
    let (metrics, obs) = Metrics::shared();
    let d = deploy_observed(Backend::Reactor, 2, &obs);
    let reactor = d.reactors[0].as_ref().unwrap();
    for seq in 0..200u64 {
        if seq == inject_at {
            reactor.inject_write_failure(p(1));
        }
        d.send(0, 1, &seq.to_le_bytes());
    }
    let got = d.recv_messages(1, 200);
    for (i, (from, msg)) in got.iter().enumerate() {
        assert_eq!(*from, p(0));
        let seq = u64::from_le_bytes(msg[..8].try_into().unwrap());
        assert_eq!(
            seq, i as u64,
            "message lost or reordered around the injected drop at {inject_at}"
        );
    }
    let snap = metrics.snapshot();
    assert_eq!(snap.dropped, 0, "a single drop must never lose messages");
    assert!(snap.reconnects > 0, "the injected drop was never exercised");
}
