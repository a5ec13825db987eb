//! Thread-per-process deployment harness.
//!
//! This crate runs the *same* protocol state machines that the
//! simulator and model checker drive, but on real OS threads with real
//! time and (optionally) real TCP sockets:
//!
//! * [`codec`] — a compact binary serde format for wire messages (the
//!   sanctioned dependency set has no serialization-format crate).
//! * [`Transport`] — pluggable byte transport: [`InMemoryTransport`]
//!   (crossbeam channels), [`TcpTransport`] (blocking writer threads,
//!   length-prefixed frames over localhost or the network) and
//!   [`ReactorTransport`] (one non-blocking event-loop thread owning
//!   every socket, vectored writes, reusable read buffers).
//!   Every payload on every backend is one [`codec::pack_frame`]
//!   frame of [`codec::tag_shard`]-enveloped messages.
//! * A node — one OS thread per process hosting one protocol instance
//!   per consensus group: an event loop multiplexing network traffic,
//!   client proposals and wall-clock timers (protocol timer delays are
//!   virtual `Δ` units scaled by a configurable wall-clock `Δ`).
//! * [`Cluster`] — `n` nodes × `k` hash-partitioned consensus groups
//!   over one transport (round-robin group leaders, a
//!   `(shard, value)`-keyed waiter registry); a one-group deployment is
//!   the `k = 1` case. It exposes the client's view: clients, awaited
//!   decisions per `(shard, process)`, crashes.
//! * [`ClusterBuilder`] — the one construction path (transport choice,
//!   emulated link latency, observer, batching/pipeline/shard knobs),
//!   including batteries-included SMR deployments via
//!   [`ClusterBuilder::build_smr`] and
//!   [`ClusterBuilder::build_sharded_smr`].
//! * [`ProxyClient`] — a closed-loop client with one proxy per group:
//!   submit a command, wait for its commit, measure per-command
//!   (amortized) latency.
//!
//! Design note: the runtime deliberately contains *no protocol logic* —
//! crash injection is thread shutdown, timeouts are the protocol's own
//! timers, and all ordering comes from the transport. Anything verified
//! about the state machines in `twostep-verify` therefore carries over.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod cluster;
pub mod codec;
mod error;
mod node;
mod proxy;
mod reactor;
pub mod shard;
mod transport;

pub use builder::ClusterBuilder;
pub use cluster::{Cluster, ShardedCluster};
pub use error::RuntimeError;
pub use proxy::ProxyClient;
pub use reactor::ReactorTransport;
pub use shard::{fnv1a64, ShardRouter};
pub use transport::{
    InMemoryTransport, TcpTransport, Transport, MAX_COALESCE, MAX_FRAME_LEN, RECONNECT_BACKOFF,
};
