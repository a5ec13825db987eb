//! Exhaustive-interleaving models of the workspace's concurrency
//! hot spots, checked with the vendored `loom` scheduler
//! (`cargo test -p twostep-analysis --features loom`).
//!
//! These are *extracted models*: the decision structure of the real
//! code re-expressed over `loom` primitives, because the originals are
//! welded to `TcpStream` / `parking_lot` which the model scheduler
//! cannot drive. Each model documents, line by line, which real code
//! path it mirrors; if the real code changes shape, change the model.
#![cfg(feature = "loom")]

use loom::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use loom::sync::{Arc, Mutex};
use loom::thread;

/// Model of `twostep_telemetry::ObserverHandle` attach/detach racing
/// with recording (`crates/telemetry/src/observer.rs`).
///
/// The handle is `Clone` around an `Arc<dyn ProtocolObserver>`; node
/// threads record through their own clones while the owner may drop or
/// detach its handle at any time. The property: a record made through
/// any clone is never lost and never touches a freed observer —
/// ownership, not the detach, controls the observer's lifetime.
#[test]
fn observer_clone_outlives_detach() {
    loom::model(|| {
        // The observer: just a counter of hook invocations.
        let observer = Arc::new(AtomicUsize::new(0));

        // ObserverHandle::new + .clone() handed to a node thread.
        let handle: Option<Arc<AtomicUsize>> = Some(Arc::clone(&observer));
        let node_handle = handle.clone();

        let node = thread::spawn(move || {
            // ObserverHandle::decided + ::recovery_case on the node
            // thread: `if let Some(o) = &self.0 { o.hook(...) }`.
            if let Some(o) = &node_handle {
                o.fetch_add(1, Ordering::SeqCst);
            }
            if let Some(o) = &node_handle {
                o.fetch_add(1, Ordering::SeqCst);
            }
        });

        // Owner detaches (drops its handle) concurrently with the
        // node's recording.
        drop(handle);

        node.join().unwrap();
        // Both records landed: the node's clone kept the observer
        // alive, and no interleaving of the drop can lose an update.
        assert_eq!(observer.load(Ordering::SeqCst), 2);
    });
}

/// Model of a shared observer *registry* being swapped to detached
/// while recorders hold the lock — the pattern used when an engine
/// re-wires telemetry mid-run. Recorders clone the `Arc` out of the
/// registry under the lock and record outside it; the detacher `take`s
/// the slot. The property: every record made through a clone acquired
/// before the detach is counted, and no recorder ever observes a
/// half-detached state.
#[test]
fn observer_registry_swap_is_atomic() {
    loom::model(|| {
        let observer = Arc::new(AtomicUsize::new(0));
        let registry = Arc::new(Mutex::new(Some(Arc::clone(&observer))));

        let recorders: Vec<_> = (0..2)
            .map(|_| {
                let registry = Arc::clone(&registry);
                thread::spawn(move || {
                    // Clone out under the lock, record outside it.
                    let snapshot = registry.lock().unwrap().clone();
                    match snapshot {
                        Some(o) => {
                            o.fetch_add(1, Ordering::SeqCst);
                            1usize
                        }
                        None => 0,
                    }
                })
            })
            .collect();

        let detacher = {
            let registry = Arc::clone(&registry);
            thread::spawn(move || {
                let taken = registry.lock().unwrap().take();
                taken.is_some()
            })
        };

        let recorded: usize = recorders.into_iter().map(|r| r.join().unwrap()).sum();
        let detached = detacher.join().unwrap();

        // The detacher saw the attached observer exactly once.
        assert!(detached, "registry was attached at the start");
        // Count integrity: records through pre-detach clones all
        // landed; recorders that lost the race saw a clean `None`.
        assert_eq!(observer.load(Ordering::SeqCst), recorded);
        assert!(recorded <= 2);
        // Afterwards the registry is stably detached.
        assert!(registry.lock().unwrap().is_none());
    });
}

/// Model of `TcpTransport` flush/redial bookkeeping
/// (`crates/runtime/src/transport.rs`).
///
/// Real shape: each destination has one send queue and one
/// `writer_loop` thread that *exclusively owns* that destination's
/// connection — `send` only enqueues, so no two threads ever race on a
/// `TcpStream`. The writer lazily dials, flushes a coalesced frame,
/// and on write failure drops the dead connection and redials once
/// (after a backoff) before declaring the flush dropped.
///
/// The model: connection ids from a generation counter; generation 0
/// is the pre-established stale connection whose writes always fail,
/// every redial yields a working one. Two threads flush concurrently
/// through one shared slot — deliberately *more* concurrent than the
/// production single-writer discipline, so the bookkeeping is shown
/// sound even without the exclusive-ownership guarantee (and stays
/// sound if a future change reintroduces sharing, the shape this code
/// originally had).
///
/// Checked properties, over every interleaving:
/// * no message is dropped — the single redial always suffices because
///   a fresh dial is never stale;
/// * an unconditional slot-clear on failure is harmless: it costs an
///   extra dial, never a delivery;
/// * the slot ends attached to a *working* connection (the stale
///   generation cannot survive a failed flush).
#[test]
fn transport_retry_never_drops_and_heals_the_slot() {
    struct Net {
        /// `connections[to.index()]`: cached connection generation.
        slot: Mutex<Option<u32>>,
        /// Dial generation counter; `fetch_add` in `connection_to`.
        next_conn: AtomicU32,
        reconnects: AtomicUsize,
        drops: AtomicUsize,
        delivered: AtomicUsize,
    }

    impl Net {
        /// `writer_loop`'s lazy dial: reuse the cached connection or
        /// dial into the empty slot.
        fn connection_to(&self) -> u32 {
            let mut slot = self.slot.lock().unwrap();
            if slot.is_none() {
                *slot = Some(self.next_conn.fetch_add(1, Ordering::SeqCst));
            }
            slot.unwrap()
        }

        /// `writer_loop`'s frame write: generation 0 (the stale
        /// pre-established stream) fails, and failure clears the slot
        /// unconditionally.
        fn try_send_frame(&self) -> bool {
            let conn = self.connection_to();
            let write_ok = conn != 0;
            if !write_ok {
                *self.slot.lock().unwrap() = None;
            }
            write_ok
        }

        /// `writer_loop`'s flush: one redial-and-retry after backoff,
        /// then report reconnected / dropped.
        fn send(&self) {
            if self.try_send_frame() {
                self.delivered.fetch_add(1, Ordering::SeqCst);
                return;
            }
            // (The real code sleeps RECONNECT_BACKOFF here; a model
            // yield stands in for the scheduling opportunity.)
            thread::yield_now();
            if self.try_send_frame() {
                self.reconnects.fetch_add(1, Ordering::SeqCst);
                self.delivered.fetch_add(1, Ordering::SeqCst);
            } else {
                self.drops.fetch_add(1, Ordering::SeqCst);
            }
        }
    }

    loom::model(|| {
        let net = Arc::new(Net {
            // The peer restarted: the cached generation-0 connection is
            // stale and every write on it will fail.
            slot: Mutex::new(Some(0)),
            next_conn: AtomicU32::new(1),
            reconnects: AtomicUsize::new(0),
            drops: AtomicUsize::new(0),
            delivered: AtomicUsize::new(0),
        });

        let senders: Vec<_> = (0..2)
            .map(|_| {
                let net = Arc::clone(&net);
                thread::spawn(move || net.send())
            })
            .collect();
        for s in senders {
            s.join().unwrap();
        }

        let delivered = net.delivered.load(Ordering::SeqCst);
        let drops = net.drops.load(Ordering::SeqCst);
        let reconnects = net.reconnects.load(Ordering::SeqCst);

        // Crash-stop bookkeeping: both messages make it, the bounded
        // retry is actually sufficient.
        assert_eq!(delivered, 2, "a send was lost");
        assert_eq!(drops, 0, "the single retry must absorb a stale connection");
        // At least one sender hit the stale connection and reconnected;
        // both may have, depending on who cloned generation 0.
        assert!((1..=2).contains(&reconnects), "reconnects = {reconnects}");
        // The slot healed: whatever got clobbered along the way, the
        // final cached connection is a working one.
        let final_slot = *net.slot.lock().unwrap();
        assert!(
            matches!(final_slot, Some(c) if c > 0),
            "slot must end on a live connection, got {final_slot:?}"
        );
    });
}

/// Model of the reactor transport's `Doorbell` park/wake handoff
/// (`crates/runtime/src/reactor.rs`).
///
/// Real shape: the reactor thread publishes `sleeping = true`
/// (`Doorbell::sleeping`), *then* rechecks the command channel, and
/// only calls `park_timeout` if it is empty; a sender enqueues a
/// command, *then* `swap`s `sleeping` to false and unparks the reactor
/// thread on observing `true` (`Doorbell::ring`). The claimed
/// invariant, quoted from the doorbell's doc comment: *either the
/// sender observes `sleeping` (and unparks) or the reactor's recheck
/// observes the enqueued command — a command can never be stranded
/// behind a full park.*
///
/// The model collapses one reactor park decision plus two concurrent
/// ringers onto loom primitives. Parking itself is not simulated
/// (vendored loom has no park/unpark); instead the model checks the
/// invariant that makes the real park safe, over every interleaving:
///
/// * if the reactor commits to parking, every command was enqueued
///   after its recheck, so the first ring to run finds `sleeping ==
///   true`, clears it, and unparks — the flag cannot still be set once
///   the senders are done (`sleeping` high after a park with pending
///   work ⇒ the reactor would sleep its full timeout ⇒ lost wakeup);
/// * if the reactor skips the park, its pre-park drain saw the
///   commands, and nothing relies on the ring at all.
///
/// Flipping the publish/recheck order in the model (recheck first,
/// `sleeping.store(true)` second) makes loom find the classic lost
/// wakeup: both senders push and swap a still-false flag, then the
/// reactor publishes, rechecks nothing — schedule `recheck → push →
/// ring → publish → park` strands both commands behind the park.
#[test]
fn reactor_doorbell_never_loses_a_wakeup() {
    struct Doorbell {
        /// `Doorbell::sleeping`.
        sleeping: AtomicBool,
        /// The command channel (`Reactor::cmds`), as a mutexed queue.
        queue: Mutex<Vec<u32>>,
    }

    loom::model(|| {
        let bell = Arc::new(Doorbell {
            sleeping: AtomicBool::new(false),
            queue: Mutex::new(Vec::new()),
        });

        // The reactor's `park()`: publish the sleeping flag, recheck
        // the channel, park only if it is empty. A skipped park lowers
        // the flag and drains (the next loop iteration's `drain_cmds`,
        // folded into the recheck's critical section to keep the
        // schedule tree small); a taken park leaves the flag for
        // `ring` to clear — in the real code the thread is inside
        // `park_timeout` at that point and only an unpark ends the
        // wait promptly. Returns `(parked, drained)`.
        let reactor = {
            let bell = Arc::clone(&bell);
            thread::spawn(move || {
                bell.sleeping.store(true, Ordering::Release);
                let drained = {
                    let mut q = bell.queue.lock().unwrap();
                    if q.is_empty() {
                        return (true, 0); // parked
                    }
                    q.drain(..).count()
                };
                bell.sleeping.store(false, Ordering::Release);
                (false, drained)
            })
        };

        // Two transport handles racing `send` + `ring`; each returns
        // whether its swap observed the sleeping flag (= unpark sent).
        let senders: Vec<_> = (0..2u32)
            .map(|i| {
                let bell = Arc::clone(&bell);
                thread::spawn(move || {
                    bell.queue.lock().unwrap().push(i);
                    bell.sleeping.swap(false, Ordering::AcqRel)
                })
            })
            .collect();

        let (parked, drained) = reactor.join().unwrap();
        let woke = senders
            .into_iter()
            .map(|s| s.join().unwrap())
            .filter(|&w| w)
            .count();

        let pending = bell.queue.lock().unwrap().len();
        // No command evaporates: it is either drained pre-park or still
        // queued for the woken reactor's next iteration.
        assert_eq!(drained + pending, 2, "a command was lost outright");
        if parked {
            // The reactor parked, so both commands arrived after its
            // recheck — the ring protocol must have fired: the flag is
            // down and at least one unpark was delivered. A high flag
            // here is the lost wakeup (nobody will unpark; the queue
            // sits until the poll timeout).
            assert!(
                !bell.sleeping.load(Ordering::Acquire),
                "parked with the sleeping flag still set and {pending} commands pending"
            );
            assert!(woke >= 1, "parked, yet no ring observed the sleeping flag");
        } else {
            // Park skipped: the recheck (or the publish racing ahead of
            // a ring) saw the traffic; the pre-park drain got
            // everything that was in by then.
            assert!(drained >= 1, "skipped the park without seeing a command");
        }
    });
}

/// Model of the vendored channel's blocking `select!` handoff
/// (`vendor/crossbeam/src/lib.rs`), which every node thread parks in.
///
/// Real shape: `select2` makes a pass over both receivers in which
/// `take_or_register` pops a message, or reports the last sender gone,
/// or else registers the selecting thread in the channel's `waiting`
/// list, all in one critical section of that channel's mutex; if the
/// pass finds nothing, the thread parks. `Sender::send` pushes, then
/// drains `waiting` and unparks each thread in one critical section;
/// the last `Sender`'s drop decrements the count, then drains and
/// unparks under the same lock. The claimed invariant: *a send or
/// disconnect after the selector's re-check finds it registered, so a
/// parked selector is always unparked.*
///
/// Parking is not simulated (vendored loom has no park/unpark); the
/// park token is an atomic flag that `unpark` raises. Each wake path
/// runs in its own model, so one path's unpark cannot mask a lost
/// wakeup on the other: a message sent on the first receiver while the
/// second stays connected, and the second receiver's last sender
/// dropped while the first stays empty. Over every interleaving:
///
/// * if the selector commits to parking, the token is raised once the
///   waker is done — the park returns at once or on the unpark;
/// * if it skips the park, it took exactly the event that happened.
///
/// Splitting `take_or_register`'s check and registration into two
/// critical sections makes loom find the lost wakeup: check, then the
/// push and a drain of the still-empty list, then the registration
/// and a park that nothing will end before the deadline.
#[test]
fn select_never_loses_a_wakeup() {
    /// One channel: `(queue, selector registered)` under the channel's
    /// mutex, and the live-sender count.
    struct Channel {
        state: Mutex<(Vec<u32>, bool)>,
        senders: AtomicUsize,
    }

    /// What the selector's pass found: `(receiver, Some(message))`, or
    /// `(receiver, None)` for a disconnect.
    type Taken = Option<(usize, Option<u32>)>;

    for wake_by_send in [true, false] {
        loom::model(move || {
            let chans = Arc::new([0, 1].map(|_| Channel {
                state: Mutex::new((Vec::new(), false)),
                senders: AtomicUsize::new(1),
            }));
            // The selecting thread's park token.
            let token = Arc::new(AtomicBool::new(false));

            // `select2`'s registering pass: `take_or_register` on each
            // receiver in turn; `None` means the thread parks.
            let selector = {
                let chans = Arc::clone(&chans);
                thread::spawn(move || -> Taken {
                    for (i, ch) in chans.iter().enumerate() {
                        let mut st = ch.state.lock().unwrap();
                        if let Some(v) = st.0.pop() {
                            return Some((i, Some(v)));
                        }
                        if ch.senders.load(Ordering::SeqCst) == 0 {
                            return Some((i, None));
                        }
                        st.1 = true;
                    }
                    None
                })
            };

            // `Sender::send` on the first receiver, or the drop of the
            // second receiver's last `Sender`; both end in `wake_all`.
            let waker = {
                let (chans, token) = (Arc::clone(&chans), Arc::clone(&token));
                thread::spawn(move || {
                    let ch = &chans[if wake_by_send { 0 } else { 1 }];
                    if wake_by_send {
                        let mut st = ch.state.lock().unwrap();
                        st.0.push(7);
                        if std::mem::take(&mut st.1) {
                            token.store(true, Ordering::SeqCst);
                        }
                    } else if ch.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
                        let mut st = ch.state.lock().unwrap();
                        if std::mem::take(&mut st.1) {
                            token.store(true, Ordering::SeqCst);
                        }
                    }
                })
            };

            let taken = selector.join().unwrap();
            waker.join().unwrap();
            match taken {
                None => assert!(
                    token.load(Ordering::SeqCst),
                    "parked, and the {} never unparked it",
                    if wake_by_send { "send" } else { "disconnect" }
                ),
                Some(event) => {
                    let expected = if wake_by_send {
                        (0, Some(7))
                    } else {
                        (1, None)
                    };
                    assert_eq!(event, expected, "took an event that never happened");
                }
            }
        });
    }
}
