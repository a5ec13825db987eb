//! The traced run's view from outside the layers: a transparent
//! [`Protocol`] wrapper around each replica, and the reconciliation of
//! a probe command's stages against its measured round trip.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use twostep_smr::KvCommand;
use twostep_types::protocol::{Effects, Protocol, TimerId};
use twostep_types::ProcessId;

use crate::ledger::{command_id, Ledger};

/// Per-probe stamps taken inside the proxy's protocol calls, indexed by
/// command id, in nanoseconds since the ledger epoch plus one (zero:
/// not seen). Ids past the table (open-loop commands) are not stamped.
#[derive(Debug)]
pub struct ProbeStamps {
    /// `on_propose` of the probe command at the proxy.
    proposed: Box<[AtomicU64]>,
    /// Start of the proxy step whose effects decided the command.
    decided: Box<[AtomicU64]>,
}

impl ProbeStamps {
    /// Stamps for ids `0..count`.
    pub fn new(count: usize) -> Self {
        let zeros = || (0..count).map(|_| AtomicU64::new(0)).collect();
        ProbeStamps {
            proposed: zeros(),
            decided: zeros(),
        }
    }

    fn stamp(table: &[AtomicU64], id: u32, at: u64) {
        if let Some(s) = table.get(id as usize) {
            // Relaxed: a statistic that publishes no other data.
            let _ = s.compare_exchange(0, at + 1, Ordering::Relaxed, Ordering::Relaxed);
        }
    }

    fn read(table: &[AtomicU64], id: u32) -> Option<u64> {
        match table.get(id as usize)?.load(Ordering::Relaxed) {
            0 => None,
            t => Some(t - 1),
        }
    }

    /// When the proxy's `on_propose` saw probe `id`.
    pub fn proposed(&self, id: u32) -> Option<u64> {
        Self::read(&self.proposed, id)
    }

    /// When the proxy step that decided probe `id` started.
    pub fn decided(&self, id: u32) -> Option<u64> {
        Self::read(&self.decided, id)
    }
}

/// Totals over every wrapped protocol call at every replica.
#[derive(Debug, Default)]
pub struct StepTotals {
    /// Calls into the wrapped protocol.
    pub steps: AtomicU64,
    /// Nanoseconds spent inside them.
    pub busy_ns: AtomicU64,
}

impl StepTotals {
    /// `(steps, busy_ns)` so far.
    pub fn read(&self) -> (u64, u64) {
        (
            self.steps.load(Ordering::Relaxed),
            self.busy_ns.load(Ordering::Relaxed),
        )
    }
}

/// A transparent wrapper timing every call into `P` and, at the proxy,
/// stamping the probe commands' propose and decide steps.
#[derive(Debug)]
pub struct Traced<P> {
    inner: P,
    is_proxy: bool,
    ledger: Arc<Ledger>,
    probes: Arc<ProbeStamps>,
    totals: Arc<StepTotals>,
}

impl<P> Traced<P> {
    /// Wraps `inner`; `is_proxy` marks the replica clients submit to.
    pub fn new(
        inner: P,
        is_proxy: bool,
        ledger: Arc<Ledger>,
        probes: Arc<ProbeStamps>,
        totals: Arc<StepTotals>,
    ) -> Self {
        Traced {
            inner,
            is_proxy,
            ledger,
            probes,
            totals,
        }
    }

    fn step<M>(
        &mut self,
        eff: &mut Effects<KvCommand, M>,
        call: impl FnOnce(&mut P, &mut Effects<KvCommand, M>),
    ) {
        let start = self.ledger.now_ns();
        let before = eff.decisions.len();
        call(&mut self.inner, eff);
        let end = self.ledger.now_ns();
        self.totals.steps.fetch_add(1, Ordering::Relaxed);
        self.totals
            .busy_ns
            .fetch_add(end.saturating_sub(start), Ordering::Relaxed);
        if self.is_proxy {
            for id in eff.decisions[before..].iter().filter_map(command_id) {
                ProbeStamps::stamp(&self.probes.decided, id, start);
            }
        }
    }
}

impl<P: Protocol<KvCommand>> Protocol<KvCommand> for Traced<P> {
    type Message = P::Message;

    fn id(&self) -> ProcessId {
        self.inner.id()
    }

    fn on_start(&mut self, eff: &mut Effects<KvCommand, P::Message>) {
        self.step(eff, |p, eff| p.on_start(eff));
    }

    fn on_propose(&mut self, cmd: KvCommand, eff: &mut Effects<KvCommand, P::Message>) {
        if self.is_proxy {
            if let Some(id) = command_id(&cmd) {
                let at = self.ledger.now_ns();
                ProbeStamps::stamp(&self.probes.proposed, id, at);
            }
        }
        self.step(eff, |p, eff| p.on_propose(cmd, eff));
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: P::Message,
        eff: &mut Effects<KvCommand, P::Message>,
    ) {
        self.step(eff, |p, eff| p.on_message(from, msg, eff));
    }

    fn on_timer(&mut self, timer: TimerId, eff: &mut Effects<KvCommand, P::Message>) {
        self.step(eff, |p, eff| p.on_timer(timer, eff));
    }

    fn decision(&self) -> Option<KvCommand> {
        self.inner.decision()
    }
}

/// How far a probe's stage sum may stray from the round trip
/// `submit_and_wait` measured itself: the stages are read on the
/// calling thread just outside that call, so they differ from its own
/// clock by the call's entry and exit plus any preemption in between.
pub const RECONCILE_SLACK_NS: u64 = 1_000_000;

/// One probe command's stage boundaries, in nanoseconds since the
/// ledger epoch: submit, the proxy's `on_propose`, the start of the
/// proxy step that decided it, its first apply at any replica, and the
/// client's wake-up.
pub type Stages = [u64; 5];

/// Stage names, one per interval between consecutive boundaries.
pub const STAGE_NAMES: [&str; 4] = [
    "submit->propose",
    "propose->decide",
    "decide->apply",
    "apply->wake",
];

/// Checks that a probe's stages are contiguous and non-negative and sum
/// to its measured round trip within [`RECONCILE_SLACK_NS`]; returns
/// what is wrong, if anything.
pub fn reconcile(id: u32, stages: &Stages, rtt_ns: u64) -> Option<String> {
    if let Some(i) = (0..4).find(|&i| stages[i + 1] < stages[i]) {
        return Some(format!(
            "probe {id}: stage {} is negative ({} ns)",
            STAGE_NAMES[i],
            stages[i + 1] as i128 - stages[i] as i128
        ));
    }
    let sum = stages[4] - stages[0];
    if sum.abs_diff(rtt_ns) > RECONCILE_SLACK_NS {
        return Some(format!(
            "probe {id}: stages sum to {sum} ns but the round trip was {rtt_ns} ns"
        ));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_stages_reconcile() {
        assert_eq!(reconcile(1, &[100, 150, 400, 420, 600], 500), None);
        assert_eq!(reconcile(1, &[100, 100, 100, 100, 100], 0), None);
    }

    #[test]
    fn a_negative_stage_goes_red() {
        let err = reconcile(2, &[100, 150, 400, 390, 600], 500).expect("red");
        assert!(err.contains("decide->apply is negative (-10 ns)"), "{err}");
    }

    #[test]
    fn a_sum_off_the_round_trip_goes_red() {
        let rtt = 500 + RECONCILE_SLACK_NS + 1;
        let err = reconcile(3, &[100, 150, 400, 420, 600], rtt).expect("red");
        assert!(err.contains("sum to 500 ns"), "{err}");
    }

    #[test]
    fn stamps_are_first_writer_wins_and_bounded() {
        let stamps = ProbeStamps::new(2);
        ProbeStamps::stamp(&stamps.proposed, 1, 5);
        ProbeStamps::stamp(&stamps.proposed, 1, 9);
        ProbeStamps::stamp(&stamps.proposed, 2, 9);
        assert_eq!(stamps.proposed(1), Some(5));
        assert_eq!(stamps.proposed(0), None);
        assert_eq!(stamps.proposed(2), None);
        assert_eq!(stamps.decided(1), None);
    }
}
