//! The load: a seeded open-loop Poisson schedule driven fire-and-forget
//! through `ProxyClient::propose`, and a paced closed-loop probe driven
//! through `ProxyClient::submit_and_wait`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use twostep_runtime::ProxyClient;
use twostep_smr::KvCommand;

use crate::ledger::{command, Ledger};

/// Distinct keys commands are drawn from.
pub const KEYS: u32 = 4096;

/// The probe's pace: one closed-loop command every 10 ms (100 cmds/s).
pub const PROBE_PERIOD: Duration = Duration::from_millis(10);

/// How long one probe command may take before it counts as failed.
pub const PROBE_TIMEOUT: Duration = Duration::from_secs(2);

/// SplitMix64: small, seedable and the same on every platform.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform draw from `(0, 1]`.
    fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// One scheduled open-loop command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Due time, in nanoseconds after the phase starts.
    pub at_ns: u64,
    /// The key the command writes.
    pub key: u32,
}

/// Poisson arrivals at `rate` commands per second over `duration`,
/// with uniformly drawn keys; the same seed gives the same schedule.
pub fn poisson_schedule(seed: u64, rate: f64, duration: Duration) -> Vec<Arrival> {
    let mut rng = SplitMix::new(seed);
    let end = duration.as_secs_f64();
    let mut t = 0.0;
    let mut out = Vec::with_capacity((rate * end * 1.1) as usize + 16);
    loop {
        t += -rng.next_unit().ln() / rate;
        if t >= end {
            return out;
        }
        out.push(Arrival {
            at_ns: (t * 1e9) as u64,
            key: (rng.next_u64() % u64::from(KEYS)) as u32,
        });
    }
}

/// Sends `schedule` open loop from the calling thread, command `i`
/// getting id `first_id + i`, and returns how late each send was, in
/// nanoseconds after its due time.
pub fn send_open_loop(
    client: &ProxyClient<KvCommand>,
    schedule: &[Arrival],
    first_id: u32,
    start: Instant,
) -> Vec<u64> {
    let mut late = Vec::with_capacity(schedule.len());
    for (i, a) in schedule.iter().enumerate() {
        let due = start + Duration::from_nanos(a.at_ns);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        late.push(u64::try_from(due.elapsed().as_nanos()).unwrap_or(u64::MAX));
        client.propose(command(first_id + i as u32, a.key));
    }
    late
}

/// One probe command, with times in nanoseconds since the ledger epoch.
#[derive(Debug, Clone, Copy)]
pub struct ProbeSample {
    /// The command id.
    pub id: u32,
    /// Just before `submit_and_wait`.
    pub submit_ns: u64,
    /// Just after `submit_and_wait` returned.
    pub wake_ns: u64,
    /// The round trip `submit_and_wait` measured; `None` if it timed
    /// out.
    pub rtt_ns: Option<u64>,
}

/// Runs the closed-loop probe until `stop` is set: one command per
/// [`PROBE_PERIOD`] tick, ids counting up from `first_id`, keys drawn
/// from `seed`. A command that overruns its tick delays the next one
/// rather than bunching the following ticks up.
pub fn probe(
    client: &ProxyClient<KvCommand>,
    ledger: &Ledger,
    seed: u64,
    first_id: u32,
    max: usize,
    stop: &AtomicBool,
) -> Vec<ProbeSample> {
    let mut rng = SplitMix::new(seed);
    let mut out = Vec::with_capacity(max);
    let mut next = Instant::now();
    while !stop.load(Ordering::Relaxed) && out.len() < max {
        let now = Instant::now();
        if next > now {
            std::thread::sleep(next - now);
        }
        let id = first_id + out.len() as u32;
        let cmd = command(id, (rng.next_u64() % u64::from(KEYS)) as u32);
        let submit_ns = ledger.now_ns();
        let rtt = client.submit_and_wait(cmd, PROBE_TIMEOUT);
        let wake_ns = ledger.now_ns();
        out.push(ProbeSample {
            id,
            submit_ns,
            wake_ns,
            rtt_ns: rtt.map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)),
        });
        next = (next + PROBE_PERIOD).max(Instant::now());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_schedule() {
        let a = poisson_schedule(7, 1500.0, Duration::from_secs(2));
        let b = poisson_schedule(7, 1500.0, Duration::from_secs(2));
        assert_eq!(a, b);
    }

    #[test]
    fn another_seed_gives_another_schedule() {
        let a = poisson_schedule(7, 1500.0, Duration::from_secs(2));
        let b = poisson_schedule(8, 1500.0, Duration::from_secs(2));
        assert_ne!(a, b);
    }

    #[test]
    fn arrivals_are_ordered_and_near_the_rate() {
        let s = poisson_schedule(3, 1000.0, Duration::from_secs(10));
        assert!(s.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        assert!(s.iter().all(|a| a.at_ns < 10_000_000_000 && a.key < KEYS));
        // 10 000 expected; a Poisson count's sd is 100.
        assert!((9_500..=10_500).contains(&s.len()), "{} arrivals", s.len());
    }
}
