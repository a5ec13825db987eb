//! `kvbench`: the repository benchmark (see README.md).
//!
//! ```text
//! kvbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Deploys one workload, drives it from this process (the calling
//! thread is the open-loop generator, one more thread is the
//! closed-loop probe), checks the outputs, prints a human-readable
//! report to stderr and, as the last line of stdout, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer ones. Every result
//! is also appended, stamped, to `kvbench/trajectory.jsonl`.

mod ledger;
mod load;
mod stats;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::io::Write as _;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime};

use twostep_telemetry::{Metrics, MetricsSnapshot, Path};

use crate::ledger::{check, command, Ledger};
use crate::load::{poisson_schedule, probe, send_open_loop, Arrival, ProbeSample, SplitMix};
use crate::stats::{chunked, ladder, rung_p99, rung_passes, Summary, COMMIT_CHUNK, OVER_CHUNKS};
use crate::trace::{reconcile, ProbeStamps, StepTotals};
use crate::workload::{Deployment, Hooks, Workload, WORKLOADS};

/// Cluster builds per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Rungs of the rate ladder, the nominal rate included.
const MAX_RUNGS: usize = 12;
/// How long the nominal phase's commands may take to commit before they
/// count as failed.
const NOMINAL_DRAIN: Duration = Duration::from_secs(2);
/// A rung passes only if all its commands commit this soon after its
/// last send.
const RUNG_DRAIN: Duration = Duration::from_millis(250);
/// A ladder rung passes if any of this many trials at its rate passes,
/// so that a burst of host CPU steal does not end the climb early.
const RUNG_TRIALS: usize = 3;
/// How long the first warm-up commit of a fresh cluster may take.
const WARM_COMMIT_TIMEOUT: Duration = Duration::from_secs(10);
/// Probe commands per chunk for the reported probe latency.
const PROBE_CHUNK: usize = 100;
/// How long a failed ladder trial's backlog may take to drain before the
/// next trial starts.
const TRIAL_RECOVERY: Duration = Duration::from_secs(5);
/// Where results accumulate, one stamped JSON object per line.
const TRAJECTORY: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/trajectory.jsonl");

const USAGE: &str = "usage: kvbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

/// The command line.
#[derive(Debug)]
struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                workload = Some(
                    workload::by_name(&value)
                        .ok_or_else(|| bad(&format!("one of {}", names.join(", "))))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| bad("whole seconds from 1 to 600"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kvbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = if args.trace {
        traced_run(&args)
    } else {
        plain_run(&args)
    };
    match outcome {
        Ok(o) => {
            report(&args, &o);
            // Exit without tearing the cluster down: a top ladder rung
            // may leave a backlog the nodes would drain first.
            std::process::exit(if o.correct { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("kvbench: {}: {e}", args.workload.name);
            std::process::exit(1);
        }
    }
}

/// One reported metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// What a run found.
#[derive(Debug, Default)]
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
    samples: Vec<(&'static str, usize)>,
    violations: Vec<String>,
}

/// The commands one cluster is sent. Id 0 is the warm-up commit, ids
/// `1..=max_probes` the probe's, and open-loop phases take consecutive
/// ids after those as they are drawn.
struct Plan {
    seed: u64,
    max_probes: usize,
    next_id: u32,
}

struct Phase {
    schedule: Vec<Arrival>,
    first_id: u32,
}

/// Seed streams of a run: `WARM`, `NOMINAL`, then the ladder's trials.
const WARM: u64 = 0;
const NOMINAL: u64 = 1;
const PROBE: u64 = u64::MAX;

impl Plan {
    /// A plan whose probe may run for at most `probe_seconds`.
    fn new(seed: u64, probe_seconds: f64) -> Self {
        let max_probes = (probe_seconds * 1.05 / load::PROBE_PERIOD.as_secs_f64()) as usize + 16;
        Plan {
            seed,
            max_probes,
            next_id: 1 + max_probes as u32,
        }
    }

    /// The closed-loop ids: the warm-up commit and the probe's.
    fn closed_ids(&self) -> Range<u32> {
        0..1 + self.max_probes as u32
    }

    /// The probe's `(seed, first id, most commands)`.
    fn probe(&self) -> (u64, u32, usize) {
        (derive(self.seed, PROBE), 1, self.max_probes)
    }

    /// Draws seed stream `stream` as `secs` seconds of arrivals at
    /// `rate`, with fresh ids reserved in `ledger`.
    fn phase(&mut self, ledger: &Ledger, stream: u64, rate: f64, secs: f64) -> Phase {
        let schedule = poisson_schedule(
            derive(self.seed, stream),
            rate,
            Duration::from_secs_f64(secs),
        );
        let first_id = self.next_id;
        self.next_id += schedule.len() as u32;
        ledger.reserve(first_id..self.next_id);
        Phase { schedule, first_id }
    }
}

/// An independent seed for stream `k` of the run seeded `seed`.
fn derive(seed: u64, k: u64) -> u64 {
    SplitMix::new(seed ^ k.wrapping_mul(0xa076_1d64_78bd_642f)).next_u64()
}

/// Builds the workload `times` times, each through its first commit,
/// and keeps the last; returns it with its ledger and every build's
/// set-up time in seconds.
fn set_up(
    w: &Workload,
    plan: &Plan,
    hooks: Option<&Hooks>,
    times: usize,
) -> Result<(Deployment, Arc<Ledger>, Vec<f64>), String> {
    let mut setup_s = Vec::with_capacity(times);
    loop {
        let ledger = Ledger::new(w.shards);
        ledger.reserve(plan.closed_ids());
        let t0 = Instant::now();
        let dep = w.deploy(&ledger, hooks).map_err(|e| e.to_string())?;
        dep.client(w)
            .submit_and_wait(command(0, 0), WARM_COMMIT_TIMEOUT)
            .ok_or("the warm-up commit timed out")?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if setup_s.len() == times {
            return Ok((dep, ledger, setup_s));
        }
    }
}

/// What one open-loop phase measured.
struct PhaseOut {
    /// Scheduled send → first apply, per committed command.
    commit_ms: Vec<f64>,
    sent: usize,
    committed: usize,
    /// How late the generator sent each command.
    late_ns: Vec<u64>,
    probes: Vec<ProbeSample>,
    /// Process CPU time over the phase and its drain.
    cpu_s: f64,
}

impl PhaseOut {
    fn acked(&self) -> impl Iterator<Item = (&ProbeSample, u64)> {
        self.probes.iter().filter_map(|p| Some((p, p.rtt_ns?)))
    }

    fn commands_committed(&self) -> usize {
        self.committed + self.acked().count()
    }
}

/// Sends `phase` open loop (and runs the probe alongside if asked),
/// then waits up to `drain` for every open-loop command to commit.
fn run_phase(
    w: &Workload,
    dep: &Deployment,
    ledger: &Ledger,
    phase: &Phase,
    drain: Duration,
    probe_plan: Option<(u64, u32, usize)>,
) -> PhaseOut {
    let generator = dep.client(w);
    let stop = AtomicBool::new(false);
    let start = Instant::now() + Duration::from_millis(1);
    let cpu0 = cpu_seconds();
    let (late_ns, probes) = std::thread::scope(|s| {
        let prober = probe_plan.map(|(seed, first, max)| {
            let (client, stop) = (dep.client(w), &stop);
            s.spawn(move || probe(&client, ledger, seed, first, max, stop))
        });
        let late = send_open_loop(&generator, &phase.schedule, phase.first_id, start);
        stop.store(true, Ordering::Relaxed);
        let probes = prober.map_or_else(Vec::new, |h| h.join().expect("probe thread panicked"));
        (late, probes)
    });
    let ids = phase.first_id..phase.first_id + phase.schedule.len() as u32;
    await_applied(ledger, ids, Instant::now() + drain);
    let cpu_s = cpu_seconds() - cpu0;
    let start_ns = start.duration_since(ledger.epoch()).as_nanos() as u64;
    let commit_ms: Vec<f64> = phase
        .schedule
        .iter()
        .enumerate()
        .filter_map(|(i, a)| {
            let applied = ledger.applied_at(phase.first_id + i as u32)?;
            Some((applied as f64 - (start_ns + a.at_ns) as f64) / 1e6)
        })
        .collect();
    PhaseOut {
        sent: phase.schedule.len(),
        committed: commit_ms.len(),
        commit_ms,
        late_ns,
        probes,
        cpu_s,
    }
}

/// Waits until every id in `ids` has applied somewhere, or `deadline`.
fn await_applied(ledger: &Ledger, ids: Range<u32>, deadline: Instant) {
    let mut next = ids.start;
    loop {
        while next < ids.end && ledger.applied_at(next).is_some() {
            next += 1;
        }
        if next == ids.end || Instant::now() >= deadline {
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The correctness check: replica evidence plus every acknowledged
/// probe command having been applied.
fn violations(ledger: &Ledger, probes: &[ProbeSample]) -> Vec<String> {
    let mut v = check(&ledger.evidence());
    for p in probes.iter().filter(|p| p.rtt_ns.is_some()) {
        if ledger.applied_at(p.id).is_none() {
            v.push(format!("probe {} was acknowledged but never applied", p.id));
        }
    }
    v
}

/// Seconds of the run given to a phase taking `share` of it.
fn share(args: &Args, share: f64) -> f64 {
    args.seconds as f64 * share
}

/// The end-to-end run: set-up, warm-up, the nominal phase with the
/// probe, then the rate ladder.
fn plain_run(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let mut plan = Plan::new(args.seed, share(args, 0.45));
    let (dep, ledger, setup_s) = set_up(w, &plan, None, SETUPS)?;
    let warm = plan.phase(&ledger, WARM, w.rate, share(args, 0.05));
    run_phase(w, &dep, &ledger, &warm, NOMINAL_DRAIN, None);
    let phase = plan.phase(&ledger, NOMINAL, w.rate, share(args, 0.45));
    let nominal = run_phase(w, &dep, &ledger, &phase, NOMINAL_DRAIN, Some(plan.probe()));
    let peak_rss_mb = peak_rss_mb();
    let commit = Summary::of(nominal.commit_ms.clone());
    let rtt_ms: Vec<f64> = nominal.acked().map(|(_, ns)| ns as f64 / 1e6).collect();
    let rtt = Summary::of(rtt_ms.clone());
    let mut trials = 0;
    let max_rate = ladder(w.rate, MAX_RUNGS, |k, rate| {
        // Trial 0 of rung 0 is the nominal phase itself.
        if k == 0 && rung_passes(&nominal.commit_ms, nominal.committed == nominal.sent) {
            return true;
        }
        (usize::from(k == 0)..RUNG_TRIALS).any(|trial| {
            trials += 1;
            let stream = 2 + (k * RUNG_TRIALS + trial) as u64;
            let phase = plan.phase(&ledger, stream, rate, share(args, 0.04));
            let out = run_phase(w, &dep, &ledger, &phase, RUNG_DRAIN, None);
            let passed = rung_passes(&out.commit_ms, out.committed == out.sent);
            eprintln!(
                "kvbench: rung {k} trial {trial} at {rate:.0} cmds/s: p99 {:.3} ms, {}/{} \
                 committed in time: {}",
                rung_p99(&out.commit_ms),
                out.committed,
                out.sent,
                if passed { "pass" } else { "fail" }
            );
            if !passed {
                // Let the backlog drain so the next trial starts clean.
                let ids = phase.first_id..phase.first_id + phase.schedule.len() as u32;
                await_applied(&ledger, ids, Instant::now() + TRIAL_RECOVERY);
            }
            passed
        })
    })
    .unwrap_or(0.0);
    flag_late_generator(&nominal);
    report_tails(&[("commit", &commit), ("probe rtt", &rtt)]);
    let violations = violations(&ledger, &nominal.probes);
    let timed_out = nominal.probes.len() - nominal.acked().count();
    Ok(Outcome {
        correct: violations.is_empty(),
        attempted: nominal.sent + nominal.probes.len(),
        failed: nominal.sent - nominal.committed + timed_out,
        metrics: vec![
            (
                "commit_p50_ms",
                chunked(&nominal.commit_ms, COMMIT_CHUNK, 5000, OVER_CHUNKS),
                "ms",
            ),
            (
                "probe_rtt_p50_ms",
                chunked(&rtt_ms, PROBE_CHUNK, 5000, OVER_CHUNKS),
                "ms",
            ),
            ("max_rate_cps", max_rate, "cmd/s"),
            ("setup_s", Summary::of(setup_s).p50, "s"),
            ("peak_rss_mb", peak_rss_mb, "MB"),
        ],
        samples: vec![
            ("commit", commit.n),
            ("probe", rtt.n),
            ("setups", SETUPS),
            ("rung_trials", trials),
        ],
        violations,
    })
}

/// The traced run: the nominal phase once untraced and once through
/// the wrapper and observers on a fresh cluster, same seed; per-layer
/// metrics come from the traced pass.
fn traced_run(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    // Each pass gets a fresh plan, so both draw the same phases: same
    // seed, streams and ids.
    let fresh_plan = || Plan::new(args.seed, share(args, 0.4));
    let warm_up = |plan: &mut Plan, dep: &Deployment, ledger: &Ledger| {
        let warm = plan.phase(ledger, WARM, w.rate, share(args, 0.05));
        run_phase(w, dep, ledger, &warm, NOMINAL_DRAIN, None);
        plan.phase(ledger, NOMINAL, w.rate, share(args, 0.4))
    };

    let mut plan = fresh_plan();
    let (dep, ledger, _) = set_up(w, &plan, None, 1)?;
    let phase = warm_up(&mut plan, &dep, &ledger);
    let untraced = run_phase(w, &dep, &ledger, &phase, NOMINAL_DRAIN, Some(plan.probe()));
    let mut found = violations(&ledger, &untraced.probes);
    drop(dep);

    let mut plan = fresh_plan();
    let hooks = Hooks {
        metrics: Arc::new(Metrics::new()),
        probes: Arc::new(ProbeStamps::new(plan.closed_ids().len())),
        totals: Arc::new(StepTotals::default()),
    };
    let (dep, ledger, _) = set_up(w, &plan, Some(&hooks), 1)?;
    let phase = warm_up(&mut plan, &dep, &ledger);
    let (cpu0, t0) = (cpu_seconds(), Instant::now());
    std::thread::sleep(Duration::from_secs_f64(share(args, 0.05).max(1.0)));
    let idle_cores = (cpu_seconds() - cpu0) / t0.elapsed().as_secs_f64();
    let (snap0, totals0) = (hooks.metrics.snapshot(), hooks.totals.read());
    let traced = run_phase(w, &dep, &ledger, &phase, NOMINAL_DRAIN, Some(plan.probe()));
    let (snap1, totals1) = (hooks.metrics.snapshot(), hooks.totals.read());
    flag_late_generator(&traced);
    found.extend(violations(&ledger, &traced.probes));

    // Per-probe stages, stamped outside each layer.
    let (mut propose_wait, mut propose_decide, mut apply_wake) = (vec![], vec![], vec![]);
    for (p, rtt_ns) in traced.acked() {
        let applied = ledger.applied_at(p.id);
        if let Some(a) = applied {
            apply_wake.push(p.wake_ns.saturating_sub(a) as f64 / 1e3);
        }
        let (proposed, decided) = (hooks.probes.proposed(p.id), hooks.probes.decided(p.id));
        if let Some(t) = proposed {
            propose_wait.push(t as f64 / 1e3 - p.submit_ns as f64 / 1e3);
        }
        if let (Some(t), Some(d)) = (proposed, decided) {
            propose_decide.push(d as f64 / 1e3 - t as f64 / 1e3);
        }
        if w.reconcile {
            match (proposed, decided, applied) {
                (Some(t), Some(d), Some(a)) => {
                    found.extend(reconcile(p.id, &[p.submit_ns, t, d, a, p.wake_ns], rtt_ns));
                }
                _ => found.push(format!("probe {}: a stage stamp is missing", p.id)),
            }
        }
    }

    let cmds = traced.commands_committed().max(1) as f64;
    let counts = Counts::between(&snap0, &snap1);
    let slots = counts.slot_events as f64 / w.live() as f64;
    let (steps, busy_ns) = (totals1.0 - totals0.0, totals1.1 - totals0.1);
    let commit_p50 = |o: &PhaseOut| chunked(&o.commit_ms, COMMIT_CHUNK, 5000, OVER_CHUNKS);
    let late = Summary::of(traced.late_ns.iter().map(|&n| n as f64 / 1e6).collect());
    let untraced_commit = Summary::of(untraced.commit_ms.clone());
    let untraced_rtt = Summary::of(untraced.acked().map(|(_, ns)| ns as f64 / 1e6).collect());
    report_tails(&[
        ("untraced commit", &untraced_commit),
        ("untraced probe rtt", &untraced_rtt),
    ]);
    let wake = Summary::of(apply_wake);
    let metrics = vec![
        ("bench.commit_p99_ms", untraced_commit.p99, "ms"),
        ("bench.probe_rtt_p99_ms", untraced_rtt.p99, "ms"),
        ("bench.gen_late_p99_ms", late.p99, "ms"),
        (
            "bench.cpu_ms_per_cmd",
            untraced.cpu_s * 1e3 / untraced.commands_committed().max(1) as f64,
            "ms",
        ),
        (
            "runtime.node.propose_wait_p50_us",
            Summary::of(propose_wait).p50,
            "us",
        ),
        ("runtime.node.idle_cpu_cores", idle_cores, "cores"),
        (
            "runtime.node.handler_us_per_cmd",
            busy_ns as f64 / 1e3 / cmds,
            "us",
        ),
        ("runtime.node.steps_per_cmd", steps as f64 / cmds, "count"),
        ("runtime.cluster.apply_to_wake_p50_us", wake.p50, "us"),
        ("runtime.cluster.apply_to_wake_p99_us", wake.p99, "us"),
        (
            "core.propose_to_decide_p50_us",
            Summary::of(propose_decide).p50,
            "us",
        ),
        (
            "smr.cmds_per_slot",
            counts.slot_cmds as f64 / counts.slot_events.max(1) as f64,
            "count",
        ),
        ("smr.queue_depth_p99", snap1.queue_depth.p99 as f64, "count"),
        (
            "core.fast_share",
            counts.fast as f64 / (counts.fast + counts.slow).max(1) as f64,
            "frac",
        ),
        (
            "core.slow_per_kslot",
            counts.slow as f64 * 1e3 / slots.max(1.0),
            "1/kslot",
        ),
        (
            "core.recovery_per_kslot",
            counts.recoveries as f64 * 1e3 / slots.max(1.0),
            "1/kslot",
        ),
        (
            "core.ballots_per_slot",
            counts.ballots as f64 / slots.max(1.0),
            "1/slot",
        ),
        ("core.leader_changes", counts.leader_changes as f64, "count"),
        (
            "runtime.codec.msgs_per_cmd",
            counts.codec_msgs as f64 / cmds,
            "count",
        ),
        (
            "runtime.codec.bytes_per_cmd",
            counts.codec_bytes as f64 / cmds,
            "B",
        ),
        (
            "runtime.transport.wire_bytes_per_cmd",
            counts.wire_bytes as f64 / cmds,
            "B",
        ),
        (
            "runtime.transport.reconnects",
            counts.reconnects as f64,
            "count",
        ),
        ("runtime.transport.drops", counts.drops as f64, "count"),
        (
            "trace.overhead_frac",
            commit_p50(&traced) / commit_p50(&untraced) - 1.0,
            "frac",
        ),
    ];
    let timed_out = traced.probes.len() - traced.acked().count();
    Ok(Outcome {
        correct: found.is_empty(),
        attempted: traced.sent + traced.probes.len(),
        failed: traced.sent - traced.committed + timed_out,
        metrics,
        samples: vec![
            ("commit", traced.committed),
            ("untraced_commit", untraced.committed),
            ("probe", traced.acked().count()),
            ("apply_to_wake", wake.n),
            ("steps", steps as usize),
        ],
        violations: found,
    })
}

/// Observer counts accumulated between two snapshots.
#[derive(Debug, Default)]
struct Counts {
    fast: u64,
    /// Slow-path decisions, whichever way phase one chose the value.
    slow: u64,
    recoveries: u64,
    ballots: u64,
    leader_changes: u64,
    /// `batch_committed` reports (one per slot per live replica) and
    /// the commands they carried.
    slot_events: u64,
    slot_cmds: u64,
    codec_msgs: u64,
    codec_bytes: u64,
    wire_bytes: u64,
    reconnects: u64,
    drops: u64,
}

impl Counts {
    fn between(a: &MetricsSnapshot, b: &MetricsSnapshot) -> Self {
        let decided = |p: Path| b.decided(p) - a.decided(p);
        let batch_sum =
            |s: &MetricsSnapshot| (s.batch_size.mean * s.batch_size.count as f64).round();
        let (mut codec_msgs, mut codec_bytes, mut wire_bytes) = (0, 0, 0);
        for (kind, after) in &b.bytes_by_kind {
            let before = a.bytes_by_kind.get(kind).copied().unwrap_or_default();
            if kind == "wire" {
                wire_bytes += after.bytes - before.bytes;
            } else {
                codec_msgs += after.messages - before.messages;
                codec_bytes += after.bytes - before.bytes;
            }
        }
        Counts {
            fast: decided(Path::Fast),
            slow: decided(Path::Slow) + decided(Path::RecoveryGt) + decided(Path::RecoveryEq),
            recoveries: b.recovery_cases.iter().sum::<u64>() - a.recovery_cases.iter().sum::<u64>(),
            ballots: b.ballot_advances - a.ballot_advances,
            leader_changes: b.leader_changes - a.leader_changes,
            slot_events: b.batch_size.count - a.batch_size.count,
            slot_cmds: (batch_sum(b) - batch_sum(a)) as u64,
            codec_msgs,
            codec_bytes,
            wire_bytes,
            reconnects: b.reconnects - a.reconnects,
            drops: b.dropped - a.dropped,
        }
    }
}

/// Prints each distribution's p99 and highest supported percentile to
/// stderr: the tails are too unsteady on a shared host to gate on (see
/// README.md), so the end-to-end result line leaves them out.
fn report_tails(tails: &[(&str, &Summary)]) {
    for (what, s) in tails {
        eprintln!(
            "kvbench: {what}: p99 {:.4} ms; highest supported percentile p{} = {:.4} ms over {} samples",
            s.p99,
            s.tail_pct as f64 / 100.0,
            s.tail,
            s.n
        );
    }
}

/// Warns when the generator ran late enough to distort the load.
fn flag_late_generator(phase: &PhaseOut) {
    let late = Summary::of(phase.late_ns.iter().map(|&n| n as f64 / 1e6).collect());
    if late.p99 > 1.0 {
        eprintln!(
            "kvbench: warning: the generator ran late (p99 {:.3} ms over {} sends)",
            late.p99, late.n
        );
    }
}

/// Process CPU time (user + system, every thread), in seconds.
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the whole line, in clock ticks of 1/100 s.
    let rest = stat.rfind(')').map_or("", |i| &stat[i + 1..]);
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

/// The process's peak resident set so far, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A JSON number: non-finite values (a metric without samples) print
/// as 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// A JSON string literal.
fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line the contract asks for.
fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                num(*v),
                quote(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

/// Output of `program args`, trimmed, if it ran and succeeded.
fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The result stamped with where, on what and from which inputs it was
/// measured, as one JSON object.
fn stamped(args: &Args, o: &Outcome, result: &str) -> String {
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map_or_else(|_| "unknown".into(), |h| h.trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    // An explicit --git-dir: outside a git checkout, git must not find
    // some enclosing repository instead.
    let git_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../.git");
    let commit = command_output("git", &["--git-dir", git_dir, "rev-parse", "HEAD"])
        .unwrap_or_else(|| "unknown".into());
    let rustc = command_output("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let unix_s = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let samples: Vec<String> = o
        .samples
        .iter()
        .map(|(k, n)| format!("{}: {n}", quote(k)))
        .collect();
    format!(
        "{{\"unix_s\": {unix_s}, \"host\": {}, \"nproc\": {nproc}, \"commit\": {}, \"rustc\": {}, \
         \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"samples\": {{{}}}, \
         \"violations\": {}, \"result\": {result}}}",
        quote(&host),
        quote(&commit),
        quote(&rustc),
        quote(args.workload.name),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        samples.join(", "),
        o.violations.len(),
    )
}

/// Prints the human-readable report to stderr, appends the stamped
/// result to the trajectory, and prints the result line last on stdout.
fn report(args: &Args, o: &Outcome) {
    let result = result_json(o);
    let mut text = format!(
        "kvbench {} seed {} ({} s, trace {})\n",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (name, v, unit) in &o.metrics {
        let _ = writeln!(text, "  {name:<40} {v:>14.4} {unit}");
    }
    let samples: Vec<String> = o.samples.iter().map(|(k, n)| format!("{k}={n}")).collect();
    let _ = writeln!(text, "  samples: {}", samples.join(" "));
    let _ = writeln!(text, "  attempted {} failed {}", o.attempted, o.failed);
    for v in o.violations.iter().take(20) {
        let _ = writeln!(text, "  VIOLATION: {v}");
    }
    eprint!("{text}");
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(TRAJECTORY)
        .and_then(|mut f| writeln!(f, "{}", stamped(args, o, &result)));
    if let Err(e) = appended {
        eprintln!("kvbench: warning: could not append to {TRAJECTORY}: {e}");
    }
    println!("{result}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn the_command_line_is_checked() {
        let a = args("--workload slowpath-degraded --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.trace),
            ("slowpath-degraded", 7, 20, true)
        );
        assert!(args("--workload nope --seed 7 --seconds 20").is_err());
        assert!(args("--workload slowpath-degraded --seed x --seconds 20").is_err());
        assert!(args("--workload slowpath-degraded --seed 7 --seconds 0").is_err());
        assert!(args("--workload slowpath-degraded --seed 7 --seconds 20 --trace 2").is_err());
        assert!(args("--workload slowpath-degraded --seconds 20").is_err());
        assert!(args("--workload").is_err());
    }

    #[test]
    fn plans_are_seeded_and_ids_do_not_overlap() {
        let ledger = Ledger::new(1);
        let (mut a, mut b) = (Plan::new(5, 1.0), Plan::new(5, 1.0));
        assert_eq!(a.closed_ids(), 0..a.max_probes as u32 + 1);
        let (a0, a1) = (
            a.phase(&ledger, 0, 1000.0, 1.0),
            a.phase(&ledger, 1, 2000.0, 0.5),
        );
        let (b0, b1) = (
            b.phase(&ledger, 0, 1000.0, 1.0),
            b.phase(&ledger, 1, 2000.0, 0.5),
        );
        assert_eq!((a0.first_id, &a0.schedule), (b0.first_id, &b0.schedule));
        assert_eq!((a1.first_id, &a1.schedule), (b1.first_id, &b1.schedule));
        assert_ne!(a0.schedule, a1.schedule);
        assert_eq!(a0.first_id, a.closed_ids().end);
        assert_eq!(
            a1.first_id as usize,
            a0.first_id as usize + a0.schedule.len()
        );
        let last = a1.first_id + a1.schedule.len() as u32 - 1;
        assert_eq!(ledger.applied_at(last), None, "reserved, not yet applied");
    }

    #[test]
    fn the_result_line_has_the_contract_keys() {
        let o = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("setup_s", 0.25, "s"), ("x", f64::NAN, "ms")],
            ..Outcome::default()
        };
        assert_eq!(
            result_json(&o),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \"x\": {\"value\": 0, \"unit\": \"ms\"}}}"
        );
    }
}
