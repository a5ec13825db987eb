//! The benchmark's view of commits.
//!
//! [`StampedKv`] is the state machine every replica runs: it wraps the
//! repository's [`KvStore`] and, on each apply, stamps the command's
//! first apply at any replica into the shared [`Ledger`] (a
//! preallocated, lock-free, first-writer-wins table indexed by command
//! id). This is the only public way to see per-command commit times
//! without one blocked thread per outstanding command.
//!
//! Each replica also keeps the evidence the correctness check reads:
//! commands it applied twice, commands of another shard, and a digest
//! of its apply sequence at every [`CHECKPOINT_EVERY`]-th apply.

use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use twostep_runtime::ShardRouter;
use twostep_smr::{KvCommand, KvOutput, KvStore, Routable, StateMachine};

/// Applies between two digest checkpoints of one replica.
pub const CHECKPOINT_EVERY: u64 = 128;

/// Command ids per segment of the stamp table. Segments are allocated
/// as ids are reserved, so the table's memory follows the commands
/// actually sent, not the most a run could send.
const SEGMENT: usize = 1 << 16;
/// Segments the stamp table can hold (2^28 ids).
const SEGMENTS: usize = 1 << 12;

/// The ledger the next replica built by `StampedKv::default` joins.
/// Replicas are built through `StateMachine: Default`, so the cluster
/// under construction finds its ledger here.
static CURRENT: Mutex<Option<Arc<Ledger>>> = Mutex::new(None);

/// The benchmark's command for id `id` on key number `key`: the id is
/// carried as the value, so every command is unique.
pub fn command(id: u32, key: u32) -> KvCommand {
    KvCommand::put(format!("k{key}"), id.to_string())
}

/// The id [`command`] encoded into `cmd`.
pub fn command_id(cmd: &KvCommand) -> Option<u32> {
    match cmd {
        KvCommand::Put { value, .. } => value.parse().ok(),
        _ => None,
    }
}

/// Shared per-run commit record.
pub struct Ledger {
    epoch: Instant,
    /// First apply per command id, in nanoseconds since `epoch` plus
    /// one; zero means not applied yet. Segment `i` holds ids
    /// `i * SEGMENT..(i + 1) * SEGMENT`.
    first_apply: Box<[OnceLock<Box<[AtomicU64]>>]>,
    router: ShardRouter,
    replicas: Mutex<Vec<Arc<Mutex<Evidence>>>>,
}

impl fmt::Debug for Ledger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ledger").finish_non_exhaustive()
    }
}

/// What one replica saw, for [`check`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Evidence {
    /// The shard of the first command the replica applied.
    pub shard: Option<u32>,
    /// Apply-sequence digests after every [`CHECKPOINT_EVERY`] applies.
    pub checkpoints: Vec<u64>,
    /// Command ids the replica applied more than once.
    pub duplicates: Vec<u32>,
    /// Applied commands whose key routes to another shard.
    pub misrouted: u64,
}

impl Ledger {
    /// An empty ledger over `shards` shards.
    pub fn new(shards: usize) -> Arc<Self> {
        Arc::new(Ledger {
            epoch: Instant::now(),
            first_apply: (0..SEGMENTS).map(|_| OnceLock::new()).collect(),
            router: ShardRouter::new(shards),
            replicas: Mutex::new(Vec::new()),
        })
    }

    /// Makes room for stamping `ids`; call before sending them.
    pub fn reserve(&self, ids: Range<u32>) {
        if ids.is_empty() {
            return;
        }
        let (first, last) = (
            ids.start as usize / SEGMENT,
            (ids.end as usize - 1) / SEGMENT,
        );
        for segment in &self.first_apply[first..=last] {
            segment.get_or_init(|| (0..SEGMENT).map(|_| AtomicU64::new(0)).collect());
        }
    }

    fn slot(&self, id: u32) -> Option<&AtomicU64> {
        let id = id as usize;
        Some(&self.first_apply.get(id / SEGMENT)?.get()?[id % SEGMENT])
    }

    /// Makes this the ledger replicas built from now on join.
    pub fn install(self: &Arc<Self>) {
        *CURRENT.lock().expect("ledger registry poisoned") = Some(Arc::clone(self));
    }

    /// The instant every stamp is relative to.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds from the epoch to now.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// A fresh replica state machine recording into this ledger.
    pub fn replica(self: &Arc<Self>) -> StampedKv {
        let evidence = Arc::new(Mutex::new(Evidence::default()));
        self.replicas
            .lock()
            .expect("replica list poisoned")
            .push(Arc::clone(&evidence));
        StampedKv {
            kv: KvStore::new(),
            ledger: Arc::clone(self),
            evidence,
            seen: Vec::new(),
            shard: None,
            digest: FNV_OFFSET,
            applied: 0,
        }
    }

    /// When command `id` was first applied, in nanoseconds since the
    /// epoch.
    pub fn applied_at(&self, id: u32) -> Option<u64> {
        // Relaxed: the stamp is a statistic and publishes no other data.
        match self.slot(id)?.load(Ordering::Relaxed) {
            0 => None,
            t => Some(t - 1),
        }
    }

    fn stamp(&self, id: u32) {
        let at = self.now_ns().saturating_add(1);
        let slot = self
            .slot(id)
            .expect("command ids are reserved before they are sent");
        let _ = slot.compare_exchange(0, at, Ordering::Relaxed, Ordering::Relaxed);
    }

    /// A copy of every replica's evidence so far.
    pub fn evidence(&self) -> Vec<Evidence> {
        self.replicas
            .lock()
            .expect("replica list poisoned")
            .iter()
            .map(|e| e.lock().expect("evidence poisoned").clone())
            .collect()
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The benchmark's replicated state machine: the repository's
/// [`KvStore`] plus commit stamping and correctness evidence.
pub struct StampedKv {
    kv: KvStore,
    ledger: Arc<Ledger>,
    evidence: Arc<Mutex<Evidence>>,
    /// One bit per command id already applied here.
    seen: Vec<u64>,
    shard: Option<u32>,
    digest: u64,
    applied: u64,
}

impl fmt::Debug for StampedKv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StampedKv")
            .field("applied", &self.applied)
            .field("digest", &self.digest)
            .finish_non_exhaustive()
    }
}

impl Default for StampedKv {
    fn default() -> Self {
        CURRENT
            .lock()
            .expect("ledger registry poisoned")
            .as_ref()
            .expect("a ledger is installed before the cluster is built")
            .replica()
    }
}

impl StateMachine<KvCommand> for StampedKv {
    type Output = KvOutput;

    fn apply(&mut self, cmd: &KvCommand) -> KvOutput {
        if let Some(id) = command_id(cmd) {
            self.ledger.stamp(id);
            let (word, bit) = (id as usize / 64, 1u64 << (id % 64));
            if word >= self.seen.len() {
                self.seen.resize(word + 1, 0);
            }
            if self.seen[word] & bit != 0 {
                self.evidence
                    .lock()
                    .expect("evidence poisoned")
                    .duplicates
                    .push(id);
            }
            self.seen[word] |= bit;
            let shard = self.ledger.router.route(cmd.route_key().as_ref());
            match self.shard {
                None => {
                    self.shard = Some(shard);
                    self.evidence.lock().expect("evidence poisoned").shard = Some(shard);
                }
                Some(s) if s != shard => {
                    self.evidence.lock().expect("evidence poisoned").misrouted += 1;
                }
                Some(_) => {}
            }
            self.digest = (self.digest ^ u64::from(id)).wrapping_mul(FNV_PRIME);
        }
        self.applied += 1;
        if self.applied.is_multiple_of(CHECKPOINT_EVERY) {
            self.evidence
                .lock()
                .expect("evidence poisoned")
                .checkpoints
                .push(self.digest);
        }
        self.kv.apply(cmd)
    }
}

/// The correctness check over every replica's evidence: no command
/// applied twice at a replica, no command applied in a shard its key
/// does not route to, and every two replicas of a shard agreeing on
/// their apply sequence up to the last checkpoint both reached.
///
/// Returns one line per violation; empty means correct.
pub fn check(replicas: &[Evidence]) -> Vec<String> {
    let mut violations = Vec::new();
    for (r, e) in replicas.iter().enumerate() {
        for id in &e.duplicates {
            violations.push(format!("replica {r} applied command {id} twice"));
        }
        if e.misrouted > 0 {
            violations.push(format!(
                "replica {r} applied {} commands of another shard",
                e.misrouted
            ));
        }
    }
    for (a, ea) in replicas.iter().enumerate() {
        for (b, eb) in replicas.iter().enumerate().skip(a + 1) {
            if ea.shard.is_none() || ea.shard != eb.shard {
                continue;
            }
            let diverged = ea
                .checkpoints
                .iter()
                .zip(&eb.checkpoints)
                .position(|(x, y)| x != y);
            if let Some(i) = diverged {
                violations.push(format!(
                    "replicas {a} and {b} of shard {} diverge by apply {}",
                    ea.shard.unwrap_or_default(),
                    (i as u64 + 1) * CHECKPOINT_EVERY
                ));
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn apply_all(sm: &mut StampedKv, ids: impl IntoIterator<Item = u32>) {
        for id in ids {
            sm.apply(&command(id, id % 7));
        }
    }

    #[test]
    fn agreeing_replicas_pass() {
        let ledger = Ledger::new(1);
        ledger.reserve(0..512);
        let (mut a, mut b) = (ledger.replica(), ledger.replica());
        apply_all(&mut a, 0..300);
        apply_all(&mut b, 0..200);
        let evidence = ledger.evidence();
        assert_eq!(evidence[0].checkpoints.len(), 2);
        assert_eq!(check(&evidence), Vec::<String>::new());
    }

    #[test]
    fn a_duplicate_apply_goes_red() {
        let ledger = Ledger::new(1);
        ledger.reserve(0..512);
        let mut a = ledger.replica();
        apply_all(&mut a, [1, 2, 3, 2]);
        let violations = check(&ledger.evidence());
        assert_eq!(violations, vec!["replica 0 applied command 2 twice"]);
    }

    #[test]
    fn a_divergent_digest_goes_red() {
        let ledger = Ledger::new(1);
        ledger.reserve(0..512);
        let (mut a, mut b) = (ledger.replica(), ledger.replica());
        apply_all(&mut a, 0..128);
        apply_all(&mut b, (0..128).rev());
        let violations = check(&ledger.evidence());
        assert_eq!(
            violations,
            vec!["replicas 0 and 1 of shard 0 diverge by apply 128"]
        );
    }

    #[test]
    fn replicas_of_different_shards_are_not_compared() {
        let ledger = Ledger::new(4);
        ledger.reserve(0..2000);
        let router = ShardRouter::new(4);
        let shard_of = |id: u32| router.route(format!("k{}", id % 7).as_bytes());
        let (s0, s1) = (
            shard_of(0),
            (1..7).map(shard_of).find(|s| *s != shard_of(0)),
        );
        let s1 = s1.expect("seven keys span two of four shards");
        let ids = |s: u32| (0..2000).filter(move |id| shard_of(*id) == s).take(128);
        let (mut a, mut b) = (ledger.replica(), ledger.replica());
        apply_all(&mut a, ids(s0));
        apply_all(&mut b, ids(s1));
        assert_eq!(check(&ledger.evidence()), Vec::<String>::new());
        let mut c = ledger.replica();
        apply_all(&mut c, [0]);
        apply_all(&mut c, ids(s1).take(1));
        assert_eq!(
            check(&ledger.evidence()),
            vec!["replica 2 applied 1 commands of another shard"]
        );
    }

    #[test]
    fn stamps_exist_only_for_reserved_ids() {
        let ledger = Ledger::new(1);
        ledger.reserve(SEGMENT as u32 - 1..SEGMENT as u32 + 1);
        let mut a = ledger.replica();
        apply_all(&mut a, [SEGMENT as u32 - 1, SEGMENT as u32]);
        assert!(ledger.applied_at(SEGMENT as u32 - 1).is_some());
        assert!(ledger.applied_at(SEGMENT as u32).is_some());
        assert_eq!(ledger.applied_at(0), None);
        assert_eq!(ledger.applied_at(3 * SEGMENT as u32), None);
        assert_eq!(ledger.applied_at(u32::MAX), None);
    }

    #[test]
    fn the_first_apply_wins() {
        let ledger = Ledger::new(1);
        ledger.reserve(0..8);
        let (mut a, mut b) = (ledger.replica(), ledger.replica());
        assert_eq!(ledger.applied_at(5), None);
        apply_all(&mut a, [5]);
        let first = ledger.applied_at(5).expect("stamped");
        std::thread::sleep(std::time::Duration::from_millis(2));
        apply_all(&mut b, [5]);
        assert_eq!(ledger.applied_at(5), Some(first));
    }
}
