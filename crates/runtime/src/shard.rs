//! Sharding: many independent consensus groups, one cluster.
//!
//! A [`Cluster`](crate::Cluster) hash-partitions the key space across
//! `k` independent replica groups with the [`ShardRouter`] below; a
//! one-group cluster is the `k = 1` case. Every physical node hosts one
//! replica of *every* group, multiplexed on one OS thread and one
//! transport endpoint; wire traffic is demultiplexed by the
//! [`codec::tag_shard`](crate::codec::tag_shard) envelope every message
//! carries. Each group's Ω scans a rotated preference order so the
//! group leaders — and with them the fast-path proposal load — spread
//! round-robin across the nodes: shard `s` is led by node `s mod n`.
//!
//! Per-key operations stay totally ordered (same key → same group, one
//! log), while distinct keys in distinct groups commit concurrently —
//! the standard partitioning argument, which preserves each group's
//! `2e+f` fast-path quorum economics unchanged.

/// 64-bit FNV-1a over `bytes` — the router's key hash.
///
/// Chosen for being dependency-free, fast on short keys, and stable: a
/// key's shard must never change across builds or platforms, because a
/// resharded key would split its history across two logs.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// The key→shard map: `shard(key) = fnv1a64(key) mod shards`.
///
/// Total (every byte string maps somewhere), stable (pure function of
/// the bytes) and balanced (FNV-1a spreads short keys well; the router
/// proptests pin a chi-squared bound).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    shards: u32,
}

impl ShardRouter {
    /// A router over `shards` groups.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is 0 or exceeds `u32::MAX`.
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "a cluster has at least one shard");
        let shards = u32::try_from(shards).expect("shard count fits u32");
        ShardRouter { shards }
    }

    /// Number of shards routed over.
    pub fn shards(&self) -> usize {
        self.shards as usize
    }

    /// The shard `key` routes to.
    pub fn route(&self, key: &[u8]) -> u32 {
        (fnv1a64(key) % u64::from(self.shards)) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn router_is_total_and_in_range() {
        let router = ShardRouter::new(8);
        for key in [&b""[..], b"a", b"capital/mx", &[0xFF; 64]] {
            assert!(router.route(key) < 8);
        }
        assert_eq!(ShardRouter::new(1).route(b"anything"), 0);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ShardRouter::new(0);
    }
}
