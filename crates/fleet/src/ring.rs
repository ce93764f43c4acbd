//! Consistent-hash ring over clip digests (DESIGN §15).
//!
//! Each shard owns `VNODES` points on a `u64` circle, placed by
//! FNV-1a-hashing `"shard:<s>:vnode:<v>"`. A request's clip digest
//! (FNV-1a over its request body) lands somewhere on the circle; the
//! shard preference order is the distinct shard sequence encountered
//! walking clockwise from that point.
//!
//! Two properties the fleet leans on:
//!
//! - **Determinism independent of up-state.** The preference order is a
//!   pure function of `(digest, shard count)` — worker crashes do not
//!   reshuffle it. The router *skips* down shards (the ring "shrinks")
//!   rather than recomputing placement, so a shard that restarts gets
//!   exactly its old keyspace back and no clip ever changes owner
//!   because an unrelated shard bounced.
//! - **Even-ish spread with cheap lookups.** Virtual nodes smooth the
//!   per-shard load; lookup is a binary search over a few hundred
//!   points, noise next to an inference.

/// Virtual nodes per shard. 64 keeps the worst shard within ~2× of an
/// even split for small fleets (the spread test pins this down) while
/// the ring stays a few hundred points — lookup cost is noise.
pub const VNODES: usize = 64;

/// FNV-1a 64-bit hash — the workspace's standing dependency-free hash
/// (`Tensor::bit_digest` folds f32 words with the same constants).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest a request body into its ring key.
pub fn clip_digest(body: &[u8]) -> u64 {
    fnv64(body)
}

/// SplitMix64 finalizer. FNV-1a of short or similar inputs (vnode
/// labels, small test keys) leaves the high bits correlated, which
/// skews circle placement badly; this avalanche pass fixes the
/// distribution without changing the dependency-free hash itself.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// The ring: sorted `(point, shard)` pairs.
#[derive(Debug, Clone)]
pub struct Ring {
    points: Vec<(u64, usize)>,
    shards: usize,
}

impl Ring {
    /// Builds the ring for `shards` workers.
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1);
        let mut points = Vec::with_capacity(shards * VNODES);
        for s in 0..shards {
            for v in 0..VNODES {
                points.push((mix64(fnv64(format!("shard:{s}:vnode:{v}").as_bytes())), s));
            }
        }
        points.sort_unstable();
        Ring { points, shards }
    }

    /// Number of shards on the ring.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The owning shard for `digest` (head of the preference order).
    pub fn owner(&self, digest: u64) -> usize {
        self.prefer(digest)[0]
    }

    /// The full shard preference order for `digest`: every shard
    /// exactly once, the owner first, fallbacks in clockwise-walk
    /// order. Deterministic and independent of which shards are up.
    pub fn prefer(&self, digest: u64) -> Vec<usize> {
        let key = mix64(digest);
        let start = self
            .points
            .partition_point(|&(p, _)| p < key)
            .min(self.points.len());
        let mut order = Vec::with_capacity(self.shards);
        let mut seen = vec![false; self.shards];
        for i in 0..self.points.len() {
            let (_, s) = self.points[(start + i) % self.points.len()];
            if !seen[s] {
                seen[s] = true;
                order.push(s);
                if order.len() == self.shards {
                    break;
                }
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn preference_covers_every_shard_once() {
        let ring = Ring::new(4);
        for digest in [0u64, 1, u64::MAX, 0xdead_beef, fnv64(b"clip")] {
            let order = ring.prefer(digest);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3], "digest {digest:#x}: {order:?}");
        }
    }

    #[test]
    fn preference_is_deterministic() {
        let a = Ring::new(3);
        let b = Ring::new(3);
        for i in 0..64u64 {
            let digest = fnv64(&i.to_le_bytes());
            assert_eq!(a.prefer(digest), b.prefer(digest));
        }
    }

    #[test]
    fn vnodes_spread_ownership() {
        let ring = Ring::new(4);
        let mut counts = [0usize; 4];
        for i in 0..4096u64 {
            counts[ring.owner(fnv64(&i.to_le_bytes()))] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            // Even split would be 1024 each; vnode smoothing should keep
            // every shard within a loose factor of that.
            assert!(
                c > 400 && c < 2048,
                "shard {s} owns {c} of 4096 keys: {counts:?}"
            );
        }
    }

    #[test]
    fn single_shard_ring_always_prefers_it() {
        let ring = Ring::new(1);
        assert_eq!(ring.prefer(12345), vec![0]);
    }
}
