//! Residential IP pool: the simulated analogue of the Bright Data proxy
//! service the paper uses so queries do not all originate from one
//! non-residential address (§4.1).

use crate::mix::mix64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Domain separator so derived assignment never collides with other
/// consumers of the pool seed.
const ASSIGN_SALT: u64 = 0x1b_9d5a_00d1;

/// A simulated IPv4 address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimIp(pub u32);

impl SimIp {
    pub fn octets(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }
}

impl fmt::Display for SimIp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.octets();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

/// How the pool hands out addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RotationPolicy {
    /// Cycle through the pool in order; maximally even spread.
    RoundRobin,
    /// Independent uniform draw per checkout.
    Random,
}

/// A finite pool of residential addresses with a rotation policy.
#[derive(Debug, Clone)]
pub struct IpPool {
    addrs: Vec<SimIp>,
    policy: RotationPolicy,
    cursor: usize,
    rng: StdRng,
    assign_salt: u64,
}

impl IpPool {
    /// Builds a pool of `size` distinct addresses inside the 100.64/10
    /// carrier-grade NAT block (so they can't collide with anything else in
    /// the simulation), deterministically from `seed`.
    pub fn residential(size: usize, policy: RotationPolicy, seed: u64) -> Self {
        assert!(size >= 1, "pool must hold at least one address");
        assert!(size <= 1 << 22, "pool exceeds the 100.64/10 block");
        let mut rng = StdRng::seed_from_u64(seed);
        // Sample distinct host offsets via a partial shuffle of the block.
        let mut offsets: Vec<u32> = Vec::with_capacity(size);
        let mut seen = std::collections::HashSet::with_capacity(size);
        while offsets.len() < size {
            let off: u32 = rng.gen_range(0..(1 << 22));
            if seen.insert(off) {
                offsets.push(off);
            }
        }
        let base = u32::from_be_bytes([100, 64, 0, 0]);
        let addrs: Vec<SimIp> = offsets.into_iter().map(|o| SimIp(base + o)).collect();
        Self {
            addrs,
            policy,
            cursor: 0,
            rng,
            assign_salt: seed,
        }
    }

    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Checks out the next address according to the rotation policy.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> SimIp {
        match self.policy {
            RotationPolicy::RoundRobin => {
                let ip = self.addrs[self.cursor];
                self.cursor = (self.cursor + 1) % self.addrs.len();
                ip
            }
            RotationPolicy::Random => {
                let i = self.rng.gen_range(0..self.addrs.len());
                self.addrs[i]
            }
        }
    }

    /// All addresses in the pool.
    pub fn addrs(&self) -> &[SimIp] {
        &self.addrs
    }

    /// Pure derived assignment: maps `key` to an address as a function of
    /// the pool seed and `key` alone, independent of checkout history.
    ///
    /// This is what a resumable campaign uses — the address a job's attempt
    /// sees must not depend on how many *other* checkouts happened before
    /// it, or a resumed run that skips completed jobs would route the
    /// remaining work through different source addresses.
    pub fn assign(&self, key: u64) -> SimIp {
        let i = (mix64(self.assign_salt ^ ASSIGN_SALT, &[key]) % self.addrs.len() as u64) as usize;
        self.addrs[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_addresses_are_distinct_and_in_cgn_block() {
        let pool = IpPool::residential(500, RotationPolicy::RoundRobin, 1);
        let mut set = std::collections::HashSet::new();
        for ip in pool.addrs() {
            assert!(set.insert(*ip), "duplicate {ip}");
            let [a, b, _, _] = ip.octets();
            assert_eq!(a, 100);
            assert!((64..128).contains(&b), "{ip} outside 100.64/10");
        }
    }

    #[test]
    fn round_robin_cycles_evenly() {
        let mut pool = IpPool::residential(5, RotationPolicy::RoundRobin, 2);
        let first: Vec<SimIp> = (0..5).map(|_| pool.next()).collect();
        let second: Vec<SimIp> = (0..5).map(|_| pool.next()).collect();
        assert_eq!(first, second);
        assert_eq!(
            first.iter().collect::<std::collections::HashSet<_>>().len(),
            5
        );
    }

    #[test]
    fn random_policy_is_deterministic_in_seed() {
        let mut a = IpPool::residential(50, RotationPolicy::Random, 3);
        let mut b = IpPool::residential(50, RotationPolicy::Random, 3);
        for _ in 0..100 {
            assert_eq!(a.next(), b.next());
        }
    }

    #[test]
    fn random_policy_spreads_load() {
        let mut pool = IpPool::residential(10, RotationPolicy::Random, 4);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..1000 {
            *counts.entry(pool.next()).or_insert(0usize) += 1;
        }
        assert!(counts.len() >= 9, "nearly all addresses used");
        assert!(counts.values().all(|&c| c < 300), "no address dominates");
    }

    #[test]
    fn display_formats_dotted_quad() {
        assert_eq!(
            SimIp(u32::from_be_bytes([100, 64, 1, 2])).to_string(),
            "100.64.1.2"
        );
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_pool_rejected() {
        IpPool::residential(0, RotationPolicy::Random, 0);
    }

    #[test]
    fn assign_is_pure_and_history_independent() {
        let mut pool = IpPool::residential(7, RotationPolicy::RoundRobin, 11);
        let before: Vec<SimIp> = (0..20).map(|k| pool.assign(k)).collect();
        // Churn the rotation cursor.
        for _ in 0..50 {
            pool.next();
        }
        let after: Vec<SimIp> = (0..20).map(|k| pool.assign(k)).collect();
        assert_eq!(before, after, "assign must ignore rotation history");
    }
}
