//! Seeded chaos injection for the message-passing runtime.
//!
//! A [`ChaosSpec`] describes probabilistic faults — message drop,
//! duplication, reordering delay, and spontaneous worker crash — that the
//! [`Router`](crate::router::Router) applies to *data-plane* sends once
//! armed. Every decision is a pure function of the seed plus a stable
//! coordinate (per-link message sequence number, or
//! `(worker, iteration, attempt)` for crashes), so a chaos run is
//! bit-identical across executions regardless of thread interleaving.
//!
//! Faults are applied at the wire, not interpreted by the master: a
//! dropped reply is *detected* by the master's receive deadline, exactly
//! like a lost task result in a real cluster. Metering stays exact — a
//! dropped message still crossed the network and is recorded; a
//! duplicated message is recorded twice.

/// Probabilistic fault-injection specification.
///
/// Probabilities are per *data-plane message* (drop/dup/delay) or per
/// *compute attempt* (crash). All zero (the [`Default`]) means no
/// injection even when armed.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ChaosSpec {
    /// Seed for every chaos decision.
    pub seed: u64,
    /// Probability a message is dropped in flight.
    pub drop_p: f64,
    /// Probability a message is delivered twice.
    pub dup_p: f64,
    /// Probability a message is held back and delivered *after* the next
    /// message on the same link (reordering).
    pub delay_p: f64,
    /// Probability a worker crashes (panics) when starting a compute
    /// attempt.
    pub crash_p: f64,
}

/// What the wire does to one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFault {
    /// Deliver normally.
    Deliver,
    /// Drop: metered but never enqueued.
    Drop,
    /// Deliver twice (metered twice).
    Duplicate,
    /// Hold back; delivered after the next message on the link.
    Delay,
}

impl ChaosSpec {
    /// A spec that drops/dups/delays with the same probability `p` each
    /// and crashes workers with probability `crash_p` per attempt.
    pub fn uniform(seed: u64, p: f64, crash_p: f64) -> Self {
        Self {
            seed,
            drop_p: p,
            dup_p: p,
            delay_p: p,
            crash_p,
        }
    }

    /// Whether the spec injects anything at all.
    pub fn is_active(&self) -> bool {
        self.drop_p > 0.0 || self.dup_p > 0.0 || self.delay_p > 0.0 || self.crash_p > 0.0
    }

    /// The wire fault for message number `seq` on link `link_hash`.
    ///
    /// Deterministic in `(seed, link_hash, seq)`: per-link sequence
    /// numbers are maintained by the router, so cross-thread interleaving
    /// of different links cannot change any decision.
    pub fn wire_fault(&self, link_hash: u64, seq: u64) -> WireFault {
        let u = unit(mix(self.seed ^ WIRE_DOMAIN, link_hash, seq));
        if u < self.drop_p {
            WireFault::Drop
        } else if u < self.drop_p + self.dup_p {
            WireFault::Duplicate
        } else if u < self.drop_p + self.dup_p + self.delay_p {
            WireFault::Delay
        } else {
            WireFault::Deliver
        }
    }

    /// Whether `worker` crashes on `attempt` of `iteration`.
    ///
    /// Keyed by the attempt number so a respawned worker is not doomed to
    /// crash forever on the same iteration.
    pub fn crash_decision(&self, worker: usize, iteration: u64, attempt: u64) -> bool {
        let coord = (worker as u64) << 48 | attempt << 32 | (iteration & 0xFFFF_FFFF);
        unit(mix(self.seed ^ CRASH_DOMAIN, coord, 0)) < self.crash_p
    }
}

/// Domain separator: wire-fault decisions.
const WIRE_DOMAIN: u64 = 0x57_49_52_45_00_00_00_01;
/// Domain separator: crash decisions.
const CRASH_DOMAIN: u64 = 0x43_52_41_53_48_00_00_02;

/// SplitMix64-style avalanche over the three decision coordinates.
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps 64 random bits to a uniform draw in `[0, 1)`.
fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic() {
        let spec = ChaosSpec::uniform(7, 0.1, 0.05);
        for seq in 0..100 {
            assert_eq!(spec.wire_fault(3, seq), spec.wire_fault(3, seq));
        }
        for it in 0..100 {
            assert_eq!(spec.crash_decision(2, it, 0), spec.crash_decision(2, it, 0));
        }
    }

    #[test]
    fn fault_rates_roughly_match_probabilities() {
        let spec = ChaosSpec {
            seed: 11,
            drop_p: 0.2,
            dup_p: 0.1,
            delay_p: 0.1,
            crash_p: 0.0,
        };
        let n = 20_000u64;
        let mut drops = 0;
        let mut dups = 0;
        let mut delays = 0;
        for seq in 0..n {
            match spec.wire_fault(1, seq) {
                WireFault::Drop => drops += 1,
                WireFault::Duplicate => dups += 1,
                WireFault::Delay => delays += 1,
                WireFault::Deliver => {}
            }
        }
        let frac = |c: u64| c as f64 / n as f64;
        assert!(
            (frac(drops) - 0.2).abs() < 0.02,
            "drop rate {}",
            frac(drops)
        );
        assert!((frac(dups) - 0.1).abs() < 0.02, "dup rate {}", frac(dups));
        assert!(
            (frac(delays) - 0.1).abs() < 0.02,
            "delay rate {}",
            frac(delays)
        );
    }

    #[test]
    fn links_decide_independently() {
        let spec = ChaosSpec::uniform(3, 0.3, 0.0);
        let a: Vec<_> = (0..200).map(|s| spec.wire_fault(1, s)).collect();
        let b: Vec<_> = (0..200).map(|s| spec.wire_fault(2, s)).collect();
        assert_ne!(a, b, "different links should see different fault streams");
    }

    #[test]
    fn crash_keyed_by_attempt() {
        // With crash_p = 0.5 some (worker, iteration) must flip between
        // attempts; a worker is not doomed to crash forever.
        let spec = ChaosSpec {
            seed: 5,
            crash_p: 0.5,
            ..ChaosSpec::default()
        };
        let flips = (0..100)
            .filter(|&it| spec.crash_decision(0, it, 0) != spec.crash_decision(0, it, 1))
            .count();
        assert!(flips > 10, "attempt number must influence crash decisions");
    }

    #[test]
    fn inactive_spec_never_faults() {
        let spec = ChaosSpec {
            seed: 9,
            ..ChaosSpec::default()
        };
        assert!(!spec.is_active());
        for seq in 0..1000 {
            assert_eq!(spec.wire_fault(0, seq), WireFault::Deliver);
        }
        assert!(!spec.crash_decision(0, 0, 0));
    }
}
