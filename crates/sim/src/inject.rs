//! Deterministic fault injection for exercising recovery paths.
//!
//! A [`FaultInjector`] is a seed-driven plan of faults keyed by *site*
//! (where in the runtime the check happens) and *key* (a caller-chosen
//! identifier such as "epoch 3, graph 1, sample 2"). Because decisions are
//! a pure function of `(seed, site, key)` — never of call order or thread
//! scheduling — an injected fault fires at the same logical point no matter
//! how many rollout workers run, which keeps the fault-tolerance tests
//! deterministic.
//!
//! A plan is a plain value owned by the run it targets: the trainer reads
//! it from `TrainOptions::faults`, the server from `ServeConfig::faults`,
//! and each site asks [`FaultInjector::decide`]. The default plan is empty
//! and never fires, and two runs in one process never see each other's
//! faults.

/// Where in the runtime a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Site {
    /// Per-sample rollout work inside the trainer's rollout engine.
    Rollout,
    /// The trainer's reward evaluation, checked on a reward-cache miss
    /// just before the sample is simulated, keyed by [`rollout_key`].
    Simulator,
    /// Between a periodic snapshot's temp-file write and its atomic
    /// rename, keyed by the snapshot's epoch.
    CheckpointSave,
    /// Per-request work inside a serving replica, keyed by
    /// [`replica_key`] (request fingerprint × replica incarnation).
    ReplicaWork,
    /// The serving io_loop's write pass for one connection, keyed by
    /// connection id.
    ConnWrite,
}

impl Site {
    fn tag(self) -> u64 {
        match self {
            Site::Rollout => 0x524f_4c4c,
            Site::Simulator => 0x5349_4d55,
            Site::CheckpointSave => 0x434b_5054,
            Site::ReplicaWork => 0x5250_4c43,
            Site::ConnWrite => 0x434f_4e4e,
        }
    }
}

/// What to inject when a site/key matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Replace the computed reward with NaN.
    NanReward,
    /// Panic inside the worker (exercises panic isolation).
    WorkerPanic,
    /// Fail the reward's simulation (manifests as a panic in the rollout
    /// worker).
    SimError,
    /// Simulate a crash: the operation stops before completing.
    Kill,
    /// Stall the worker for a fixed pause (exercises queue buildup and
    /// shed policies without killing anything).
    Stall,
    /// Write only a prefix of the pending bytes, then drop the
    /// connection (a torn line the client must survive).
    TornWrite,
    /// Drop the connection before writing anything.
    ConnDrop,
}

impl Fault {
    fn tag(self) -> u64 {
        match self {
            Fault::NanReward => 1,
            Fault::WorkerPanic => 2,
            Fault::SimError => 3,
            Fault::Kill => 4,
            Fault::Stall => 5,
            Fault::TornWrite => 6,
            Fault::ConnDrop => 7,
        }
    }
}

/// Plan-entry key that matches every key at its site.
pub const ANY_KEY: u64 = u64::MAX;

/// A seed-driven fault plan. Build with the fluent [`Self::at`] /
/// [`Self::rate`] and hand it to the run it targets; the default plan is
/// empty.
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    seed: u64,
    plan: Vec<(Site, u64, Fault)>,
    rates: Vec<(Site, Fault, f64)>,
}

impl FaultInjector {
    /// An empty plan with the given decision seed (used by [`Self::rate`]).
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            plan: Vec::new(),
            rates: Vec::new(),
        }
    }

    /// Inject `fault` whenever `site` is reached with `key` ([`ANY_KEY`]
    /// matches every key).
    pub fn at(mut self, site: Site, key: u64, fault: Fault) -> Self {
        self.plan.push((site, key, fault));
        self
    }

    /// Inject `fault` at `site` with probability `p`, decided by hashing
    /// `(seed, site, fault, key)` — scheduling-independent, so the same
    /// keys fault on every run with the same seed. A `p` that is not
    /// positive adds nothing.
    pub fn rate(mut self, site: Site, fault: Fault, p: f64) -> Self {
        if p > 0.0 {
            self.rates.push((site, fault, p));
        }
        self
    }

    /// True if the plan can never fire.
    pub fn is_empty(&self) -> bool {
        self.plan.is_empty() && self.rates.is_empty()
    }

    /// Should a fault fire at `site` for `key`? Pinned entries win, in
    /// the order they were added; then each rate is rolled. `None` for
    /// the empty plan.
    pub fn decide(&self, site: Site, key: u64) -> Option<Fault> {
        for (s, k, f) in &self.plan {
            if *s == site && (*k == ANY_KEY || *k == key) {
                return Some(*f);
            }
        }
        for (s, f, p) in &self.rates {
            if *s == site {
                let h = splitmix64(
                    self.seed
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        .wrapping_add(site.tag())
                        .wrapping_add(f.tag() << 32)
                        ^ key,
                );
                // Top 53 bits as a unit float.
                let u = (h >> 11) as f64 / (1u64 << 53) as f64;
                if u < *p {
                    return Some(*f);
                }
            }
        }
        None
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Stable key for "epoch `epoch`, graph `graph`, sample `sample`" rollout
/// work: 24 bits of epoch, 20 of graph, 20 of sample.
pub fn rollout_key(epoch: u64, graph: usize, sample: usize) -> u64 {
    (epoch << 40) | ((graph as u64 & 0xf_ffff) << 20) | (sample as u64 & 0xf_ffff)
}

/// Stable key for [`Site::ReplicaWork`]: the request fingerprint mixed
/// with the replica's incarnation number. Generation 0 is the raw
/// fingerprint, so a test can target a request's *first* processing by
/// fingerprint alone — and a respawned replica (generation ≥ 1) stops
/// matching, letting the retry of a killed request succeed.
pub fn replica_key(fingerprint: u64, generation: u64) -> u64 {
    fingerprint ^ generation.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_fires() {
        assert_eq!(FaultInjector::default().decide(Site::Rollout, 7), None);
        // A zero rate (an unset `--inject-*` flag) leaves the plan empty.
        let zero = FaultInjector::new(3).rate(Site::Rollout, Fault::NanReward, 0.0);
        assert!(zero.is_empty());
        assert_eq!(zero.decide(Site::Rollout, 7), None);
    }

    #[test]
    fn plan_entries_match_exact_and_wildcard_keys() {
        let plan = FaultInjector::new(0)
            .at(Site::Rollout, 3, Fault::NanReward)
            .at(Site::CheckpointSave, ANY_KEY, Fault::Kill);
        assert_eq!(plan.decide(Site::Rollout, 3), Some(Fault::NanReward));
        assert_eq!(plan.decide(Site::Rollout, 4), None);
        assert_eq!(plan.decide(Site::CheckpointSave, 0), Some(Fault::Kill));
        assert_eq!(plan.decide(Site::CheckpointSave, 99), Some(Fault::Kill));
        assert_eq!(plan.decide(Site::Simulator, 3), None);
    }

    #[test]
    fn rate_decisions_are_key_determined_and_roughly_calibrated() {
        let inj = FaultInjector::new(11).rate(Site::Rollout, Fault::WorkerPanic, 0.25);
        let first: Vec<bool> = (0..4000)
            .map(|k| inj.decide(Site::Rollout, k).is_some())
            .collect();
        let again: Vec<bool> = (0..4000)
            .map(|k| inj.decide(Site::Rollout, k).is_some())
            .collect();
        assert_eq!(first, again, "decisions must be pure in (seed, site, key)");
        let hits = first.iter().filter(|&&b| b).count();
        assert!((800..1200).contains(&hits), "hit rate off: {hits}/4000");
        // A different seed flips some decisions.
        let other = FaultInjector::new(12).rate(Site::Rollout, Fault::WorkerPanic, 0.25);
        assert!((0..4000).any(|k| inj.decide(Site::Rollout, k) != other.decide(Site::Rollout, k)));
    }

    #[test]
    fn replica_keys_separate_incarnations() {
        // Generation 0 is the raw fingerprint; later generations remap
        // every fingerprint, so a plan pinned to generation 0 goes quiet
        // after a respawn.
        assert_eq!(replica_key(0xdead_beef, 0), 0xdead_beef);
        assert_ne!(replica_key(0xdead_beef, 1), 0xdead_beef);
        assert_ne!(replica_key(0xdead_beef, 1), replica_key(0xdead_beef, 2));
        let plan = FaultInjector::new(0).at(Site::ReplicaWork, 0xdead_beef, Fault::Kill);
        assert_eq!(
            plan.decide(Site::ReplicaWork, replica_key(0xdead_beef, 0)),
            Some(Fault::Kill)
        );
        assert_eq!(
            plan.decide(Site::ReplicaWork, replica_key(0xdead_beef, 1)),
            None
        );
        // Serve sites are distinct from training sites.
        assert_eq!(plan.decide(Site::ConnWrite, 0xdead_beef), None);
    }

    #[test]
    fn rollout_keys_do_not_collide_for_distinct_samples() {
        let mut seen = std::collections::HashSet::new();
        for epoch in 0..4 {
            for graph in 0..8 {
                for sample in 0..8 {
                    assert!(seen.insert(rollout_key(epoch, graph, sample)));
                }
            }
        }
    }
}
