//! Deterministic fault injection for the memory system.
//!
//! A [`FaultPlan`] describes *what* to corrupt (traffic class, address,
//! read/write direction), *how* (bit flip, drop, delay, metadata
//! corruption, replay of stale data) and *when* (every match, the Nth
//! match, or a seeded pseudo-random rate). Each memory partition derives
//! its own [`FaultInjector`] from the plan via [`FaultPlan::injector_for`],
//! so a plan plus a seed fully determines every injection in a run —
//! two simulations with the same plan produce bit-identical
//! [`FaultStats`] and detection outcomes.
//!
//! Faults are applied at DRAM completion time (see
//! [`Dram::pop_completed_with_fault`](crate::dram::Dram::pop_completed_with_fault)):
//! this models data corrupted on the bus or in the array, the scope of
//! the paper's threat model. Backends translate the surviving fault flag
//! into detection outcomes: a backend with integrity metadata
//! ([`SecureBackend`](../../secmem_core) schemes with MACs or a Merkle
//! tree) flags the corruption, while the baseline passes it through
//! silently — mirroring the functional model's attacker API at the
//! timing layer.

use secmem_checkpoint::{CheckpointError, Reader, Snapshot, Writer};

use crate::types::{line_of, Addr, Cycle, TrafficClass};

use crate::rng::Rng64;

/// The way a fault mutates a DRAM transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Flip bits in the returned line: detectable by any MAC scheme.
    BitFlip,
    /// Swallow the completion: the requester waits forever (the
    /// simulator's watchdog turns this into a [`StallReport`](crate::error::StallReport)).
    Drop,
    /// Complete the request this many cycles late.
    Delay(u32),
    /// Corrupt the metadata payload (counter / MAC / tree node) carried
    /// by the transaction.
    MetaCorrupt,
    /// Return stale-but-authentic data (a replay attack): only schemes
    /// with tree coverage of the relevant metadata can detect it.
    Replay,
}

impl FaultKind {
    /// Static label for telemetry events (the `Delay` amount is recorded
    /// in the injection config, not the event).
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::BitFlip => "BitFlip",
            FaultKind::Drop => "Drop",
            FaultKind::Delay(_) => "Delay",
            FaultKind::MetaCorrupt => "MetaCorrupt",
            FaultKind::Replay => "Replay",
        }
    }

    /// True for kinds that corrupt the payload (and are therefore
    /// candidates for integrity detection), as opposed to timing faults.
    pub fn corrupts(self) -> bool {
        matches!(self, FaultKind::BitFlip | FaultKind::MetaCorrupt | FaultKind::Replay)
    }
}

/// When a matching transaction actually receives the fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTrigger {
    /// Every matching transaction.
    Always,
    /// Only the Nth matching transaction (0-based).
    Nth(u64),
    /// Every Nth matching transaction (period ≥ 1).
    EveryNth(u64),
    /// Each matching transaction independently with probability `1/n`,
    /// drawn from the injector's seeded generator.
    OneIn(u64),
}

/// One fault rule: a kind, a filter, and a trigger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// What the fault does.
    pub kind: FaultKind,
    /// Restrict to one traffic class (`None` = any).
    pub class: Option<TrafficClass>,
    /// Apply only to reads (writes are never corrupted in-flight by
    /// this model when set; the functional model covers stored-data
    /// tampering).
    pub reads_only: bool,
    /// Restrict to one 128 B line (`None` = any address).
    pub line_addr: Option<Addr>,
    /// When a matching transaction is hit.
    pub trigger: FaultTrigger,
    /// Stop after this many applications (`None` = unlimited).
    pub max_injections: Option<u64>,
}

impl FaultSpec {
    /// A rule matching every read of `class`, fired per `trigger`.
    pub fn new(kind: FaultKind, trigger: FaultTrigger) -> Self {
        Self { kind, class: None, reads_only: true, line_addr: None, trigger, max_injections: None }
    }

    /// Restricts the rule to one traffic class.
    pub fn on_class(mut self, class: TrafficClass) -> Self {
        self.class = Some(class);
        self
    }

    /// Restricts the rule to the line containing `addr`.
    pub fn on_line(mut self, addr: Addr) -> Self {
        self.line_addr = Some(line_of(addr));
        self
    }

    /// Caps the number of times this rule fires.
    pub fn limit(mut self, n: u64) -> Self {
        self.max_injections = Some(n);
        self
    }

    fn matches(&self, class: TrafficClass, is_write: bool, addr: Addr) -> bool {
        if self.reads_only && is_write {
            return false;
        }
        if let Some(c) = self.class {
            if c != class {
                return false;
            }
        }
        if let Some(line) = self.line_addr {
            if line_of(addr) != line {
                return false;
            }
        }
        true
    }
}

/// A seeded set of fault rules, shared by every partition of a run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Base seed; each partition mixes in its id so streams differ but
    /// remain reproducible.
    pub seed: u64,
    /// The rules, evaluated in order (first match wins).
    pub specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan with a seed.
    pub fn new(seed: u64) -> Self {
        Self { seed, specs: Vec::new() }
    }

    /// Adds a rule (builder style).
    pub fn with(mut self, spec: FaultSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Convenience: flip bits in the first data read of the line
    /// containing `addr`.
    pub fn bit_flip_on_line(seed: u64, addr: Addr) -> Self {
        Self::new(seed).with(
            FaultSpec::new(FaultKind::BitFlip, FaultTrigger::Nth(0))
                .on_class(TrafficClass::Data)
                .on_line(addr),
        )
    }

    /// Derives the injector for one partition. The per-partition seed is
    /// a fixed mix of the plan seed and the partition id, so adding
    /// partitions never perturbs other partitions' streams.
    pub fn injector_for(&self, partition: u32) -> FaultInjector {
        FaultInjector::new(
            self.specs.clone(),
            self.seed ^ (u64::from(partition).wrapping_mul(0xA076_1D64_78BD_642F)),
        )
    }
}

/// Counters for one traffic class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultClassStats {
    /// Payload corruptions delivered (bit flips, metadata corruption,
    /// replays).
    pub injected: u64,
    /// Completions swallowed.
    pub dropped: u64,
    /// Completions delayed.
    pub delayed: u64,
    /// Corruptions the backend flagged as integrity violations.
    pub detected: u64,
    /// Corruptions that passed through unflagged.
    pub undetected: u64,
}

/// Per-class fault statistics, aggregated into
/// [`SimReport`](crate::stats::SimReport).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Stats per traffic class, indexed by `TrafficClass::ALL` order.
    pub per_class: [FaultClassStats; 4],
}

impl FaultStats {
    fn index(c: TrafficClass) -> usize {
        // Total by construction (TrafficClass::index matches ALL order);
        // no lookup, no panic path on the completion-handling hot path.
        c.index()
    }

    /// Stats for one class.
    pub fn class(&self, c: TrafficClass) -> FaultClassStats {
        self.per_class[Self::index(c)]
    }

    /// Mutable stats for one class.
    pub fn class_mut(&mut self, c: TrafficClass) -> &mut FaultClassStats {
        &mut self.per_class[Self::index(c)]
    }

    /// Adds another partition's counters into this one.
    pub fn merge(&mut self, other: &FaultStats) {
        for (a, b) in self.per_class.iter_mut().zip(other.per_class.iter()) {
            a.injected += b.injected;
            a.dropped += b.dropped;
            a.delayed += b.delayed;
            a.detected += b.detected;
            a.undetected += b.undetected;
        }
    }

    /// Total payload corruptions delivered.
    pub fn total_injected(&self) -> u64 {
        self.per_class.iter().map(|c| c.injected).sum()
    }

    /// Total corruptions flagged.
    pub fn total_detected(&self) -> u64 {
        self.per_class.iter().map(|c| c.detected).sum()
    }

    /// Total corruptions missed.
    pub fn total_undetected(&self) -> u64 {
        self.per_class.iter().map(|c| c.undetected).sum()
    }

    /// Total completions swallowed.
    pub fn total_dropped(&self) -> u64 {
        self.per_class.iter().map(|c| c.dropped).sum()
    }

    /// True when no fault of any kind was applied.
    pub fn is_empty(&self) -> bool {
        self.per_class.iter().all(|c| c.injected == 0 && c.dropped == 0 && c.delayed == 0)
    }
}

/// One integrity-relevant fault observed by a backend: the typed event
/// surfaced alongside [`FaultStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Cycle at which the faulted completion was processed.
    pub cycle: Cycle,
    /// Line address of the faulted transaction.
    pub line_addr: Addr,
    /// Traffic class of the faulted transaction.
    pub class: TrafficClass,
    /// What was injected.
    pub kind: FaultKind,
    /// Whether the backend's integrity machinery flagged it.
    pub detected: bool,
}

/// The per-partition fault engine. Owned by the DRAM model; consulted
/// once per retiring transaction.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    specs: Vec<FaultSpec>,
    rng: Rng64,
    /// Matching-transaction count per spec (drives Nth / EveryNth).
    matched: Vec<u64>,
    /// Application count per spec (drives `max_injections`).
    applied: Vec<u64>,
    stats: FaultStats,
}

impl FaultInjector {
    /// Builds an injector from rules and a per-partition seed.
    pub fn new(specs: Vec<FaultSpec>, seed: u64) -> Self {
        let n = specs.len();
        Self {
            specs,
            rng: Rng64::new(seed),
            matched: vec![0; n],
            applied: vec![0; n],
            stats: FaultStats::default(),
        }
    }

    /// Decides whether the retiring transaction is faulted. Must be
    /// called exactly once per completion (the DRAM model guarantees
    /// this); both the match counters and the random stream advance.
    ///
    /// Records timing faults (drop/delay) and corruption injections in
    /// [`FaultInjector::stats`]; detection outcomes are recorded later by
    /// the backend via [`FaultInjector::record_detection`].
    pub fn decide(&mut self, class: TrafficClass, is_write: bool, addr: Addr) -> Option<FaultKind> {
        for (i, spec) in self.specs.iter().enumerate() {
            if !spec.matches(class, is_write, addr) {
                continue;
            }
            let seq = self.matched[i];
            self.matched[i] += 1;
            if let Some(cap) = spec.max_injections {
                if self.applied[i] >= cap {
                    continue;
                }
            }
            let fire = match spec.trigger {
                FaultTrigger::Always => true,
                FaultTrigger::Nth(n) => seq == n,
                FaultTrigger::EveryNth(n) => n > 0 && seq.is_multiple_of(n),
                FaultTrigger::OneIn(n) => self.rng.one_in(n),
            };
            if !fire {
                continue;
            }
            self.applied[i] += 1;
            let cs = self.stats.class_mut(class);
            match spec.kind {
                FaultKind::Drop => cs.dropped += 1,
                FaultKind::Delay(_) => cs.delayed += 1,
                _ => cs.injected += 1,
            }
            return Some(spec.kind);
        }
        None
    }

    /// Records whether a delivered corruption was flagged by the backend.
    pub fn record_detection(&mut self, class: TrafficClass, detected: bool) {
        let cs = self.stats.class_mut(class);
        if detected {
            cs.detected += 1;
        } else {
            cs.undetected += 1;
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Resets statistics (rule state and the random stream continue, so
    /// a warmup reset does not replay injections).
    pub fn reset_stats(&mut self) {
        self.stats = FaultStats::default();
    }

    /// Serializes the injector's dynamic state: the random stream, the
    /// per-rule match/application counters and the statistics. The rules
    /// themselves are rebuilt from the fault plan and only their count is
    /// cross-checked on restore.
    pub fn save_state(&self, w: &mut Writer) {
        self.rng.save(w);
        self.matched.save(w);
        self.applied.save(w);
        self.stats.save(w);
    }

    /// Restores state saved by [`FaultInjector::save_state`] into an
    /// injector rebuilt from the same fault plan.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Malformed`] if the counter vectors do not match
    /// this injector's rule count; any decode error otherwise.
    pub fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError> {
        self.rng = Rng64::load(r)?;
        // One counter per rule in each vector, as built from the plan.
        for (what, counters) in [("match counters", &mut self.matched), ("apply counters", &mut self.applied)]
        {
            r.expect_count("fault injector", what, counters.len())?;
            for c in counters.iter_mut() {
                *c = r.get_u64()?;
            }
        }
        self.stats = FaultStats::load(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DATA: TrafficClass = TrafficClass::Data;

    #[test]
    fn nth_trigger_fires_once() {
        let plan = FaultPlan::new(1).with(FaultSpec::new(FaultKind::BitFlip, FaultTrigger::Nth(2)));
        let mut inj = plan.injector_for(0);
        let hits: Vec<_> = (0..6).map(|i| inj.decide(DATA, false, i * 128)).collect();
        assert_eq!(hits.iter().filter(|h| h.is_some()).count(), 1);
        assert_eq!(hits[2], Some(FaultKind::BitFlip));
        assert_eq!(inj.stats().class(DATA).injected, 1);
    }

    #[test]
    fn line_filter_restricts_matches() {
        let plan = FaultPlan::bit_flip_on_line(7, 0x1000 + 40);
        let mut inj = plan.injector_for(0);
        assert_eq!(inj.decide(DATA, false, 0x2000), None, "wrong line");
        assert_eq!(inj.decide(DATA, false, 0x1020), Some(FaultKind::BitFlip), "same line");
        assert_eq!(inj.decide(DATA, false, 0x1000), None, "Nth(0) already spent");
    }

    #[test]
    fn writes_skipped_when_reads_only() {
        let plan = FaultPlan::new(3).with(FaultSpec::new(FaultKind::Drop, FaultTrigger::Always));
        let mut inj = plan.injector_for(0);
        assert_eq!(inj.decide(DATA, true, 0), None);
        assert_eq!(inj.decide(DATA, false, 0), Some(FaultKind::Drop));
        assert_eq!(inj.stats().class(DATA).dropped, 1);
    }

    #[test]
    fn class_filter() {
        let plan = FaultPlan::new(3).with(
            FaultSpec::new(FaultKind::MetaCorrupt, FaultTrigger::Always).on_class(TrafficClass::Counter),
        );
        let mut inj = plan.injector_for(0);
        assert_eq!(inj.decide(DATA, false, 0), None);
        assert_eq!(inj.decide(TrafficClass::Counter, false, 0), Some(FaultKind::MetaCorrupt));
    }

    #[test]
    fn limit_caps_applications() {
        let plan = FaultPlan::new(3).with(FaultSpec::new(FaultKind::BitFlip, FaultTrigger::Always).limit(2));
        let mut inj = plan.injector_for(0);
        let fired = (0..10).filter(|_| inj.decide(DATA, false, 0).is_some()).count();
        assert_eq!(fired, 2);
    }

    #[test]
    fn one_in_is_deterministic_per_seed() {
        let plan = FaultPlan::new(99).with(FaultSpec::new(FaultKind::BitFlip, FaultTrigger::OneIn(4)));
        let run = || {
            let mut inj = plan.injector_for(2);
            (0..64).map(|i| inj.decide(DATA, false, i * 128).is_some()).collect::<Vec<_>>()
        };
        assert_eq!(run(), run(), "same plan + partition ⇒ same stream");
        let mut other = plan.injector_for(3);
        let other_hits: Vec<_> = (0..64).map(|i| other.decide(DATA, false, i * 128).is_some()).collect();
        assert_ne!(run(), other_hits, "partitions draw independent streams");
    }

    #[test]
    fn detection_accounting() {
        let mut stats = FaultStats::default();
        stats.class_mut(DATA).injected = 2;
        let mut other = FaultStats::default();
        other.class_mut(DATA).detected = 1;
        stats.merge(&other);
        assert_eq!(stats.total_injected(), 2);
        assert_eq!(stats.total_detected(), 1);
        assert!(!stats.is_empty());
        assert!(FaultStats::default().is_empty());
    }

    /// The rule counters saved under one fault plan do not restore into
    /// an injector built from a plan with another rule count.
    #[test]
    fn rule_counter_mismatches_rejected() {
        let one = FaultPlan::new(1).with(FaultSpec::new(FaultKind::BitFlip, FaultTrigger::Always));
        let two = one.clone().with(FaultSpec::new(FaultKind::Drop, FaultTrigger::Nth(3)));
        let saved = |inj: &FaultInjector| {
            let mut w = Writer::new();
            inj.save_state(&mut w);
            w.into_bytes()
        };
        let err =
            two.injector_for(0).restore_state(&mut Reader::new(&saved(&one.injector_for(0)))).unwrap_err();
        assert_eq!(
            err,
            CheckpointError::Malformed("fault injector has 2 match counters, checkpoint has 1".into())
        );
        let mut short = two.injector_for(0);
        short.applied.pop();
        let err = two.injector_for(0).restore_state(&mut Reader::new(&saved(&short))).unwrap_err();
        assert_eq!(
            err,
            CheckpointError::Malformed("fault injector has 2 apply counters, checkpoint has 1".into())
        );
    }
}
