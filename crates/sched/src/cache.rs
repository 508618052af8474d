//! The evaluation cache: a fingerprint-keyed transposition table over
//! [`partir_sim::evaluate`].
//!
//! MCTS revisits partitioning states constantly — different action
//! orders reach the same state, rollouts re-score states the tree
//! already expanded, and `partir_jit`'s last report re-evaluates the
//! state a search just chose. All of those share one [`EvalCache`],
//! keyed by [`Partitioning::fingerprint`], so each distinct state is
//! lowered and simulated exactly once per schedule run.
//!
//! The cache uses interior mutability so a single `&EvalCache` can be
//! threaded through the recursive search without infecting it with
//! `&mut` plumbing. It is not thread-safe; searches are single-threaded.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use partir_core::Partitioning;
use partir_ir::{Fingerprint, Func, IrError};
use partir_mesh::HardwareConfig;
use partir_sim::{evaluate, evaluate_program, Evaluation};
use partir_spmd::SpmdProgram;

use crate::SchedError;

/// Identity hasher for [`Fingerprint`] keys.
///
/// Fingerprints are already uniformly mixed 128-bit digests (the
/// `StableHasher` wide-multiply), so feeding them through SipHash again
/// only adds latency to every probe — and the probe is the entire cost of
/// a cache hit. Folding the two halves preserves the digest's uniformity.
#[derive(Default)]
pub struct FingerprintHasher(u64);

impl Hasher for FingerprintHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Generic path (not used by `Fingerprint`, whose derived Hash
        // calls `write_u128`): FNV-1a keeps arbitrary keys correct.
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100000001b3);
        }
    }

    fn write_u128(&mut self, v: u128) {
        self.0 = (v as u64) ^ ((v >> 64) as u64);
    }
}

type FingerprintMap = HashMap<Fingerprint, Evaluation, BuildHasherDefault<FingerprintHasher>>;
type FingerprintSet = HashSet<Fingerprint, BuildHasherDefault<FingerprintHasher>>;

/// Hit/miss counters of an [`EvalCache`], surfaced in search reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Evaluations answered from the cache.
    pub hits: u64,
    /// Evaluations that ran the lower+simulate pipeline.
    pub misses: u64,
    /// Distinct fingerprints stored.
    pub entries: usize,
    /// Candidate states the static legality pre-filter rejected before
    /// they reached `evaluate` (see `partir_analysis::is_legal`) —
    /// total ticks, i.e. `pruned_distinct + pruned_repeat`.
    pub pruned: u64,
    /// Distinct illegal fingerprints the pre-filter rejected.
    pub pruned_distinct: u64,
    /// Pre-filter rejections of fingerprints already known illegal —
    /// search budget that revisited a pruned state.
    pub pruned_repeat: u64,
}

impl CacheStats {
    /// Fraction of lookups answered from the cache, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Fingerprint-keyed memoisation of `evaluate(func, part, hw)`.
///
/// One cache is only valid for a single `(func, hw)` pair — the
/// fingerprint covers the function and mesh but not the hardware's
/// bandwidth/FLOPS numbers. `partir_jit` creates one per run.
#[derive(Debug, Default)]
pub struct EvalCache {
    entries: RefCell<FingerprintMap>,
    hits: Cell<u64>,
    misses: Cell<u64>,
    pruned: Cell<u64>,
    /// Fingerprints the legality pre-filter rejected — kept even when the
    /// cache is disabled, so pruned accounting stays exact either way.
    pruned_seen: RefCell<FingerprintSet>,
    pruned_repeat: Cell<u64>,
    /// A disabled cache evaluates every request afresh (and counts every
    /// lookup as a miss) — used to validate that caching never changes
    /// search results.
    enabled: bool,
}

impl EvalCache {
    /// An empty, enabled cache.
    pub fn new() -> Self {
        EvalCache {
            entries: RefCell::new(FingerprintMap::default()),
            hits: Cell::new(0),
            misses: Cell::new(0),
            pruned: Cell::new(0),
            pruned_seen: RefCell::new(FingerprintSet::default()),
            pruned_repeat: Cell::new(0),
            enabled: true,
        }
    }

    /// A cache that never stores or returns entries. Searches run with a
    /// disabled cache must produce byte-identical results to cached runs.
    pub fn disabled() -> Self {
        EvalCache {
            enabled: false,
            ..EvalCache::new()
        }
    }

    /// Evaluates `part`, answering from the cache when the fingerprint
    /// was seen before.
    ///
    /// # Errors
    ///
    /// Propagates lowering/simulation failures (cache misses only).
    pub fn evaluate(
        &self,
        func: &Func,
        part: &Partitioning,
        hw: &HardwareConfig,
    ) -> Result<Evaluation, SchedError> {
        self.lookup(part, || evaluate(func, part, hw))
    }

    /// Answers `part` from the cache, or runs `compute` and stores it.
    fn lookup(
        &self,
        part: &Partitioning,
        compute: impl FnOnce() -> Result<Evaluation, IrError>,
    ) -> Result<Evaluation, SchedError> {
        if !self.enabled {
            self.misses.set(self.misses.get() + 1);
            partir_obs::counter!("sched.cache.misses", 1);
            return Ok(compute()?);
        }
        let key = part.fingerprint();
        if let Some(hit) = self.entries.borrow().get(&key) {
            self.hits.set(self.hits.get() + 1);
            partir_obs::counter!("sched.cache.hits", 1);
            return Ok(*hit);
        }
        let eval = compute()?;
        self.misses.set(self.misses.get() + 1);
        partir_obs::counter!("sched.cache.misses", 1);
        self.entries.borrow_mut().insert(key, eval);
        Ok(eval)
    }

    /// [`EvalCache::evaluate`] for a caller that already holds `part`'s
    /// lowered and fused `program`: same lookups, same counters, same
    /// stored entry, but a miss simulates `program` instead of lowering
    /// again.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures (cache misses only).
    pub(crate) fn evaluate_lowered(
        &self,
        part: &Partitioning,
        program: &SpmdProgram,
        hw: &HardwareConfig,
    ) -> Result<Evaluation, SchedError> {
        self.lookup(part, || evaluate_program(program, hw))
    }

    /// Records a candidate the legality pre-filter rejected before it
    /// reached `evaluate`, keyed by the rejected state's fingerprint so
    /// first-time rejections and revisits of known-illegal states are
    /// counted apart. Returns `true` the first time a fingerprint is
    /// rejected.
    pub fn note_pruned(&self, fp: Fingerprint) -> bool {
        self.pruned.set(self.pruned.get() + 1);
        partir_obs::counter!("sched.cache.pruned", 1);
        let fresh = self.pruned_seen.borrow_mut().insert(fp);
        if !fresh {
            self.pruned_repeat.set(self.pruned_repeat.get() + 1);
            partir_obs::counter!("sched.cache.pruned_repeat", 1);
        }
        fresh
    }

    /// Whether the legality pre-filter already rejected this fingerprint.
    pub fn is_pruned(&self, fp: Fingerprint) -> bool {
        self.pruned_seen.borrow().contains(&fp)
    }

    /// Current hit/miss/entry counts.
    pub fn stats(&self) -> CacheStats {
        let repeat = self.pruned_repeat.get();
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            entries: self.entries.borrow().len(),
            pruned: self.pruned.get(),
            pruned_distinct: self.pruned.get() - repeat,
            pruned_repeat: repeat,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use partir_ir::{FuncBuilder, TensorType};
    use partir_mesh::Mesh;

    fn setup() -> (Func, Partitioning, HardwareConfig) {
        let mut b = FuncBuilder::new("f");
        let x = b.param("x", TensorType::f32([64, 16]));
        let w = b.param("w", TensorType::f32([16, 16]));
        let y = b.matmul(x, w).unwrap();
        let f = b.build([y]).unwrap();
        let mesh = Mesh::single("B", 4).unwrap();
        let hw = HardwareConfig::tpu_v3_pod(mesh.clone());
        let p = Partitioning::new(&f, mesh).unwrap();
        (f, p, hw)
    }

    #[test]
    fn repeated_lookups_hit() {
        let (f, p, hw) = setup();
        let cache = EvalCache::new();
        let a = cache.evaluate(&f, &p, &hw).unwrap();
        let b = cache.evaluate(&f, &p, &hw).unwrap();
        assert_eq!(a, b);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn distinct_states_occupy_distinct_entries() {
        let (f, p, hw) = setup();
        let cache = EvalCache::new();
        cache.evaluate(&f, &p, &hw).unwrap();
        let mut q = p.clone();
        let x = f.params()[0];
        q.tile(&f, x, 0, &"B".into()).unwrap();
        q.propagate(&f);
        cache.evaluate(&f, &q, &hw).unwrap();
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn pruned_counts_split_distinct_from_repeat() {
        let (f, p, _) = setup();
        let cache = EvalCache::new();
        let fp_a = p.fingerprint();
        let mut q = p.clone();
        q.tile(&f, f.params()[0], 0, &"B".into()).unwrap();
        q.propagate(&f);
        let fp_b = q.fingerprint();
        assert!(cache.note_pruned(fp_a));
        assert!(!cache.note_pruned(fp_a));
        assert!(cache.note_pruned(fp_b));
        assert!(!cache.note_pruned(fp_a));
        assert!(cache.is_pruned(fp_a) && cache.is_pruned(fp_b));
        let stats = cache.stats();
        assert_eq!(stats.pruned, 4);
        assert_eq!(stats.pruned_distinct, 2);
        assert_eq!(stats.pruned_repeat, 2);
        assert_eq!(stats.pruned, stats.pruned_distinct + stats.pruned_repeat);
    }

    #[test]
    fn disabled_cache_never_hits_but_agrees() {
        let (f, p, hw) = setup();
        let cached = EvalCache::new();
        let uncached = EvalCache::disabled();
        let a = cached.evaluate(&f, &p, &hw).unwrap();
        let b = uncached.evaluate(&f, &p, &hw).unwrap();
        let c = uncached.evaluate(&f, &p, &hw).unwrap();
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(uncached.stats().hits, 0);
        assert_eq!(uncached.stats().misses, 2);
        assert_eq!(uncached.stats().entries, 0);
    }
}
