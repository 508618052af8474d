//! The peak-memory walk, and the static bound built on it.
//!
//! [`PeakWalk`] is the one alloc/free walk every memory estimate in the
//! workspace runs: region bodies inline once, before their op; each
//! value allocated at its definition and freed after its last use;
//! parameters and results pinned to the end; unused values never freed.
//! Callers differ only in what a value weighs and in three switches —
//! `partir_sim::peak_memory_bytes` treats loop region parameters as
//! free aliases of their carried inputs, [`static_peak_bound`] charges
//! them, the SPMD plan compiler replays the bound in arena-pool bytes,
//! and the static objective charges device-local sizes, skips dead ops
//! and adds each op's gather temporary. Charging region parameters only
//! ever adds to the resident set, so
//!
//! > `static_peak_bound(f) >= partir_sim::peak_memory_bytes(f)`
//!
//! holds **by construction** for every function — the contract
//! `partir-sim` re-asserts in debug builds and the zoo tests verify over
//! every model/mesh pair. Liveness itself is an instance of the
//! backward dataflow solver with a max-position lattice.

use partir_ir::{Func, OpId, ValueDef, ValueId};

use crate::dataflow::{backward_fixpoint, BackwardAnalysis, Fact, Linearization};

/// Last-use position lattice: ⊥ = never used (kept resident), otherwise
/// the maximum linearised position that reads the value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct LastUse(Option<usize>);

impl Fact for LastUse {
    fn bottom() -> Self {
        LastUse(None)
    }

    fn join(&mut self, other: &Self) -> bool {
        match (self.0, other.0) {
            (_, None) => false,
            (None, Some(_)) => {
                *self = *other;
                true
            }
            (Some(a), Some(b)) => {
                if b > a {
                    self.0 = Some(b);
                    true
                } else {
                    false
                }
            }
        }
    }
}

/// Liveness as a backward dataflow: every use site contributes its
/// position; results and parameters are used "at the end".
struct Liveness {
    end: usize,
}

impl BackwardAnalysis for Liveness {
    type Fact = LastUse;

    fn exit(&self, _func: &Func, _v: ValueId) -> LastUse {
        LastUse(Some(self.end))
    }

    fn use_site(&self, _func: &Func, _op: OpId, pos: usize, _v: ValueId) -> LastUse {
        LastUse(Some(pos))
    }
}

/// The alloc/free schedule of one function: the linearisation and, per
/// position, the values whose last use is there. Depends only on the
/// function, so a search builds it once and walks it per candidate.
#[derive(Debug, Clone)]
pub struct PeakWalk {
    order: Vec<OpId>,
    frees: Vec<Vec<ValueId>>,
}

impl PeakWalk {
    /// Solves liveness for `func`.
    pub fn of(func: &Func) -> Self {
        let lin = Linearization::of(func);
        let end = lin.len();
        let live = backward_fixpoint(func, &lin, &Liveness { end });
        let mut frees = vec![Vec::new(); end + 1];
        for v in func.value_ids() {
            // ⊥ (never used) and end-pinned values stay resident.
            if let Some(pos) = live.get(v).0.filter(|&pos| pos < end) {
                frees[pos].push(v);
            }
        }
        PeakWalk {
            order: lin.order().to_vec(),
            frees,
        }
    }

    /// Peak resident bytes over the walk, where value `v` weighs
    /// `bytes_of(v)`. With `charge_region_params`, entering a `for`
    /// allocates its region parameters; without, they are free aliases.
    /// Ops for which `skip` holds never run (their results are never
    /// allocated), and `transient(op)` bytes are resident only while
    /// `op` itself executes.
    pub fn peak(
        &self,
        func: &Func,
        bytes_of: impl Fn(ValueId) -> u64,
        charge_region_params: bool,
        skip: impl Fn(OpId) -> bool,
        transient: impl Fn(OpId) -> u64,
    ) -> u64 {
        let mut current: u64 = func.params().iter().map(|&p| bytes_of(p)).sum();
        let mut peak = current;
        let mut alive = vec![false; func.num_values()];
        for &p in func.params() {
            alive[p.0 as usize] = true;
        }
        for (pos, &op_id) in self.order.iter().enumerate() {
            if skip(op_id) {
                continue;
            }
            let op = func.op(op_id);
            let mut alloc = |v: ValueId| {
                if !std::mem::replace(&mut alive[v.0 as usize], true) {
                    current += bytes_of(v);
                }
            };
            // Constants count too — they live in HBM.
            op.results.iter().for_each(|&r| alloc(r));
            if let (true, Some(region)) = (charge_region_params, &op.region) {
                region.params.iter().for_each(|&p| alloc(p));
            }
            peak = peak.max(current + transient(op_id));
            for &v in &self.frees[pos] {
                if std::mem::replace(&mut alive[v.0 as usize], false) {
                    current = current.saturating_sub(bytes_of(v));
                }
            }
        }
        peak
    }
}

/// An upper bound on the peak device memory (bytes) of `func`,
/// guaranteed to dominate the simulator's estimate.
pub fn static_peak_bound(func: &Func) -> u64 {
    let bytes_of = |v: ValueId| func.value_type(v).size_bytes() as u64;
    PeakWalk::of(func).peak(func, bytes_of, true, |_| false, |_| 0)
}

/// The extra bytes the bound charges beyond the aliasing-aware
/// simulation: the region parameters live at the peak. Exposed so lint
/// output can explain the bound's slack.
pub fn region_param_bytes(func: &Func) -> u64 {
    func.value_ids()
        .filter(|&v| matches!(func.value(v).def, ValueDef::RegionParam { .. }))
        .map(|v| func.value_type(v).size_bytes() as u64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use partir_ir::{FuncBuilder, TensorType};

    #[test]
    fn straightline_bound_matches_hand_count() {
        let mut b = FuncBuilder::new("f");
        let x = b.param("x", TensorType::f32([16])); // 64 B pinned
        let y = b.neg(x).unwrap();
        let z = b.neg(y).unwrap(); // y freed after this
        let f = b.build([z]).unwrap();
        assert_eq!(static_peak_bound(&f), 64 * 3);
    }

    #[test]
    fn bound_dominates_simulated_peak() {
        let mut b = FuncBuilder::new("f");
        let x = b.param("x", TensorType::f32([32, 32]));
        let w = b.param("w", TensorType::f32([32, 32]));
        let y = b.matmul(x, w).unwrap();
        let f = b.build([y]).unwrap();
        assert!(static_peak_bound(&f) >= partir_sim::peak_memory_bytes(&f));
    }

    #[test]
    fn loop_programs_charge_region_params() {
        let mut b = FuncBuilder::new("f");
        let x = b.param("x", TensorType::f32([64]));
        let results = b
            .for_loop(4, &[x], |inner, _i, carried| {
                let t = inner.neg(carried[0])?;
                Ok(vec![t])
            })
            .unwrap();
        let f = b.build([results[0]]).unwrap();
        let simulated = partir_sim::peak_memory_bytes(&f);
        let bound = static_peak_bound(&f);
        assert!(bound >= simulated, "bound {bound} < simulated {simulated}");
        // The carried region param (256 B) is exactly the slack.
        assert!(region_param_bytes(&f) >= 256);
        assert!(bound > simulated, "loop bound should be strict");
    }
}
