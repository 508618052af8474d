//! The peak-memory walk, and the static bound built on it.
//!
//! [`PeakWalk`] is the one alloc/free walk every memory estimate in the
//! workspace runs: region bodies inline once, before their op; each
//! value allocated at its definition and freed after its last use;
//! parameters and results pinned to the end; unused values never freed.
//! Callers differ only in what a value weighs and in three switches —
//! `partir_sim::peak_memory_bytes` treats loop region parameters as
//! free aliases of their carried inputs, [`static_peak_bound`] charges
//! them, and the static objective charges device-local sizes, skips
//! dead ops and adds each op's gather temporary. Charging region
//! parameters only ever adds to the resident set, so
//!
//! > `static_peak_bound(f, &PeakWalk::of(f)) >= partir_sim::peak_memory_bytes(f)`
//!
//! holds **by construction** for every function — the contract
//! `partir-sim` re-asserts in debug builds and the zoo tests verify over
//! every model/mesh pair. Liveness is one pass over the linearisation:
//! a value's last use is the largest position that reads it.

use partir_ir::{Func, OpId, ValueId};

/// The linearisation every memory estimate walks (through
/// [`PeakWalk`]): region bodies inline once, *before* their owning op.
#[derive(Debug, Clone)]
pub struct Linearization {
    order: Vec<OpId>,
}

impl Linearization {
    /// Linearises `func`.
    pub fn of(func: &Func) -> Self {
        fn walk(func: &Func, body: &[OpId], order: &mut Vec<OpId>) {
            for &op_id in body {
                if let Some(region) = &func.op(op_id).region {
                    walk(func, &region.body, order);
                }
                order.push(op_id);
            }
        }
        let mut order = Vec::with_capacity(func.num_ops());
        walk(func, func.body(), &mut order);
        Linearization { order }
    }

    /// Ops in linear order.
    pub fn order(&self) -> &[OpId] {
        &self.order
    }

    /// Number of linearised positions; position `len()` means "after the
    /// last op" (where results and parameters stay live).
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the function has no ops.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
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
    /// Solves liveness for `func`: each value is freed at the largest
    /// linearised position that reads it. A `for` op reads its region
    /// results (they are what the loop hands back).
    pub fn of(func: &Func) -> Self {
        let lin = Linearization::of(func);
        let mut last_use: Vec<Option<usize>> = vec![None; func.num_values()];
        for (pos, &op_id) in lin.order().iter().enumerate() {
            let op = func.op(op_id);
            let yielded = op.region.iter().flat_map(|r| &r.results);
            for &v in op.operands.iter().chain(yielded) {
                last_use[v.0 as usize] = Some(pos);
            }
        }
        // Parameters and results are pinned to the end; values never
        // read stay resident too.
        for &v in func.params().iter().chain(func.results()) {
            last_use[v.0 as usize] = None;
        }
        let mut frees = vec![Vec::new(); lin.len()];
        for v in func.value_ids() {
            if let Some(pos) = last_use[v.0 as usize] {
                frees[pos].push(v);
            }
        }
        PeakWalk {
            order: lin.order,
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
/// guaranteed to dominate the simulator's estimate. `walk` is
/// `PeakWalk::of(func)`, taken as an argument so a caller pricing the
/// same walk another way builds it once.
pub fn static_peak_bound(func: &Func, walk: &PeakWalk) -> u64 {
    let bytes_of = |v: ValueId| func.value_type(v).size_bytes() as u64;
    walk.peak(func, bytes_of, true, |_| false, |_| 0)
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
        assert_eq!(static_peak_bound(&f, &PeakWalk::of(&f)), 64 * 3);
    }

    #[test]
    fn bound_dominates_simulated_peak() {
        let mut b = FuncBuilder::new("f");
        let x = b.param("x", TensorType::f32([32, 32]));
        let w = b.param("w", TensorType::f32([32, 32]));
        let y = b.matmul(x, w).unwrap();
        let f = b.build([y]).unwrap();
        assert!(static_peak_bound(&f, &PeakWalk::of(&f)) >= partir_sim::peak_memory_bytes(&f));
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
        let bound = static_peak_bound(&f, &PeakWalk::of(&f));
        assert!(bound >= simulated, "bound {bound} < simulated {simulated}");
        // The carried region param (256 B) is the slack.
        assert!(
            bound - simulated >= 256,
            "bound {bound}, simulated {simulated}"
        );
    }

    #[test]
    fn linearization_matches_simulator_order() {
        let mut b = FuncBuilder::new("f");
        let x = b.param("x", TensorType::f32([4]));
        let results = b
            .for_loop(2, &[x], |inner, _i, carried| {
                let t = inner.neg(carried[0])?;
                Ok(vec![t])
            })
            .unwrap();
        let y = b.neg(results[0]).unwrap();
        let f = b.build([y]).unwrap();
        let lin = Linearization::of(&f);
        assert_eq!(lin.len(), 3);
        assert!(!lin.is_empty());
        // Body op first, then the for, then the trailing neg.
        let kinds: Vec<&str> = lin.order().iter().map(|&o| f.op(o).kind.name()).collect();
        assert_eq!(kinds, ["neg", "for", "neg"]);
    }
}
