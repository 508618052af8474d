//! The peak-memory walk, and the static bound built on it.
//!
//! [`PeakWalk`] is the one liveness in the workspace: every memory
//! estimate walks it, and the plan compiler frees each arena slot at the
//! position it names. Region bodies inline once, before their op; each
//! value is allocated at its definition and freed after its last use,
//! the largest position that reads it, under three rules:
//!
//! 1. a read inside a `for` body of a value defined outside that loop
//!    counts at the loop's own position, so the value outlives every
//!    trip;
//! 2. a `for` reads its region params, index included, because the
//!    carry rewrites them on every trip (and its region results, which
//!    it hands back);
//! 3. a value that nothing reads dies at its own position.
//!
//! Parameters and results are pinned to the end. Callers differ only in
//! what a value weighs and in three switches —
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
//! every model/mesh pair.

use partir_ir::{Func, OpId, ValueId};

/// The alloc/free schedule of one function: the linearisation (region
/// bodies inline once, *before* their owning op) and each value's last
/// use under the module's three rules. Depends only on the function, so
/// a search builds it once and walks it per candidate.
#[derive(Debug, Clone)]
pub struct PeakWalk {
    order: Vec<OpId>,
    /// Each value's last-use position, or [`PINNED`].
    last_use: Vec<u32>,
    /// The values grouped by last use: position `p` frees
    /// `freed[starts[p]..starts[p + 1]]`.
    freed: Vec<ValueId>,
    starts: Vec<u32>,
}

/// The last use of a parameter or result (live to the end), and of a
/// value not yet read or defined while the walk runs.
const PINNED: u32 = u32::MAX;

/// Walks one op, its region body first. `born[v]` is the position of
/// the op that defines `v` (its `for`, for a region param), [`PINNED`]
/// until that op is reached; `reads` logs the reads inside the loops
/// still open, so a `for` can lift those of its body that name values
/// born outside it.
fn visit(
    func: &Func,
    op_id: OpId,
    order: &mut Vec<OpId>,
    born: &mut [u32],
    last: &mut [u32],
    reads: &mut Vec<ValueId>,
) {
    let op = func.op(op_id);
    let (body_start, log_start) = (order.len() as u32, reads.len());
    if let Some(region) = &op.region {
        for &inner in &region.body {
            visit(func, inner, order, born, last, reads);
        }
    }
    let pos = order.len() as u32;
    order.push(op_id);
    let params = op.region.iter().flat_map(|r| &r.params);
    for &v in op.results.iter().chain(params.clone()) {
        born[v.0 as usize] = pos;
    }
    // Rule 1: the body's reads of values born outside this loop count
    // here, and stay logged for the loops around it.
    let mut kept = log_start;
    for i in log_start..reads.len() {
        let v = reads[i];
        if !(body_start..=pos).contains(&born[v.0 as usize]) {
            last[v.0 as usize] = pos;
            reads[kept] = v;
            kept += 1;
        }
    }
    reads.truncate(kept);
    // The op reads its operands here; a `for` also reads its region
    // params (rule 2) and the region results it hands back.
    let yields = op.region.iter().flat_map(|r| &r.results);
    for &v in op.operands.iter().chain(params).chain(yields) {
        last[v.0 as usize] = pos;
        reads.push(v);
    }
}

impl PeakWalk {
    /// Solves liveness for `func` under the module's three rules.
    pub fn of(func: &Func) -> Self {
        let n = func.num_values();
        let mut order = Vec::with_capacity(func.num_ops());
        let mut born = vec![PINNED; n];
        let mut last_use = vec![PINNED; n];
        let mut reads = Vec::new();
        for &op_id in func.body() {
            visit(
                func,
                op_id,
                &mut order,
                &mut born,
                &mut last_use,
                &mut reads,
            );
            reads.clear();
        }
        // Rule 3: what nothing reads dies where it is born.
        for (last, &b) in last_use.iter_mut().zip(&born) {
            if *last == PINNED {
                *last = b;
            }
        }
        // Parameters and results are pinned to the end.
        for &v in func.params().iter().chain(func.results()) {
            last_use[v.0 as usize] = PINNED;
        }
        // Group the values by last use, in id order (a counting sort).
        let mut starts = vec![0u32; order.len() + 1];
        for &p in last_use.iter().filter(|&&p| p != PINNED) {
            starts[p as usize + 1] += 1;
        }
        for p in 1..starts.len() {
            starts[p] += starts[p - 1];
        }
        let mut freed = vec![ValueId(0); starts[order.len()] as usize];
        let mut next = starts.clone();
        for v in func.value_ids() {
            let p = last_use[v.0 as usize];
            if p != PINNED {
                freed[next[p as usize] as usize] = v;
                next[p as usize] += 1;
            }
        }
        PeakWalk {
            order,
            last_use,
            freed,
            starts,
        }
    }

    /// Ops in walk order; position `i` is `order()[i]`.
    pub fn order(&self) -> &[OpId] {
        &self.order
    }

    /// The position of `v`'s last use, after which it is freed; `None`
    /// for parameters and results, which stay live to the end.
    pub fn last_use(&self, v: ValueId) -> Option<usize> {
        let p = self.last_use[v.0 as usize];
        (p != PINNED).then_some(p as usize)
    }

    /// The values whose last use is position `pos`, in id order.
    pub fn frees_at(&self, pos: usize) -> &[ValueId] {
        &self.freed[self.starts[pos] as usize..self.starts[pos + 1] as usize]
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
            for &v in self.frees_at(pos) {
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
        let walk = PeakWalk::of(&f);
        // Body op first, then the for, then the trailing neg.
        let kinds: Vec<&str> = walk.order().iter().map(|&o| f.op(o).kind.name()).collect();
        assert_eq!(kinds, ["neg", "for", "neg"]);
    }

    /// The position of `f`'s only `for`.
    fn for_pos(f: &Func, walk: &PeakWalk) -> usize {
        let is_for = |&o: &OpId| f.op(o).region.is_some();
        walk.order().iter().position(is_for).unwrap()
    }

    #[test]
    fn outer_value_read_in_a_loop_dies_at_the_for() {
        let mut b = FuncBuilder::new("f");
        let x = b.param("x", TensorType::f32([8]));
        let e = b.exp(x).unwrap();
        let results = b
            .for_loop(3, &[x], |inner, _i, carried| {
                let t = inner.add(carried[0], e)?;
                Ok(vec![inner.neg(t)?])
            })
            .unwrap();
        let f = b.build([results[0]]).unwrap();
        let walk = PeakWalk::of(&f);
        let pos = for_pos(&f, &walk);
        // Read by the body's first op, it is still live on the next trip.
        assert_eq!(walk.last_use(e), Some(pos));
        assert!(walk.frees_at(pos).contains(&e));
    }

    #[test]
    fn region_params_die_at_the_for() {
        let mut b = FuncBuilder::new("f");
        let x = b.param("x", TensorType::f32([8]));
        let results = b
            .for_loop(3, &[x], |inner, _i, carried| {
                let t = inner.neg(carried[0])?;
                Ok(vec![inner.exp(t)?])
            })
            .unwrap();
        let f = b.build([results[0]]).unwrap();
        let walk = PeakWalk::of(&f);
        let pos = for_pos(&f, &walk);
        let params = &f.op(walk.order()[pos]).region.as_ref().unwrap().params;
        // The index (never read) and the carried param alike.
        assert_eq!(params.len(), 2);
        for &p in params {
            assert_eq!(walk.last_use(p), Some(pos), "{p:?}");
        }
    }

    #[test]
    fn unread_value_dies_at_its_own_position() {
        let mut b = FuncBuilder::new("f");
        let x = b.param("x", TensorType::f32([8]));
        let dead = b.neg(x).unwrap();
        let y = b.exp(x).unwrap();
        let f = b.build([y]).unwrap();
        let walk = PeakWalk::of(&f);
        assert_eq!(walk.last_use(dead), Some(0));
        assert_eq!(walk.frees_at(0), [dead]);
        assert_eq!(walk.last_use(y), None);
    }
}
