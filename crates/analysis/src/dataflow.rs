//! A small lattice-based dataflow framework over [`Func`] regions.
//!
//! Facts are values of a join-semilattice ([`Fact`]) attached to SSA
//! values. Two solvers are provided:
//!
//! * [`forward_fixpoint`] — propagates facts from parameters through ops
//!   to results. `for` regions are handled precisely: carried region
//!   params join the loop operands *and* the region results (the
//!   loop-carried feedback edge), and op results join the region results;
//!   the solver iterates to a fixpoint, so facts converge for any
//!   finite-height lattice.
//! * [`backward_fixpoint`] — propagates facts from use sites back to
//!   definitions over a [`Linearization`] (the same op order the memory
//!   simulator uses). Liveness ([`crate::memory`]) is its canonical
//!   instance.
//!
//! Because all values of a function — including region-nested ones —
//! live in one flat arena, a fact map is a plain `Vec` indexed by
//! [`ValueId`].

use partir_ir::{Func, OpId, ValueId};

/// A join-semilattice of dataflow facts.
///
/// `join` must be monotone, idempotent and commutative, and the lattice
/// must have finite height (every ascending chain stabilises) or the
/// solvers may not terminate.
pub trait Fact: Clone + PartialEq {
    /// The least element (no information).
    fn bottom() -> Self;

    /// Joins `other` into `self`; returns whether `self` changed.
    fn join(&mut self, other: &Self) -> bool;
}

/// A flat (three-level) lattice over any equatable payload:
/// `Bottom < Known(t) < Top`, with `Known(a) ⊔ Known(b) = Top` when
/// `a != b`. The workhorse for must-style analyses like layout tracking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Flat<T> {
    /// Not yet reached.
    Bottom,
    /// Exactly this value on every path.
    Known(T),
    /// Conflicting values met.
    Top,
}

impl<T: Clone + PartialEq> Fact for Flat<T> {
    fn bottom() -> Self {
        Flat::Bottom
    }

    fn join(&mut self, other: &Self) -> bool {
        match (&*self, other) {
            (_, Flat::Bottom) | (Flat::Top, _) => false,
            (Flat::Bottom, _) => {
                *self = other.clone();
                true
            }
            (Flat::Known(a), Flat::Known(b)) if a == b => false,
            _ => {
                *self = Flat::Top;
                true
            }
        }
    }
}

/// Per-value facts, indexed by [`ValueId`].
#[derive(Debug, Clone)]
pub struct FactMap<F> {
    facts: Vec<F>,
}

impl<F: Fact> FactMap<F> {
    fn new(n: usize) -> Self {
        FactMap {
            facts: vec![F::bottom(); n],
        }
    }

    /// The fact for `v`.
    pub fn get(&self, v: ValueId) -> &F {
        &self.facts[v.0 as usize]
    }

    /// Joins `fact` into `v`'s slot; returns whether it changed.
    pub fn join(&mut self, v: ValueId, fact: &F) -> bool {
        self.facts[v.0 as usize].join(fact)
    }
}

/// A forward analysis: seeds parameter facts and transfers operand facts
/// to result facts per op.
pub trait ForwardAnalysis {
    /// The lattice.
    type Fact: Fact;

    /// The fact of the `index`-th function parameter.
    fn entry(&self, func: &Func, index: usize, v: ValueId) -> Self::Fact;

    /// The fact of a loop index region param (defaults to ⊥).
    fn loop_index(&self, _func: &Func, _v: ValueId) -> Self::Fact {
        Self::Fact::bottom()
    }

    /// Result facts of a non-region op, one per result, given the facts
    /// of its operands.
    fn transfer(&self, func: &Func, op: OpId, operands: &[Self::Fact]) -> Vec<Self::Fact>;
}

/// Runs `analysis` to a fixpoint and returns the per-value facts.
pub fn forward_fixpoint<A: ForwardAnalysis>(func: &Func, analysis: &A) -> FactMap<A::Fact> {
    let mut facts = FactMap::new(func.num_values());
    for (i, &p) in func.params().iter().enumerate() {
        let f = analysis.entry(func, i, p);
        facts.join(p, &f);
    }
    // Arena order is a valid execution order within each region, and a
    // `for` op precedes its body ops in the arena, so one pass flows
    // facts forward; repeated passes resolve the loop feedback and
    // region-result edges. Finite lattice height bounds the iteration.
    loop {
        let mut changed = false;
        for op_id in func.op_ids() {
            let op = func.op(op_id);
            if let Some(region) = &op.region {
                let idx = analysis.loop_index(func, region.params[0]);
                changed |= facts.join(region.params[0], &idx);
                for (i, &operand) in op.operands.iter().enumerate() {
                    let f = facts.get(operand).clone();
                    changed |= facts.join(region.params[1 + i], &f);
                }
                for (i, &yielded) in region.results.iter().enumerate() {
                    let f = facts.get(yielded).clone();
                    // Loop-carried feedback: the next iteration sees the
                    // yielded fact as its param fact.
                    changed |= facts.join(region.params[1 + i], &f);
                    changed |= facts.join(op.results[i], &f);
                }
            } else {
                let operands: Vec<A::Fact> =
                    op.operands.iter().map(|&v| facts.get(v).clone()).collect();
                let results = analysis.transfer(func, op_id, &operands);
                debug_assert_eq!(results.len(), op.results.len(), "transfer arity");
                for (&r, f) in op.results.iter().zip(&results) {
                    changed |= facts.join(r, f);
                }
            }
        }
        if !changed {
            return facts;
        }
    }
}

/// The linearisation every memory estimate walks (through
/// [`crate::memory::PeakWalk`]): region bodies inline once, *before*
/// their owning op.
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

/// A backward analysis: facts flow from use sites (and the function
/// exit) back to value definitions.
pub trait BackwardAnalysis {
    /// The lattice.
    type Fact: Fact;

    /// The fact seeded at the function exit for value `v` (results and
    /// parameters; ⊥ to seed nothing).
    fn exit(&self, func: &Func, v: ValueId) -> Self::Fact;

    /// The fact a use of `v` by `op` (at linear position `pos`)
    /// contributes.
    fn use_site(&self, func: &Func, op: OpId, pos: usize, v: ValueId) -> Self::Fact;
}

/// Runs `analysis` backward over `lin` to a fixpoint.
///
/// Region results count as used by their owning `for` op (they are what
/// the loop hands back).
pub fn backward_fixpoint<A: BackwardAnalysis>(
    func: &Func,
    lin: &Linearization,
    analysis: &A,
) -> FactMap<A::Fact> {
    let mut facts = FactMap::new(func.num_values());
    for &r in func.results() {
        let f = analysis.exit(func, r);
        facts.join(r, &f);
    }
    for &p in func.params() {
        let f = analysis.exit(func, p);
        facts.join(p, &f);
    }
    loop {
        let mut changed = false;
        for (pos, &op_id) in lin.order().iter().enumerate().rev() {
            let op = func.op(op_id);
            for &operand in &op.operands {
                let f = analysis.use_site(func, op_id, pos, operand);
                changed |= facts.join(operand, &f);
            }
            if let Some(region) = &op.region {
                for &yielded in &region.results {
                    let f = analysis.use_site(func, op_id, pos, yielded);
                    changed |= facts.join(yielded, &f);
                }
            }
        }
        if !changed {
            return facts;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use partir_ir::{FuncBuilder, TensorType};

    /// Tracks which parameters a value (transitively) derives from.
    struct Taint;

    #[derive(Debug, Clone, PartialEq, Default)]
    struct ParamSet(Vec<usize>);

    impl Fact for ParamSet {
        fn bottom() -> Self {
            ParamSet::default()
        }

        fn join(&mut self, other: &Self) -> bool {
            let mut changed = false;
            for &p in &other.0 {
                if !self.0.contains(&p) {
                    self.0.push(p);
                    changed = true;
                }
            }
            self.0.sort_unstable();
            changed
        }
    }

    impl ForwardAnalysis for Taint {
        type Fact = ParamSet;

        fn entry(&self, _func: &Func, index: usize, _v: ValueId) -> ParamSet {
            ParamSet(vec![index])
        }

        fn transfer(&self, func: &Func, op: OpId, operands: &[ParamSet]) -> Vec<ParamSet> {
            let mut out = ParamSet::bottom();
            for f in operands {
                out.join(f);
            }
            vec![out; func.op(op).results.len()]
        }
    }

    #[test]
    fn forward_reaches_through_straightline_code() {
        let mut b = FuncBuilder::new("f");
        let x = b.param("x", TensorType::f32([4, 4]));
        let w = b.param("w", TensorType::f32([4, 4]));
        let y = b.matmul(x, w).unwrap();
        let z = b.neg(y).unwrap();
        let f = b.build([z]).unwrap();
        let facts = forward_fixpoint(&f, &Taint);
        assert_eq!(facts.get(z), &ParamSet(vec![0, 1]));
    }

    #[test]
    fn forward_feeds_loop_carried_values_back() {
        let mut b = FuncBuilder::new("f");
        let x = b.param("x", TensorType::f32([4]));
        let w = b.param("w", TensorType::f32([4]));
        let results = b
            .for_loop(3, &[x], |inner, _i, carried| {
                // Each iteration folds `w` into the carried value: the
                // carried param must end up tainted by both params.
                let t = inner.add(carried[0], w)?;
                Ok(vec![t])
            })
            .unwrap();
        let f = b.build([results[0]]).unwrap();
        let facts = forward_fixpoint(&f, &Taint);
        assert_eq!(facts.get(results[0]), &ParamSet(vec![0, 1]));
        // The region param itself converged to the joined fact too.
        let region = f.op(f.body()[0]).region.as_ref().unwrap();
        assert_eq!(facts.get(region.params[1]), &ParamSet(vec![0, 1]));
    }

    #[test]
    fn flat_lattice_joins() {
        let mut f = Flat::Bottom;
        assert!(f.join(&Flat::Known(1)));
        assert!(!f.join(&Flat::Known(1)));
        assert!(f.join(&Flat::Known(2)));
        assert_eq!(f, Flat::Top);
        assert!(!f.join(&Flat::Known(3)));
        assert!(!Flat::<i32>::Bottom.join(&Flat::Bottom));
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
