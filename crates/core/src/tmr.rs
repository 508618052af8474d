//! The tile-mapping registry (TMR, paper §5.2.1).
//!
//! For every tensor op the TMR enumerates specifications
//! `t₁⊥, …, tₙ⊥ ↪ σ` asserting that the op can be rewritten as a loop over
//! one mesh axis with result action `σ` if its operands are sliced
//! according to the (optional) tilings `tᵢ`. Each specification encodes a
//! linear-algebra homomorphism — stacking for `#tile` results, a monoid
//! reduction for `#sum` results.
//!
//! The propagation pass (`state.rs`) is *generic across all ops*: it only
//! ever queries this registry, exactly as in the paper.

use std::collections::HashMap;

use partir_ir::{Func, OpId, OpKind, ReduceOp};

/// The action of a loop rewrite on the op's (single) result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResultAction {
    /// Iterations produce tiles of the result along `dim`
    /// (the paper's `#tile<dim>`).
    Tile(usize),
    /// Iterations produce partial results combined with the monoid
    /// (the paper's `#sum`, generalised to `#sum<@f>` for any associative
    /// reduction).
    Reduce(ReduceOp),
}

/// One TMR specification: optional per-operand tilings and the result
/// action they justify.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TmrEntry {
    /// For each operand, the dimension it must be sliced on (`None` = the
    /// operand is used whole, the paper's ⊥).
    pub operands: Vec<Option<usize>>,
    /// The loop action on the result.
    pub result: ResultAction,
}

impl TmrEntry {
    fn new(operands: Vec<Option<usize>>, result: ResultAction) -> Self {
        TmrEntry { operands, result }
    }
}

/// The TMR entries of every op of one function, computed once and read
/// by reference: propagation visits an op many times per search
/// candidate, and the entries depend on the function alone. Ops of the
/// same kind and ranks share one row (a training step has thousands of
/// ops and a few dozen distinct rows), so the table costs four bytes per
/// op on top of the distinct rows.
#[derive(Debug)]
pub(crate) struct TmrTable {
    rows: Vec<Vec<TmrEntry>>,
    /// Index into `rows` per op.
    row_of: Vec<u32>,
}

impl TmrTable {
    pub(crate) fn new(func: &Func) -> Self {
        let mut index: HashMap<Vec<TmrEntry>, u32> = HashMap::new();
        let row_of = func
            .op_ids()
            .map(|op| {
                let next = index.len() as u32;
                *index.entry(tmr_entries(func, op)).or_insert(next)
            })
            .collect();
        let mut rows = vec![Vec::new(); index.len()];
        for (row, id) in index {
            rows[id as usize] = row;
        }
        TmrTable { rows, row_of }
    }

    /// The entries of `op`, in [`tmr_entries`] order.
    pub(crate) fn of(&self, op: OpId) -> &[TmrEntry] {
        &self.rows[self.row_of[op.0 as usize] as usize]
    }
}

/// Enumerates the TMR entries of `op` within `func`.
///
/// Ops with no parallelisable structure (and region ops, which propagation
/// handles by unification) return an empty list.
pub fn tmr_entries(func: &Func, op: OpId) -> Vec<TmrEntry> {
    let data = func.op(op);
    let rank_of = |i: usize| func.value_type(data.operands[i]).rank();
    let result_rank = data
        .results
        .first()
        .map(|&r| func.value_type(r).rank())
        .unwrap_or(0);
    let mut entries = Vec::new();
    match &data.kind {
        OpKind::Unary(_) | OpKind::Convert(_) => {
            for d in 0..result_rank {
                entries.push(TmrEntry::new(vec![Some(d)], ResultAction::Tile(d)));
            }
        }
        OpKind::Binary(_) | OpKind::Compare(_) => {
            for d in 0..result_rank {
                entries.push(TmrEntry::new(vec![Some(d), Some(d)], ResultAction::Tile(d)));
            }
        }
        OpKind::Select => {
            for d in 0..result_rank {
                entries.push(TmrEntry::new(
                    vec![Some(d), Some(d), Some(d)],
                    ResultAction::Tile(d),
                ));
            }
        }
        OpKind::Dot(dims) => {
            let (lr, rr) = (rank_of(0), rank_of(1));
            let lhs_free = dims.free_dims(lr, true);
            let rhs_free = dims.free_dims(rr, false);
            let nb = dims.lhs_batch.len();
            for (i, (&lb, &rb)) in dims.lhs_batch.iter().zip(&dims.rhs_batch).enumerate() {
                entries.push(TmrEntry::new(
                    vec![Some(lb), Some(rb)],
                    ResultAction::Tile(i),
                ));
            }
            for (j, &d) in lhs_free.iter().enumerate() {
                entries.push(TmrEntry::new(
                    vec![Some(d), None],
                    ResultAction::Tile(nb + j),
                ));
            }
            for (k, &d) in rhs_free.iter().enumerate() {
                entries.push(TmrEntry::new(
                    vec![None, Some(d)],
                    ResultAction::Tile(nb + lhs_free.len() + k),
                ));
            }
            for (&lc, &rc) in dims.lhs_contract.iter().zip(&dims.rhs_contract) {
                entries.push(TmrEntry::new(
                    vec![Some(lc), Some(rc)],
                    ResultAction::Reduce(ReduceOp::Sum),
                ));
            }
        }
        OpKind::Transpose { perm } => {
            for (i, &p) in perm.iter().enumerate() {
                entries.push(TmrEntry::new(vec![Some(p)], ResultAction::Tile(i)));
            }
        }
        OpKind::Reshape { shape } => {
            let in_shape = &func.value_type(data.operands[0]).shape;
            for (din, dout) in reshape_dim_pairs(in_shape.dims(), shape.dims()) {
                entries.push(TmrEntry::new(vec![Some(din)], ResultAction::Tile(dout)));
            }
        }
        OpKind::BroadcastInDim {
            shape,
            broadcast_dims,
        } => {
            let in_shape = &func.value_type(data.operands[0]).shape;
            for (i, &bd) in broadcast_dims.iter().enumerate() {
                if in_shape.dim(i) != 1 {
                    entries.push(TmrEntry::new(vec![Some(i)], ResultAction::Tile(bd)));
                }
            }
            // Purely broadcast result dims can be tiled without slicing
            // the operand at all (each shard recomputes its copies).
            for d in 0..shape.rank() {
                let expanded = broadcast_dims
                    .iter()
                    .enumerate()
                    .all(|(i, &bd)| bd != d || in_shape.dim(i) == 1);
                if expanded {
                    entries.push(TmrEntry::new(vec![None], ResultAction::Tile(d)));
                }
            }
        }
        OpKind::Reduce { op, dims } => {
            let in_rank = rank_of(0);
            let kept: Vec<usize> = (0..in_rank).filter(|d| !dims.contains(d)).collect();
            for (p, &k) in kept.iter().enumerate() {
                entries.push(TmrEntry::new(vec![Some(k)], ResultAction::Tile(p)));
            }
            for &r in dims {
                entries.push(TmrEntry::new(vec![Some(r)], ResultAction::Reduce(*op)));
            }
        }
        OpKind::Slice {
            starts,
            limits,
            strides,
        } => {
            // Only pass-through dimensions tile soundly (paper §8 notes
            // PartIR's limited support for partial/spatial slicing).
            let in_shape = &func.value_type(data.operands[0]).shape;
            for d in 0..in_shape.rank() {
                if starts[d] == 0 && limits[d] == in_shape.dim(d) && strides[d] == 1 {
                    entries.push(TmrEntry::new(vec![Some(d)], ResultAction::Tile(d)));
                }
            }
        }
        OpKind::Pad { low, high } => {
            for d in 0..rank_of(0) {
                if low[d] == 0 && high[d] == 0 {
                    entries.push(TmrEntry::new(vec![Some(d), None], ResultAction::Tile(d)));
                }
            }
        }
        OpKind::Concatenate { dim } => {
            let n = data.operands.len();
            for d in 0..result_rank {
                if d != *dim {
                    entries.push(TmrEntry::new(vec![Some(d); n], ResultAction::Tile(d)));
                }
            }
        }
        OpKind::DynamicSlice { sizes } => {
            // Dims read whole pass tiling through; the sliced dim cannot.
            let in_shape = &func.value_type(data.operands[0]).shape;
            let n = data.operands.len();
            for (d, &s) in sizes.iter().enumerate() {
                if s == in_shape.dim(d) {
                    let mut operands = vec![None; n];
                    operands[0] = Some(d);
                    entries.push(TmrEntry::new(operands, ResultAction::Tile(d)));
                }
            }
        }
        OpKind::DynamicUpdateSlice => {
            // Dims where the update spans the operand tile consistently.
            let op_shape = &func.value_type(data.operands[0]).shape;
            let up_shape = &func.value_type(data.operands[1]).shape;
            let n = data.operands.len();
            for d in 0..op_shape.rank() {
                if op_shape.dim(d) == up_shape.dim(d) {
                    let mut operands = vec![None; n];
                    operands[0] = Some(d);
                    operands[1] = Some(d);
                    entries.push(TmrEntry::new(operands, ResultAction::Tile(d)));
                }
            }
        }
        OpKind::Gather { axis } => {
            // Tiling the indices tiles the gathered dim of the result —
            // the enabler of GNS edge sharding.
            entries.push(TmrEntry::new(
                vec![None, Some(0)],
                ResultAction::Tile(*axis),
            ));
            for d in 0..result_rank {
                if d != *axis {
                    entries.push(TmrEntry::new(vec![Some(d), None], ResultAction::Tile(d)));
                }
            }
        }
        OpKind::ScatterAdd { axis, .. } => {
            // Tiling the scattered rows makes iterations produce partial
            // sums of the full result.
            entries.push(TmrEntry::new(
                vec![Some(*axis), Some(0)],
                ResultAction::Reduce(ReduceOp::Sum),
            ));
            for d in 0..result_rank {
                if d != *axis {
                    entries.push(TmrEntry::new(vec![Some(d), None], ResultAction::Tile(d)));
                }
            }
        }
        OpKind::Convolution(_) => {
            // input [N,Ci,H,W] × kernel [Co,Ci,kh,kw] → [N,Co,Ho,Wo].
            entries.push(TmrEntry::new(vec![Some(0), None], ResultAction::Tile(0)));
            entries.push(TmrEntry::new(vec![None, Some(0)], ResultAction::Tile(1)));
            entries.push(TmrEntry::new(
                vec![Some(1), Some(1)],
                ResultAction::Reduce(ReduceOp::Sum),
            ));
            // Spatial dims intentionally absent (halo exchange unsupported,
            // paper §8).
        }
        OpKind::ConvInputGrad { .. } => {
            // out_grad [N,Co,Ho,Wo] × kernel [Co,Ci,kh,kw] → [N,Ci,H,W].
            entries.push(TmrEntry::new(vec![Some(0), None], ResultAction::Tile(0)));
            entries.push(TmrEntry::new(vec![None, Some(1)], ResultAction::Tile(1)));
            entries.push(TmrEntry::new(
                vec![Some(1), Some(0)],
                ResultAction::Reduce(ReduceOp::Sum),
            ));
        }
        OpKind::ConvFilterGrad { .. } => {
            // input [N,Ci,H,W] × out_grad [N,Co,Ho,Wo] → [Co,Ci,kh,kw].
            entries.push(TmrEntry::new(
                vec![Some(0), Some(0)],
                ResultAction::Reduce(ReduceOp::Sum),
            ));
            entries.push(TmrEntry::new(vec![Some(1), None], ResultAction::Tile(1)));
            entries.push(TmrEntry::new(vec![None, Some(1)], ResultAction::Tile(0)));
        }
        OpKind::ArgMax { dim } => {
            let in_rank = rank_of(0);
            let kept: Vec<usize> = (0..in_rank).filter(|d| d != dim).collect();
            for (p, &k) in kept.iter().enumerate() {
                entries.push(TmrEntry::new(vec![Some(k)], ResultAction::Tile(p)));
            }
        }
        OpKind::Constant(_) | OpKind::Iota { .. } => {
            // Results of nullary ops can be tiled on any dimension; the
            // shard simply materialises its slice. These entries only fire
            // on result-side (backward) evidence.
            for d in 0..result_rank {
                entries.push(TmrEntry::new(vec![], ResultAction::Tile(d)));
            }
        }
        OpKind::For { .. } => {}    // handled by carried-value unification
        OpKind::Collective(_) => {} // post-lowering only
    }
    entries
}

/// Dimension correspondences that survive a reshape: pairs
/// `(operand_dim, result_dim)` such that tiling one tiles the other.
///
/// Both shapes are decomposed into aligned segments of equal element
/// count; within a segment the *major* (first) dimensions correspond, and
/// 1:1 segments correspond directly. This conservatively covers the
/// `[B,T,H·d] ↔ [B,T,H,d]` attention reshapes while refusing the
/// paper's problematic cases (§8 "reshape support").
pub fn reshape_dim_pairs(input: &[usize], output: &[usize]) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < input.len() && j < output.len() {
        // Skip over size-1 dims that pair trivially but carry no tiling.
        let (seg_i, seg_j) = (i, j);
        let mut pi: u128 = input[i] as u128;
        let mut pj: u128 = output[j] as u128;
        while pi != pj {
            if pi < pj {
                i += 1;
                if i >= input.len() {
                    return pairs;
                }
                pi *= input[i] as u128;
            } else {
                j += 1;
                if j >= output.len() {
                    return pairs;
                }
                pj *= output[j] as u128;
            }
        }
        // Segment [seg_i..=i] × [seg_j..=j] with equal products.
        if i == seg_i && j == seg_j {
            if input[seg_i] == output[seg_j] {
                pairs.push((seg_i, seg_j));
            }
        } else if input[seg_i] == output[seg_j] {
            // Equal majors of a split/merge group still correspond.
            pairs.push((seg_i, seg_j));
        } else if input[seg_i].is_multiple_of(output[seg_j])
            || output[seg_j].is_multiple_of(input[seg_i])
        {
            // A major dim that divides the other major still tiles it for
            // axis sizes dividing the smaller one; conservatively allow
            // the pairing (divisibility is re-checked at action time).
            pairs.push((seg_i, seg_j));
        }
        i += 1;
        j += 1;
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use partir_ir::{DotDims, FuncBuilder, TensorType};

    fn single_op_entries(
        build: impl FnOnce(&mut FuncBuilder) -> partir_ir::ValueId,
    ) -> Vec<TmrEntry> {
        let mut b = FuncBuilder::new("t");
        let out = build(&mut b);
        let f = b.build([out]).unwrap();
        let op = f.body().last().copied().unwrap();
        tmr_entries(&f, op)
    }

    #[test]
    fn matmul_entries_match_paper_figure4() {
        let entries = single_op_entries(|b| {
            let x = b.param("x", TensorType::f32([32, 16]));
            let y = b.param("y", TensorType::f32([16, 8]));
            b.matmul(x, y).unwrap()
        });
        assert!(entries.contains(&TmrEntry::new(vec![Some(0), None], ResultAction::Tile(0))));
        assert!(entries.contains(&TmrEntry::new(vec![None, Some(1)], ResultAction::Tile(1))));
        assert!(entries.contains(&TmrEntry::new(
            vec![Some(1), Some(0)],
            ResultAction::Reduce(ReduceOp::Sum)
        )));
        assert_eq!(entries.len(), 3);
    }

    #[test]
    fn add_entries_tile_both_operands_alike() {
        let entries = single_op_entries(|b| {
            let x = b.param("x", TensorType::f32([4, 8]));
            let y = b.param("y", TensorType::f32([4, 8]));
            b.add(x, y).unwrap()
        });
        assert_eq!(
            entries,
            vec![
                TmrEntry::new(vec![Some(0), Some(0)], ResultAction::Tile(0)),
                TmrEntry::new(vec![Some(1), Some(1)], ResultAction::Tile(1)),
            ]
        );
    }

    #[test]
    fn batched_dot_has_batch_entries() {
        let entries = single_op_entries(|b| {
            let x = b.param("x", TensorType::f32([2, 4, 8]));
            let y = b.param("y", TensorType::f32([2, 8, 6]));
            b.dot(
                x,
                y,
                DotDims {
                    lhs_batch: vec![0],
                    rhs_batch: vec![0],
                    lhs_contract: vec![2],
                    rhs_contract: vec![1],
                },
            )
            .unwrap()
        });
        assert!(entries.contains(&TmrEntry::new(
            vec![Some(0), Some(0)],
            ResultAction::Tile(0)
        )));
        assert!(entries.contains(&TmrEntry::new(
            vec![Some(2), Some(1)],
            ResultAction::Reduce(ReduceOp::Sum)
        )));
    }

    #[test]
    fn reduce_entries_split_kept_and_reduced() {
        let entries = single_op_entries(|b| {
            let x = b.param("x", TensorType::f32([4, 8]));
            b.reduce_sum(x, vec![1]).unwrap()
        });
        assert_eq!(
            entries,
            vec![
                TmrEntry::new(vec![Some(0)], ResultAction::Tile(0)),
                TmrEntry::new(vec![Some(1)], ResultAction::Reduce(ReduceOp::Sum)),
            ]
        );
    }

    #[test]
    fn reduce_max_uses_max_monoid() {
        let entries = single_op_entries(|b| {
            let x = b.param("x", TensorType::f32([4, 8]));
            b.reduce_max(x, vec![0]).unwrap()
        });
        assert!(entries.contains(&TmrEntry::new(
            vec![Some(0)],
            ResultAction::Reduce(ReduceOp::Max)
        )));
    }

    #[test]
    fn scatter_add_over_indices_is_a_sum() {
        let entries = single_op_entries(|b| {
            let src = b.param("src", TensorType::f32([6, 4]));
            let idx = b.param("idx", TensorType::i32([6]));
            b.scatter_add(src, idx, 0, 10).unwrap()
        });
        assert!(entries.contains(&TmrEntry::new(
            vec![Some(0), Some(0)],
            ResultAction::Reduce(ReduceOp::Sum)
        )));
        assert!(entries.contains(&TmrEntry::new(vec![Some(1), None], ResultAction::Tile(1))));
    }

    #[test]
    fn reshape_pairs_handle_attention_split() {
        // [B, T, H*dh] -> [B, T, H, dh]
        assert_eq!(
            reshape_dim_pairs(&[2, 3, 8], &[2, 3, 4, 2]),
            vec![(0, 0), (1, 1), (2, 2)]
        );
        // Merge back.
        assert_eq!(
            reshape_dim_pairs(&[2, 3, 4, 2], &[2, 3, 8]),
            vec![(0, 0), (1, 1), (2, 2)]
        );
        // Identity.
        assert_eq!(reshape_dim_pairs(&[5, 7], &[5, 7]), vec![(0, 0), (1, 1)]);
        // Fully scrambled reshape pairs nothing beyond the divisible major.
        assert_eq!(reshape_dim_pairs(&[6], &[2, 3]), vec![(0, 0)]);
    }

    #[test]
    fn constants_have_result_only_entries() {
        let entries = single_op_entries(|b| {
            b.constant(partir_ir::Literal::from_f32(vec![0.0; 8], [2, 4]).unwrap())
                .unwrap()
        });
        assert_eq!(
            entries,
            vec![
                TmrEntry::new(vec![], ResultAction::Tile(0)),
                TmrEntry::new(vec![], ResultAction::Tile(1)),
            ]
        );
    }

    #[test]
    fn conv_entries_cover_batch_channels_and_contraction() {
        let entries = single_op_entries(|b| {
            let x = b.param("x", TensorType::f32([2, 3, 8, 8]));
            let k = b.param("k", TensorType::f32([5, 3, 3, 3]));
            b.convolution(
                x,
                k,
                partir_ir::ConvDims {
                    strides: (1, 1),
                    padding: (1, 1),
                },
            )
            .unwrap()
        });
        assert_eq!(entries.len(), 3);
        assert!(entries.contains(&TmrEntry::new(
            vec![Some(1), Some(1)],
            ResultAction::Reduce(ReduceOp::Sum)
        )));
    }
}
