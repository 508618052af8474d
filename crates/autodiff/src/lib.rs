//! Reverse-mode automatic differentiation over the `partir-ir` tensor IR,
//! plus an Adam optimizer graph builder.
//!
//! The paper partitions full *training steps* — forward pass, loss,
//! back-propagation and optimizer update (§2.3 "a note on scale"). JAX
//! provides those graphs via tracing `jax.grad`; this crate rebuilds the
//! capability: [`backward`] appends the backward pass to a function under
//! construction, and [`adam_update`] appends optimizer-update arithmetic,
//! so model builders can produce the same graph *shape* PartIR sees in
//! production.
//!
//! # Examples
//!
//! Differentiate `sum((x·w)²)` with respect to `w`:
//!
//! ```
//! use partir_autodiff::backward;
//! use partir_ir::{FuncBuilder, TensorType};
//!
//! let mut b = FuncBuilder::new("train");
//! let x = b.param("x", TensorType::f32([4, 8]));
//! let w = b.param("w", TensorType::f32([8, 2]));
//! let y = b.matmul(x, w)?;
//! let sq = b.mul(y, y)?;
//! let loss = b.reduce_sum(sq, vec![0, 1])?;
//! let grads = backward(&mut b, loss, &[w])?;
//! let f = b.build([loss, grads[0]])?;
//! assert_eq!(f.results().len(), 2);
//! # Ok::<(), partir_ir::IrError>(())
//! ```

#![forbid(unsafe_code)]

mod adam;
mod vjp;

pub use adam::{adam_update, AdamConfig};

use std::collections::HashMap;

use partir_ir::{FuncBuilder, IrError, Literal, ValueId};

/// Appends the reverse-mode backward pass for scalar `loss` to `b` and
/// returns `d loss / d v` for each value in `wrt` (zeros when a value does
/// not influence the loss).
///
/// # Errors
///
/// Fails if `loss` is not a scalar f32 value, or if an op on the path from
/// `wrt` to `loss` has no differentiation rule (e.g. `for` loops,
/// dynamic slices and second-order convolution gradients).
pub fn backward(
    b: &mut FuncBuilder,
    loss: ValueId,
    wrt: &[ValueId],
) -> Result<Vec<ValueId>, IrError> {
    let loss_ty = b.ty(loss).clone();
    if loss_ty.rank() != 0 || !loss_ty.dtype.is_float() {
        return Err(IrError::invalid(format!(
            "backward requires a scalar f32 loss, got {loss_ty}"
        )));
    }
    // Cotangent accumulator per value.
    let mut grads: HashMap<ValueId, ValueId> = HashMap::new();
    let seed = b.constant(Literal::scalar_f32(1.0))?;
    grads.insert(loss, seed);

    // Walk the tape backwards. Ops appended by VJP rules land *after* the
    // snapshot length, so the traversal covers the forward ops only.
    let num_forward_ops = b.recorded_ops().len() - 1; // exclude the seed constant
    for op_index in (0..num_forward_ops).rev() {
        let op = &b.recorded_ops()[op_index];
        if op.region.is_some() {
            // A `for` loop only matters if any of its results carries a
            // cotangent; training-step graphs never put the loss behind one.
            if op.results.iter().any(|r| grads.contains_key(r)) {
                return Err(IrError::unsupported(
                    "backward through region ops (for loops)",
                ));
            }
            continue;
        }
        let result = op.results[0];
        let Some(&cot) = grads.get(&result) else {
            continue; // result does not influence the loss
        };
        let kind = op.kind.clone();
        let operands = op.operands.clone();
        let contributions = vjp::vjp(b, &kind, &operands, result, cot)?;
        for (operand, contribution) in operands.iter().zip(contributions) {
            let Some(contribution) = contribution else {
                continue;
            };
            match grads.get(operand) {
                Some(&existing) => {
                    let sum = b.add(existing, contribution)?;
                    grads.insert(*operand, sum);
                }
                None => {
                    grads.insert(*operand, contribution);
                }
            }
        }
    }

    wrt.iter()
        .map(|&v| match grads.get(&v) {
            Some(&g) => Ok(g),
            None => {
                let ty = b.ty(v).clone();
                b.constant(Literal::zeros(&ty))
            }
        })
        .collect()
}
