//! Per-op work on the types a function records: FLOPs (formula in
//! `partir_analysis::cost`) and HBM bytes moved.

use partir_analysis::cost::op_flops;
use partir_ir::{Func, OpId, OpKind, Shape};

/// FLOPs of one non-region op.
pub(crate) fn flops_of(func: &Func, op_id: OpId) -> f64 {
    let op = func.op(op_id);
    let shapes: Vec<&Shape> = op
        .operands
        .iter()
        .map(|&v| &func.value_type(v).shape)
        .collect();
    op_flops(&op.kind, &shapes, &&func.value_type(op.results[0]).shape)
}

/// HBM bytes one non-region op moves: its operands plus its result.
pub(crate) fn moved_bytes_of(func: &Func, op_id: OpId) -> f64 {
    let op = func.op(op_id);
    op.operands
        .iter()
        .map(|&v| func.value_type(v).size_bytes() as f64)
        .sum::<f64>()
        + func.value_type(op.results[0]).size_bytes() as f64
}

/// Total flops of a function, multiplying through `for` trip counts.
/// On an unpartitioned function this is the paper's "model FLOPs"
/// (Appendix A.1); on a device-local program it is per-device flops.
pub fn func_flops(func: &Func) -> f64 {
    fn body_flops(func: &Func, body: &[OpId]) -> f64 {
        let mut total = 0.0;
        for &op_id in body {
            let op = func.op(op_id);
            if let (OpKind::For { trip_count }, Some(region)) = (&op.kind, &op.region) {
                total += *trip_count as f64 * body_flops(func, &region.body);
                continue;
            }
            total += flops_of(func, op_id);
        }
        total
    }
    body_flops(func, func.body())
}

#[cfg(test)]
mod tests {
    use super::*;
    use partir_ir::{FuncBuilder, TensorType};

    #[test]
    fn matmul_flops_are_2mnk() {
        let mut b = FuncBuilder::new("f");
        let x = b.param("x", TensorType::f32([4, 8]));
        let w = b.param("w", TensorType::f32([8, 16]));
        let y = b.matmul(x, w).unwrap();
        let f = b.build([y]).unwrap();
        assert_eq!(func_flops(&f), 2.0 * 4.0 * 8.0 * 16.0);
    }

    #[test]
    fn loops_multiply_flops() {
        let mut b = FuncBuilder::new("f");
        let x = b.param("x", TensorType::f32([4, 4]));
        let out = b
            .for_loop(5, &[x], |b, _i, c| Ok(vec![b.matmul(c[0], c[0])?]))
            .unwrap();
        let f = b.build(out).unwrap();
        assert_eq!(func_flops(&f), 5.0 * 2.0 * 4.0 * 4.0 * 4.0);
    }

    #[test]
    fn elementwise_counts_output_elements() {
        let mut b = FuncBuilder::new("f");
        let x = b.param("x", TensorType::f32([10]));
        let y = b.add(x, x).unwrap();
        let z = b.exp(y).unwrap();
        let f = b.build([z]).unwrap();
        assert_eq!(func_flops(&f), 20.0);
    }
}
