//! Collective statistics — the numbers reported in Table 2 of the paper.

use partir_ir::{Collective, Func, OpId, OpKind};

pub use partir_analysis::cost::CollectiveStats;

/// Counts the collectives of a lowered function.
pub fn collect_stats(func: &Func) -> CollectiveStats {
    let mut stats = CollectiveStats::default();
    count_body(func, func.body(), 1, &mut stats);
    stats
}

fn count_body(func: &Func, body: &[OpId], multiplier: usize, stats: &mut CollectiveStats) {
    for &op_id in body {
        let op = func.op(op_id);
        match &op.kind {
            OpKind::For { trip_count } => {
                if let Some(region) = &op.region {
                    count_body(func, &region.body, multiplier * trip_count, stats);
                }
            }
            OpKind::Collective(c) => match c {
                Collective::AllGather { .. } => stats.all_gather += multiplier,
                Collective::AllReduce { .. } => stats.all_reduce += multiplier,
                Collective::ReduceScatter { .. } => stats.reduce_scatter += multiplier,
                Collective::AllToAll { .. } => stats.all_to_all += multiplier,
                Collective::AllSlice { .. } => stats.all_slice += multiplier,
            },
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use partir_ir::{FuncBuilder, ReduceOp, TensorType};
    use partir_mesh::Mesh;

    #[test]
    fn counts_multiply_through_loops() {
        let mesh = Mesh::single("m", 2).unwrap();
        let mut b = FuncBuilder::with_mesh("f", mesh);
        let x = b.param("x", TensorType::f32([4]));
        let out = b
            .for_loop(10, &[x], |b, _i, c| {
                let r = b.collective(
                    Collective::AllReduce {
                        axes: vec!["m".into()],
                        reduce: ReduceOp::Sum,
                    },
                    c[0],
                )?;
                Ok(vec![r])
            })
            .unwrap();
        let g = b
            .collective(
                Collective::AllGather {
                    dim_axes: vec![vec![]],
                },
                out[0],
            )
            .unwrap();
        let f = b.build([g]).unwrap();
        let stats = collect_stats(&f);
        assert_eq!(stats.all_reduce, 10);
        assert_eq!(stats.all_gather, 1);
        assert_eq!(stats.total(), 11);
        assert_eq!(stats.to_string(), "AG=1 AR=10 RS=0 A2A=0");
    }
}
