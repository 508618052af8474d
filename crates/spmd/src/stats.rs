//! Collective statistics — the numbers reported in Table 2 of the paper.

use partir_ir::{Collective, Func, OpId, OpKind};

/// Counts of collective ops in a device-local program, with ops inside a
/// `for` loop counted once per iteration (the paper notes the IT32 serving
/// loop "greatly amplifies the number of collectives").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollectiveStats {
    /// `all_gather` count.
    pub all_gather: usize,
    /// `all_reduce` count.
    pub all_reduce: usize,
    /// `reduce_scatter` count.
    pub reduce_scatter: usize,
    /// `all_to_all` count.
    pub all_to_all: usize,
    /// Unfused `all_slice` count (free locally: a slice needs no
    /// communication, but reported for completeness).
    pub all_slice: usize,
}

impl CollectiveStats {
    /// Total communicating collectives (excludes `all_slice`, which is
    /// device-local).
    pub fn total(&self) -> usize {
        self.all_gather + self.all_reduce + self.reduce_scatter + self.all_to_all
    }
}

impl std::fmt::Display for CollectiveStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "AG={} AR={} RS={} A2A={}",
            self.all_gather, self.all_reduce, self.reduce_scatter, self.all_to_all
        )
    }
}

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
