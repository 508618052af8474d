//! Live-range peak-memory analysis of device-local programs
//! (paper Appendix A.5.2).
//!
//! The program is linearised (loop bodies once — carried values dominate
//! loop-internal allocation in the benchmark models), each value is
//! allocated at its definition and freed after its last use. Parameters
//! are live from entry; results are live to the end. Like the paper we
//! prefer over-estimation. The walk itself is
//! [`partir_analysis::PeakWalk`].

use partir_analysis::PeakWalk;
use partir_ir::{Func, ValueId};

/// Peak memory (bytes) of a device-local program: the shared walk with
/// loop region params treated as free aliases of their carried inputs.
pub fn peak_memory_bytes(func: &Func) -> u64 {
    let bytes_of = |v: ValueId| func.value_type(v).size_bytes() as u64;
    let peak = PeakWalk::of(func).peak(func, bytes_of, false, |_| false, |_| 0);
    // Contract with the static analyzer: its bound is this walk charging
    // the region params too, so it must dominate on every function.
    debug_assert!(
        partir_analysis::static_peak_bound(func) >= peak,
        "static peak-memory bound fell below the simulated peak ({} < {peak})",
        partir_analysis::static_peak_bound(func),
    );
    peak
}

#[cfg(test)]
mod tests {
    use super::*;
    use partir_ir::{FuncBuilder, TensorType};

    #[test]
    fn peak_includes_params_and_largest_intermediate() {
        let mut b = FuncBuilder::new("f");
        let x = b.param("x", TensorType::f32([16])); // 64 B
        let y = b.neg(x).unwrap(); // +64 B
        let z = b.neg(y).unwrap(); // y freed after
        let f = b.build([z]).unwrap();
        let peak = peak_memory_bytes(&f);
        // x (pinned) + y + z live simultaneously at the second op.
        assert_eq!(peak, 64 * 3);
    }

    #[test]
    fn freeing_reduces_pressure() {
        let mut b = FuncBuilder::new("f");
        let x = b.param("x", TensorType::f32([16]));
        // Two sequential temporaries that never overlap beyond one.
        let t1 = b.neg(x).unwrap();
        let t2 = b.neg(t1).unwrap();
        let t3 = b.neg(t2).unwrap();
        let f = b.build([t3]).unwrap();
        // At any time: x + two temporaries at most.
        assert_eq!(peak_memory_bytes(&f), 64 * 3);
    }

    #[test]
    fn sharded_program_uses_less_memory() {
        use partir_core::Partitioning;
        use partir_mesh::Mesh;
        let build = || {
            let mut b = FuncBuilder::new("f");
            let x = b.param("x", TensorType::f32([64, 64]));
            let w = b.param("w", TensorType::f32([64, 64]));
            let y = b.matmul(x, w).unwrap();
            (x, b.build([y]).unwrap())
        };
        let (x, f) = build();
        let full = peak_memory_bytes(&f);
        let mesh = Mesh::single("B", 4).unwrap();
        let mut p = Partitioning::new(&f, mesh).unwrap();
        p.tile(&f, x, 0, &"B".into()).unwrap();
        p.propagate(&f);
        let program = partir_spmd::lower(&f, &p).unwrap();
        let sharded = peak_memory_bytes(program.func());
        assert!(sharded < full, "sharded {sharded} vs full {full}");
    }
}
