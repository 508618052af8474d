//! Regenerates **Figure 10** (Appendix A.5.2): peak-memory estimates
//! versus "measured" memory, per model and schedule. Closer to zero is
//! better; the estimator deliberately over-estimates (the paper prefers
//! discouraging partitions near the memory boundary).
//!
//! Run with: `cargo run --release -p partir-bench --bin fig10 [--json]`

use partir_bench::{emit, paper};

fn main() {
    emit(&paper::fig10(&mut paper::Cells::default()));
}
