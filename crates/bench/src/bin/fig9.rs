//! Regenerates **Figure 9** (Appendix A.5.1): analytical runtime
//! estimates versus "measured" runtime, per model and schedule, on a
//! 32-device mesh. Closer to zero is better.
//!
//! The measured side is the plan walk (`partir_sim::event`): the cell's
//! compiled plan, with its fused chains and collective windows, timed
//! with the simulator's costs. It stands in for TPUv3 hardware — see
//! DESIGN.md substitutions.
//!
//! Run with: `cargo run --release -p partir-bench --bin fig9 [--json]`

use partir_bench::{emit, paper};

fn main() {
    emit(&paper::fig9(&mut paper::Cells::default()));
}
