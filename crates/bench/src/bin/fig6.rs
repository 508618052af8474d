//! Regenerates **Figure 6**: training step runtime for manual, mixed and
//! fully automatic schedules on an 8×4 mesh (lower is better).
//!
//! The paper measures real TPU wall-clock; here the plan walk
//! (`partir_sim::event`: each cell's compiled plan, timed with the
//! simulator's costs) plays that role (DESIGN.md substitutions), so the
//! bars carry the same meaning: which schedule wins and by roughly what
//! factor.
//!
//! Run with: `cargo run --release -p partir-bench --bin fig6 [--json]`

use partir_bench::{emit, paper};

fn main() {
    emit(&paper::fig6(&mut paper::Cells::default()));
}
