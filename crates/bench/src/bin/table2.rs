//! Regenerates **Table 2**: number of collectives introduced by different
//! schedules (paper §7.3).
//!
//! Models use the paper's layer/parameter-tensor structure at scaled
//! width (collective counts depend on structure only). IT32's serving
//! loop runs 4 trips here where the paper's configuration implies 1536;
//! the per-layer-per-trip law (2 AR × 32 layers × trips under Megatron)
//! is what carries over.
//!
//! Run with: `cargo run --release -p partir-bench --bin table2 [--json]`

use partir_bench::{emit, paper};

fn main() {
    emit(&paper::table2(&mut paper::Cells::default()));
}
