//! The paper's experiment rows, pinned byte for byte: `partir_bench::paper`
//! must render exactly the committed `--json` output of the `table2`,
//! `table3`, `fig7`, `fig9` and `fig10` bins, while jitting each
//! distinct (model, schedule, mesh) cell once across all five and
//! compiling the plan of each cell Figs 9 and 10 measure once across
//! both.
//!
//! A golden is regenerated with
//! `cargo run --release -p partir-bench --bin <bin> -- --json > tests/golden/experiments/<bin>.json`.

use partir_bench::paper::{self, Cells};
use partir_bench::{rows_to_json, Row};

/// The first line where `rendered` departs from `golden`, named by the
/// row (model and schedule) that holds it.
fn first_difference(golden: &str, rendered: &str) -> Option<String> {
    let (golden, rendered): (Vec<&str>, Vec<&str>) =
        (golden.lines().collect(), rendered.lines().collect());
    let i = (0..golden.len().max(rendered.len())).find(|&i| golden.get(i) != rendered.get(i))?;
    let field = |key: &str| {
        golden[..i.min(golden.len())]
            .iter()
            .rev()
            .find_map(|l| l.trim().strip_prefix(&format!("\"{key}\": ")))
            .unwrap_or("?")
            .trim_end_matches(',')
            .to_string()
    };
    Some(format!(
        "row {} {}, line {}:\n  golden:  {}\n  library: {}",
        field("model"),
        field("schedule"),
        i + 1,
        golden.get(i).unwrap_or(&"<end>"),
        rendered.get(i).unwrap_or(&"<end>"),
    ))
}

#[test]
fn paper_rows_match_the_committed_goldens() {
    type Experiment = fn(&mut Cells) -> Vec<Row>;
    let experiments: [(&str, Experiment, &str); 5] = [
        (
            "table2",
            paper::table2,
            include_str!("golden/experiments/table2.json"),
        ),
        (
            "table3",
            paper::table3,
            include_str!("golden/experiments/table3.json"),
        ),
        (
            "fig7",
            paper::fig7,
            include_str!("golden/experiments/fig7.json"),
        ),
        (
            "fig9",
            paper::fig9,
            include_str!("golden/experiments/fig9.json"),
        ),
        (
            "fig10",
            paper::fig10,
            include_str!("golden/experiments/fig10.json"),
        ),
    ];
    let mut cells = Cells::default();
    let mut failures = Vec::new();
    for (bin, experiment, golden) in experiments {
        // `emit` prints the JSON with `println!`.
        let rendered = format!("{}\n", rows_to_json(&experiment(&mut cells)));
        if rendered != golden {
            let diff = first_difference(golden, &rendered)
                .unwrap_or_else(|| "line endings differ".to_string());
            failures.push(format!("{bin}.json: {diff}"));
        }
    }
    assert!(
        failures.is_empty(),
        "experiment rows departed from their goldens:\n{}",
        failures.join("\n")
    );
    // 15 Table 2 cells on 4×2; on 8×4, the same 15 (Figs 9 and 10) plus
    // Table 3's six mixed and automatic ones; Fig 7's four U-Net cells
    // on 8×2.
    assert_eq!(cells.jits(), 15 + 15 + 6 + 4);
    // Figs 9 and 10 share the plans of the 15 Table 2 cells on 8×4.
    assert_eq!(cells.plans(), 15);
}
