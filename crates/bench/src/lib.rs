//! Shared harness utilities for the experiment binaries (one per paper
//! table/figure — see DESIGN.md's experiment index).

use std::time::Duration;

use partir_mesh::{HardwareConfig, Mesh};
use partir_models::schedules::{BATCH, MODEL};
use partir_obs::json_escape;

pub mod paper;

/// A machine-readable experiment row, dumped as JSON when `--json` is
/// passed so EXPERIMENTS.md tables can be regenerated.
#[derive(Debug, Clone)]
pub struct Row {
    /// Experiment id (e.g. `table2`).
    pub experiment: String,
    /// Model name.
    pub model: String,
    /// Schedule label.
    pub schedule: String,
    /// Named metrics.
    pub metrics: Vec<(String, f64)>,
}

impl Row {
    /// Creates a row.
    pub fn new(experiment: &str, model: &str, schedule: &str) -> Self {
        Row {
            experiment: experiment.to_string(),
            model: model.to_string(),
            schedule: schedule.to_string(),
            metrics: Vec::new(),
        }
    }

    /// Adds a metric.
    pub fn metric(mut self, name: &str, value: f64) -> Self {
        self.metrics.push((name.to_string(), value));
        self
    }
}

/// Renders a JSON number: finite floats as-is, integral values without a
/// trailing `.0`, non-finite values as `null` (JSON has no NaN/inf).
/// Sub-nanosecond magnitudes clamp to `0`: every metric here is
/// milliseconds, bytes, counts or ratios, so anything below 1e-12 is
/// floating-point residue (an overlap subtraction landing at 4.2e-40
/// once churned committed-JSON diffs for noise).
fn json_number(value: f64) -> String {
    if !value.is_finite() {
        "null".to_string()
    } else if value.abs() < 1e-12 {
        "0".to_string()
    } else if value.fract() == 0.0 && value.abs() < 1e15 {
        format!("{value:.0}")
    } else {
        format!("{value}")
    }
}

/// Serialises rows to a pretty-printed JSON array (the format the old
/// serde_json path produced: a list of objects with a `metrics` list of
/// `[name, value]` pairs). The workspace is registry-free, so the JSON is
/// rendered by hand, with strings escaped by [`json_escape`].
pub fn rows_to_json(rows: &[Row]) -> String {
    let mut out = String::from("[\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str("  {\n");
        out.push_str(&format!(
            "    \"experiment\": \"{}\",\n",
            json_escape(&row.experiment)
        ));
        out.push_str(&format!(
            "    \"model\": \"{}\",\n",
            json_escape(&row.model)
        ));
        out.push_str(&format!(
            "    \"schedule\": \"{}\",\n",
            json_escape(&row.schedule)
        ));
        out.push_str("    \"metrics\": [");
        for (j, (name, value)) in row.metrics.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "[\"{}\", {}]",
                json_escape(name),
                json_number(*value)
            ));
        }
        out.push_str("]\n");
        out.push_str(if i + 1 < rows.len() {
            "  },\n"
        } else {
            "  }\n"
        });
    }
    out.push(']');
    out
}

/// Prints rows, as an aligned table and (with `--json` in argv) JSON.
pub fn emit(rows: &[Row]) {
    let json = std::env::args().any(|a| a == "--json");
    if json {
        println!("{}", rows_to_json(rows));
        return;
    }
    for row in rows {
        print!(
            "{:<6} {:<6} {:<16}",
            row.experiment, row.model, row.schedule
        );
        for (name, value) in &row.metrics {
            if value.fract() == 0.0 && value.abs() < 1e12 {
                print!("  {name}={value:.0}");
            } else {
                print!("  {name}={value:.4}");
            }
        }
        println!();
    }
}

/// Pins glibc malloc behaviour for stable timing runs.
///
/// The device threads of the concurrent runtime attach to malloc's
/// secondary arenas, whose trim policy returns large frees to the
/// kernel immediately; every subsequent run then re-faults those pages
/// in, which shows up as multi-percent noise in runtime comparisons on
/// small machines (single-threaded code, living on the main arena,
/// never pays it). Pinning one arena and raising the trim/mmap
/// thresholds gives every path the same allocator placement and
/// keeps hot pages committed across trials. Measurement hygiene only —
/// a no-op on non-glibc targets, and never called from library code.
pub fn tune_allocator_for_benchmarks() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        const M_ARENA_MAX: i32 = -8;
        const KEEP: i32 = 128 * 1024 * 1024;
        // SAFETY: mallopt only tweaks allocator parameters; it is safe
        // to call at any point and cannot fail destructively.
        unsafe {
            mallopt(M_ARENA_MAX, 1);
            mallopt(M_TRIM_THRESHOLD, KEEP);
            mallopt(M_MMAP_THRESHOLD, KEEP);
        }
    }
}

/// The standard 2-D benchmark machine: `{batch: b, model: m}` TPU pod.
pub fn tpu_mesh(batch: usize, model: usize) -> HardwareConfig {
    let mesh = Mesh::new([(BATCH, batch), (MODEL, model)]).expect("valid mesh");
    HardwareConfig::tpu_v3_pod(mesh)
}

/// The GPU variant of the benchmark machine.
pub fn gpu_mesh(batch: usize, model: usize) -> HardwareConfig {
    let mesh = Mesh::new([(BATCH, batch), (MODEL, model)]).expect("valid mesh");
    HardwareConfig::a100_cluster(mesh)
}

/// Pretty duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_build_and_meshes_resolve() {
        let row = Row::new("table2", "T32", "BP").metric("AR", 290.0);
        assert_eq!(row.metrics.len(), 1);
        assert_eq!(tpu_mesh(4, 2).mesh.num_devices(), 8);
        assert_eq!(gpu_mesh(2, 2).mesh.num_devices(), 4);
    }

    #[test]
    fn json_rendering_is_valid_and_escaped() {
        assert_eq!(json_number(290.0), "290");
        assert_eq!(json_number(0.5), "0.5");
        assert_eq!(json_number(f64::NAN), "null");
        // Denormal residue clamps to zero; real small values survive.
        assert_eq!(json_number(4.2e-40), "0");
        assert_eq!(json_number(-3.0e-13), "0");
        assert_eq!(json_number(0.0), "0");
        assert_eq!(json_number(1.5e-9), "0.0000000015");
        let rows = vec![
            Row::new("t", "m", "s").metric("x", 1.0).metric("y", 2.5),
            Row::new("t", "m", "s\"2"),
        ];
        let json = rows_to_json(&rows);
        assert!(json.starts_with("[\n"));
        assert!(json.ends_with(']'));
        assert!(json.contains("[\"x\", 1], [\"y\", 2.5]"));
        assert!(json.contains("\"schedule\": \"s\\\"2\""));
        // Balanced brackets/braces (cheap well-formedness check).
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                json.matches(open).count(),
                json.matches(close).count(),
                "unbalanced {open}{close}"
            );
        }
    }
}
