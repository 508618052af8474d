//! A tiny text format for schedules, so sharding strategies can live in
//! config files entirely outside the model code — the decoupling the
//! paper motivates in §1.1 ("making them easy to change" when the system
//! configuration changes).
//!
//! Grammar, one tactic per line (`#` starts a comment):
//!
//! ```text
//! BP: batch { tokens = 0 }
//! MP: model { *w_qkv* = 1, *w_up* = 1 }
//! Z3: batch { params.** = first_divisible, opt.** = first_divisible }
//! Auto: model, batch { budget = 32 }
//! ```
//!
//! Matchers: a bare name is exact; `prefix**` matches a prefix;
//! `*fragment*` matches anywhere. Values: a dimension number,
//! `first_divisible`, or `replicated`.
//!
//! # Examples
//!
//! ```
//! use partir_sched::parse_schedule;
//!
//! let schedule = parse_schedule(
//!     "BP: batch { x = 0 }\n\
//!      Z3: batch { params.** = first_divisible }",
//! )?;
//! assert_eq!(schedule.label(), "BP+Z3");
//! # Ok::<(), partir_sched::SchedError>(())
//! ```

use crate::{AutomaticPartition, DimSpec, ManualPartition, Matcher, SchedError, Schedule, Tactic};

/// Parses the schedule text format.
///
/// # Errors
///
/// Returns [`SchedError::Invalid`] with a line-referenced message for
/// malformed input.
pub fn parse_schedule(text: &str) -> Result<Schedule, SchedError> {
    let mut tactics = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        tactics.push(parse_tactic(line, lineno)?);
    }
    if tactics.is_empty() {
        return Err(SchedError::Invalid("empty schedule".to_string()));
    }
    Ok(Schedule::new(tactics))
}

fn err(lineno: usize, msg: impl std::fmt::Display) -> SchedError {
    SchedError::Invalid(format!("line {}: {msg}", lineno + 1))
}

fn parse_tactic(line: &str, lineno: usize) -> Result<Tactic, SchedError> {
    let (name, rest) = line
        .split_once(':')
        .ok_or_else(|| err(lineno, "expected `Name: axis { rules }`"))?;
    let name = name.trim();
    let (axes_text, rules_text) = match rest.find('{') {
        Some(open) => {
            let close = rest[open..]
                .rfind('}')
                .map(|c| open + c)
                .ok_or_else(|| err(lineno, "missing `}` after `{`"))?;
            (rest[..open].trim(), rest[open + 1..close].trim())
        }
        None => (rest.trim(), ""),
    };
    let axes: Vec<&str> = axes_text
        .split(',')
        .map(str::trim)
        .filter(|a| !a.is_empty())
        .collect();
    if axes.is_empty() {
        return Err(err(lineno, "tactic needs at least one axis"));
    }

    if name.eq_ignore_ascii_case("auto") || name.to_lowercase().starts_with("auto") {
        let mut tactic = AutomaticPartition::new(name, axes);
        for rule in split_rules(rules_text) {
            let (key, value) = rule
                .split_once('=')
                .ok_or_else(|| err(lineno, "auto options are `key = value`"))?;
            let value = value.trim();
            match key.trim() {
                "budget" => {
                    tactic = tactic.with_budget(
                        value
                            .parse()
                            .map_err(|_| err(lineno, "budget must be an integer"))?,
                    );
                }
                "seed" => {
                    tactic = tactic.with_seed(
                        value
                            .parse()
                            .map_err(|_| err(lineno, "seed must be an integer"))?,
                    );
                }
                other => return Err(err(lineno, format!("unknown auto option {other:?}"))),
            }
        }
        return Ok(tactic.into());
    }

    if axes.len() != 1 {
        return Err(err(lineno, "manual tactics take exactly one axis"));
    }
    let mut tactic = ManualPartition::new(name, axes[0]);
    for rule in split_rules(rules_text) {
        let (target, value) = rule
            .split_once('=')
            .ok_or_else(|| err(lineno, "rules are `matcher = spec`"))?;
        let matcher = parse_matcher(target.trim());
        let spec = match value.trim() {
            "first_divisible" => DimSpec::FirstDivisibleDim,
            "replicated" => DimSpec::Replicated,
            number => DimSpec::Dim(
                number
                    .parse()
                    .map_err(|_| err(lineno, format!("bad dim spec {number:?}")))?,
            ),
        };
        tactic = tactic.rule(matcher, spec);
    }
    Ok(tactic.into())
}

fn split_rules(text: &str) -> impl Iterator<Item = &str> {
    text.split(',').map(str::trim).filter(|r| !r.is_empty())
}

fn parse_matcher(target: &str) -> Matcher {
    if let Some(inner) = target.strip_prefix('*').and_then(|t| t.strip_suffix('*')) {
        Matcher::Contains(inner.to_string())
    } else if let Some(prefix) = target.strip_suffix("**") {
        Matcher::Prefix(prefix.to_string())
    } else {
        Matcher::Exact(target.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use partir_ir::{FuncBuilder, TensorType};
    use partir_mesh::{HardwareConfig, Mesh};

    #[test]
    fn parses_the_paper_schedule() {
        let schedule = parse_schedule(
            "# Listing 6\n\
             BP: B { x = 0 }\n\
             MP: M { w1 = 1 }\n\
             Z3: B { w1 = 0, w2 = 1 }",
        )
        .unwrap();
        assert_eq!(schedule.label(), "BP+MP+Z3");
        assert_eq!(schedule.tactics().len(), 3);

        // The parsed schedule reproduces Listing 5's collectives.
        let mut b = FuncBuilder::new("f");
        let x = b.param("x", TensorType::f32([256, 8]));
        let w1 = b.param("w1", TensorType::f32([8, 16]));
        let w2 = b.param("w2", TensorType::f32([16, 8]));
        let h = b.matmul(x, w1).unwrap();
        let y = b.matmul(h, w2).unwrap();
        let f = b.build([y]).unwrap();
        let hw = HardwareConfig::tpu_v3_pod(Mesh::new([("B", 4), ("M", 2)]).unwrap());
        let jitted = crate::partir_jit(&f, &hw, &schedule).unwrap();
        assert_eq!(jitted.program.stats().all_gather, 2);
        assert_eq!(jitted.program.stats().all_reduce, 1);
    }

    #[test]
    fn parses_matchers_and_specs() {
        let schedule =
            parse_schedule("Z2: batch { params.** = replicated, *w_* = first_divisible, emb = 1 }")
                .unwrap();
        let Tactic::Manual(_) = &schedule.tactics()[0] else {
            panic!("expected manual tactic");
        };
        assert!(parse_matcher("params.**").matches("params.blk0.w"));
        assert!(parse_matcher("*qkv*").matches("params.blk3.w_qkv"));
        assert!(!parse_matcher("x").matches("xy"));
    }

    #[test]
    fn parses_auto_tactics() {
        let schedule = parse_schedule("AutoAll: batch, model { budget = 7, seed = 3 }").unwrap();
        let Tactic::Auto(a) = &schedule.tactics()[0] else {
            panic!("expected auto tactic");
        };
        assert_eq!(a.budget, 7);
        assert_eq!(a.seed, 3);
    }

    #[test]
    fn rejects_malformed_schedules() {
        assert!(parse_schedule("").is_err());
        assert!(parse_schedule("BP batch { x = 0 }").is_err()); // no colon
        assert!(parse_schedule("BP: { x = 0 }").is_err()); // no axis
        assert!(parse_schedule("BP: a, b { x = 0 }").is_err()); // two axes
        assert!(parse_schedule("BP: batch { x }").is_err()); // no spec
        assert!(parse_schedule("BP: batch { x = banana }").is_err());
        assert!(parse_schedule("Auto: m { frobnicate = 1 }").is_err());
        let e = parse_schedule("BP: batch { x = 0 }\nMP: { }").unwrap_err();
        assert!(e.to_string().contains("line 2"), "{e}");
    }

    /// Outside input with its braces in the wrong order is refused with
    /// the line it is on, not a slice-index panic.
    #[test]
    fn rejects_close_brace_before_open() {
        for text in [
            "BP: batch } x = 0 {",
            "MP: m { w = 1 }\nBP: batch }{",
            "BP: b } {",
        ] {
            let e = parse_schedule(text).unwrap_err();
            let SchedError::Invalid(msg) = &e else {
                panic!("{text:?}: expected SchedError::Invalid, got {e:?}");
            };
            let line = if text.contains('\n') {
                "line 2"
            } else {
                "line 1"
            };
            assert!(msg.contains(line) && msg.contains("missing `}`"), "{msg}");
        }
    }
}
