//! Manual tactics: named-value sharding rules (paper §3 and Appendix A.6).

use partir_core::Partitioning;
use partir_ir::{Func, ValueId};
use partir_mesh::Axis;

use crate::{AutomaticPartition, SchedError, StaticSearch};

/// How a rule matches value names. Values addressable by rules are
/// function parameters and `tag`ged intermediates (paper §8).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Matcher {
    /// The full name.
    Exact(String),
    /// Any name starting with the prefix — how `{'params': …}` pytree
    /// prefixes are expressed (e.g. every `params.block3.w_qkv`).
    Prefix(String),
    /// Any name containing the fragment — the paper's regex-ish
    /// `multi_head_attention_regex.contains(param_name)` callbacks.
    Contains(String),
    /// Both a prefix and a contained fragment, e.g. optimizer moments of
    /// weight matrices (`opt.` + `w_`).
    PrefixContains(String, String),
}

impl Matcher {
    /// Whether `name` matches.
    pub fn matches(&self, name: &str) -> bool {
        match self {
            Matcher::Exact(s) => name == s,
            Matcher::Prefix(s) => name.starts_with(s.as_str()),
            Matcher::Contains(s) => name.contains(s.as_str()),
            Matcher::PrefixContains(p, s) => {
                name.starts_with(p.as_str()) && name.contains(s.as_str())
            }
        }
    }
}

/// The sharding a rule requests for matched values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DimSpec {
    /// Tile the given tensor dimension (`{"x": 0}` in the paper).
    Dim(usize),
    /// Tile the first dimension divisible by the axis size — the paper's
    /// `partir.FIRST_DIVISIBLE_DIM` used by the Z2/Z3 tactics.
    FirstDivisibleDim,
    /// Pin replicated (`partir.REPLICATED`, backed by the `atomic`
    /// action).
    Replicated,
}

/// A manual partitioning tactic: a mesh axis plus name-matching rules.
///
/// Build with the fluent API:
///
/// ```
/// use partir_sched::ManualPartition;
/// let z3 = ManualPartition::new("Z3", "batch")
///     .prefix_first_divisible("params.")
///     .prefix_first_divisible("opt.");
/// ```
#[derive(Debug, Clone)]
pub struct ManualPartition {
    name: String,
    axis: Axis,
    rules: Vec<(Matcher, DimSpec)>,
}

impl ManualPartition {
    /// Creates an empty tactic for `axis`.
    pub fn new(name: impl Into<String>, axis: impl Into<Axis>) -> Self {
        ManualPartition {
            name: name.into(),
            axis: axis.into(),
            rules: Vec::new(),
        }
    }

    /// Tactic name (used in metadata).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The axis this tactic shards over.
    pub fn axis(&self) -> &Axis {
        &self.axis
    }

    /// Adds a rule with an explicit matcher.
    pub fn rule(mut self, matcher: Matcher, spec: DimSpec) -> Self {
        self.rules.push((matcher, spec));
        self
    }

    /// Shards the exactly-named value on `dim`.
    pub fn dim(self, name: impl Into<String>, dim: usize) -> Self {
        self.rule(Matcher::Exact(name.into()), DimSpec::Dim(dim))
    }

    /// Shards every value whose name starts with `prefix` on its first
    /// divisible dimension.
    pub fn prefix_first_divisible(self, prefix: impl Into<String>) -> Self {
        self.rule(Matcher::Prefix(prefix.into()), DimSpec::FirstDivisibleDim)
    }

    /// Shards every value whose name contains `fragment` on `dim`.
    pub fn contains_dim(self, fragment: impl Into<String>, dim: usize) -> Self {
        self.rule(Matcher::Contains(fragment.into()), DimSpec::Dim(dim))
    }

    /// Pins the exactly-named value replicated.
    pub fn replicated(self, name: impl Into<String>) -> Self {
        self.rule(Matcher::Exact(name.into()), DimSpec::Replicated)
    }

    /// Applies the tactic's actions (without propagating). Returns the
    /// number of actions issued.
    ///
    /// Values already partitioned along the axis are skipped — tactics
    /// compose with whatever earlier tactics and propagation decided, and
    /// never undo it.
    ///
    /// # Errors
    ///
    /// Fails on invalid explicit requests (e.g. a named dimension that is
    /// not divisible by the axis).
    pub fn apply(&self, func: &Func, part: &mut Partitioning) -> Result<usize, SchedError> {
        let axis_size = part
            .mesh()
            .axis_size(&self.axis)
            .map_err(partir_core::CoreError::from)?;
        let mut actions = 0;
        for v in named_values(func) {
            let name = func.value(v).name.clone().unwrap_or_default();
            let Some((_, spec)) = self.rules.iter().find(|(m, _)| m.matches(&name)) else {
                continue;
            };
            if part.value_ctx(v).contains_axis(&self.axis) {
                continue; // never undo earlier decisions
            }
            match spec {
                DimSpec::Dim(d) => {
                    part.tile(func, v, *d, &self.axis)?;
                    actions += 1;
                }
                DimSpec::FirstDivisibleDim => {
                    let local = part.local_type(func, v);
                    let dim = (0..local.rank()).find(|&d| {
                        local.shape.dim(d).is_multiple_of(axis_size)
                            && local.shape.dim(d) > axis_size
                    });
                    let dim = dim.or_else(|| {
                        (0..local.rank()).find(|&d| local.shape.dim(d).is_multiple_of(axis_size))
                    });
                    if let Some(d) = dim {
                        part.tile(func, v, d, &self.axis)?;
                        actions += 1;
                    }
                }
                DimSpec::Replicated => {
                    part.atomic(func, v, &self.axis)?;
                    actions += 1;
                }
            }
        }
        Ok(actions)
    }
}

/// All named values of a function (parameters first, then tagged
/// intermediates) in id order.
fn named_values(func: &Func) -> Vec<ValueId> {
    let mut out: Vec<ValueId> = func.params().to_vec();
    for v in func.value_ids() {
        if func.value(v).name.is_some() && !func.params().contains(&v) {
            out.push(v);
        }
    }
    out
}

/// One step of a schedule.
#[derive(Debug, Clone)]
pub enum Tactic {
    /// User-specified sharding rules.
    Manual(ManualPartition),
    /// Simulator-guided search.
    Auto(AutomaticPartition),
    /// Static-objective beam search (simulator only rescores finalists).
    Static(StaticSearch),
}

impl Tactic {
    /// Tactic name for metadata rows.
    pub fn name(&self) -> &str {
        match self {
            Tactic::Manual(m) => m.name(),
            Tactic::Auto(a) => a.name(),
            Tactic::Static(s) => s.name(),
        }
    }
}

impl From<ManualPartition> for Tactic {
    fn from(m: ManualPartition) -> Self {
        Tactic::Manual(m)
    }
}

impl From<AutomaticPartition> for Tactic {
    fn from(a: AutomaticPartition) -> Self {
        Tactic::Auto(a)
    }
}

impl From<StaticSearch> for Tactic {
    fn from(s: StaticSearch) -> Self {
        Tactic::Static(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use partir_ir::{FuncBuilder, TensorType};
    use partir_mesh::Mesh;

    #[test]
    fn matchers() {
        assert!(Matcher::Exact("x".into()).matches("x"));
        assert!(!Matcher::Exact("x".into()).matches("xy"));
        assert!(Matcher::Prefix("params.".into()).matches("params.w1"));
        assert!(Matcher::Contains("qkv".into()).matches("params.b3.w_qkv"));
    }

    #[test]
    fn first_divisible_dim_skips_indivisible() {
        let mut b = FuncBuilder::new("f");
        let w = b.param("params.w", TensorType::f32([3, 8]));
        let f = b.build([w]).unwrap();
        let mesh = Mesh::single("B", 4).unwrap();
        let mut p = Partitioning::new(&f, mesh).unwrap();
        let tactic = ManualPartition::new("Z", "B").prefix_first_divisible("params.");
        let n = tactic.apply(&f, &mut p).unwrap();
        assert_eq!(n, 1);
        assert_eq!(
            p.value_ctx(w).entry(&"B".into()),
            Some(partir_core::ShardKind::Tile { dim: 1 })
        );
    }

    #[test]
    fn rules_apply_first_match_and_skip_used_axes() {
        let mut b = FuncBuilder::new("f");
        let x = b.param("x", TensorType::f32([8, 8]));
        let f = b.build([x]).unwrap();
        let mesh = Mesh::single("B", 2).unwrap();
        let mut p = Partitioning::new(&f, mesh).unwrap();
        let t1 = ManualPartition::new("t1", "B").dim("x", 0);
        assert_eq!(t1.apply(&f, &mut p).unwrap(), 1);
        // Re-applying is a no-op rather than an error.
        assert_eq!(t1.apply(&f, &mut p).unwrap(), 0);
    }

    #[test]
    fn explicit_bad_dim_is_an_error() {
        let mut b = FuncBuilder::new("f");
        let _x = b.param("x", TensorType::f32([3, 8]));
        let x = b.param("x2", TensorType::f32([3, 8]));
        let f = b.build([x]).unwrap();
        let mesh = Mesh::single("B", 2).unwrap();
        let mut p = Partitioning::new(&f, mesh).unwrap();
        let t = ManualPartition::new("t", "B").dim("x", 0);
        assert!(t.apply(&f, &mut p).is_err());
    }
}
