use std::fmt;

use partir_ir::{Shape, TensorType};
use partir_mesh::{Axis, Mesh};

/// How a value relates to one mesh axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShardKind {
    /// The value is tiled along tensor dimension `dim` across the axis —
    /// the paper's `#tile<dim>` loop action.
    Tile {
        /// Tiled tensor dimension.
        dim: usize,
    },
    /// The value is pinned replicated across the axis — the paper's
    /// `atomic` action with the `any` consensus attribute (§8).
    Atomic,
}

/// The ordered tiling context of one value: the loop nest it conceptually
/// lives under, outermost first.
///
/// Entry order is the order in which axes were acquired (by user actions
/// or propagation) and determines loop-nest materialisation and,
/// within a dimension, shard layout order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ValueCtx {
    entries: Vec<(Axis, ShardKind)>,
}

impl ValueCtx {
    /// The empty (fully replicated) context.
    pub fn new() -> Self {
        ValueCtx::default()
    }

    /// Entries in acquisition (nesting) order.
    pub fn entries(&self) -> &[(Axis, ShardKind)] {
        &self.entries
    }

    /// Whether the context has no entries (value fully replicated).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// This value's relation to `axis`, if any.
    pub fn entry(&self, axis: &Axis) -> Option<ShardKind> {
        self.entries
            .iter()
            .find(|(a, _)| a == axis)
            .map(|(_, k)| *k)
    }

    /// Whether the context mentions `axis` at all.
    pub fn contains_axis(&self, axis: &Axis) -> bool {
        self.entry(axis).is_some()
    }

    /// Appends an entry. The caller must have checked the axis is absent.
    pub(crate) fn push(&mut self, axis: Axis, kind: ShardKind) {
        debug_assert!(!self.contains_axis(&axis));
        self.entries.push((axis, kind));
    }

    /// Removes the most recent entry (the undo of [`ValueCtx::push`],
    /// used only by `Partitioning::probe`'s rollback).
    pub(crate) fn pop(&mut self) {
        self.entries.pop();
    }

    /// The axes tiling dimension `dim`, in nesting order.
    pub fn axes_on_dim(&self, dim: usize) -> Vec<Axis> {
        self.entries
            .iter()
            .filter_map(|(a, k)| match k {
                ShardKind::Tile { dim: d } if *d == dim => Some(a.clone()),
                _ => None,
            })
            .collect()
    }

    /// The device-local size of dimension `dim` of a value with this
    /// context: the global size divided by the product of the axes
    /// tiling it. Allocation-free, for the propagation hot path.
    ///
    /// # Panics
    ///
    /// Panics if an axis is missing from the mesh or the dimension is not
    /// divisible — the actions that create contexts enforce both.
    pub fn local_dim(&self, global: &Shape, dim: usize, mesh: &Mesh) -> usize {
        let mut local = global.dim(dim);
        for (axis, kind) in &self.entries {
            if *kind == (ShardKind::Tile { dim }) {
                let size = mesh.axis_size(axis).expect("axis checked at action time");
                assert!(
                    local.is_multiple_of(size),
                    "non-divisible tiling should have been rejected"
                );
                local /= size;
            }
        }
        local
    }

    /// The device-local shape of a value with this context: each tiled
    /// dimension is divided by the product of its tiling axes.
    ///
    /// # Panics
    ///
    /// As [`ValueCtx::local_dim`].
    pub fn local_shape(&self, global: &Shape, mesh: &Mesh) -> Shape {
        let dims: Vec<usize> = (0..global.rank())
            .map(|d| self.local_dim(global, d, mesh))
            .collect();
        Shape::from(dims)
    }

    /// The device-local type of a value of type `global`.
    pub fn local_type(&self, global: &TensorType, mesh: &Mesh) -> TensorType {
        TensorType::new(self.local_shape(&global.shape, mesh), global.dtype)
    }

    /// Per-dimension tiling axes in the layout used by `all_slice` /
    /// `all_gather` collectives.
    pub fn dim_axes(&self, rank: usize) -> Vec<Vec<Axis>> {
        (0..rank).map(|d| self.axes_on_dim(d)).collect()
    }

    /// Axes this value is tiled over (any dimension), in nesting order.
    pub fn tiled_axes(&self) -> Vec<Axis> {
        self.entries
            .iter()
            .filter_map(|(a, k)| match k {
                ShardKind::Tile { .. } => Some(a.clone()),
                ShardKind::Atomic => None,
            })
            .collect()
    }
}

impl fmt::Display for ValueCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, (a, k)) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match k {
                ShardKind::Tile { dim } => write!(f, "\"{a}\"#tile<{dim}>")?,
                ShardKind::Atomic => write!(f, "\"{a}\"#any")?,
            }
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_shape_divides_tiled_dims() {
        let mesh = Mesh::new([("B", 4), ("M", 2)]).unwrap();
        let mut ctx = ValueCtx::new();
        ctx.push("B".into(), ShardKind::Tile { dim: 0 });
        ctx.push("M".into(), ShardKind::Tile { dim: 1 });
        let local = ctx.local_shape(&Shape::from([8, 6]), &mesh);
        assert_eq!(local.dims(), &[2, 3]);
    }

    #[test]
    fn deep_tiling_same_dim_composes() {
        let mesh = Mesh::new([("a", 2), ("b", 2)]).unwrap();
        let mut ctx = ValueCtx::new();
        ctx.push("a".into(), ShardKind::Tile { dim: 0 });
        ctx.push("b".into(), ShardKind::Tile { dim: 0 });
        assert_eq!(ctx.local_shape(&Shape::from([8]), &mesh).dims(), &[2]);
        assert_eq!(ctx.axes_on_dim(0), vec![Axis::new("a"), Axis::new("b")]);
    }

    #[test]
    fn atomic_does_not_change_shape() {
        let mesh = Mesh::single("m", 4).unwrap();
        let mut ctx = ValueCtx::new();
        ctx.push("m".into(), ShardKind::Atomic);
        assert_eq!(ctx.local_shape(&Shape::from([8]), &mesh).dims(), &[8]);
        assert!(ctx.tiled_axes().is_empty());
        assert!(ctx.contains_axis(&"m".into()));
    }

    #[test]
    fn display_shows_actions() {
        let mut ctx = ValueCtx::new();
        ctx.push("B".into(), ShardKind::Tile { dim: 1 });
        ctx.push("M".into(), ShardKind::Atomic);
        assert_eq!(ctx.to_string(), "[\"B\"#tile<1>, \"M\"#any]");
    }
}
