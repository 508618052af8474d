use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A named mesh axis, such as `"batch"` or `"model"`.
///
/// Axes are cheap to clone (reference-counted). Clones of one axis
/// compare equal by pointer, without reading the name; any other pair
/// compares by name. Hashing and ordering go by name.
///
/// # Examples
///
/// ```
/// use partir_mesh::Axis;
///
/// let a = Axis::new("batch");
/// let b: Axis = "batch".into();
/// assert_eq!(a, b);
/// assert_eq!(a.name(), "batch");
/// ```
#[derive(Debug, Clone, Eq, PartialOrd, Ord)]
pub struct Axis(Arc<str>);

/// Partitioning contexts hold clones of the mesh's axes, so the pointer
/// test settles almost every lookup. Equal pointers imply equal names,
/// so this agrees with the name-based `Hash` and `Ord`.
impl PartialEq for Axis {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}

impl Hash for Axis {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl Axis {
    /// Creates an axis with the given name.
    pub fn new(name: impl AsRef<str>) -> Self {
        Axis(Arc::from(name.as_ref()))
    }

    /// Returns the axis name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Axis {
    fn from(name: &str) -> Self {
        Axis::new(name)
    }
}

impl From<String> for Axis {
    fn from(name: String) -> Self {
        Axis::new(name)
    }
}

impl AsRef<str> for Axis {
    fn as_ref(&self) -> &str {
        self.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeSet, HashSet};

    #[test]
    fn axis_equality_is_by_name() {
        // Separately built: two `Arc`s, compared by name.
        let (a, b) = (Axis::new("batch"), Axis::new("batch"));
        assert!(!Arc::ptr_eq(&a.0, &b.0));
        assert_eq!(a, b);
        assert_ne!(a, Axis::new("model"));
        assert_ne!(a, Axis::new("batc"));
    }

    #[test]
    fn a_clone_equals_its_original() {
        let a = Axis::new("batch");
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.0, &b.0));
        assert_eq!(a, b);
    }

    #[test]
    fn axis_hashes_by_name() {
        let mut set = HashSet::new();
        set.insert(Axis::new("x"));
        assert!(set.contains(&Axis::new("x")));
        assert!(!set.contains(&Axis::new("y")));
        // Separately built equal axes are one element of either set.
        let both = [Axis::new("batch"), Axis::new("batch")];
        assert_eq!(both.iter().cloned().collect::<HashSet<_>>().len(), 1);
        assert_eq!(both.iter().cloned().collect::<BTreeSet<_>>().len(), 1);
    }

    #[test]
    fn axis_display_and_as_ref() {
        let a = Axis::new("model");
        assert_eq!(a.to_string(), "model");
        assert_eq!(a.as_ref(), "model");
    }

    #[test]
    fn axis_orders_lexicographically() {
        assert!(Axis::new("a") < Axis::new("b"));
    }
}
