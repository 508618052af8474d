use std::collections::HashMap;
use std::sync::OnceLock;

use partir_mesh::Mesh;

use crate::fingerprint::{func_fingerprint, module_fingerprint, Fingerprint};
use crate::{IrError, OpKind, TensorType};

/// Identifier of an SSA value within a [`Func`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(pub u32);

/// Identifier of an operation within a [`Func`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub u32);

/// Where an SSA value is defined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueDef {
    /// The i-th function parameter.
    Param(usize),
    /// The i-th block argument of an op's region (e.g. the loop index and
    /// carried values of a `for`).
    RegionParam {
        /// Owning op.
        op: OpId,
        /// Argument index within the region.
        index: usize,
    },
    /// The i-th result of an op.
    OpResult {
        /// Defining op.
        op: OpId,
        /// Result index.
        index: usize,
    },
}

/// A source position (1-based line and column) attached to an op by the
/// parser, so downstream diagnostics (`partir-lint`) can point back into
/// the textual form a program was loaded from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SrcLoc {
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
}

impl std::fmt::Display for SrcLoc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Metadata of one SSA value.
#[derive(Debug, Clone)]
pub struct ValueInfo {
    /// Tensor type.
    pub ty: TensorType,
    /// Optional user-facing name (function parameters and tagged values).
    pub name: Option<String>,
    /// Defining site.
    pub def: ValueDef,
}

/// One operation: kind, operands, results and (for `for`) a region.
#[derive(Debug, Clone)]
pub struct OpData {
    /// Operation kind and attributes.
    pub kind: OpKind,
    /// Operand values.
    pub operands: Vec<ValueId>,
    /// Result values.
    pub results: Vec<ValueId>,
    /// Body region for region-carrying ops.
    pub region: Option<Region>,
}

/// A single-block region: block arguments, a topologically ordered op
/// list and the values yielded to the parent op.
#[derive(Debug, Clone, Default)]
pub struct Region {
    /// Block arguments.
    pub params: Vec<ValueId>,
    /// Ops in execution order.
    pub body: Vec<OpId>,
    /// Yielded values.
    pub results: Vec<ValueId>,
}

/// An SSA function: parameters, a body region and result values.
///
/// All values and ops of a function — including those inside nested
/// regions — live in two flat arenas indexed by [`ValueId`] / [`OpId`],
/// which makes analyses (propagation, liveness, costing) simple array
/// traversals.
///
/// Construct via [`crate::FuncBuilder`].
#[derive(Debug, Clone)]
pub struct Func {
    name: String,
    params: Vec<ValueId>,
    values: Vec<ValueInfo>,
    ops: Vec<OpData>,
    body: Vec<OpId>,
    results: Vec<ValueId>,
    /// Structural fingerprint, computed lazily. Value *names* are not part
    /// of the structure, so [`Func::set_value_name`] need not invalidate.
    fingerprint: OnceLock<Fingerprint>,
    /// Sparse op → source position map, populated by the parser. Like
    /// names, locations are presentation metadata and are excluded from
    /// the structural fingerprint.
    locs: HashMap<OpId, SrcLoc>,
}

impl Func {
    pub(crate) fn from_parts(
        name: String,
        params: Vec<ValueId>,
        values: Vec<ValueInfo>,
        ops: Vec<OpData>,
        body: Vec<OpId>,
        results: Vec<ValueId>,
    ) -> Self {
        Func {
            name,
            params,
            values,
            ops,
            body,
            results,
            fingerprint: OnceLock::new(),
            locs: HashMap::new(),
        }
    }

    /// The canonical structural fingerprint of this function: a stable
    /// 128-bit content hash over ops, attributes, types and region
    /// structure, independent of value numbering and value names (see
    /// [`crate::fingerprint`]). Computed once and cached.
    pub fn fingerprint(&self) -> Fingerprint {
        *self.fingerprint.get_or_init(|| func_fingerprint(self))
    }

    /// Function name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Parameter values, in declaration order.
    pub fn params(&self) -> &[ValueId] {
        &self.params
    }

    /// The function's result values.
    pub fn results(&self) -> &[ValueId] {
        &self.results
    }

    /// Top-level ops in execution order.
    pub fn body(&self) -> &[OpId] {
        &self.body
    }

    /// Number of values in the arena.
    pub fn num_values(&self) -> usize {
        self.values.len()
    }

    /// Number of ops in the arena (including ops nested in regions).
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Value metadata.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a value of this function.
    pub fn value(&self, v: ValueId) -> &ValueInfo {
        &self.values[v.0 as usize]
    }

    /// The type of a value.
    pub fn value_type(&self, v: ValueId) -> &TensorType {
        &self.value(v).ty
    }

    /// Op data.
    ///
    /// # Panics
    ///
    /// Panics if `op` is not an op of this function.
    pub fn op(&self, op: OpId) -> &OpData {
        &self.ops[op.0 as usize]
    }

    /// Iterator over all op ids in arena order (this includes region
    /// bodies; arena order is a valid execution order within each region).
    pub fn op_ids(&self) -> impl Iterator<Item = OpId> {
        (0..self.ops.len() as u32).map(OpId)
    }

    /// Iterator over all value ids.
    pub fn value_ids(&self) -> impl Iterator<Item = ValueId> {
        (0..self.values.len() as u32).map(ValueId)
    }

    /// Looks up a parameter by name.
    pub fn param_by_name(&self, name: &str) -> Option<ValueId> {
        self.params
            .iter()
            .copied()
            .find(|&v| self.value(v).name.as_deref() == Some(name))
    }

    /// Looks up any named value (parameter or tagged intermediate).
    pub fn value_by_name(&self, name: &str) -> Option<ValueId> {
        self.value_ids()
            .find(|&v| self.value(v).name.as_deref() == Some(name))
    }

    /// Attaches a source position to an op (used by the parser). Like
    /// value names, locations do not affect the structural fingerprint.
    ///
    /// # Errors
    ///
    /// Fails if `op` is out of range.
    pub fn set_op_loc(&mut self, op: OpId, loc: SrcLoc) -> Result<(), IrError> {
        if op.0 as usize >= self.ops.len() {
            return Err(IrError::invalid(format!("no such op {op:?}")));
        }
        self.locs.insert(op, loc);
        Ok(())
    }

    /// The source position of an op, if the function was parsed from text.
    pub fn op_loc(&self, op: OpId) -> Option<SrcLoc> {
        self.locs.get(&op).copied()
    }

    /// Renames a value (used by the `tag` primitive, paper §8).
    ///
    /// # Errors
    ///
    /// Fails if `v` is out of range.
    pub fn set_value_name(&mut self, v: ValueId, name: impl Into<String>) -> Result<(), IrError> {
        let slot = self
            .values
            .get_mut(v.0 as usize)
            .ok_or_else(|| IrError::invalid(format!("no such value {v:?}")))?;
        slot.name = Some(name.into());
        Ok(())
    }

    #[cfg(test)]
    pub(crate) fn values_mut(&mut self) -> &mut Vec<ValueInfo> {
        self.fingerprint = OnceLock::new();
        &mut self.values
    }

    #[cfg(test)]
    pub(crate) fn ops_mut(&mut self) -> &mut Vec<OpData> {
        self.fingerprint = OnceLock::new();
        &mut self.ops
    }
}

/// A compilation unit: one or more functions plus the mesh they target.
#[derive(Debug, Clone)]
pub struct Module {
    /// The main (entry) function.
    pub main: Func,
    /// The device mesh the module is being partitioned for.
    pub mesh: Mesh,
}

impl Module {
    /// Creates a module from an entry function and a mesh.
    pub fn new(main: Func, mesh: Mesh) -> Self {
        Module { main, mesh }
    }

    /// The module's structural fingerprint: the main function's
    /// [`Func::fingerprint`] combined with the mesh's axis names and
    /// sizes.
    pub fn fingerprint(&self) -> Fingerprint {
        module_fingerprint(self)
    }
}

#[cfg(test)]
mod tests {

    use crate::{FuncBuilder, TensorType};

    #[test]
    fn lookup_by_name_and_uses() {
        let mut b = FuncBuilder::new("f");
        let x = b.param("x", TensorType::f32([2, 2]));
        let y = b.param("y", TensorType::f32([2, 2]));
        let s = b.add(x, y).unwrap();
        let f = b.build([s]).unwrap();
        assert_eq!(f.param_by_name("x"), Some(x));
        assert_eq!(f.param_by_name("nope"), None);
        assert_eq!(f.name(), "f");
        assert_eq!(f.num_ops(), 1);
    }

    #[test]
    fn set_value_name_tags_values() {
        let mut b = FuncBuilder::new("f");
        let x = b.param("x", TensorType::f32([2]));
        let n = b.neg(x).unwrap();
        let mut f = b.build([n]).unwrap();
        f.set_value_name(n, "tagged").unwrap();
        assert_eq!(f.value_by_name("tagged"), Some(n));
    }
}
