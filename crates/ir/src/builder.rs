use partir_mesh::Mesh;

use crate::func::{OpData, Region, ValueDef, ValueInfo};
use crate::{
    BinaryOp, Collective, CompareDir, ConvDims, DType, DotDims, Func, IrError, Literal, OpId,
    OpKind, ReduceOp, Shape, TensorType, UnaryOp, ValueId,
};

/// Incremental, type-inferring builder for [`Func`].
///
/// Every emit method performs shape inference, so a successfully built
/// function is well typed by construction (the [`crate::verify`] pass
/// re-checks this independently).
///
/// # Examples
///
/// ```
/// use partir_ir::{FuncBuilder, TensorType};
///
/// let mut b = FuncBuilder::new("mlp");
/// let x = b.param("x", TensorType::f32([32, 16]));
/// let w = b.param("w", TensorType::f32([16, 4]));
/// let h = b.matmul(x, w)?;
/// let y = b.tanh(h)?;
/// let f = b.build([y])?;
/// assert_eq!(f.params().len(), 2);
/// # Ok::<(), partir_ir::IrError>(())
/// ```
#[derive(Debug)]
pub struct FuncBuilder {
    name: String,
    params: Vec<ValueId>,
    values: Vec<ValueInfo>,
    ops: Vec<OpData>,
    /// Stack of op lists: index 0 is the function body; nested entries are
    /// regions currently being built.
    region_stack: Vec<Vec<OpId>>,
    mesh: Option<Mesh>,
}

impl FuncBuilder {
    /// Creates a builder for a function named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        FuncBuilder {
            name: name.into(),
            params: Vec::new(),
            values: Vec::new(),
            ops: Vec::new(),
            region_stack: vec![Vec::new()],
            mesh: None,
        }
    }

    /// Creates a builder that can emit collectives (their result types
    /// depend on mesh axis sizes).
    pub fn with_mesh(name: impl Into<String>, mesh: Mesh) -> Self {
        let mut b = FuncBuilder::new(name);
        b.mesh = Some(mesh);
        b
    }

    /// Declares a function parameter.
    pub fn param(&mut self, name: impl Into<String>, ty: TensorType) -> ValueId {
        let idx = self.params.len();
        let v = self.new_value(ty, Some(name.into()), ValueDef::Param(idx));
        self.params.push(v);
        v
    }

    /// The type of an already-created value.
    ///
    /// # Panics
    ///
    /// Panics if `v` was not created by this builder.
    pub fn ty(&self, v: ValueId) -> &TensorType {
        &self.values[v.0 as usize].ty
    }

    /// Names an existing value (used by the parser to preserve textual
    /// names and by the `tag` primitive).
    ///
    /// # Panics
    ///
    /// Panics if `v` was not created by this builder.
    pub fn set_name(&mut self, v: ValueId, name: impl Into<String>) {
        self.values[v.0 as usize].name = Some(name.into());
    }

    /// Read-only view of the ops recorded so far, in creation order.
    ///
    /// Used by transforms that need to traverse the program under
    /// construction, e.g. reverse-mode autodiff walking the tape backwards.
    pub fn recorded_ops(&self) -> &[OpData] {
        &self.ops
    }

    /// The mesh this builder targets, if any.
    pub fn mesh(&self) -> Option<&Mesh> {
        self.mesh.as_ref()
    }

    /// Emits an op with explicit kind and operands, inferring result
    /// types. Returns the result values.
    ///
    /// # Errors
    ///
    /// Propagates inference failures from [`crate::infer`].
    pub fn emit(&mut self, kind: OpKind, operands: &[ValueId]) -> Result<Vec<ValueId>, IrError> {
        let operand_tys: Vec<TensorType> = operands.iter().map(|&v| self.ty(v).clone()).collect();
        let result_tys = crate::infer::infer_result_types(&kind, &operand_tys, self.mesh.as_ref())?;
        let op = OpId(self.ops.len() as u32);
        let results: Vec<ValueId> = result_tys
            .into_iter()
            .enumerate()
            .map(|(i, ty)| self.new_value(ty, None, ValueDef::OpResult { op, index: i }))
            .collect();
        self.ops.push(OpData {
            kind,
            operands: operands.to_vec(),
            results: results.clone(),
            region: None,
        });
        self.region_stack
            .last_mut()
            .expect("region stack never empty")
            .push(op);
        Ok(results)
    }

    fn emit1(&mut self, kind: OpKind, operands: &[ValueId]) -> Result<ValueId, IrError> {
        Ok(self.emit(kind, operands)?[0])
    }

    fn new_value(&mut self, ty: TensorType, name: Option<String>, def: ValueDef) -> ValueId {
        let v = ValueId(self.values.len() as u32);
        self.values.push(ValueInfo { ty, name, def });
        v
    }

    // ---- constants -------------------------------------------------------

    /// Emits a constant from a literal.
    pub fn constant(&mut self, lit: Literal) -> Result<ValueId, IrError> {
        self.emit1(OpKind::Constant(lit), &[])
    }

    /// Emits a scalar f32 constant.
    pub fn const_f32(&mut self, v: f32) -> Result<ValueId, IrError> {
        self.constant(Literal::scalar_f32(v))
    }

    /// Emits a scalar i32 constant.
    pub fn const_i32(&mut self, v: i32) -> Result<ValueId, IrError> {
        self.constant(Literal::scalar_i32(v))
    }

    /// Emits an iota along `dim` with the given shape and dtype.
    pub fn iota(
        &mut self,
        dim: usize,
        shape: impl Into<Shape>,
        dtype: DType,
    ) -> Result<ValueId, IrError> {
        self.emit1(
            OpKind::Iota {
                dim,
                shape: shape.into(),
                dtype,
            },
            &[],
        )
    }

    // ---- elementwise -----------------------------------------------------

    /// Emits a unary elementwise op.
    pub fn unary(&mut self, op: UnaryOp, x: ValueId) -> Result<ValueId, IrError> {
        self.emit1(OpKind::Unary(op), &[x])
    }

    /// Emits a binary elementwise op (operand types must match).
    pub fn binary(&mut self, op: BinaryOp, x: ValueId, y: ValueId) -> Result<ValueId, IrError> {
        self.emit1(OpKind::Binary(op), &[x, y])
    }

    /// `x + y`
    pub fn add(&mut self, x: ValueId, y: ValueId) -> Result<ValueId, IrError> {
        self.binary(BinaryOp::Add, x, y)
    }

    /// `x - y`
    pub fn sub(&mut self, x: ValueId, y: ValueId) -> Result<ValueId, IrError> {
        self.binary(BinaryOp::Sub, x, y)
    }

    /// `x * y`
    pub fn mul(&mut self, x: ValueId, y: ValueId) -> Result<ValueId, IrError> {
        self.binary(BinaryOp::Mul, x, y)
    }

    /// `x / y`
    pub fn div(&mut self, x: ValueId, y: ValueId) -> Result<ValueId, IrError> {
        self.binary(BinaryOp::Div, x, y)
    }

    /// `max(x, y)`
    pub fn max(&mut self, x: ValueId, y: ValueId) -> Result<ValueId, IrError> {
        self.binary(BinaryOp::Max, x, y)
    }

    /// `-x`
    pub fn neg(&mut self, x: ValueId) -> Result<ValueId, IrError> {
        self.unary(UnaryOp::Neg, x)
    }

    /// `e^x`
    pub fn exp(&mut self, x: ValueId) -> Result<ValueId, IrError> {
        self.unary(UnaryOp::Exp, x)
    }

    /// `ln x`
    pub fn log(&mut self, x: ValueId) -> Result<ValueId, IrError> {
        self.unary(UnaryOp::Log, x)
    }

    /// `tanh x`
    pub fn tanh(&mut self, x: ValueId) -> Result<ValueId, IrError> {
        self.unary(UnaryOp::Tanh, x)
    }

    /// `sqrt x`
    pub fn sqrt(&mut self, x: ValueId) -> Result<ValueId, IrError> {
        self.unary(UnaryOp::Sqrt, x)
    }

    /// `1/sqrt x`
    pub fn rsqrt(&mut self, x: ValueId) -> Result<ValueId, IrError> {
        self.unary(UnaryOp::Rsqrt, x)
    }

    /// logistic sigmoid
    pub fn logistic(&mut self, x: ValueId) -> Result<ValueId, IrError> {
        self.unary(UnaryOp::Logistic, x)
    }

    /// Elementwise comparison producing `i1`.
    pub fn compare(&mut self, dir: CompareDir, x: ValueId, y: ValueId) -> Result<ValueId, IrError> {
        self.emit1(OpKind::Compare(dir), &[x, y])
    }

    /// `select(pred, on_true, on_false)`
    pub fn select(
        &mut self,
        pred: ValueId,
        on_true: ValueId,
        on_false: ValueId,
    ) -> Result<ValueId, IrError> {
        self.emit1(OpKind::Select, &[pred, on_true, on_false])
    }

    /// Element type cast.
    pub fn convert(&mut self, x: ValueId, to: DType) -> Result<ValueId, IrError> {
        self.emit1(OpKind::Convert(to), &[x])
    }

    /// Broadcasts a scalar constant to `x`'s type and combines with `op`
    /// — convenience for `x * 0.5`-style expressions. The constant is
    /// emitted as a scalar plus a broadcast so no full-shape literal is
    /// ever materialised.
    pub fn binary_scalar(
        &mut self,
        op: BinaryOp,
        x: ValueId,
        scalar: f32,
    ) -> Result<ValueId, IrError> {
        let ty = self.ty(x).clone();
        let c = self.const_f32(scalar)?;
        let b = self.broadcast_in_dim(c, ty.shape.clone(), vec![])?;
        self.binary(op, x, b)
    }

    // ---- structure -------------------------------------------------------

    /// General dot product.
    pub fn dot(&mut self, x: ValueId, y: ValueId, dims: DotDims) -> Result<ValueId, IrError> {
        self.emit1(OpKind::Dot(dims), &[x, y])
    }

    /// 2-D matrix multiplication.
    pub fn matmul(&mut self, x: ValueId, y: ValueId) -> Result<ValueId, IrError> {
        self.dot(x, y, DotDims::matmul())
    }

    /// Dimension permutation.
    pub fn transpose(&mut self, x: ValueId, perm: Vec<usize>) -> Result<ValueId, IrError> {
        self.emit1(OpKind::Transpose { perm }, &[x])
    }

    /// Reshape to `shape`.
    pub fn reshape(&mut self, x: ValueId, shape: impl Into<Shape>) -> Result<ValueId, IrError> {
        self.emit1(
            OpKind::Reshape {
                shape: shape.into(),
            },
            &[x],
        )
    }

    /// Broadcast with explicit dimension mapping.
    pub fn broadcast_in_dim(
        &mut self,
        x: ValueId,
        shape: impl Into<Shape>,
        broadcast_dims: Vec<usize>,
    ) -> Result<ValueId, IrError> {
        self.emit1(
            OpKind::BroadcastInDim {
                shape: shape.into(),
                broadcast_dims,
            },
            &[x],
        )
    }

    /// Broadcasts a scalar to `shape`.
    pub fn broadcast_scalar(
        &mut self,
        x: ValueId,
        shape: impl Into<Shape>,
    ) -> Result<ValueId, IrError> {
        self.broadcast_in_dim(x, shape, vec![])
    }

    /// Reduction over `dims`.
    pub fn reduce(
        &mut self,
        op: ReduceOp,
        x: ValueId,
        dims: Vec<usize>,
    ) -> Result<ValueId, IrError> {
        self.emit1(OpKind::Reduce { op, dims }, &[x])
    }

    /// Sum-reduction over `dims`.
    pub fn reduce_sum(&mut self, x: ValueId, dims: Vec<usize>) -> Result<ValueId, IrError> {
        self.reduce(ReduceOp::Sum, x, dims)
    }

    /// Max-reduction over `dims`.
    pub fn reduce_max(&mut self, x: ValueId, dims: Vec<usize>) -> Result<ValueId, IrError> {
        self.reduce(ReduceOp::Max, x, dims)
    }

    /// Static slice with unit strides.
    pub fn slice(
        &mut self,
        x: ValueId,
        starts: Vec<usize>,
        limits: Vec<usize>,
    ) -> Result<ValueId, IrError> {
        let strides = vec![1; starts.len()];
        self.emit1(
            OpKind::Slice {
                starts,
                limits,
                strides,
            },
            &[x],
        )
    }

    /// Pad with a scalar value.
    pub fn pad(
        &mut self,
        x: ValueId,
        value: ValueId,
        low: Vec<i64>,
        high: Vec<i64>,
    ) -> Result<ValueId, IrError> {
        self.emit1(OpKind::Pad { low, high }, &[x, value])
    }

    /// Concatenation along `dim`.
    pub fn concatenate(&mut self, xs: &[ValueId], dim: usize) -> Result<ValueId, IrError> {
        self.emit1(OpKind::Concatenate { dim }, xs)
    }

    /// Dynamic slice with scalar i32 start indices.
    pub fn dynamic_slice(
        &mut self,
        x: ValueId,
        indices: &[ValueId],
        sizes: Vec<usize>,
    ) -> Result<ValueId, IrError> {
        let mut operands = vec![x];
        operands.extend_from_slice(indices);
        self.emit1(OpKind::DynamicSlice { sizes }, &operands)
    }

    /// Dynamic update slice.
    pub fn dynamic_update_slice(
        &mut self,
        x: ValueId,
        update: ValueId,
        indices: &[ValueId],
    ) -> Result<ValueId, IrError> {
        let mut operands = vec![x, update];
        operands.extend_from_slice(indices);
        self.emit1(OpKind::DynamicUpdateSlice, &operands)
    }

    /// Gather (`take`) along `axis`.
    pub fn gather(
        &mut self,
        x: ValueId,
        indices: ValueId,
        axis: usize,
    ) -> Result<ValueId, IrError> {
        self.emit1(OpKind::Gather { axis }, &[x, indices])
    }

    /// Scatter-add along `axis` into a result whose `axis` dim has `size`.
    pub fn scatter_add(
        &mut self,
        src: ValueId,
        indices: ValueId,
        axis: usize,
        size: usize,
    ) -> Result<ValueId, IrError> {
        self.emit1(OpKind::ScatterAdd { axis, size }, &[src, indices])
    }

    /// 2-D convolution (NCHW/OIHW).
    pub fn convolution(
        &mut self,
        input: ValueId,
        kernel: ValueId,
        dims: ConvDims,
    ) -> Result<ValueId, IrError> {
        self.emit1(OpKind::Convolution(dims), &[input, kernel])
    }

    /// Index of the maximum along `dim`.
    pub fn argmax(&mut self, x: ValueId, dim: usize) -> Result<ValueId, IrError> {
        self.emit1(OpKind::ArgMax { dim }, &[x])
    }

    /// Emits an SPMD collective (requires [`FuncBuilder::with_mesh`]).
    pub fn collective(&mut self, c: Collective, x: ValueId) -> Result<ValueId, IrError> {
        self.emit1(OpKind::Collective(c), &[x])
    }

    /// Emits a counted `for` loop.
    ///
    /// `inits` are the carried values. The closure receives the builder,
    /// the i32 loop index and the carried block arguments, and must return
    /// the values yielded for the next iteration (same arity and types as
    /// `inits`).
    ///
    /// # Errors
    ///
    /// Fails if the yielded types don't match the carried types, or if the
    /// closure fails.
    pub fn for_loop<F>(
        &mut self,
        trip_count: usize,
        inits: &[ValueId],
        f: F,
    ) -> Result<Vec<ValueId>, IrError>
    where
        F: FnOnce(&mut FuncBuilder, ValueId, &[ValueId]) -> Result<Vec<ValueId>, IrError>,
    {
        let op = OpId(self.ops.len() as u32);
        // Reserve the op slot so region params can reference it.
        let init_tys: Vec<TensorType> = inits.iter().map(|&v| self.ty(v).clone()).collect();
        self.ops.push(OpData {
            kind: OpKind::For { trip_count },
            operands: inits.to_vec(),
            results: Vec::new(),
            region: None,
        });
        let index = self.new_value(
            TensorType::scalar(DType::I32),
            None,
            ValueDef::RegionParam { op, index: 0 },
        );
        let carried: Vec<ValueId> = init_tys
            .iter()
            .enumerate()
            .map(|(i, ty)| {
                self.new_value(ty.clone(), None, ValueDef::RegionParam { op, index: i + 1 })
            })
            .collect();
        self.region_stack.push(Vec::new());
        let yielded = f(self, index, &carried)?;
        let body = self.region_stack.pop().expect("region stack underflow");
        if yielded.len() != inits.len() {
            return Err(IrError::invalid(format!(
                "for loop yields {} values but carries {}",
                yielded.len(),
                inits.len()
            )));
        }
        for (&y, ty) in yielded.iter().zip(&init_tys) {
            if self.ty(y) != ty {
                return Err(IrError::shape(
                    "for",
                    format!("yielded type {} does not match carried {}", self.ty(y), ty),
                ));
            }
        }
        let mut region_params = vec![index];
        region_params.extend_from_slice(&carried);
        let results: Vec<ValueId> = init_tys
            .into_iter()
            .enumerate()
            .map(|(i, ty)| self.new_value(ty, None, ValueDef::OpResult { op, index: i }))
            .collect();
        let slot = &mut self.ops[op.0 as usize];
        slot.results = results.clone();
        slot.region = Some(Region {
            params: region_params,
            body,
            results: yielded,
        });
        self.region_stack
            .last_mut()
            .expect("region stack never empty")
            .push(op);
        Ok(results)
    }

    /// Finishes the function with the given results.
    ///
    /// # Errors
    ///
    /// Fails if a region is still open or a result value is unknown.
    pub fn build(mut self, results: impl IntoIterator<Item = ValueId>) -> Result<Func, IrError> {
        if self.region_stack.len() != 1 {
            return Err(IrError::invalid("unclosed region at build time"));
        }
        let results: Vec<ValueId> = results.into_iter().collect();
        for &r in &results {
            if r.0 as usize >= self.values.len() {
                return Err(IrError::invalid(format!("unknown result value {r:?}")));
            }
        }
        let body = self.region_stack.pop().expect("checked above");
        Ok(Func::from_parts(
            self.name,
            self.params,
            self.values,
            self.ops,
            body,
            results,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_types_simple_chain() {
        let mut b = FuncBuilder::new("main");
        let x = b.param("x", TensorType::f32([256, 8]));
        let w1 = b.param("w1", TensorType::f32([8, 16]));
        let w2 = b.param("w2", TensorType::f32([16, 8]));
        let h = b.matmul(x, w1).unwrap();
        assert_eq!(b.ty(h), &TensorType::f32([256, 16]));
        let y = b.matmul(h, w2).unwrap();
        let f = b.build([y]).unwrap();
        assert_eq!(f.results().len(), 1);
        assert_eq!(f.value_type(y), &TensorType::f32([256, 8]));
    }

    #[test]
    fn rejects_bad_shapes_at_emit_time() {
        let mut b = FuncBuilder::new("main");
        let x = b.param("x", TensorType::f32([4, 4]));
        let y = b.param("y", TensorType::f32([4, 5]));
        assert!(b.add(x, y).is_err());
        assert!(b.matmul(y, y).is_err());
    }

    #[test]
    fn for_loop_carries_values() {
        let mut b = FuncBuilder::new("loop");
        let x = b.param("x", TensorType::f32([4]));
        let out = b
            .for_loop(3, &[x], |b, _i, carried| {
                let doubled = b.binary_scalar(BinaryOp::Mul, carried[0], 2.0)?;
                Ok(vec![doubled])
            })
            .unwrap();
        let f = b.build(out.clone()).unwrap();
        assert_eq!(f.value_type(out[0]), &TensorType::f32([4]));
        // The for op carries a region of two ops (constant + mul).
        let for_op = f
            .op_ids()
            .find(|&o| matches!(f.op(o).kind, OpKind::For { .. }))
            .unwrap();
        let region = f.op(for_op).region.as_ref().unwrap();
        assert_eq!(region.params.len(), 2);
        // constant + broadcast + mul
        assert_eq!(region.body.len(), 3);
    }

    #[test]
    fn for_loop_rejects_mismatched_yield() {
        let mut b = FuncBuilder::new("loop");
        let x = b.param("x", TensorType::f32([4]));
        let r = b.for_loop(2, &[x], |b, _i, _carried| {
            let wrong = b.const_f32(1.0)?;
            Ok(vec![wrong])
        });
        assert!(r.is_err());
    }

    #[test]
    fn collective_requires_mesh() {
        let mut b = FuncBuilder::new("nomesh");
        let x = b.param("x", TensorType::f32([4]));
        assert!(b
            .collective(
                Collective::AllReduce {
                    axes: vec!["m".into()],
                    reduce: ReduceOp::Sum
                },
                x
            )
            .is_err());
    }
}
