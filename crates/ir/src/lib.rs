//! A StableHLO-like SSA tensor IR — the array substrate PartIR-rs rewrites.
//!
//! The paper's PartIR operates on the StableHLO MLIR dialect. Rust has no
//! MLIR bindings, so this crate rebuilds the required subset from scratch:
//!
//! * [`TensorType`], [`Shape`], [`DType`] and [`Literal`] value types;
//! * [`OpKind`] — dot_general, elementwise, reduce, reshape, transpose,
//!   broadcast, slice/pad/concat, convolution (+ dedicated gradient ops,
//!   as in XLA), gather/scatter-add, a `for` loop with a region (used for
//!   the inference serving loop), and the SPMD [`Collective`] dialect ops
//!   that `partir-spmd` lowers into;
//! * [`Func`]/[`Module`] SSA containers and a type-inferring [`FuncBuilder`];
//! * a structural [`verify`](verify::verify_func) pass;
//! * a reference [`interp`] interpreter giving the IR sequential semantics
//!   (the analogue of the paper's PartIR:Temporal reference semantics);
//! * an MLIR-ish pretty printer ([`print`](mod@print)) and a [`parse`]r
//!   that round-trips it, for debugging and golden tests.
//!
//! # Examples
//!
//! Build and run the two-matmul program from Listing 1/2 of the paper:
//!
//! ```
//! use partir_ir::{DType, FuncBuilder, Literal, TensorType};
//!
//! let mut b = FuncBuilder::new("main");
//! let x = b.param("x", TensorType::f32([4, 8]));
//! let w1 = b.param("w1", TensorType::f32([8, 16]));
//! let w2 = b.param("w2", TensorType::f32([16, 8]));
//! let h = b.matmul(x, w1)?;
//! let y = b.matmul(h, w2)?;
//! let func = b.build([y])?;
//!
//! let out = partir_ir::interp::interpret(
//!     &func,
//!     &[
//!         Literal::ones(&TensorType::f32([4, 8])),
//!         Literal::ones(&TensorType::f32([8, 16])),
//!         Literal::ones(&TensorType::f32([16, 8])),
//!     ],
//! )?;
//! assert_eq!(out[0].shape().dims(), &[4, 8]);
//! # Ok::<(), partir_ir::IrError>(())
//! ```

#![forbid(unsafe_code)]

mod builder;
mod dtype;
mod error;
pub mod fingerprint;
mod func;
pub mod infer;
pub mod interp;
pub mod kernels;
mod literal;
pub mod math;
mod ops;
pub mod parse;
pub mod passes;
pub mod print;
pub mod reference;
mod shape;
pub mod verify;

pub use builder::FuncBuilder;
pub use dtype::DType;
pub use error::IrError;
pub use fingerprint::{Fingerprint, StableHasher};
pub use func::{Func, Module, OpData, OpId, Region, SrcLoc, ValueDef, ValueId, ValueInfo};
pub use literal::Literal;
pub use ops::{BinaryOp, Collective, CompareDir, ConvDims, DotDims, OpKind, ReduceOp, UnaryOp};
pub use shape::Shape;

/// The tensor type of an SSA value: element type plus static shape.
///
/// # Examples
///
/// ```
/// use partir_ir::{DType, TensorType};
///
/// let t = TensorType::f32([256, 8]);
/// assert_eq!(t.shape.num_elements(), 2048);
/// assert_eq!(t.dtype, DType::F32);
/// assert_eq!(t.to_string(), "tensor<256x8xf32>");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TensorType {
    /// Static shape.
    pub shape: Shape,
    /// Element type.
    pub dtype: DType,
}

impl TensorType {
    /// Creates a tensor type.
    pub fn new(shape: impl Into<Shape>, dtype: DType) -> Self {
        TensorType {
            shape: shape.into(),
            dtype,
        }
    }

    /// A float32 tensor type.
    pub fn f32(shape: impl Into<Shape>) -> Self {
        TensorType::new(shape, DType::F32)
    }

    /// An int32 tensor type.
    pub fn i32(shape: impl Into<Shape>) -> Self {
        TensorType::new(shape, DType::I32)
    }

    /// A boolean (predicate) tensor type.
    pub fn pred(shape: impl Into<Shape>) -> Self {
        TensorType::new(shape, DType::Pred)
    }

    /// A scalar (rank-0) type.
    pub fn scalar(dtype: DType) -> Self {
        TensorType::new(Vec::<usize>::new(), dtype)
    }

    /// Size of one element in bytes.
    pub fn element_bytes(&self) -> usize {
        self.dtype.size_bytes()
    }

    /// Total size of the tensor in bytes.
    pub fn size_bytes(&self) -> usize {
        self.shape.num_elements() * self.element_bytes()
    }

    /// Rank (number of dimensions).
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }
}

impl std::fmt::Display for TensorType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tensor<")?;
        for d in self.shape.dims() {
            write!(f, "{d}x")?;
        }
        write!(f, "{}>", self.dtype)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tensor_type_display_matches_mlir_style() {
        assert_eq!(TensorType::f32([256, 8]).to_string(), "tensor<256x8xf32>");
        assert_eq!(TensorType::scalar(DType::F32).to_string(), "tensor<f32>");
        assert_eq!(TensorType::i32([3]).to_string(), "tensor<3xi32>");
    }

    #[test]
    fn tensor_type_sizes() {
        let t = TensorType::f32([4, 4]);
        assert_eq!(t.size_bytes(), 64);
        assert_eq!(t.rank(), 2);
        assert_eq!(TensorType::pred([8]).size_bytes(), 8);
    }
}
