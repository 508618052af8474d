use std::fmt;
use std::sync::Arc;

use crate::{DType, IrError, Shape, TensorType};

/// A concrete tensor value: shape plus densely stored (row-major) elements.
///
/// Literals appear both as `Constant` op payloads and as the runtime values
/// of the reference and SPMD interpreters.
///
/// Element data lives behind [`Arc`]-backed copy-on-write buffers:
/// `clone()` is a refcount bump, so binding a literal into an interpreter
/// environment, carrying it through a `for` loop, or sending it over a
/// runtime channel never copies elements. The mutable accessors
/// ([`Literal::as_f32_mut`] etc.) go through `Arc::make_mut`, copying only
/// when the buffer is shared — uniquely-owned literals mutate in place.
///
/// # Examples
///
/// ```
/// use partir_ir::{Literal, TensorType};
///
/// let l = Literal::from_f32(vec![1.0, 2.0, 3.0, 4.0], [2, 2])?;
/// assert_eq!(l.get_f32(&[1, 0])?, 3.0);
/// # Ok::<(), partir_ir::IrError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Literal {
    shape: Shape,
    data: Data,
}

#[derive(Debug, Clone, PartialEq)]
enum Data {
    F32(Arc<Vec<f32>>),
    I32(Arc<Vec<i32>>),
    Pred(Arc<Vec<bool>>),
}

impl Literal {
    /// Creates an f32 literal from row-major data.
    ///
    /// # Errors
    ///
    /// Fails if `data.len()` does not match the shape's element count.
    pub fn from_f32(data: Vec<f32>, shape: impl Into<Shape>) -> Result<Self, IrError> {
        let shape = shape.into();
        if data.len() != shape.num_elements() {
            return Err(IrError::invalid(format!(
                "literal data length {} does not match shape {shape}",
                data.len()
            )));
        }
        Ok(Literal {
            shape,
            data: Data::F32(Arc::new(data)),
        })
    }

    /// Creates an i32 literal from row-major data.
    ///
    /// # Errors
    ///
    /// Fails if `data.len()` does not match the shape's element count.
    pub fn from_i32(data: Vec<i32>, shape: impl Into<Shape>) -> Result<Self, IrError> {
        let shape = shape.into();
        if data.len() != shape.num_elements() {
            return Err(IrError::invalid(format!(
                "literal data length {} does not match shape {shape}",
                data.len()
            )));
        }
        Ok(Literal {
            shape,
            data: Data::I32(Arc::new(data)),
        })
    }

    /// Creates a pred literal from row-major data.
    ///
    /// # Errors
    ///
    /// Fails if `data.len()` does not match the shape's element count.
    pub fn from_pred(data: Vec<bool>, shape: impl Into<Shape>) -> Result<Self, IrError> {
        let shape = shape.into();
        if data.len() != shape.num_elements() {
            return Err(IrError::invalid(format!(
                "literal data length {} does not match shape {shape}",
                data.len()
            )));
        }
        Ok(Literal {
            shape,
            data: Data::Pred(Arc::new(data)),
        })
    }

    /// A literal holding a copy of `buf`'s elements, of its dtype.
    ///
    /// # Errors
    ///
    /// Fails if `buf.len()` does not match the shape's element count.
    pub fn from_buf(
        buf: crate::kernels::Buf<'_>,
        shape: impl Into<Shape>,
    ) -> Result<Self, IrError> {
        match buf {
            crate::kernels::Buf::F32(v) => Literal::from_f32(v.to_vec(), shape),
            crate::kernels::Buf::I32(v) => Literal::from_i32(v.to_vec(), shape),
            crate::kernels::Buf::Pred(v) => Literal::from_pred(v.to_vec(), shape),
        }
    }

    /// An f32 scalar.
    pub fn scalar_f32(v: f32) -> Self {
        Literal {
            shape: Shape::scalar(),
            data: Data::F32(Arc::new(vec![v])),
        }
    }

    /// An i32 scalar.
    pub fn scalar_i32(v: i32) -> Self {
        Literal {
            shape: Shape::scalar(),
            data: Data::I32(Arc::new(vec![v])),
        }
    }

    /// A zero-filled literal of the given type.
    pub fn zeros(ty: &TensorType) -> Self {
        Literal::filled(ty, 0.0)
    }

    /// A one-filled literal of the given type.
    pub fn ones(ty: &TensorType) -> Self {
        Literal::filled(ty, 1.0)
    }

    /// A literal of the given type with every element set to `v`
    /// (cast per dtype; `Pred` becomes `v != 0`).
    pub fn filled(ty: &TensorType, v: f32) -> Self {
        Literal::filled_owned(ty.clone(), v)
    }

    /// [`Literal::zeros`] of a type the caller is done with (no shape
    /// clone): the result buffer of [`crate::interp::eval_op`].
    pub(crate) fn zeroed(ty: TensorType) -> Self {
        Literal::filled_owned(ty, 0.0)
    }

    fn filled_owned(ty: TensorType, v: f32) -> Self {
        let n = ty.shape.num_elements();
        let data = match ty.dtype {
            DType::F32 => Data::F32(Arc::new(vec![v; n])),
            DType::I32 => Data::I32(Arc::new(vec![v as i32; n])),
            DType::Pred => Data::Pred(Arc::new(vec![v != 0.0; n])),
        };
        Literal {
            shape: ty.shape,
            data,
        }
    }

    /// The literal's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The literal's element type.
    pub fn dtype(&self) -> DType {
        match &self.data {
            Data::F32(_) => DType::F32,
            Data::I32(_) => DType::I32,
            Data::Pred(_) => DType::Pred,
        }
    }

    /// The literal's tensor type.
    pub fn ty(&self) -> TensorType {
        TensorType::new(self.shape.clone(), self.dtype())
    }

    /// Row-major f32 view.
    ///
    /// # Errors
    ///
    /// Fails if the literal is not f32.
    pub fn as_f32(&self) -> Result<&[f32], IrError> {
        match &self.data {
            Data::F32(v) => Ok(v),
            _ => Err(IrError::type_mismatch("f32 literal", self.dtype())),
        }
    }

    /// Row-major i32 view.
    ///
    /// # Errors
    ///
    /// Fails if the literal is not i32.
    pub fn as_i32(&self) -> Result<&[i32], IrError> {
        match &self.data {
            Data::I32(v) => Ok(v),
            _ => Err(IrError::type_mismatch("i32 literal", self.dtype())),
        }
    }

    /// Row-major pred view.
    ///
    /// # Errors
    ///
    /// Fails if the literal is not pred.
    pub fn as_pred(&self) -> Result<&[bool], IrError> {
        match &self.data {
            Data::Pred(v) => Ok(v),
            _ => Err(IrError::type_mismatch("pred literal", self.dtype())),
        }
    }

    /// Mutable f32 view (copy-on-write: copies only if the buffer is
    /// shared with another literal).
    ///
    /// # Errors
    ///
    /// Fails if the literal is not f32.
    pub fn as_f32_mut(&mut self) -> Result<&mut [f32], IrError> {
        let dt = self.dtype();
        match &mut self.data {
            Data::F32(v) => Ok(Arc::make_mut(v).as_mut_slice()),
            _ => Err(IrError::type_mismatch("f32 literal", dt)),
        }
    }

    /// Mutable i32 view (copy-on-write).
    ///
    /// # Errors
    ///
    /// Fails if the literal is not i32.
    pub fn as_i32_mut(&mut self) -> Result<&mut [i32], IrError> {
        let dt = self.dtype();
        match &mut self.data {
            Data::I32(v) => Ok(Arc::make_mut(v).as_mut_slice()),
            _ => Err(IrError::type_mismatch("i32 literal", dt)),
        }
    }

    /// Mutable pred view (copy-on-write).
    ///
    /// # Errors
    ///
    /// Fails if the literal is not pred.
    pub fn as_pred_mut(&mut self) -> Result<&mut [bool], IrError> {
        let dt = self.dtype();
        match &mut self.data {
            Data::Pred(v) => Ok(Arc::make_mut(v).as_mut_slice()),
            _ => Err(IrError::type_mismatch("pred literal", dt)),
        }
    }

    /// The data as a typed [`Buf`](crate::kernels::Buf), whatever the dtype.
    pub fn as_buf(&self) -> crate::kernels::Buf<'_> {
        match &self.data {
            Data::F32(v) => crate::kernels::Buf::F32(v),
            Data::I32(v) => crate::kernels::Buf::I32(v),
            Data::Pred(v) => crate::kernels::Buf::Pred(v),
        }
    }

    /// The data as a mutable typed [`BufMut`](crate::kernels::BufMut)
    /// (copy-on-write).
    pub fn as_buf_mut(&mut self) -> crate::kernels::BufMut<'_> {
        match &mut self.data {
            Data::F32(v) => crate::kernels::BufMut::F32(Arc::make_mut(v).as_mut_slice()),
            Data::I32(v) => crate::kernels::BufMut::I32(Arc::make_mut(v).as_mut_slice()),
            Data::Pred(v) => crate::kernels::BufMut::Pred(Arc::make_mut(v).as_mut_slice()),
        }
    }

    /// Whether two literals alias the same underlying buffer (refcount
    /// sharing, not value equality). Used to verify copy-on-write
    /// behaviour in tests and to assert zero-copy transport.
    pub fn shares_data(&self, other: &Literal) -> bool {
        match (&self.data, &other.data) {
            (Data::F32(a), Data::F32(b)) => Arc::ptr_eq(a, b),
            (Data::I32(a), Data::I32(b)) => Arc::ptr_eq(a, b),
            (Data::Pred(a), Data::Pred(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Whether this literal is the unique owner of its buffer (an
    /// in-place mutation through the `as_*_mut` accessors will not copy).
    pub fn is_unique(&self) -> bool {
        match &self.data {
            Data::F32(v) => Arc::strong_count(v) == 1,
            Data::I32(v) => Arc::strong_count(v) == 1,
            Data::Pred(v) => Arc::strong_count(v) == 1,
        }
    }

    /// The element at a multi-index, as f64 regardless of dtype
    /// (pred maps to 0/1).
    ///
    /// # Errors
    ///
    /// Fails on rank mismatch or out-of-bounds indices.
    pub fn get(&self, index: &[usize]) -> Result<f64, IrError> {
        let off = self.checked_offset(index)?;
        Ok(match &self.data {
            Data::F32(v) => v[off] as f64,
            Data::I32(v) => v[off] as f64,
            Data::Pred(v) => {
                if v[off] {
                    1.0
                } else {
                    0.0
                }
            }
        })
    }

    /// The f32 element at a multi-index.
    ///
    /// # Errors
    ///
    /// Fails if the literal is not f32 or the index is invalid.
    pub fn get_f32(&self, index: &[usize]) -> Result<f32, IrError> {
        let off = self.checked_offset(index)?;
        Ok(self.as_f32()?[off])
    }

    /// Number of elements.
    pub fn num_elements(&self) -> usize {
        self.shape.num_elements()
    }

    /// Reinterprets the data with a new shape of equal element count.
    ///
    /// # Errors
    ///
    /// Fails if the element counts differ.
    pub fn reshaped(mut self, shape: impl Into<Shape>) -> Result<Self, IrError> {
        let shape = shape.into();
        if shape.num_elements() != self.shape.num_elements() {
            return Err(IrError::invalid(format!(
                "cannot reshape {} elements to shape {shape}",
                self.shape.num_elements()
            )));
        }
        self.shape = shape;
        Ok(self)
    }

    /// Maximum absolute difference against another f32 literal.
    ///
    /// # Errors
    ///
    /// Fails when dtypes are not f32 or shapes differ.
    pub fn max_abs_diff(&self, other: &Literal) -> Result<f32, IrError> {
        if self.shape != other.shape {
            return Err(IrError::invalid(format!(
                "shape mismatch {} vs {}",
                self.shape, other.shape
            )));
        }
        let a = self.as_f32()?;
        let b = other.as_f32()?;
        Ok(a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f32::max))
    }

    fn checked_offset(&self, index: &[usize]) -> Result<usize, IrError> {
        if index.len() != self.shape.rank() {
            return Err(IrError::invalid(format!(
                "index rank {} does not match literal rank {}",
                index.len(),
                self.shape.rank()
            )));
        }
        for (i, (&ix, &d)) in index.iter().zip(self.shape.dims()).enumerate() {
            if ix >= d {
                return Err(IrError::invalid(format!(
                    "index {ix} out of bounds for dim {i} of size {d}"
                )));
            }
        }
        Ok(self.shape.linear_index(index))
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "literal<{} ", self.ty())?;
        let n = self.num_elements().min(8);
        match &self.data {
            Data::F32(v) => write!(f, "{:?}", &v[..n])?,
            Data::I32(v) => write!(f, "{:?}", &v[..n])?,
            Data::Pred(v) => write!(f, "{:?}", &v[..n])?,
        }
        if self.num_elements() > n {
            write!(f, "…")?;
        }
        write!(f, ">")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_checks_length() {
        assert!(Literal::from_f32(vec![1.0; 3], [2, 2]).is_err());
        assert!(Literal::from_f32(vec![1.0; 4], [2, 2]).is_ok());
        assert!(Literal::from_i32(vec![1; 2], [3]).is_err());
        assert!(Literal::from_pred(vec![true], [2]).is_err());
    }

    #[test]
    fn get_and_indexing() {
        let l = Literal::from_f32(vec![1.0, 2.0, 3.0, 4.0], [2, 2]).unwrap();
        assert_eq!(l.get_f32(&[0, 1]).unwrap(), 2.0);
        assert_eq!(l.get(&[1, 1]).unwrap(), 4.0);
        assert!(l.get_f32(&[2, 0]).is_err());
        assert!(l.get_f32(&[0]).is_err());
    }

    #[test]
    fn dtype_views() {
        let l = Literal::scalar_i32(7);
        assert_eq!(l.as_i32().unwrap(), &[7]);
        assert!(l.as_f32().is_err());
        assert_eq!(l.dtype(), DType::I32);
        let p = Literal::from_pred(vec![true, false], [2]).unwrap();
        assert_eq!(p.get(&[0]).unwrap(), 1.0);
        assert_eq!(p.get(&[1]).unwrap(), 0.0);
    }

    #[test]
    fn fills() {
        let t = TensorType::f32([3]);
        assert_eq!(Literal::zeros(&t).as_f32().unwrap(), &[0.0; 3]);
        assert_eq!(Literal::ones(&t).as_f32().unwrap(), &[1.0; 3]);
        let p = Literal::filled(&TensorType::pred([2]), 1.0);
        assert_eq!(p.as_pred().unwrap(), &[true, true]);
    }

    #[test]
    fn reshape_preserves_data() {
        let l = Literal::from_f32(vec![1.0, 2.0, 3.0, 4.0], [2, 2]).unwrap();
        let r = l.reshaped([4]).unwrap();
        assert_eq!(r.as_f32().unwrap(), &[1.0, 2.0, 3.0, 4.0]);
        assert!(r.reshaped([3]).is_err());
    }

    #[test]
    fn clone_shares_storage_until_mutation() {
        let a = Literal::from_f32(vec![1.0, 2.0, 3.0], [3]).unwrap();
        let b = a.clone();
        assert!(a.shares_data(&b), "clone must be a refcount bump");
        assert!(!a.is_unique());
        // Mutating the clone un-shares it and never bleeds into `a`.
        let mut c = b.clone();
        c.as_f32_mut().unwrap()[0] = 99.0;
        assert!(!c.shares_data(&a));
        assert_eq!(a.as_f32().unwrap(), &[1.0, 2.0, 3.0]);
        assert_eq!(b.as_f32().unwrap(), &[1.0, 2.0, 3.0]);
        assert_eq!(c.as_f32().unwrap(), &[99.0, 2.0, 3.0]);
    }

    #[test]
    fn unique_literal_mutates_in_place() {
        let mut a = Literal::from_i32(vec![1, 2], [2]).unwrap();
        assert!(a.is_unique());
        let before = a.as_i32().unwrap().as_ptr();
        a.as_i32_mut().unwrap()[1] = 7;
        assert_eq!(a.as_i32().unwrap().as_ptr(), before, "no copy when unique");
        assert_eq!(a.as_i32().unwrap(), &[1, 7]);
        let mut p = Literal::from_pred(vec![true, false], [2]).unwrap();
        p.as_pred_mut().unwrap()[1] = true;
        assert_eq!(p.as_pred().unwrap(), &[true, true]);
    }

    #[test]
    fn reshape_keeps_sharing() {
        let a = Literal::from_f32(vec![1.0; 4], [2, 2]).unwrap();
        let b = a.clone().reshaped([4]).unwrap();
        assert!(a.shares_data(&b), "reshape is zero-copy");
    }

    #[test]
    fn max_abs_diff() {
        let a = Literal::from_f32(vec![1.0, 2.0], [2]).unwrap();
        let b = Literal::from_f32(vec![1.5, 2.0], [2]).unwrap();
        assert_eq!(a.max_abs_diff(&b).unwrap(), 0.5);
    }
}
