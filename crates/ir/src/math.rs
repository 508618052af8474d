//! The transcendental lane functions of [`crate::kernels::apply_un`] and
//! [`crate::reference::unary`], stated once and called by both, so fused
//! steps, unfused steps and the oracle share one definition.
//!
//! [`exp`] and [`tanh`] share one range reduction, `y = n·ln 2 + r` with
//! `|r| ≤ ln 2 / 2`, and one polynomial for `expm1(r)`:
//!
//! * `n` is `y·log₂e` rounded to nearest by adding `1.5·2⁵² + 1023`: the
//!   sum's low mantissa bits then hold the biased exponent `n + 1023`, so
//!   `2ⁿ` is those bits shifted into the exponent field. There is no
//!   `round`/`floor` call (a libm call on the default x86-64 target) and
//!   no float-to-int conversion;
//! * `r = y − n·ln 2` in one step: with `|n| ≤ 150` that is off by about
//!   10⁻¹⁴ relative to the result, so the Cody–Waite split of `ln 2` an
//!   `f32` reduction needs would only cost time;
//! * `expm1(r) ≈ r + r²·(c₂ + … + c₆r⁴)`, a fixed polynomial fitted for
//!   relative error (1.5·10⁻⁸, a quarter of an `f32` ulp, on
//!   `|r| ≤ 0.354`).
//!
//! Both run in `f64`, and each function rounds to `f32` once at the end.
//! That halves the vector width and buys accuracy that keeps `tanh`
//! monotone: over all 2³² inputs against `f64`, `tanh` is within 0.72 ulp
//! and `exp` within 0.57 ulp, while the same formulas in `f32` were
//! 2.6 ulp off and `e / (e + 2)` stepped down between adjacent floats at
//! 765 681 points of [0, 20]. Clamps and the NaN pass-through are
//! selects, so a loop over a slice vectorises; no libm is called, so the
//! bits are the same on every host. `tests/math.rs` states the bounds.

use std::f64::consts::{LN_2, LOG2_E};

/// `1.5·2⁵² + 1023`: adding it rounds `|v| < 2⁵¹` to an integer `n` and
/// leaves `n + 1023` in the low bits of the sum.
const SHIFT: f64 = 6_755_399_441_056_767.0;
/// `expm1(r) ≈ r + r²·(C[0] + C[1]·r + … + C[4]·r⁴)`, minimax for
/// relative error on `|r| ≤ 0.354`.
const C: [f64; 5] = [
    0.499_999_979_245_523_2,
    0.166_665_336_183_555_33,
    0.041_667_243_151_326_12,
    0.008_367_844_909_643_906,
    0.001_388_227_553_590_444_2,
];

/// `(expm1(r), 2ⁿ)` for `y = n·ln 2 + r`; `|y|` must stay below 708.
#[inline(always)]
fn expm1_reduced(y: f64) -> (f64, f64) {
    let z = y * LOG2_E + SHIFT;
    let n = z - SHIFT;
    let r = y - n * LN_2;
    // Estrin's scheme: independent pairs, then powers of r².
    let r2 = r * r;
    let q = (C[0] + r * C[1]) + r2 * ((C[2] + r * C[3]) + r2 * C[4]);
    (r + r2 * q, f64::from_bits(z.to_bits() << 52))
}

/// `eˣ`, branch-free. Inputs are clamped to [−104, 89], past which the
/// result rounds to 0 or ∞; subnormal results are rounded once, by the
/// final conversion. NaN propagates.
#[inline(always)]
pub fn exp(x: f32) -> f32 {
    let (p, s) = expm1_reduced(f64::from(x.clamp(-104.0, 89.0)));
    (s + s * p) as f32
}

/// `tanh x`, branch-free: `copysign(e / (e + 2), x)` with
/// `e = expm1(2·min(|x|, 10))`; past 9.01 the quotient rounds to 1. A
/// final select passes NaN through; a subnormal `x` comes back unchanged.
#[inline(always)]
pub fn tanh(x: f32) -> f32 {
    let (p, s) = expm1_reduced(2.0 * f64::from(x.abs().min(10.0)));
    let e = s * p + (s - 1.0);
    let t = ((e / (e + 2.0)) as f32).copysign(x);
    if x.is_nan() {
        x
    } else {
        t
    }
}

/// The logistic function `1 / (1 + e⁻ˣ)`, in [0, 1] everywhere.
#[inline(always)]
pub fn logistic(x: f32) -> f32 {
    1.0 / (1.0 + exp(-x))
}
