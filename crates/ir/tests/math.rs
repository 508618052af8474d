//! `partir_ir::math` against `f64`: error bounds in ulp over a sweep of
//! f32 bit patterns, exact special values, symmetry, range and
//! monotonicity, and the slice lanes of `apply_un` equal to the scalar
//! functions they call.

use partir_ir::kernels::apply_un;
use partir_ir::{math, UnaryOp};

/// Every `STRIDE`-th f32 bit pattern, about 1.05 million of them: each
/// sweep test takes 0.15–0.3 s in a debug build, the whole file under 1 s.
/// The stride is odd, so the low mantissa bits take every value.
const STRIDE: u32 = 4_097;

fn sweep() -> impl Iterator<Item = f32> {
    (0..=u32::MAX / STRIDE)
        .map(|i| f32::from_bits(i * STRIDE))
        .filter(|x| !x.is_nan())
}

/// One f32 ulp at the magnitude of `want`: `2^(e − 23)` for a normal
/// result in binade `e`, `2^−149` for a subnormal one.
fn ulp(want: f64) -> f64 {
    let e = ((want.abs().to_bits() >> 52) as i32 - 1023).max(-126);
    2f64.powi(e - 23)
}

/// `got` is within one ulp of `want`, and exactly `want as f32` where
/// that rounds to zero or overflows.
fn check(name: &str, x: f32, got: f32, want: f64) {
    let rounded = want as f32;
    if rounded == 0.0 || rounded.is_infinite() {
        assert_eq!(
            got.to_bits(),
            rounded.to_bits(),
            "{name}({x:e}) = {got:e}, want {rounded:e}"
        );
        return;
    }
    let err = (f64::from(got) - want).abs() / ulp(want);
    assert!(
        err <= 1.0,
        "{name}({x:e}) = {got:e}, want {want:e}: {err:.3} ulp"
    );
}

#[test]
fn tanh_is_within_one_ulp() {
    for x in sweep() {
        check("tanh", x, math::tanh(x), f64::from(x).tanh());
    }
}

/// Within one ulp where the result is a normal f32 and one subnormal ulp
/// below that (the same formula: [`ulp`] bottoms out at `2^−149`).
#[test]
fn exp_is_within_one_ulp() {
    for x in sweep() {
        check("exp", x, math::exp(x), f64::from(x).exp());
    }
}

#[test]
fn special_values_are_exact() {
    let bits = |v: f32| v.to_bits();
    assert_eq!(bits(math::tanh(0.0)), bits(0.0));
    assert_eq!(bits(math::tanh(-0.0)), bits(-0.0));
    assert_eq!(math::tanh(f32::INFINITY), 1.0);
    assert_eq!(math::tanh(f32::NEG_INFINITY), -1.0);
    assert!(math::tanh(f32::NAN).is_nan());
    assert_eq!(math::exp(0.0), 1.0);
    assert_eq!(math::exp(-0.0), 1.0);
    assert_eq!(math::exp(f32::INFINITY), f32::INFINITY);
    assert_eq!(bits(math::exp(f32::NEG_INFINITY)), bits(0.0));
    assert!(math::exp(f32::NAN).is_nan());
    assert_eq!(math::logistic(f32::INFINITY), 1.0);
    assert_eq!(bits(math::logistic(f32::NEG_INFINITY)), bits(0.0));
    assert!(math::logistic(f32::NAN).is_nan());
    // tanh x = x − x³/3 rounds to x for every subnormal x.
    for b in (1..0x0080_0000u32).step_by(97) {
        for x in [f32::from_bits(b), -f32::from_bits(b)] {
            assert_eq!(bits(math::tanh(x)), bits(x), "tanh({x:e})");
        }
    }
}

#[test]
fn tanh_is_odd_and_bounded_and_logistic_is_a_probability() {
    for x in sweep() {
        let t = math::tanh(x);
        assert_eq!(math::tanh(-x).to_bits(), (-t).to_bits(), "tanh(-{x:e})");
        assert!(t.abs() <= 1.0, "tanh({x:e}) = {t:e}");
        let s = math::logistic(x);
        assert!((0.0..=1.0).contains(&s), "logistic({x:e}) = {s:e}");
    }
}

/// Monotone on adjacent floats: runs of 512 consecutive bit patterns
/// starting every 2¹⁷ patterns over [0, 20], around every point where the
/// range reduction's `n` steps (`2x = (k + ½)·ln 2`) and where the result
/// reaches 1. Oddness carries it to [−20, 0].
#[test]
fn tanh_is_monotone_on_adjacent_floats() {
    let end = 20f32.to_bits();
    let mut starts: Vec<u32> = (0..end).step_by(1 << 17).collect();
    for k in 0..=28 {
        let x = (k as f32 + 0.5) * std::f32::consts::LN_2 / 2.0;
        starts.push(x.to_bits() - 256);
    }
    starts.push(9.01f32.to_bits() - 256);
    for start in starts {
        let mut prev = math::tanh(f32::from_bits(start));
        for b in start + 1..(start + 512).min(end) {
            let x = f32::from_bits(b);
            let t = math::tanh(x);
            assert!(
                t >= prev,
                "tanh({x:e}) = {t:e} < tanh of the float below, {prev:e}"
            );
            prev = t;
        }
    }
}

/// The slice lanes equal the scalar functions bit for bit at every length
/// a vector loop's remainder can take, and at a whole register block.
#[test]
fn apply_un_equals_the_scalar_functions() {
    let pool = [
        0.0,
        -0.0,
        1e-40,
        -3.5,
        0.25,
        9.5,
        -88.0,
        90.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        1.5e-3,
        -20.0,
    ];
    let lanes = [
        (UnaryOp::Tanh, math::tanh as fn(f32) -> f32),
        (UnaryOp::Exp, math::exp),
        (UnaryOp::Logistic, math::logistic),
    ];
    for len in (0..=9).chain([128]) {
        let a: Vec<f32> = (0..len)
            .map(|i| pool[i % pool.len()] * (1.0 + i as f32 / 64.0))
            .collect();
        for (op, f) in lanes {
            let mut d = vec![7.0; len];
            apply_un(op, &a, &mut d);
            for (i, (&y, &x)) in d.iter().zip(&a).enumerate() {
                assert_eq!(y.to_bits(), f(x).to_bits(), "{op:?} len {len} lane {i}");
            }
        }
    }
}
