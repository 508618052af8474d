//! Property tests for the kernel engine: the register-tiled `dot_general`
//! must be *bit-identical* to the retained index-walk oracle across
//! random `DotDims` (batch dims, multiple contract dims, degenerate 0- and
//! 1-sized dims, operands whose dim groups sit at arbitrary positions),
//! at extents that fill whole tiles and every remainder tile, on operands
//! seeded with NaN, ±inf and signed zeros, and at the device shapes of
//! the benchmarked training and decode steps; and copy-on-write mutation
//! must never bleed into a shared literal.

use partir_ir::kernels::{dot_general, dot_general_reference};
use partir_ir::{DotDims, Literal};
use partir_prng::{propcheck::check, Rng};

/// A dim size skewed toward the degenerate cases (0 rare, 1 common).
fn gen_size(rng: &mut Rng) -> usize {
    match rng.gen_range(8) {
        0 => 0,
        1 | 2 => 1,
        n => n - 1, // 2..=6
    }
}

fn shuffle(rng: &mut Rng, items: &mut [(usize, usize)]) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(i + 1);
        items.swap(i, j);
    }
}

/// Dim-group tags for one operand's shuffled layout.
const BATCH: usize = 0;
const CONTRACT: usize = 1;
const FREE: usize = 2;

/// Lays out batch/contract/free dims at random positions in one operand
/// and returns (shape dims, batch positions in pair order, contract
/// positions in pair order).
fn layout(
    rng: &mut Rng,
    batch: &[usize],
    contract: &[usize],
    free: &[usize],
) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
    // (group * 100 + index-within-group, size) so positions can be
    // recovered after shuffling.
    let mut tagged: Vec<(usize, usize)> = Vec::new();
    for (i, &s) in batch.iter().enumerate() {
        tagged.push((BATCH * 100 + i, s));
    }
    for (i, &s) in contract.iter().enumerate() {
        tagged.push((CONTRACT * 100 + i, s));
    }
    for (i, &s) in free.iter().enumerate() {
        tagged.push((FREE * 100 + i, s));
    }
    shuffle(rng, &mut tagged);
    let dims: Vec<usize> = tagged.iter().map(|&(_, s)| s).collect();
    let mut batch_pos = vec![0usize; batch.len()];
    let mut contract_pos = vec![0usize; contract.len()];
    for (pos, &(tag, _)) in tagged.iter().enumerate() {
        match tag / 100 {
            BATCH => batch_pos[tag % 100] = pos,
            CONTRACT => contract_pos[tag % 100] = pos,
            _ => {}
        }
    }
    (dims, batch_pos, contract_pos)
}

fn gen_literal(rng: &mut Rng, dims: &[usize]) -> Literal {
    let n: usize = dims.iter().product();
    let data: Vec<f32> = (0..n)
        .map(|_| rng.gen_range(4000) as f32 * 0.01 - 20.0)
        .collect();
    Literal::from_f32(data, dims.to_vec()).unwrap()
}

fn bits(lit: &Literal) -> Vec<u32> {
    lit.as_f32().unwrap().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn blocked_dot_is_bit_identical_to_oracle() {
    check("dot fast path == index-walk oracle", 256, |rng| {
        let nb = rng.gen_range(3);
        let nc = rng.gen_range(3);
        let nlf = rng.gen_range(3);
        let nrf = rng.gen_range(3);
        let batch: Vec<usize> = (0..nb).map(|_| gen_size(rng)).collect();
        let contract: Vec<usize> = (0..nc).map(|_| gen_size(rng)).collect();
        let lhs_free: Vec<usize> = (0..nlf).map(|_| gen_size(rng)).collect();
        let rhs_free: Vec<usize> = (0..nrf).map(|_| gen_size(rng)).collect();

        let (ldims, lhs_batch, lhs_contract) = layout(rng, &batch, &contract, &lhs_free);
        let (rdims, rhs_batch, rhs_contract) = layout(rng, &batch, &contract, &rhs_free);
        let dims = DotDims {
            lhs_batch,
            rhs_batch,
            lhs_contract,
            rhs_contract,
        };
        let lhs = gen_literal(rng, &ldims);
        let rhs = gen_literal(rng, &rdims);

        let fast = dot_general(&dims, &lhs, &rhs)
            .map_err(|e| format!("fast path failed on {dims:?} {ldims:?}x{rdims:?}: {e}"))?;
        let oracle = dot_general_reference(&dims, &lhs, &rhs)
            .map_err(|e| format!("oracle failed on {dims:?}: {e}"))?;
        if fast.shape() != oracle.shape() {
            return Err(format!(
                "shape mismatch: fast {} vs oracle {} for {dims:?} {ldims:?}x{rdims:?}",
                fast.shape(),
                oracle.shape()
            ));
        }
        if bits(&fast) != bits(&oracle) {
            return Err(format!(
                "bit mismatch for {dims:?}, lhs {ldims:?}, rhs {rdims:?}"
            ));
        }
        Ok(())
    });
}

/// `dot_general` against the oracle on given operands, bit for bit —
/// except that every NaN reads as one NaN. Rust leaves the sign and
/// payload of a NaN that arithmetic produces unspecified, and on x86 they
/// hang on an operand order the code generator picks: `inf · 0` makes a
/// negative NaN, and a sum of two NaNs returns its first operand's.
fn same_bits(dims: &DotDims, lhs: &Literal, rhs: &Literal) -> Result<(), String> {
    let case = format!("{dims:?} {:?}x{:?}", lhs.shape().dims(), rhs.shape().dims());
    let fast = dot_general(dims, lhs, rhs).map_err(|e| format!("{case}: {e}"))?;
    let oracle = dot_general_reference(dims, lhs, rhs).map_err(|e| format!("{case}: {e}"))?;
    if fast.shape() != oracle.shape() {
        return Err(format!(
            "{case}: shape {} vs {}",
            fast.shape(),
            oracle.shape()
        ));
    }
    let nan_as_one = |lit: &Literal| -> Vec<u32> {
        let nan = f32::NAN.to_bits();
        let bits = bits(lit).into_iter();
        bits.map(|b| if f32::from_bits(b).is_nan() { nan } else { b })
            .collect()
    };
    let (f, o) = (nan_as_one(&fast), nan_as_one(&oracle));
    match f.iter().zip(&o).position(|(x, y)| x != y) {
        Some(i) => Err(format!(
            "{case}: element {i} is {:?} ({:#x}), the oracle's {:?} ({:#x})",
            f32::from_bits(f[i]),
            f[i],
            f32::from_bits(o[i]),
            o[i]
        )),
        None => Ok(()),
    }
}

/// A group extent as one dimension or, when it has a proper divisor and
/// the coin says so, as two whose product it is — a split group whose
/// halves land apart (or in reverse) cannot be read through one stride
/// and has to be staged.
fn split(rng: &mut Rng, extent: usize) -> Vec<usize> {
    let divisors: Vec<usize> = (2..extent).filter(|&d| extent.is_multiple_of(d)).collect();
    if divisors.is_empty() || rng.gen_bool(0.5) {
        return vec![extent];
    }
    let d = *rng.choose(&divisors);
    vec![d, extent / d]
}

/// Operand values with specials mixed in at `rate`: NaN, ±inf and zeros
/// of both signs, so products of `-0.0` (and an output whose every
/// product is `-0.0`, which must still be `+0.0`) are common.
fn gen_special(rng: &mut Rng, dims: &[usize], rate: f64) -> Literal {
    const SPECIALS: [f32; 6] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0, -0.0];
    let n: usize = dims.iter().product();
    let data: Vec<f32> = (0..n)
        .map(|_| {
            if rng.gen_bool(rate) {
                *rng.choose(&SPECIALS)
            } else {
                rng.gen_range(4000) as f32 * 0.01 - 20.0
            }
        })
        .collect();
    Literal::from_f32(data, dims.to_vec()).unwrap()
}

#[test]
fn tiled_dot_is_bit_identical_at_tile_sizes() {
    let mut case = 0;
    check("register tiles == index-walk oracle", 96, |rng| {
        // m cycles through every remainder mod 4 (the 4-row tile and its
        // 3/2/1 tails) and n through every remainder mod 16 (the 16/8/4/1
        // column panels), six cases each; m < 40, n < 48. k is empty, one
        // product, two, odd, and past any blocking a kernel could be
        // tempted into.
        let m = (case / 16) % 4 + 4 * rng.gen_range(10);
        let n = case % 16 + 16 * rng.gen_range(3);
        case += 1;
        let k = *rng.choose(&[0, 1, 2, 17, 513]);
        let batch: Vec<usize> = (0..rng.gen_range(3))
            .map(|_| rng.gen_range(3) + 1)
            .collect();
        let contract = split(rng, k);
        // Each operand lays its batch, contract and free dims out in its
        // own random order: in place, transposed, batch dims anywhere,
        // or (with a split group) staged.
        let (lhs_free, rhs_free) = (split(rng, m), split(rng, n));
        let (ldims, lhs_batch, lhs_contract) = layout(rng, &batch, &contract, &lhs_free);
        let (rdims, rhs_batch, rhs_contract) = layout(rng, &batch, &contract, &rhs_free);
        let dims = DotDims {
            lhs_batch,
            rhs_batch,
            lhs_contract,
            rhs_contract,
        };
        let rate = *rng.choose(&[0.0, 1.0 / 64.0, 0.25, 1.0]);
        let lhs = gen_special(rng, &ldims, rate);
        let rhs = gen_special(rng, &rdims, rate);
        same_bits(&dims, &lhs, &rhs)
    });
}

/// Every output sums `k` products equal to `-0.0`; started from `+0.0`,
/// as the oracle starts, the sum is `+0.0`.
#[test]
fn all_negative_zero_products_sum_to_positive_zero() {
    for k in [1, 2, 17] {
        for (m, n) in [(1, 1), (4, 16), (7, 29)] {
            let lhs = Literal::from_f32(vec![-0.0; m * k], [m, k]).unwrap();
            let rhs = Literal::from_f32(vec![3.0; k * n], [k, n]).unwrap();
            same_bits(&DotDims::matmul(), &lhs, &rhs).unwrap();
            let out = dot_general(&DotDims::matmul(), &lhs, &rhs).unwrap();
            assert!(out.as_f32().unwrap().iter().all(|v| v.to_bits() == 0));
        }
    }
}

/// `(name, lhs dims, rhs dims, lhs batch, rhs batch, lhs contract, rhs
/// contract)` of every distinct `dot` a device runs in the two stepped
/// plans of the benchmark: the `train_step` plan (T 2 layers, d_model 32,
/// seq 32, batch 32, `BP+MP+Z3` on 2×2) and one `serve_mix` decode step
/// (IT32, 16 slots, `BP+MP+MQ` on 2×2), read off the device program's
/// `OpKind::Dot` operand types.
type DeviceDot = (
    &'static str,
    &'static [usize],
    &'static [usize],
    &'static [usize],
    &'static [usize],
    &'static [usize],
    &'static [usize],
);

const TRAIN_STEP_DOTS: [DeviceDot; 18] = [
    (
        "scores q·kᵀ",
        &[16, 1, 32, 16],
        &[16, 1, 16, 32],
        &[0, 1],
        &[0, 1],
        &[3],
        &[2],
    ),
    (
        "d probs",
        &[16, 1, 32, 16],
        &[16, 1, 32, 16],
        &[0, 1],
        &[0, 1],
        &[3],
        &[3],
    ),
    (
        "d kᵀ",
        &[16, 1, 32, 16],
        &[16, 1, 32, 32],
        &[0, 1],
        &[0, 1],
        &[2],
        &[2],
    ),
    (
        "d q",
        &[16, 1, 32, 32],
        &[16, 1, 16, 32],
        &[0, 1],
        &[0, 1],
        &[3],
        &[3],
    ),
    (
        "d v",
        &[16, 1, 32, 32],
        &[16, 1, 32, 16],
        &[0, 1],
        &[0, 1],
        &[2],
        &[2],
    ),
    (
        "ctx probs·v",
        &[16, 1, 32, 32],
        &[16, 1, 32, 16],
        &[0, 1],
        &[0, 1],
        &[3],
        &[2],
    ),
    (
        "d w_qkv",
        &[16, 32, 1, 3, 16],
        &[16, 32, 32],
        &[],
        &[],
        &[0, 1],
        &[0, 1],
    ),
    (
        "d x via w_qkv",
        &[16, 32, 1, 3, 16],
        &[32, 1, 3, 16],
        &[],
        &[],
        &[2, 3, 4],
        &[1, 2, 3],
    ),
    ("w_o", &[16, 32, 16], &[16, 32], &[], &[], &[2], &[0]),
    (
        "d w_o",
        &[16, 32, 32],
        &[16, 32, 16],
        &[],
        &[],
        &[0, 1],
        &[0, 1],
    ),
    (
        "d w_up",
        &[16, 32, 32],
        &[16, 32, 64],
        &[],
        &[],
        &[0, 1],
        &[0, 1],
    ),
    (
        "d ctx via w_o",
        &[16, 32, 32],
        &[16, 32],
        &[],
        &[],
        &[2],
        &[1],
    ),
    (
        "w_qkv",
        &[16, 32, 32],
        &[32, 1, 3, 16],
        &[],
        &[],
        &[2],
        &[0],
    ),
    (
        "w_up, unembed",
        &[16, 32, 32],
        &[32, 64],
        &[],
        &[],
        &[2],
        &[0],
    ),
    (
        "d act via w_down",
        &[16, 32, 32],
        &[64, 32],
        &[],
        &[],
        &[2],
        &[1],
    ),
    (
        "d w_down, d emb",
        &[16, 32, 64],
        &[16, 32, 32],
        &[],
        &[],
        &[0, 1],
        &[0, 1],
    ),
    (
        "d x via w_up, unembed",
        &[16, 32, 64],
        &[32, 64],
        &[],
        &[],
        &[2],
        &[1],
    ),
    ("w_down", &[16, 32, 64], &[64, 32], &[], &[], &[2], &[0]),
];

const DECODE_STEP_DOTS: [DeviceDot; 8] = [
    ("unembed", &[4, 64], &[64, 128], &[], &[], &[1], &[0]),
    ("w_kv", &[4, 64], &[64, 16], &[], &[], &[1], &[0]),
    ("w_down", &[8, 128], &[128, 64], &[], &[], &[1], &[0]),
    ("w_o", &[8, 32], &[32, 64], &[], &[], &[1], &[0]),
    (
        "ctx probs·v",
        &[8, 4, 32],
        &[8, 32, 8],
        &[0],
        &[0],
        &[2],
        &[1],
    ),
    (
        "scores q·kᵀ",
        &[8, 4, 8],
        &[8, 32, 8],
        &[0],
        &[0],
        &[2],
        &[2],
    ),
    ("w_up", &[8, 64], &[64, 128], &[], &[], &[1], &[0]),
    ("w_q", &[8, 64], &[64, 32], &[], &[], &[1], &[0]),
];

#[test]
fn device_dot_shapes_are_bit_identical() {
    let mut rng = Rng::seed_from_u64(26);
    for (name, ldims, rdims, lb, rb, lc, rc) in TRAIN_STEP_DOTS.iter().chain(&DECODE_STEP_DOTS) {
        let dims = DotDims {
            lhs_batch: lb.to_vec(),
            rhs_batch: rb.to_vec(),
            lhs_contract: lc.to_vec(),
            rhs_contract: rc.to_vec(),
        };
        let (lhs, rhs) = (gen_literal(&mut rng, ldims), gen_literal(&mut rng, rdims));
        same_bits(&dims, &lhs, &rhs).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn cow_mutation_never_bleeds_into_shared_literal() {
    check("COW isolation under random in-place writes", 128, |rng| {
        let rank = rng.gen_range(3) + 1;
        let dims: Vec<usize> = (0..rank).map(|_| rng.gen_range(4) + 1).collect();
        let original = gen_literal(rng, &dims);
        let snapshot = bits(&original);
        let mut alias = original.clone();
        if !alias.shares_data(&original) {
            return Err("clone must share storage before mutation".into());
        }
        let slice = alias.as_f32_mut().map_err(|e| e.to_string())?;
        for _ in 0..rng.gen_range(8) + 1 {
            let i = rng.gen_range(slice.len());
            slice[i] = rng.gen_range(100) as f32 - 50.0;
        }
        if bits(&original) != snapshot {
            return Err("mutating a clone changed the shared original".into());
        }
        if alias.shares_data(&original) {
            return Err("mutated clone still shares storage".into());
        }
        Ok(())
    });
}
