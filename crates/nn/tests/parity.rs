//! Parity + property harness guarding the fast GEMM and activation kernels.
//!
//! The blocked kernels in `matrix.rs` accumulate every output element in
//! ascending shared-index order, so they must match the naive loops in
//! [`mdes_nn::reference`] *bit for bit* on any input — the proptests below
//! assert exact equality over random shapes and values. A finite-difference
//! gradcheck pins down the fused-gate LSTM backward pass. (The `1e-5`
//! parity of the fused-gate GEMM against the two-GEMM step lives in the
//! `lstm` and `gru` unit tests, next to that test-only oracle.)

use mdes_nn::lstm::LstmLayer;
use mdes_nn::{reference, Matrix, ParamSet, Tape};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random matrix with entries in `[-2, 2]`, including exact zeros (the old
/// kernels special-cased them) roughly once per sixteen entries.
fn random_matrix(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| {
        if rng.gen_range(0u32..16) == 0 {
            0.0
        } else {
            rng.gen_range(-2.0f32..2.0)
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `A (m x k) * B (k x n)` — fast kernel bit-identical to the reference.
    #[test]
    fn matmul_matches_reference_exactly(
        m in 1usize..=24, k in 1usize..=24, n in 1usize..=24, seed in 0u64..1 << 32,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_matrix(m, k, &mut rng);
        let b = random_matrix(k, n, &mut rng);
        let fast = a.matmul(&b);
        let naive = reference::matmul(&a, &b);
        prop_assert_eq!(fast.data(), naive.data(), "matmul diverged at {}x{}x{}", m, k, n);
    }

    /// `A^T (k x m) * B (k x n)` — bit-identical.
    #[test]
    fn matmul_tn_matches_reference_exactly(
        m in 1usize..=24, k in 1usize..=24, n in 1usize..=24, seed in 0u64..1 << 32,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_matrix(k, m, &mut rng);
        let b = random_matrix(k, n, &mut rng);
        let fast = a.matmul_tn(&b);
        let naive = reference::matmul_tn(&a, &b);
        prop_assert_eq!(fast.data(), naive.data(), "matmul_tn diverged at {}x{}x{}", m, k, n);
    }

    /// `A (m x c) * B^T (n x c)` — bit-identical.
    #[test]
    fn matmul_nt_matches_reference_exactly(
        m in 1usize..=24, c in 1usize..=24, n in 1usize..=24, seed in 0u64..1 << 32,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_matrix(m, c, &mut rng);
        let b = random_matrix(n, c, &mut rng);
        let fast = a.matmul_nt(&b);
        let naive = reference::matmul_nt(&a, &b);
        prop_assert_eq!(fast.data(), naive.data(), "matmul_nt diverged at {}x{}x{}", m, c, n);
    }
}

/// Cross-entropy loss after `steps` fused LSTM steps, as a pure function of
/// the parameters (fresh tape per call — this is the finite-difference
/// forward oracle).
fn lstm_loss(params: &ParamSet, layer: &LstmLayer, xs: &[Matrix], targets: &[usize]) -> f32 {
    let mut tape = Tape::new();
    let bound = layer.bind(&mut tape, params);
    let mut state = layer.zero_state(&mut tape, targets.len());
    for x in xs {
        let xid = tape.leaf(x.clone());
        state = bound.step(&mut tape, xid, state);
    }
    let loss = tape.cross_entropy(state.h, targets);
    tape.value(loss).get(0, 0)
}

/// Finite-difference gradcheck of the fused-gate backward pass: the analytic
/// gradient of every LSTM parameter (flowing through `ConcatRows` packing and
/// two recurrent steps) must match a central difference of the loss.
#[test]
fn lstm_fused_backward_matches_finite_differences() {
    let mut rng = StdRng::seed_from_u64(42);
    let mut params = ParamSet::new();
    let layer = LstmLayer::new(&mut params, 3, 4, &mut rng);
    let xs: Vec<Matrix> = (0..2).map(|_| random_matrix(2, 3, &mut rng)).collect();
    let targets = [0usize, 2];

    // Analytic gradients via the recycling backward path.
    let mut tape = Tape::new();
    let bound = layer.bind(&mut tape, &params);
    let mut state = layer.zero_state(&mut tape, targets.len());
    for x in &xs {
        let xid = tape.leaf(x.clone());
        state = bound.step(&mut tape, xid, state);
    }
    let loss = tape.cross_entropy(state.h, &targets);
    params.zero_grads();
    tape.backward_accumulate(loss, &mut params);

    let eps = 1e-2f32;
    let mut checked = 0usize;
    for p in 0..params.len() {
        for idx in 0..params.value(p).data().len() {
            let orig = params.value(p).data()[idx];
            params.value_mut(p).data_mut()[idx] = orig + eps;
            let up = lstm_loss(&params, &layer, &xs, &targets);
            params.value_mut(p).data_mut()[idx] = orig - eps;
            let down = lstm_loss(&params, &layer, &xs, &targets);
            params.value_mut(p).data_mut()[idx] = orig;
            let fd = (up - down) / (2.0 * eps);
            let g = params.grad(p).data()[idx];
            assert!(
                (fd - g).abs() <= 1e-3 + 1e-2 * g.abs().max(fd.abs()),
                "param {p}[{idx}]: analytic {g} vs finite-difference {fd}"
            );
            checked += 1;
        }
    }
    // wx (3x16) + wh (4x16) + b (1x16).
    assert_eq!(checked, 128);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The polynomial sigmoid/tanh fast path stays within `1e-6` of the
    /// libm-exact reference on random inputs (the LSTM parity budget above
    /// is `1e-5`, so activation error is an order of magnitude below it).
    #[test]
    fn activations_match_reference_within_1e6(
        vals in proptest::collection::vec(-30.0f32..30.0, 1..200),
    ) {
        let mut fast = vec![0.0f32; vals.len()];
        let mut exact = vec![0.0f32; vals.len()];
        mdes_nn::matrix::sigmoid_slice(&vals, &mut fast);
        reference::sigmoid_slice(&vals, &mut exact);
        for (f, e) in fast.iter().zip(&exact) {
            prop_assert!((f - e).abs() <= 1e-6, "sigmoid diverged: {} vs {}", f, e);
        }
        mdes_nn::matrix::tanh_slice(&vals, &mut fast);
        reference::tanh_slice(&vals, &mut exact);
        for (f, e) in fast.iter().zip(&exact) {
            prop_assert!((f - e).abs() <= 1e-6, "tanh diverged: {} vs {}", f, e);
        }
    }
}

/// Saturation and extreme inputs: the fast activations must stay finite and
/// pinned to their asymptotes where libm saturates.
#[test]
fn activations_handle_extremes() {
    let xs = [-1e30f32, -500.0, -88.0, -17.0, 0.0, 17.0, 88.0, 500.0, 1e30];
    let mut sig = vec![0.0f32; xs.len()];
    let mut th = vec![0.0f32; xs.len()];
    mdes_nn::matrix::sigmoid_slice(&xs, &mut sig);
    mdes_nn::matrix::tanh_slice(&xs, &mut th);
    for (&x, (&s, &t)) in xs.iter().zip(sig.iter().zip(&th)) {
        assert!(
            s.is_finite() && (0.0..=1.0).contains(&s),
            "sigmoid({x}) = {s}"
        );
        assert!(
            t.is_finite() && (-1.0..=1.0).contains(&t),
            "tanh({x}) = {t}"
        );
        assert!((s - 1.0 / (1.0 + (-x).exp())).abs() <= 1e-6);
        assert!((t - x.tanh()).abs() <= 1e-6);
    }
    assert_eq!(sig[0], 0.0, "sigmoid(-1e30) must saturate to 0");
    assert_eq!(th[0], -1.0 + (th[0] + 1.0), "tanh(-1e30) finite");
    assert!(th[0] <= -0.999_999);
    assert!(th[8] >= 0.999_999);
}
