//! Property-based tests for the tensor substrate.

use goldfish_tensor::{conv, ops, serialize, Tensor};
use proptest::prelude::*;

/// Strategy: a 2-D tensor with dims in [1, 8] and values in [-10, 10].
fn small_matrix() -> impl Strategy<Value = Tensor> {
    (1usize..8, 1usize..8).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0f32..10.0, r * c)
            .prop_map(move |data| Tensor::from_vec(vec![r, c], data))
    })
}

fn matrix_pair() -> impl Strategy<Value = (Tensor, Tensor)> {
    (1usize..6, 1usize..6, 1usize..6).prop_flat_map(|(m, k, n)| {
        let a = proptest::collection::vec(-5.0f32..5.0, m * k)
            .prop_map(move |d| Tensor::from_vec(vec![m, k], d));
        let b = proptest::collection::vec(-5.0f32..5.0, k * n)
            .prop_map(move |d| Tensor::from_vec(vec![k, n], d));
        (a, b)
    })
}

proptest! {
    #[test]
    fn softmax_is_simplex_at_any_temperature(t in small_matrix(), temp in 0.25f32..10.0) {
        let p = ops::softmax_t(&t, temp);
        let (rows, _) = p.dims2();
        for r in 0..rows {
            let row = p.row(r);
            prop_assert!(row.iter().all(|&v| (0.0..=1.0 + 1e-5).contains(&v)));
            let s: f32 = row.iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-4, "row sum {s}");
        }
    }

    #[test]
    fn log_softmax_exp_matches_softmax(t in small_matrix(), temp in 0.5f32..6.0) {
        let p = ops::softmax_t(&t, temp);
        let lp = ops::log_softmax_t(&t, temp);
        for (a, b) in p.as_slice().iter().zip(lp.as_slice()) {
            prop_assert!((a - b.exp()).abs() < 1e-4);
        }
    }

    #[test]
    fn matmul_transpose_identity((a, b) in matrix_pair()) {
        // (A·B)ᵀ = Bᵀ·Aᵀ
        let left = ops::transpose(&ops::matmul(&a, &b));
        let right = ops::matmul(&ops::transpose(&b), &ops::transpose(&a));
        prop_assert_eq!(left.shape(), right.shape());
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn matmul_distributes_over_addition((a, b) in matrix_pair(), c_seed in 0u64..1000) {
        // A·(B + C) = A·B + A·C with C shaped like B.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(c_seed);
        let c = Tensor::from_vec(
            b.shape().to_vec(),
            (0..b.len()).map(|_| rng.gen_range(-5.0f32..5.0)).collect(),
        );
        let left = ops::matmul(&a, &b.add(&c));
        let right = ops::matmul(&a, &b).add(&ops::matmul(&a, &c));
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((x - y).abs() < 1e-2);
        }
    }

    #[test]
    fn transposed_matmuls_agree((a, b) in matrix_pair()) {
        // matmul_at_b(Aᵀ-stored, B) == matmul(A, B) when we pre-transpose.
        let at = ops::transpose(&a);
        let direct = ops::matmul(&a, &b);
        let via = ops::matmul_at_b(&at, &b);
        for (x, y) in direct.as_slice().iter().zip(via.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn serialization_roundtrips(t in small_matrix()) {
        let back = serialize::from_bytes(serialize::to_bytes(&t)).unwrap();
        prop_assert_eq!(back, t);
    }

    #[test]
    fn params_serialization_is_bit_exact(p in proptest::collection::vec(-1e6f32..1e6, 0..1600)) {
        // Lengths up to 1600: past 1024, no multiple of a block size.
        let back = serialize::params_from_bytes(serialize::params_to_bytes(&p)).unwrap();
        prop_assert_eq!(back.len(), p.len());
        for (a, b) in back.iter().zip(p.iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn params_into_variants_match_allocating_forms_bitwise(
        p in proptest::collection::vec(-1e6f32..1e6, 0..1600),
        prefix in 0usize..5,
    ) {
        // Encode: the append-into form must produce byte-for-byte the
        // allocating encoder's payload, wherever it lands in the buffer.
        let allocating = serialize::params_to_bytes(&p);
        let mut buf = vec![0x5Au8; prefix];
        serialize::params_write_into(&mut buf, &p);
        prop_assert_eq!(&buf[prefix..], allocating.as_ref());

        // Decode: the into-slice form must reproduce the allocating
        // decoder bit for bit, and report the exact bytes consumed.
        let mut out = vec![0.0f32; p.len()];
        let used = serialize::params_read_into(allocating.as_ref(), &mut out).unwrap();
        prop_assert_eq!(used, allocating.as_ref().len());
        for (a, b) in out.iter().zip(p.iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        // And the resizing-Vec form, through a dirty reused buffer.
        let mut reused = vec![7.0f32; 9];
        serialize::params_read_into_vec(allocating.as_ref(), &mut reused).unwrap();
        prop_assert_eq!(reused.len(), p.len());
        for (a, b) in reused.iter().zip(p.iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn params_read_into_rejects_wrong_target_length(
        p in proptest::collection::vec(-10.0f32..10.0, 1..64),
        delta in 1usize..8,
    ) {
        let wire = serialize::params_to_bytes(&p);
        let mut wrong = vec![0.0f32; p.len() + delta];
        prop_assert!(serialize::params_read_into(wire.as_ref(), &mut wrong).is_err());
    }

    #[test]
    fn truncated_tensor_bytes_error_typed(t in small_matrix(), frac in 0.0f64..1.0) {
        let full = serialize::to_bytes(&t);
        let n = full.as_ref().len();
        let cut = ((n as f64) * frac) as usize;
        if cut < n {
            let r = serialize::from_bytes(full.slice(0..cut));
            prop_assert!(
                matches!(r, Err(goldfish_tensor::TensorError::MalformedBytes(_))),
                "cut at {} gave {:?}", cut, r
            );
        }
    }

    #[test]
    fn truncated_param_bytes_error_typed(
        p in proptest::collection::vec(-10.0f32..10.0, 1..64),
        frac in 0.0f64..1.0,
    ) {
        let full = serialize::params_to_bytes(&p);
        let n = full.as_ref().len();
        let cut = ((n as f64) * frac) as usize;
        if cut < n {
            let r = serialize::params_from_bytes(full.slice(0..cut));
            prop_assert!(
                matches!(r, Err(goldfish_tensor::TensorError::MalformedBytes(_))),
                "cut at {} gave {:?}", cut, r
            );
        }
    }

    #[test]
    fn oversized_length_prefix_rejected_without_allocating(
        p in proptest::collection::vec(-10.0f32..10.0, 0..32),
        claim in 1_000_000u64..u64::MAX,
    ) {
        // Overwrite the u64 count header with a hostile claim; the
        // decoder must reject it from the remaining-length check instead
        // of allocating `claim` floats.
        let mut raw: Vec<u8> = serialize::params_to_bytes(&p).as_ref().to_vec();
        raw[0..8].copy_from_slice(&claim.to_le_bytes());
        let r = serialize::params_from_bytes(bytes::Bytes::from(raw));
        prop_assert!(matches!(
            r,
            Err(goldfish_tensor::TensorError::MalformedBytes(_))
        ));
    }

    #[test]
    fn garbage_bytes_never_panic_the_decoders(
        raw in proptest::collection::vec(0u8..255, 0..128),
    ) {
        let _ = serialize::from_bytes(bytes::Bytes::from(raw.clone()));
        let _ = serialize::params_from_bytes(bytes::Bytes::from(raw));
    }

    #[test]
    fn axpy_matches_scale_add(t in small_matrix(), alpha in -3.0f32..3.0) {
        let mut acc = t.clone();
        acc.axpy(alpha, &t);
        let expect = t.scale(1.0 + alpha);
        for (x, y) in acc.as_slice().iter().zip(expect.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn row_variance_nonnegative_and_bounded(t in small_matrix()) {
        let p = ops::softmax(&t);
        let (_, c) = p.dims2();
        for row in p.as_slice().chunks_exact(c) {
            let mean = row.iter().sum::<f32>() / c as f32;
            let v = row.iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / c as f32;
            prop_assert!(v >= 0.0);
            prop_assert!(v <= 0.25 + 1e-6); // prob vectors: max var when mass splits 1/0
        }
    }

    #[test]
    fn maxpool_never_invents_values(
        data in proptest::collection::vec(-5.0f32..5.0, 16),
    ) {
        let input = Tensor::from_vec(vec![1, 1, 4, 4], data.clone());
        let spec = conv::Conv2dSpec::new(2, 2, 2, 0);
        let (mut out, mut idx) = (Tensor::zeros(vec![0]), Vec::new());
        conv::maxpool2d_forward_into(&input, &spec, &mut out, &mut idx);
        for &v in out.as_slice() {
            prop_assert!(data.contains(&v));
        }
    }

    #[test]
    fn global_avg_pool_preserves_total_mean(
        data in proptest::collection::vec(-5.0f32..5.0, 2 * 2 * 3 * 3),
    ) {
        let input = Tensor::from_vec(vec![2, 2, 3, 3], data);
        let mut pooled = Tensor::zeros(vec![0]);
        conv::global_avg_pool_into(&input, &mut pooled);
        prop_assert!((pooled.mean() - input.mean()).abs() < 1e-4);
    }
}
