//! Property-based tests for the Paillier substrate.
//!
//! A single keypair is generated once (key generation dominates runtime) and all
//! properties are checked against it with randomly drawn plaintexts.

use std::sync::OnceLock;

use dubhe_he::packing::Packer;
use dubhe_he::{
    sum_vectors, sum_vectors_serial, CrtEncryptor, EncryptedVector, Encryptor, FixedPointCodec,
    HeError, HeadroomModel, Keypair, PackedEncryptedVector, PackedRunningFold,
    PrecomputedEncryptor, PrivateKey, PublicKey, RunningFold,
};
use num_bigint::{BigUint, RandBigInt};
use num_traits::{One, Zero};
use proptest::prelude::*;
use rand::{RngCore, SeedableRng};

fn keys() -> &'static (PublicKey, PrivateKey) {
    static KEYS: OnceLock<(PublicKey, PrivateKey)> = OnceLock::new();
    KEYS.get_or_init(|| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xD0BE);
        Keypair::generate(dubhe_he::TEST_KEY_BITS, &mut rng).split()
    })
}

/// A second, larger keypair so the multi-exp and decode pins cover two key
/// sizes (and with them two Montgomery limb widths), not just the CI size.
fn wide_keys() -> &'static (PublicKey, PrivateKey) {
    static KEYS: OnceLock<(PublicKey, PrivateKey)> = OnceLock::new();
    KEYS.get_or_init(|| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x71DE);
        Keypair::generate(2 * dubhe_he::TEST_KEY_BITS, &mut rng).split()
    })
}

/// A paper-sized 1024-bit keypair: with [`keys`] it puts the fan-out work
/// bound at two very different lengths (32 positions here, 512 there).
fn paper_keys() -> &'static (PublicKey, PrivateKey) {
    static KEYS: OnceLock<(PublicKey, PrivateKey)> = OnceLock::new();
    KEYS.get_or_init(|| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x1024);
        Keypair::generate(1024, &mut rng).split()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The fold decides between its inline and fanned-out routes from a work
    /// estimate (positions × multiplies × limbs² against 2¹⁵ limb
    /// multiplies); the other pins sit well to either side of that bound.
    /// This one draws lengths from a window straddling it — for the
    /// per-vector `RunningFold` step (one multiply a position) and for
    /// `sum_vectors` (one per folded vector) — at both key sizes, and holds
    /// every route to the serial reference bit for bit.
    #[test]
    fn folds_straddling_the_fan_out_bound_match_the_serial_reference(
        offset in 0usize..17,
        count in 2usize..5,
        seed in any::<u64>(),
    ) {
        for (pk, _sk) in [keys(), paper_keys()] {
            let limbs = pk.n_squared().bits().div_ceil(64) as usize;
            let bound = (1usize << 15) / (limbs * limbs);
            for len in [bound - 8 + offset, (bound / count).saturating_sub(8).max(1) + offset] {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let vectors: Vec<EncryptedVector> = (0..count)
                    .map(|i| {
                        let v: Vec<u64> = (0..len).map(|j| ((i * 5 + j) % 9) as u64).collect();
                        EncryptedVector::encrypt_u64(pk, &v, &mut rng)
                    })
                    .collect();
                let serial = sum_vectors_serial(&vectors).unwrap().unwrap();
                let batch = sum_vectors(&vectors).unwrap().unwrap();
                let mut running = RunningFold::new(&vectors[0]);
                for v in &vectors[1..] {
                    running.fold(v).unwrap();
                }
                let running = running.total();
                for (i, s) in serial.elements().iter().enumerate() {
                    prop_assert_eq!(batch.elements()[i].raw(), s.raw(),
                        "sum_vectors diverged at len {} count {} position {}", len, count, i);
                    prop_assert_eq!(running.elements()[i].raw(), s.raw(),
                        "RunningFold diverged at len {} count {} position {}", len, count, i);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn encrypt_decrypt_identity(m in any::<u64>(), seed in any::<u64>()) {
        let (pk, sk) = keys();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let ct = pk.encrypt_u64(m, &mut rng);
        prop_assert_eq!(sk.decrypt_u64(&ct), m);
    }

    #[test]
    fn homomorphic_add_matches_plain_add(a in 0u64..u32::MAX as u64,
                                         b in 0u64..u32::MAX as u64,
                                         seed in any::<u64>()) {
        let (pk, sk) = keys();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let ca = pk.encrypt_u64(a, &mut rng);
        let cb = pk.encrypt_u64(b, &mut rng);
        prop_assert_eq!(sk.decrypt_u64(&ca.add(&cb).unwrap()), a + b);
    }

    #[test]
    fn scalar_multiplication_matches(a in 0u64..u32::MAX as u64,
                                     k in 0u64..1000,
                                     seed in any::<u64>()) {
        let (pk, sk) = keys();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let ca = pk.encrypt_u64(a, &mut rng);
        prop_assert_eq!(sk.decrypt_u64(&ca.mul_plain_u64(k)), a * k);
    }

    #[test]
    fn signed_round_trip(m in -(i32::MAX as i64)..(i32::MAX as i64), seed in any::<u64>()) {
        let (pk, sk) = keys();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let ct = pk.encrypt_i64(m, &mut rng);
        prop_assert_eq!(sk.decrypt_i64(&ct).unwrap(), m);
    }

    #[test]
    fn vector_homomorphism(values_a in prop::collection::vec(0u64..10_000, 1..24),
                           seed in any::<u64>()) {
        let (pk, sk) = keys();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let values_b: Vec<u64> = values_a.iter().map(|v| v.wrapping_mul(3) % 10_000).collect();
        let ea = EncryptedVector::encrypt_u64(pk, &values_a, &mut rng);
        let eb = EncryptedVector::encrypt_u64(pk, &values_b, &mut rng);
        let sum = ea.add(&eb).unwrap().decrypt_u64(sk).unwrap();
        let expected: Vec<u64> = values_a.iter().zip(&values_b).map(|(a, b)| a + b).collect();
        prop_assert_eq!(sum, expected);
    }

    #[test]
    fn packing_round_trip(values in prop::collection::vec(0u64..=u16::MAX as u64, 1..80),
                          seed in any::<u64>()) {
        let (pk, sk) = keys();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let packer = Packer::new(16, dubhe_he::TEST_KEY_BITS);
        let packed = packer.encrypt(pk, &values, &mut rng).unwrap();
        prop_assert_eq!(packed.decrypt(sk).unwrap(), values);
    }

    #[test]
    fn packed_addition_is_slotwise(values in prop::collection::vec(0u64..1000, 1..40),
                                   seed in any::<u64>()) {
        let (pk, sk) = keys();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let packer = Packer::new(32, dubhe_he::TEST_KEY_BITS);
        let doubled: Vec<u64> = values.iter().map(|v| v * 2).collect();
        let ea = packer.encrypt(pk, &values, &mut rng).unwrap();
        let eb = packer.encrypt(pk, &values, &mut rng).unwrap();
        prop_assert_eq!(ea.add(&eb).unwrap().decrypt(sk).unwrap(), doubled);
    }

    #[test]
    fn precomputed_encryptor_decrypts_like_explicit_randomness(m in any::<u64>(),
                                                              seed in any::<u64>()) {
        // The fast path must produce ciphertexts that decrypt to exactly the
        // plaintext the textbook `rⁿ` path (via encrypt_with_randomness)
        // produces for the same message.
        let (pk, sk) = keys();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let encryptor = PrecomputedEncryptor::new(pk, &mut rng);
        let fast = encryptor.encrypt(&num_bigint::BigUint::from(m), &mut rng).unwrap();
        let r = pk.sample_randomness(&mut rng);
        let naive = pk.encrypt_with_randomness(&num_bigint::BigUint::from(m), &r);
        prop_assert_eq!(sk.decrypt(&fast), sk.decrypt(&naive));
        prop_assert_eq!(sk.decrypt_u64(&fast), m);
    }

    #[test]
    fn fast_and_naive_vectors_interoperate(values in prop::collection::vec(0u64..100_000, 1..24),
                                           seed in any::<u64>()) {
        let (pk, sk) = keys();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let fast = EncryptedVector::encrypt_u64(pk, &values, &mut rng);
        let naive = EncryptedVector::encrypt_u64_naive(pk, &values, &mut rng);
        prop_assert_eq!(fast.decrypt_u64(sk).unwrap(), values.clone());
        let sum = fast.add(&naive).unwrap().decrypt_u64(sk).unwrap();
        let expected: Vec<u64> = values.iter().map(|v| v * 2).collect();
        prop_assert_eq!(sum, expected);
    }

    #[test]
    fn parallel_and_serial_sum_vectors_agree_bit_for_bit(
        lens in prop::collection::vec(0u64..50, 2..12),
        width in 1usize..24,
        seed in any::<u64>(),
    ) {
        let (pk, sk) = keys();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let vectors: Vec<EncryptedVector> = lens
            .iter()
            .map(|&base| {
                let v: Vec<u64> = (0..width as u64).map(|j| base + j).collect();
                EncryptedVector::encrypt_u64(pk, &v, &mut rng)
            })
            .collect();
        let parallel = sum_vectors(&vectors).unwrap().unwrap();
        let serial = sum_vectors_serial(&vectors).unwrap().unwrap();
        for (p, s) in parallel.elements().iter().zip(serial.elements()) {
            prop_assert_eq!(p.raw(), s.raw());
        }
        prop_assert_eq!(parallel.decrypt_u64(sk).unwrap(), serial.decrypt_u64(sk).unwrap());
    }

    #[test]
    fn batch_decryption_matches_elementwise(values in prop::collection::vec(0u64..1_000_000, 1..40),
                                            seed in any::<u64>()) {
        let (pk, sk) = keys();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let enc = EncryptedVector::encrypt_u64(pk, &values, &mut rng);
        let batch = enc.decrypt_u64(sk).unwrap();
        let elementwise: Vec<u64> = enc.elements().iter().map(|c| sk.decrypt_u64(c)).collect();
        prop_assert_eq!(batch, elementwise);
    }

    #[test]
    fn repacked_u64_decryption_matches_per_element_decryption(
        draws in prop::collection::vec(any::<u64>(), 0..=70),
        need in 1..=64u64,
        narrow in any::<bool>(),
        seed in any::<u64>(),
    ) {
        // Lengths from empty through short (per-element) vectors to several
        // groups at `TEST_KEY_BITS`, values over all of u64 with the edges
        // of the 64-bit slot and of one width the length can take drawn
        // often. Narrow vectors are cut to that width, so their check sizes
        // narrower slots than the others'. At whatever width the check
        // sizes, the values must agree with one decryption per element.
        let (pk, sk) = keys();
        let width = fitted_width(pk.bits(), draws.len(), need);
        let fit = if narrow { u64::MAX >> (64 - width) } else { u64::MAX };
        let values: Vec<u64> = draws.iter().map(|&r| slot_edge(r, width) & fit).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let enc = EncryptedVector::encrypt_u64(pk, &values, &mut rng);
        let repacked = enc.decrypt_u64(sk).unwrap();
        prop_assert_eq!(&repacked, &values);
        prop_assert_eq!(Ok(repacked), per_element_u64(sk, &enc));
    }

    #[test]
    fn fixed_point_error_bounded(values in prop::collection::vec(0.0f64..1.0, 1..64)) {
        let codec = FixedPointCodec::default();
        let decoded = codec.decode_vec(&codec.encode_vec(&values));
        for (orig, back) in values.iter().zip(&decoded) {
            prop_assert!((orig - back).abs() <= codec.max_error());
        }
    }

    #[test]
    fn crt_encryptor_is_bit_identical_to_precomputed(m in any::<u64>(),
                                                     values in prop::collection::vec(0u64..1_000_000, 1..24),
                                                     seed in any::<u64>()) {
        // Same key handle (so both share the one fixed-base h) and the same
        // randomness stream must yield the same ciphertext bytes whichever
        // arithmetic route — full-width n² table or CRT-split p²/q² legs —
        // computes them.
        let (pk, sk) = keys();
        let mut warm = rand::rngs::StdRng::seed_from_u64(seed ^ 0xCC);
        let fast = PrecomputedEncryptor::new(pk, &mut warm);
        let crt = CrtEncryptor::from_keys(pk, sk, &mut warm).unwrap();

        let mut rng_a = rand::rngs::StdRng::seed_from_u64(seed);
        let mut rng_b = rand::rngs::StdRng::seed_from_u64(seed);
        let a = fast.encrypt_u64(m, &mut rng_a);
        let b = crt.encrypt_u64(m, &mut rng_b);
        prop_assert_eq!(a.raw(), b.raw(), "scalar ciphertexts diverged");
        prop_assert_eq!(sk.decrypt_u64(&b), m);

        let va = EncryptedVector::encrypt_u64_with(&fast, &values, &mut rng_a);
        let vb = EncryptedVector::encrypt_u64_with(&crt, &values, &mut rng_b);
        for (x, y) in va.elements().iter().zip(vb.elements()) {
            prop_assert_eq!(x.raw(), y.raw(), "vector ciphertexts diverged");
        }
        prop_assert_eq!(vb.decrypt_u64(sk).unwrap(), values);
    }

    #[test]
    fn packed_fold_preserves_every_lane_across_widths_and_cohorts(
        width_step in 0u32..4,
        len in 1usize..40,
        clients in 1usize..8,
        seed in any::<u64>(),
    ) {
        // The lane-preservation pin of the packed protocol: for random slot
        // widths (16/24/32/40 bits), lane counts straddling the parallel
        // threshold, and cohort sizes within the headroom proof, the full
        // pack -> encrypt -> homomorphic fold -> decrypt -> unpack pipeline
        // must equal the element-wise sums exactly — no lane may bleed into
        // its neighbor. Runs under both `parallel` feature states via the CI
        // matrix.
        let (pk, sk) = keys();
        let slot_bits = 16 + 8 * width_step;
        let packer = Packer::new(slot_bits, dubhe_he::TEST_KEY_BITS);
        // 8 clients x counters < 1000 stays far inside even 16-bit lanes.
        let model = HeadroomModel::new(packer, 8, 999).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let plain: Vec<Vec<u64>> = (0..clients)
            .map(|i| (0..len).map(|j| ((i * 131 + j * 17 + 3) % 1000) as u64).collect())
            .collect();
        let encrypted: Vec<PackedEncryptedVector> = plain
            .iter()
            .map(|v| PackedEncryptedVector::encrypt(packer, pk, v, &mut rng).unwrap())
            .collect();

        let mut fold = PackedRunningFold::new(&encrypted[0], model).unwrap();
        for v in &encrypted[1..] {
            fold.fold(v).unwrap();
        }
        prop_assert_eq!(fold.folded(), clients as u64);

        let expected: Vec<u64> = (0..len)
            .map(|j| plain.iter().map(|v| v[j]).sum())
            .collect();
        prop_assert_eq!(fold.total().decrypt_u64(sk).unwrap(), expected);

        // Pairwise `add` is the same slot-wise operation the fold uses.
        if clients >= 2 {
            let pair = encrypted[0].add(&encrypted[1]).unwrap();
            let pair_expected: Vec<u64> = plain[0]
                .iter()
                .zip(&plain[1])
                .map(|(a, b)| a + b)
                .collect();
            prop_assert_eq!(pair.decrypt_u64(sk).unwrap(), pair_expected);
        }
    }

    #[test]
    fn packed_encryptor_tiers_are_bit_identical_and_fold_together(
        len in 1usize..30,
        seed in any::<u64>(),
    ) {
        // The CRT-split and the full-width precomputed encryptor must pack
        // to byte-identical ciphertexts on the same randomness stream, and
        // vectors from either tier must fold together into the right lanes.
        let (pk, sk) = keys();
        let packer = Packer::new(32, dubhe_he::TEST_KEY_BITS);
        let mut warm = rand::rngs::StdRng::seed_from_u64(seed ^ 0xCC);
        let fast = PrecomputedEncryptor::new(pk, &mut warm);
        let crt = CrtEncryptor::from_keys(pk, sk, &mut warm).unwrap();

        let values: Vec<u64> = (0..len as u64).map(|j| (j * 37 + 5) % 4096).collect();
        let mut rng_a = rand::rngs::StdRng::seed_from_u64(seed);
        let mut rng_b = rand::rngs::StdRng::seed_from_u64(seed);
        let a = PackedEncryptedVector::encrypt_with(packer, &fast, &values, &mut rng_a).unwrap();
        let b = PackedEncryptedVector::encrypt_with(packer, &crt, &values, &mut rng_b).unwrap();
        for (x, y) in a.vector().elements().iter().zip(b.vector().elements()) {
            prop_assert_eq!(x.raw(), y.raw(), "packed ciphertexts diverged across tiers");
        }

        let model = HeadroomModel::new(packer, 4, 4096).unwrap();
        let mut fold = PackedRunningFold::new(&a, model).unwrap();
        fold.fold(&b).unwrap();
        let expected: Vec<u64> = values.iter().map(|v| v * 2).collect();
        prop_assert_eq!(fold.total().decrypt_u64(sk).unwrap(), expected);
    }

    #[test]
    fn batch_multi_exp_matches_per_element_encryption_across_key_sizes(
        values in prop::collection::vec(0u64..1000, 1..60),
        seed in any::<u64>(),
    ) {
        // The simultaneous multi-exponentiation walk behind vector
        // encryption must be a pure evaluation-order change: batch and
        // per-element encryption draw the identical exponent stream, so the
        // same seed must yield bit-identical ciphertexts at every key size
        // (two Montgomery limb widths) and vector length (straddling the
        // interleaved-walk chunk size), for both encryptor tiers.
        for (pk, sk) in [keys(), wide_keys()] {
            let mut warm = rand::rngs::StdRng::seed_from_u64(seed ^ 0xCC);
            let fast = PrecomputedEncryptor::new(pk, &mut warm);
            let crt = CrtEncryptor::from_keys(pk, sk, &mut warm).unwrap();
            batch_matches_per_element(&fast, &values, seed);
            batch_matches_per_element(&crt, &values, seed);
        }
    }

    #[test]
    fn borrowed_view_decode_matches_owned_and_rejects_damage(
        values in prop::collection::vec(0u64..100_000, 1..24),
        cut_seed in any::<u64>(),
        flip_seed in any::<u64>(),
        seed in any::<u64>(),
    ) {
        use dubhe_he::codec::{decode_vector, decode_vector_view, encode_vector};
        // The zero-copy borrowed decode must be observationally identical
        // to the owned decoder: same ciphertexts on intact bytes, typed
        // errors (never panics) on every truncation, and the same
        // accept/reject verdict on a corrupted byte.
        for (pk, sk) in [keys(), wide_keys()] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let vector = EncryptedVector::encrypt_u64(pk, &values, &mut rng);
            let mut bytes = Vec::new();
            encode_vector(&vector, &mut bytes).unwrap();

            let mut cur = bytes.as_slice();
            let owned = decode_vector(&mut cur).unwrap();
            prop_assert!(cur.is_empty());
            let mut cur = bytes.as_slice();
            let view = decode_vector_view(&mut cur).unwrap();
            prop_assert!(cur.is_empty());
            let materialized = view.materialize();
            for (a, b) in owned.elements().iter().zip(materialized.elements()) {
                prop_assert_eq!(a.raw(), b.raw(), "borrowed decode diverged from owned");
            }
            prop_assert_eq!(materialized.decrypt_u64(sk).unwrap(), values.clone());

            let cut = (cut_seed as usize) % bytes.len();
            let mut cur = &bytes[..cut];
            prop_assert!(decode_vector_view(&mut cur).is_err(), "view accepted a truncated buffer");
            let mut cur = &bytes[..cut];
            prop_assert!(decode_vector(&mut cur).is_err(), "owned decode accepted a truncated buffer");

            let mut damaged = bytes.clone();
            let flip_at = (flip_seed as usize) % damaged.len();
            damaged[flip_at] ^= 0x01;
            let mut cur = damaged.as_slice();
            let view_result = decode_vector_view(&mut cur).map(|v| v.materialize());
            let mut cur = damaged.as_slice();
            let owned_result = decode_vector(&mut cur);
            match (view_result, owned_result) {
                (Ok(v), Ok(o)) => {
                    for (a, b) in o.elements().iter().zip(v.elements()) {
                        prop_assert_eq!(a.raw(), b.raw(), "decoders accepted different residues");
                    }
                }
                (Err(_), Err(_)) => {}
                (v, o) => prop_assert!(
                    false,
                    "decoders disagreed on damaged bytes: view ok={} owned ok={}",
                    v.is_ok(),
                    o.is_ok()
                ),
            }
        }
    }

    #[test]
    fn running_fold_snapshot_resumes_bit_identically(len in 1usize..24,
                                                     count in 2usize..7,
                                                     cut_seed in any::<u64>(),
                                                     seed in any::<u64>()) {
        // Crash-recovery pin: fold `cut` vectors, serialize, "crash", restore
        // from the bytes alone and fold the rest. The resumed total must be
        // bit-identical to the uninterrupted fold — raw in-domain residues
        // survive the codec round-trip exactly.
        let (pk, sk) = keys();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let plain: Vec<Vec<u64>> = (0..count)
            .map(|i| (0..len).map(|j| ((i * 31 + j * 17) % 1000) as u64).collect())
            .collect();
        let vectors: Vec<EncryptedVector> = plain
            .iter()
            .map(|v| EncryptedVector::encrypt_u64(pk, v, &mut rng))
            .collect();
        let cut = 1 + (cut_seed as usize) % count;

        let mut uninterrupted = RunningFold::new(&vectors[0]);
        for v in &vectors[1..] {
            uninterrupted.fold(v).unwrap();
        }

        let mut doomed = RunningFold::new(&vectors[0]);
        for v in &vectors[1..cut] {
            doomed.fold(v).unwrap();
        }
        let bytes = doomed.snapshot().unwrap();
        drop(doomed);
        let mut resumed = RunningFold::restore(&bytes).unwrap();
        prop_assert_eq!(resumed.folded(), cut as u64);
        for v in &vectors[cut..] {
            resumed.fold(v).unwrap();
        }

        let reference = uninterrupted.total();
        let total = resumed.total();
        for (a, b) in reference.elements().iter().zip(total.elements()) {
            prop_assert_eq!(a.raw(), b.raw(), "resumed fold diverged from the uninterrupted one");
        }
        let expected: Vec<u64> = (0..len)
            .map(|j| plain.iter().map(|v| v[j]).sum())
            .collect();
        prop_assert_eq!(total.decrypt_u64(sk).unwrap(), expected);
    }
}

/// One stacked-decode case: `k` ciphertexts of `slot_bits`-bit slots, the
/// last `short` lanes short of full, under a model declaring lanes of
/// `lane_bits` bits. Lanes are drawn below `2^f` of the depth rule,
/// restated from `dubhe-he`'s — `d = min(⌊slot_bits / lane_bits⌋, k)`,
/// `f = ⌊slot_bits / d⌋` — a quarter of them at that field's top value.
/// The whole-slot decode must return the lanes, and the stacked one the
/// same.
fn stacked_matches_whole_slot(
    (pk, sk): &(PublicKey, PrivateKey),
    slot_bits: u32,
    k: usize,
    lane_bits: u32,
    short: usize,
    seed: u64,
) -> Result<(), TestCaseError> {
    let packer = Packer::new(slot_bits, pk.bits());
    let per = packer.slots_per_plaintext().unwrap();
    let count = k * per - short % per;
    let lane_bits = 1 + lane_bits % slot_bits;
    let model = HeadroomModel::new(packer, u64::MAX >> (64 - lane_bits), 1).unwrap();
    let depth = ((slot_bits / lane_bits) as usize).min(k);
    let field = u64::MAX >> (64 - slot_bits / depth as u32);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let lanes: Vec<u64> = (0..count)
        .map(|_| match rng.next_u64() {
            r if r % 4 == 0 => field,
            r => r & field,
        })
        .collect();
    let v = PackedEncryptedVector::encrypt(packer, pk, &lanes, &mut rng).unwrap();
    prop_assert_eq!(v.ciphertext_count(), k);
    let whole = v.decrypt_u64(sk);
    prop_assert_eq!(&whole, &Ok(lanes));
    prop_assert_eq!(v.decrypt_u64_under(sk, &model), whole);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The stacked decode against the whole-slot one, over slot widths 8,
    /// 16, 32 and 64, 1–5 ciphertexts and every declared lane width: equal,
    /// and equal to the lanes, whenever every lane is below `2^f`.
    #[test]
    fn stacked_decode_matches_the_whole_slot_decode(
        width in 0usize..4,
        k in 1usize..=5,
        lane_bits in any::<u32>(),
        short in any::<usize>(),
        seed in any::<u64>(),
    ) {
        let slot_bits = [8, 16, 32, 64][width];
        stacked_matches_whole_slot(keys(), slot_bits, k, lane_bits, short, seed)?;
    }

    /// The same at 1024 bits, where a slot layout holds four times the
    /// lanes.
    #[test]
    fn stacked_decode_matches_the_whole_slot_decode_at_1024_bits(
        width in 0usize..4,
        k in 1usize..=5,
        lane_bits in any::<u32>(),
        short in any::<usize>(),
        seed in any::<u64>(),
    ) {
        let slot_bits = [8, 16, 32, 64][width];
        stacked_matches_whole_slot(paper_keys(), slot_bits, k, lane_bits, short, seed)?;
    }
}

/// Maps seven in sixteen draws onto slot edges, where a carry or a borrow
/// would cross into the neighbouring slot: 0, 1, 2⁶⁴ − 2 and 2⁶⁴ − 1 for a
/// 64-bit slot, and 2^s − 1, 2^s and 2^s + 1 for an `s`-bit one (the last
/// two only while they are `u64`s).
fn slot_edge(r: u64, s: u32) -> u64 {
    match r % 16 {
        0 => 0,
        1 => 1,
        2 => u64::MAX - 1,
        3 => u64::MAX,
        4 => u64::MAX >> (64 - s),
        5 if s < 64 => 1 << s,
        6 if s < 64 => (1 << s) + 1,
        _ => r,
    }
}

/// The repacking's slot width for `len` values of at most `need` bits under
/// a `key_bits`-bit modulus, restated from `dubhe-he`'s rule: the fewest
/// groups whose slots hold `need` bits, then the widest slots, at most 64
/// bits, that fit a group's share below `2^(key_bits − 1)`. The check sizes
/// `need` from the values' sum, so a length takes one of these widths.
fn fitted_width(key_bits: u64, len: usize, need: u64) -> u32 {
    let (capacity, len) = (key_bits - 1, len.max(1) as u64);
    let groups = len.div_ceil(capacity / need);
    (capacity / len.div_ceil(groups)).min(64) as u32
}

/// `u64` decryption one CRT decryption per element: the reference the
/// repacking path behind [`EncryptedVector::decrypt_u64`] is held to, both
/// in its values and in the exact error of the first offending element.
fn per_element_u64(sk: &PrivateKey, v: &EncryptedVector) -> Result<Vec<u64>, HeError> {
    sk.decrypt_batch(v.elements())?
        .into_iter()
        .map(|m| match m.to_u64_digits()[..] {
            [] => Ok(0),
            [d] => Ok(d),
            _ => Err(HeError::PlaintextTooWide {
                bits: m.bits(),
                max_bits: 64,
            }),
        })
        .collect()
}

/// Encrypts arbitrary plaintexts below `n` — honest `u64`s and hostile
/// wide ones alike.
fn encrypt_wide(pk: &PublicKey, plaintexts: &[BigUint], seed: u64) -> EncryptedVector {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let cts = plaintexts
        .iter()
        .map(|m| pk.encrypt(m, &mut rng).unwrap())
        .collect();
    EncryptedVector::from_ciphertexts(pk, cts).unwrap()
}

/// Vectors no honest party produces, each of which unpacks into valid-looking
/// slots or overflows a group: every one must be refused with exactly the
/// error the per-element path names — the first element that does not fit a
/// `u64`. At `TEST_KEY_BITS` a 7-element vector of small values packs into
/// one group of 36-bit slots; a value of 2⁶⁴ or more sizes the slots at 64
/// bits, in groups {0, 1, 2}, {3, 4, 5} and {6}.
#[test]
fn hostile_vectors_keep_the_per_element_error() {
    let (pk, sk) = keys();
    let honest: Vec<BigUint> = [7u64, 0, u64::MAX, 3, 1, 9, 2]
        .into_iter()
        .map(BigUint::from)
        .collect();
    let two_64 = BigUint::one() << 64u32;
    let too_wide = |bits| Err(HeError::PlaintextTooWide { bits, max_bits: 64 });
    type Case = (String, Vec<BigUint>, Result<Vec<u64>, HeError>);
    let mut cases: Vec<Case> = Vec::new();
    for at in 0..honest.len() {
        // 2⁶⁴ + 5 reads as 5 in its own slot plus a carry into the next.
        let mut carry = honest.clone();
        carry[at] = &two_64 + BigUint::from(5u32);
        cases.push((format!("2^64 + 5 at {at}"), carry, too_wide(65)));
        let mut wrap = honest.clone();
        wrap[at] = pk.n() - BigUint::one();
        cases.push((format!("n - 1 at {at}"), wrap, too_wide(pk.n().bits())));
    }
    // 2⁶⁴ in slot j and 4 in slot j + 1 pack to exactly the honest group
    // with 0 at j and 5 at j + 1: only the weighted check sees them. Pairs
    // inside each group, and one straddling two groups.
    for j in [0, 1, 3, 4, 2] {
        let mut pair = honest.clone();
        pair[j] = two_64.clone();
        pair[j + 1] = BigUint::from(4u32);
        cases.push((format!("cancelling pair at {j}"), pair, too_wide(65)));
    }
    // The same pair at the width s the small values alone would take: 2^s
    // at j and 4 at j + 1 pack into s-bit slots as the honest-looking 0
    // and 5. Both are `u64`s, so the check must size slots wide enough to
    // return them exactly.
    let width = fitted_width(pk.bits(), honest.len(), 4);
    assert_eq!(width, 36, "the small values' width at TEST_KEY_BITS");
    let narrow = [7u64, 0, 11, 3, 1, 9, 2];
    for j in 0..narrow.len() - 1 {
        let mut pair = narrow;
        pair[j] = 1 << width;
        pair[j + 1] = 4;
        let plaintexts = pair.into_iter().map(BigUint::from).collect();
        let what = format!("cancelling pair at width {width} at {j}");
        cases.push((what, plaintexts, Ok(pair.to_vec())));
    }
    for (seed, (what, plaintexts, expected)) in cases.into_iter().enumerate() {
        let v = encrypt_wide(pk, &plaintexts, seed as u64);
        assert_eq!(per_element_u64(sk, &v), expected, "{what}: reference");
        assert_eq!(v.decrypt_u64(sk), expected, "{what}");
    }
}

/// The paper's shape: a 56-element registry total under a 1024-bit key.
/// Counts up to N take one group of 18-bit slots; counts above 2¹⁸ two
/// groups of 36-bit slots; values at both widths' slot edges and beyond
/// four groups of 64-bit slots; and one hostile carry.
#[test]
fn a_paper_sized_registry_decrypts_like_the_per_element_path() {
    let (pk, sk) = paper_keys();
    let width = fitted_width(pk.bits(), 56, 18);
    assert_eq!(width, 18, "the counts' width at 1024 bits");
    let edges: Vec<u64> = (0..56u64)
        .map(|i| slot_edge(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), width))
        .collect();
    let counts: Vec<u64> = (0..56).map(|i| i * 7 % 25).collect();
    let above: Vec<u64> = (0..56).map(|i| (1 << width) + i * 1000).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(56);
    for values in [&counts, &above, &edges] {
        let enc = EncryptedVector::encrypt_u64(pk, values, &mut rng);
        assert_eq!(enc.decrypt_u64(sk).as_ref(), Ok(values));
        assert_eq!(per_element_u64(sk, &enc).as_ref(), Ok(values));
    }

    let mut plaintexts: Vec<BigUint> = edges.into_iter().map(BigUint::from).collect();
    plaintexts[29] = (BigUint::one() << 64u32) + BigUint::from(5u32);
    let hostile = encrypt_wide(pk, &plaintexts, 57);
    let expected = HeError::PlaintextTooWide {
        bits: 65,
        max_bits: 64,
    };
    assert_eq!(hostile.decrypt_u64(sk), Err(expected));
}

/// Batch vector encryption against a per-element loop on the same encryptor
/// and randomness stream — the bit-identity pin of the multi-exp walk.
fn batch_matches_per_element<E: Encryptor>(enc: &E, values: &[u64], seed: u64) {
    let mut rng_a = rand::rngs::StdRng::seed_from_u64(seed);
    let mut rng_b = rand::rngs::StdRng::seed_from_u64(seed);
    let batch = EncryptedVector::encrypt_u64_with(enc, values, &mut rng_a);
    for (i, (&m, c)) in values.iter().zip(batch.elements()).enumerate() {
        let per = enc.encrypt_u64(m, &mut rng_b);
        assert_eq!(
            c.raw(),
            per.raw(),
            "batch multi-exp diverged from per-element encryption at element {i}"
        );
    }
}

/// `randomizer_for` is documented as `hˣ mod n²`, and it is — for every `x`,
/// not only the 256-bit exponents the fixed-base table covers. Both tiers,
/// scalar and batch, against the generic `modpow` on either side of the
/// table's reach.
#[test]
fn randomizers_are_total_in_the_exponent() {
    let (pk, sk) = keys();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x707A1);
    let pre = PrecomputedEncryptor::new(pk, &mut rng);
    let crt = CrtEncryptor::from_keys(pk, sk, &mut rng).unwrap();
    let one = BigUint::one();
    let h = pre.randomizer_for(&one);
    let xs = [
        BigUint::zero(),
        one.clone(),
        &one << 255,
        (&one << 256) - &one,
        &one << 256,
        (&one << 299) + rng.gen_biguint(299),
    ];
    let expected: Vec<BigUint> = xs.iter().map(|x| h.modpow(x, pk.n_squared())).collect();
    assert_eq!(expected[0], one, "h⁰");
    for (i, x) in xs.iter().enumerate() {
        assert_eq!(pre.randomizer_for(x), expected[i], "precomputed, x = {x}");
        assert_eq!(crt.randomizer_for(x), expected[i], "crt, x = {x}");
    }
    assert_eq!(pre.randomizers_for(&xs), expected, "precomputed batch");
    assert_eq!(crt.randomizers_for(&xs), expected, "crt batch");
}

/// A deserialized public key with an even modulus (necessarily forged) has
/// no Montgomery domain to build a table in: the encryptor still binds to
/// it and its randomizers are the generic `modpow`'s, never a panic.
#[test]
fn an_even_forged_modulus_takes_the_generic_exponentiation() {
    let n = (BigUint::one() << 200) + BigUint::from(0xF0_46EDu32 * 2);
    let pk: PublicKey = serde_json::from_str(&format!("{{\"n\":\"{n}\"}}")).unwrap();
    assert_eq!(pk.n(), &n);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xF046ED);
    let enc = PrecomputedEncryptor::new(&pk, &mut rng);
    let h = enc.randomizer_for(&BigUint::one());
    let mut xs: Vec<BigUint> = (0..5).map(|_| rng.gen_biguint(256)).collect();
    xs.extend([BigUint::zero(), BigUint::one() << 256]);
    let expected: Vec<BigUint> = xs.iter().map(|x| h.modpow(x, pk.n_squared())).collect();
    for (x, e) in xs.iter().zip(&expected) {
        assert_eq!(&enc.randomizer_for(x), e, "x = {x}");
    }
    assert_eq!(enc.randomizers_for(&xs), expected);
    assert!(enc.encrypt(&BigUint::from(7u32), &mut rng).is_ok());
}

/// The fold-equivalence grid the issue pins: every Montgomery-domain fold
/// route (batch [`sum_vectors`] and the coordinator-style [`RunningFold`])
/// must be bit-identical to the serial reference fold for registry lengths
/// {1, 7, 56} × vector counts {1, 2, 33}, at both key sizes. Runs under
/// both `parallel` states (the CI matrix includes `--no-default-features`).
#[test]
fn montgomery_folds_match_serial_reference_across_the_grid() {
    for (pk, _sk) in [keys(), wide_keys()] {
        montgomery_fold_grid(pk);
    }
}

fn montgomery_fold_grid(pk: &PublicKey) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xA66);
    for &len in &[1usize, 7, 56] {
        for &count in &[1usize, 2, 33] {
            let vectors: Vec<EncryptedVector> = (0..count)
                .map(|i| {
                    let v: Vec<u64> = (0..len).map(|j| ((i * 13 + j * 7) % 11) as u64).collect();
                    EncryptedVector::encrypt_u64(pk, &v, &mut rng)
                })
                .collect();
            let serial = sum_vectors_serial(&vectors).unwrap().unwrap();

            let batch = sum_vectors(&vectors).unwrap().unwrap();
            let mut running = RunningFold::new(&vectors[0]);
            for v in &vectors[1..] {
                running.fold(v).unwrap();
            }
            let running = running.total();

            for (i, s) in serial.elements().iter().enumerate() {
                assert_eq!(
                    batch.elements()[i].raw(),
                    s.raw(),
                    "sum_vectors diverged at len {len} count {count} position {i}"
                );
                assert_eq!(
                    running.elements()[i].raw(),
                    s.raw(),
                    "RunningFold diverged at len {len} count {count} position {i}"
                );
            }
        }
    }
}
