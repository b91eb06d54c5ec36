//! Criterion micro-benchmarks of the Paillier substrate: the bigint floor
//! (Montgomery multiply, square and `modpow` at the CRT-leg widths), key
//! generation, scalar and vector encryption (naive `rⁿ` vs precomputed-base
//! `hˣ`), batch decryption and homomorphic aggregation across key sizes — the raw
//! numbers behind the §6.4 encryption-overhead discussion and the fast-path
//! speedup claimed in the crate docs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dubhe_he::{
    sum_vectors, sum_vectors_serial, CrtEncryptor, EncryptedVector, Encryptor, Keypair,
    PrecomputedEncryptor,
};
use num_bigint::{MontgomeryContext, MontgomeryScratch, RandBigInt};
use rand::SeedableRng;

/// The floor every Paillier operation stands on, at the widths of the CRT
/// decryption legs: `p²` is 16 limbs under a 1024-bit key and 32 under a
/// 2048-bit one, and the exponent `p − 1` is half as long as the modulus.
fn bench_bigint_floor(c: &mut Criterion) {
    let mut group = c.benchmark_group("bigint_floor");
    group.sample_size(10);
    let mut rng = rand::rngs::StdRng::seed_from_u64(6);
    for limbs in [16u64, 32] {
        let mut modulus = rng.gen_biguint(64 * limbs);
        modulus.set_bit(64 * limbs - 1, true);
        modulus.set_bit(0, true);
        let ctx = MontgomeryContext::new(&modulus);
        let b = ctx.to_montgomery(&rng.gen_biguint_below(&modulus));
        let mut acc = ctx.to_montgomery(&rng.gen_biguint_below(&modulus));
        let mut scratch = MontgomeryScratch::new();
        group.bench_with_input(BenchmarkId::new("mont_mul", limbs), &limbs, |bench, _| {
            bench.iter(|| ctx.montgomery_mul_assign(&mut acc, &b, &mut scratch));
        });
        group.bench_with_input(BenchmarkId::new("mont_sqr", limbs), &limbs, |bench, _| {
            bench.iter(|| ctx.montgomery_sqr_assign(&mut acc, &mut scratch));
        });
        let base = rng.gen_biguint_below(&modulus);
        let mut exponent = rng.gen_biguint(32 * limbs);
        exponent.set_bit(32 * limbs - 1, true);
        group.bench_with_input(BenchmarkId::new("modpow", limbs), &limbs, |bench, _| {
            bench.iter(|| ctx.modpow(&base, &exponent));
        });
    }
    group.finish();
}

fn bench_keygen(c: &mut Criterion) {
    let mut group = c.benchmark_group("paillier_keygen");
    group.sample_size(10);
    for bits in [256u64, 512] {
        group.bench_with_input(BenchmarkId::from_parameter(bits), &bits, |b, &bits| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(1);
            b.iter(|| Keypair::generate(bits, &mut rng));
        });
    }
    group.finish();
}

fn bench_encrypt_decrypt(c: &mut Criterion) {
    let mut group = c.benchmark_group("paillier_scalar");
    group.sample_size(10);
    for bits in [256u64, 512, 1024] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let kp = Keypair::generate(bits, &mut rng);
        let (pk, sk) = (kp.public.clone(), kp.private.clone());
        group.bench_with_input(BenchmarkId::new("encrypt_naive", bits), &bits, |b, _| {
            b.iter(|| pk.encrypt_u64(123_456, &mut rng));
        });
        let encryptor = PrecomputedEncryptor::new(&pk, &mut rng);
        group.bench_with_input(
            BenchmarkId::new("encrypt_precomputed", bits),
            &bits,
            |b, _| {
                b.iter(|| encryptor.encrypt_u64(123_456, &mut rng));
            },
        );
        // The keypair-side tier: same fixed-base table, evaluated mod p²/q²
        // through the key's cached Montgomery contexts and CRT-recombined.
        let crt = CrtEncryptor::new(&kp, &mut rng).expect("valid keypair");
        group.bench_with_input(BenchmarkId::new("encrypt_crt", bits), &bits, |b, _| {
            b.iter(|| crt.encrypt_u64(123_456, &mut rng));
        });
        let ct = pk.encrypt_u64(123_456, &mut rng);
        group.bench_with_input(BenchmarkId::new("decrypt", bits), &bits, |b, _| {
            b.iter(|| sk.decrypt_u64(&ct));
        });
        let other = pk.encrypt_u64(7, &mut rng);
        group.bench_with_input(BenchmarkId::new("homomorphic_add", bits), &bits, |b, _| {
            b.iter(|| ct.add(&other).unwrap());
        });
    }
    group.finish();
}

/// The acceptance-criterion benchmark: vector encryption at 1024-bit keys,
/// naive per-element `rⁿ` vs the default precomputed-base path.
fn bench_vector_fast_vs_naive(c: &mut Criterion) {
    let mut group = c.benchmark_group("paillier_vector_1024");
    group.sample_size(10);
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let (pk, sk) = Keypair::generate(1024, &mut rng).split();
    let mut registry = vec![0u64; 56];
    registry[10] = 1;

    group.bench_function("encrypt_registry56_naive", |b| {
        b.iter(|| EncryptedVector::encrypt_u64_naive(&pk, &registry, &mut rng));
    });
    // Table construction happens once per key; bind it before timing so the
    // measured loop reflects the steady state every epoch client sees.
    let encryptor = PrecomputedEncryptor::new(&pk, &mut rng);
    group.bench_function("encrypt_registry56_precomputed", |b| {
        b.iter(|| EncryptedVector::encrypt_u64_with(&encryptor, &registry, &mut rng));
    });
    let crt = CrtEncryptor::from_keys(&pk, &sk, &mut rng).expect("valid keypair");
    group.bench_function("encrypt_registry56_crt", |b| {
        b.iter(|| EncryptedVector::encrypt_u64_with(&crt, &registry, &mut rng));
    });

    let enc = EncryptedVector::encrypt_u64(&pk, &registry, &mut rng);
    group.bench_function("decrypt_registry56_batch", |b| {
        b.iter(|| enc.decrypt_u64(&sk).unwrap());
    });
    group.finish();
}

fn bench_registry_vector(c: &mut Criterion) {
    // The protocol object of §6.4: a length-56 one-hot registry.
    let mut group = c.benchmark_group("paillier_registry56");
    group.sample_size(10);
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let (pk, sk) = Keypair::generate(512, &mut rng).split();
    let mut registry = vec![0u64; 56];
    registry[10] = 1;
    group.bench_function("encrypt_registry", |b| {
        b.iter(|| EncryptedVector::encrypt_u64(&pk, &registry, &mut rng));
    });
    let enc = EncryptedVector::encrypt_u64(&pk, &registry, &mut rng);
    let enc2 = EncryptedVector::encrypt_u64(&pk, &registry, &mut rng);
    group.bench_function("aggregate_two_registries", |b| {
        b.iter(|| enc.add(&enc2).unwrap());
    });
    group.bench_function("decrypt_registry", |b| {
        b.iter(|| enc.decrypt_u64(&sk).unwrap());
    });
    group.finish();
}

/// Server-side epoch aggregation: homomorphic sum of many client registries,
/// parallel tree vs the serial reference fold.
fn bench_epoch_aggregation(c: &mut Criterion) {
    let mut group = c.benchmark_group("paillier_epoch_sum");
    group.sample_size(10);
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    let (pk, _sk) = Keypair::generate(512, &mut rng).split();
    let registries: Vec<EncryptedVector> = (0..64)
        .map(|i| {
            let mut v = vec![0u64; 56];
            v[i % 56] = 1;
            EncryptedVector::encrypt_u64(&pk, &v, &mut rng)
        })
        .collect();
    group.bench_function("sum_64_registries_parallel", |b| {
        b.iter(|| sum_vectors(&registries).unwrap().unwrap());
    });
    group.bench_function("sum_64_registries_serial", |b| {
        b.iter(|| sum_vectors_serial(&registries).unwrap().unwrap());
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_bigint_floor,
    bench_keygen,
    bench_encrypt_decrypt,
    bench_vector_fast_vs_naive,
    bench_registry_vector,
    bench_epoch_aggregation,
);
criterion_main!(benches);
