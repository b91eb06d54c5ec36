//! Counting-allocator proof of the scratch-arena fold contract.
//!
//! Wall-clock benches show the arena win; this test pins the *mechanism*: a
//! steady-state Montgomery fold performs **zero** heap allocations per folded
//! element — none at all while it runs inline, below the fan-out work bound —
//! and the bookkeeping of a parallel fold is O(1) in the vector length. The
//! exponentiation ladder under every decryption is held to the same kind of
//! contract: a handful of allocations per `modpow`, whatever the exponent,
//! and a constant per element for the repacking `u64` decryption, whose
//! residues sit in one arena per CRT leg and whose peak heap is pinned. An
//! integration test gets its own binary, so installing a counting
//! `#[global_allocator]` here observes exactly this file's workload. (That a
//! fold creates no thread either is pinned in `tests/inline_fold.rs`, which
//! has to be alone in its binary to read the process's thread count.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;

use dubhe_he::{
    Ciphertext, EncryptedVector, EpochEncryptor, Keypair, PrecomputedEncryptor, RunningFold,
};
use num_bigint::{MontgomeryContext, RandBigInt};
use rand::SeedableRng;

/// Forwards to the system allocator, counting every allocation entry point.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Bytes currently allocated (requested sizes).
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

/// The most [`LIVE_BYTES`] has reached since [`peak_during`] last reset it.
static PEAK_BYTES: AtomicI64 = AtomicI64::new(0);

/// Adds `delta` to the live bytes and raises the peak to match.
fn track(delta: i64) {
    let live = LIVE_BYTES.fetch_add(delta, Ordering::Relaxed) + delta;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        track(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        track(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        track(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Tests in one binary run concurrently; the global counter forces them to
/// take turns (a poisoned lock just means a sibling failed — carry on).
static TURN: Mutex<()> = Mutex::new(());

/// Allocations performed while running `f`.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::SeqCst);
    f();
    ALLOCS.load(Ordering::SeqCst) - before
}

/// The most bytes live at once while running `f`, above those live when it
/// started.
fn peak_during(f: impl FnOnce()) -> i64 {
    let before = LIVE_BYTES.load(Ordering::SeqCst);
    PEAK_BYTES.store(before, Ordering::SeqCst);
    f();
    PEAK_BYTES.load(Ordering::SeqCst) - before
}

fn registry_vectors(count: usize, len: usize) -> Vec<EncryptedVector> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xA110C);
    let kp = Keypair::generate(dubhe_he::TEST_KEY_BITS, &mut rng);
    (0..count)
        .map(|i| {
            let v: Vec<u64> = (0..len).map(|j| ((i + j) % 3) as u64).collect();
            EncryptedVector::encrypt_u64(&kp.public, &v, &mut rng)
        })
        .collect()
}

#[test]
fn serial_steady_state_fold_allocates_exactly_zero() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    // Below the fan-out work bound the fold runs on this thread through one
    // pooled arena: after the first fold warms it, the steady state must not
    // touch the heap at all — at any length under the bound, which at
    // `TEST_KEY_BITS` (64 limb multiplies per element) is 512 elements.
    for len in [1, 7, 64, 500] {
        let vs = registry_vectors(6, len);
        let mut fold = RunningFold::new(&vs[0]);
        fold.fold(&vs[1]).unwrap(); // warms the scratch arena
        for v in &vs[2..] {
            let n = allocs_during(|| fold.fold(v).unwrap());
            assert_eq!(n, 0, "steady-state inline fold of {len} touched the heap");
        }
        assert_eq!(fold.folded(), 6);
    }
}

#[test]
fn parallel_fold_bookkeeping_is_constant_in_the_vector_length() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    // Above the work bound the fold fans out over a fixed number of chunks;
    // publishing the job to the pool may allocate, but the count must not
    // grow with the element count — i.e. the per-element term is exactly
    // zero. Both lengths sit above the bound (512 elements at
    // `TEST_KEY_BITS`), so both take the parallel route.
    let steady = |len: usize| -> u64 {
        let vs = registry_vectors(5, len);
        let mut fold = RunningFold::new(&vs[0]);
        fold.fold(&vs[1]).unwrap(); // warm every chunk's arena
        let rounds = vs.len() as u64 - 2;
        let n = allocs_during(|| {
            for v in &vs[2..] {
                fold.fold(v).unwrap();
            }
        });
        n / rounds
    };
    let small = steady(640);
    let large = steady(5120);
    assert!(
        large <= small + 8,
        "per-fold allocations grew with the vector length: {small} at 640 \
         elements vs {large} at 5120"
    );
    assert!(
        large < 64,
        "per-fold allocations ({large}) approach one per element at 5120 elements"
    );
}

#[test]
fn sum_vectors_allocations_do_not_scale_with_the_vector_count() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    // sum_vectors seeds and exits one accumulator per position; folding more
    // vectors into those positions must be allocation-free.
    let vs = registry_vectors(16, 24);
    let few = allocs_during(|| {
        dubhe_he::sum_vectors(&vs[..4]).unwrap().unwrap();
    });
    let many = allocs_during(|| {
        dubhe_he::sum_vectors(&vs).unwrap().unwrap();
    });
    assert!(
        many <= few + 64,
        "sum_vectors allocations scaled with the vector count: {few} for 4 \
         vectors vs {many} for 16"
    );
}

#[test]
fn modpow_allocations_are_a_small_constant_whatever_the_exponent_length() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    // The ladder works inside one arena (accumulator, odd-power table,
    // kernel scratch): reducing the base, the arena and the result are all a
    // `modpow` allocates. A ladder that allocated per step would pay ~650
    // here at 512 bits and twice that at 1024.
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xA110C + 1);
    let mut modulus = rng.gen_biguint(1024);
    modulus.set_bit(1023, true);
    modulus.set_bit(0, true);
    let ctx = MontgomeryContext::new(&modulus);
    let base = rng.gen_biguint_below(&modulus);
    let counts: Vec<u64> = [2u64, 64, 512, 1024]
        .into_iter()
        .map(|bits| {
            let mut exponent = rng.gen_biguint(bits);
            exponent.set_bit(bits - 1, true);
            // The fewest of three: a pool worker from an earlier test may
            // still be putting its bookkeeping away on another thread.
            (0..3)
                .map(|_| {
                    allocs_during(|| {
                        std::hint::black_box(ctx.modpow(&base, &exponent));
                    })
                })
                .min()
                .expect("three runs")
        })
        .collect();
    assert!(
        counts.iter().all(|&n| n == counts[0]),
        "modpow allocations depend on the exponent length: {counts:?} at 2 / 64 / 512 / 1024 bits"
    );
    assert!(counts[0] <= 4, "modpow allocated {} times", counts[0]);
}

#[test]
fn batch_decryption_allocations_per_element_are_bounded_by_a_constant() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    // Per element: two ladders (a constant each, above), the L functions
    // and the CRT recombination — none of it proportional to the key size.
    // The difference of two batch lengths cancels the fan-out bookkeeping.
    // Measured: 51 at both key sizes, with or without the `parallel`
    // feature, whether the pool items are elements or (element, leg) pairs.
    const PER_ELEMENT_BOUND: u64 = 64;
    for bits in [dubhe_he::TEST_KEY_BITS, 1024] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xA110C + 2);
        let kp = Keypair::generate(bits, &mut rng);
        let cts: Vec<Ciphertext> = (0..24u64)
            .map(|m| kp.public.encrypt_u64(m, &mut rng))
            .collect();
        kp.private.decrypt_batch(&cts).unwrap(); // start the pool, warm its queues
        let few = allocs_during(|| {
            std::hint::black_box(kp.private.decrypt_batch(&cts[..8]).unwrap());
        });
        let many = allocs_during(|| {
            std::hint::black_box(kp.private.decrypt_batch(&cts).unwrap());
        });
        let per_element = many.saturating_sub(few) / 16;
        assert!(
            per_element <= PER_ELEMENT_BOUND,
            "{bits}-bit key: {per_element} allocations per decrypted element \
             ({few} for 8, {many} for 24)"
        );
    }
}

#[test]
fn repacked_u64_decryption_allocations_per_element_are_bounded_by_a_constant() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    // Per element: its residue reduced and mapped into each leg's Montgomery
    // domain, and stored in that leg's one arena. For the check and per
    // group of slots: a bucket or Horner chain (a few operands, none per
    // bucket or window), one leg ladder per leg and the recombination —
    // constants, amortised over the groups the check sizes: these 120
    // values sum below 2¹⁶, so 17-bit slots, 60 to a group at 1024 bits and
    // 15 at `TEST_KEY_BITS`. Measured: 18 at 1024 bits, 22 at 256,
    // nearly all of them the reduction mod p² inside the domain mapping.
    // The difference of two lengths cancels the per-call terms.
    const PER_ELEMENT_BOUND: u64 = 48;
    for bits in [dubhe_he::TEST_KEY_BITS, 1024] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xA110C + 4);
        let kp = Keypair::generate(bits, &mut rng);
        let values: Vec<u64> = (0..120u64).map(|m| m * 7).collect();
        let v = EncryptedVector::encrypt_u64(&kp.public, &values, &mut rng);
        let (few, many) = (v.slice(0, 30).unwrap(), v);
        assert_eq!(many.decrypt_u64(&kp.private).unwrap(), values); // warm the pool
        let count = |v: &EncryptedVector| {
            (0..3)
                .map(|_| {
                    allocs_during(|| {
                        std::hint::black_box(v.decrypt_u64(&kp.private).unwrap());
                    })
                })
                .min()
                .expect("three runs")
        };
        let (a, b) = (count(&few), count(&many));
        let per_element = b.saturating_sub(a) / 90;
        assert!(
            per_element <= PER_ELEMENT_BOUND,
            "{bits}-bit key: {per_element} allocations per repacked element \
             ({a} for 30, {b} for 120)"
        );
        // The paper's registry length: both legs' arenas (≈ 14 KB at 1024
        // bits) and the chains' transients — measured 18–21 KB in all —
        // stay far below the 43 KB an epoch's peak heap may grow by (5 % of
        // ≈ 0.84 MiB).
        let registry = many.slice(0, 56).unwrap();
        let peak = peak_during(|| {
            std::hint::black_box(registry.decrypt_u64(&kp.private).unwrap());
        });
        assert!(
            peak <= 32 * 1024,
            "{bits}-bit key: decrypting 56 elements held {peak} bytes at once"
        );
    }
}

#[test]
fn a_crt_encryptor_is_a_few_dozen_allocations_and_two_limb_arenas() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    // What a key pays once per process at the paper's key size: two combs
    // of 255 operands × 16 limbs, each in one arena (65 280 B), the contexts
    // and moduli beside them, and nothing per table entry. The 64 × 15
    // window tables this replaced made ≈ 1 950 allocations and kept
    // ≈ 292 KB. Every later encryptor of the key — any clone of it, the
    // 200 clients of one simulated epoch — is two refcounts on that.
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xA110C + 3);
    let kp = Keypair::generate(1024, &mut rng);
    drop(PrecomputedEncryptor::new(&kp.public, &mut rng)); // samples the key's h
    let mut build = |kp: &Keypair| {
        let before = LIVE_BYTES.load(Ordering::SeqCst);
        let mut built = None;
        let allocs = allocs_during(|| {
            let private = Some(&kp.private);
            built = Some(EpochEncryptor::for_key_material(
                &kp.public, private, &mut rng,
            ));
        });
        let retained = LIVE_BYTES.load(Ordering::SeqCst) - before;
        (built.expect("built"), allocs, retained)
    };
    let (cold, allocs, retained) = build(&kp);
    assert!(cold.is_crt());
    assert!(
        allocs <= 64,
        "building a key's first CRT encryptor allocated {allocs} times"
    );
    assert!(
        (60 * 1024..=80 * 1024).contains(&retained),
        "a key's CRT base keeps {retained} bytes"
    );
    for holder in 2..=200 {
        let (warm, allocs, retained) = build(&kp.clone());
        assert!(warm.is_crt());
        assert!(
            allocs <= 2 && retained < 1024,
            "holder {holder} of the key: {allocs} allocations, {retained} bytes kept"
        );
    }
}
