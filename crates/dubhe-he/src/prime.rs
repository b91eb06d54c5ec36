//! Probabilistic prime generation for Paillier key material.
//!
//! Key generation needs two random primes `p`, `q` of `bits/2` bits each with
//! `gcd(pq, (p-1)(q-1)) = 1` (guaranteed when `p` and `q` have equal length).
//! We implement the standard Miller–Rabin primality test with a fixed number of
//! rounds; for the key sizes used here (256–2048 bit moduli) 40 rounds pushes the
//! error probability below 2⁻⁸⁰.

use num_bigint::{BigUint, MontgomeryContext, MontgomeryScratch, RandBigInt};
use num_integer::Integer;
use num_traits::{One, Zero};
use rand::Rng;

/// Number of Miller–Rabin rounds used by [`is_probable_prime`].
pub const MILLER_RABIN_ROUNDS: u32 = 40;

/// Small primes used to cheaply reject most composite candidates before running
/// Miller–Rabin.
const SMALL_PRIMES: [u32; 54] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211, 223, 227, 229, 233, 239, 241, 251,
];

/// Returns `true` if `n` is prime with overwhelming probability.
///
/// Uses trial division by a table of small primes followed by [`MILLER_RABIN_ROUNDS`]
/// rounds of Miller–Rabin with random bases.
pub fn is_probable_prime<R: Rng + ?Sized>(n: &BigUint, rng: &mut R) -> bool {
    if n < &BigUint::from(2u32) {
        return false;
    }
    for &sp in &SMALL_PRIMES {
        let sp = BigUint::from(sp);
        if n == &sp {
            return true;
        }
        if (n % &sp).is_zero() {
            return false;
        }
    }
    miller_rabin(n, MILLER_RABIN_ROUNDS, rng)
}

/// Miller–Rabin probabilistic primality test with `rounds` random bases.
///
/// Callers should prefer [`is_probable_prime`], which also performs trial
/// division; this function assumes `n` is odd and larger than the small primes.
/// (An even `n` is answered directly: the Montgomery context every round
/// shares needs an odd modulus.)
pub fn miller_rabin<R: Rng + ?Sized>(n: &BigUint, rounds: u32, rng: &mut R) -> bool {
    let one = BigUint::one();
    let two = BigUint::from(2u32);
    if n.is_even() {
        return n == &two;
    }
    let n_minus_one = n - &one;

    // Write n-1 = d * 2^s with d odd.
    let mut d = n_minus_one.clone();
    let mut s = 0u64;
    while d.is_even() {
        d >>= 1;
        s += 1;
    }

    // One context per candidate: every round's a^d and every squaring after
    // it reuse the same R² mod n, and the squarings stay in the domain.
    let ctx = MontgomeryContext::new(n);
    let minus_one = ctx.to_montgomery(&n_minus_one);
    let mut scratch = MontgomeryScratch::new();

    'witness: for _ in 0..rounds {
        // Random base in [2, n-2].
        let a = loop {
            let candidate = rng.gen_biguint_below(n);
            if candidate >= two && candidate <= &n_minus_one - &one {
                break candidate;
            }
        };
        let x = ctx.modpow(&a, &d);
        if x == one || x == n_minus_one {
            continue 'witness;
        }
        let mut x = ctx.to_montgomery(&x);
        for _ in 0..s.saturating_sub(1) {
            ctx.montgomery_sqr_assign(&mut x, &mut scratch);
            if x == minus_one {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Generates a random probable prime of exactly `bits` bits.
///
/// The top two bits are forced to one (so the product of two such primes has
/// exactly `2 * bits` bits) and the bottom bit is forced to one (odd).
pub fn generate_prime<R: Rng + ?Sized>(bits: u64, rng: &mut R) -> BigUint {
    assert!(bits >= 8, "prime size must be at least 8 bits, got {bits}");
    loop {
        let mut candidate = rng.gen_biguint(bits);
        // Force exact bit-length and oddness.
        candidate.set_bit(bits - 1, true);
        candidate.set_bit(bits - 2, true);
        candidate.set_bit(0, true);
        if is_probable_prime(&candidate, rng) {
            return candidate;
        }
    }
}

/// Generates a pair of distinct probable primes, each of `bits` bits.
pub fn generate_prime_pair<R: Rng + ?Sized>(bits: u64, rng: &mut R) -> (BigUint, BigUint) {
    let p = generate_prime(bits, rng);
    loop {
        let q = generate_prime(bits, rng);
        if q != p {
            return (p, q);
        }
    }
}

/// Computes the modular multiplicative inverse of `a` modulo `m`, if it exists.
pub fn mod_inverse(a: &BigUint, m: &BigUint) -> Option<BigUint> {
    use num_bigint::BigInt;
    use num_bigint::Sign;
    let a = BigInt::from_biguint(Sign::Plus, a.clone());
    let m_int = BigInt::from_biguint(Sign::Plus, m.clone());
    let e = a.extended_gcd(&m_int);
    if !e.gcd.is_one() {
        return None;
    }
    let mut x = e.x % &m_int;
    if x.sign() == Sign::Minus {
        x += &m_int;
    }
    Some(x.to_biguint().expect("normalised to non-negative"))
}

/// Given `x = q⁻¹ mod p`, returns `(q²)⁻¹ mod p²`: one Newton/Hensel step
/// (`y = x·(2 − q·x) mod p²` inverts `q` modulo `p²`) and a squaring — four
/// multiplications where a second [`mod_inverse`] would run an extended gcd
/// at twice the width. The step is verified (`q·y ≡ 1 mod p²`), so an `x`
/// that is not the inverse it is claimed to be yields `None`.
pub fn lift_inverse_squared(x: &BigUint, q: &BigUint, p_squared: &BigUint) -> Option<BigUint> {
    let q_x = (q * x) % p_squared;
    let y = (x * (p_squared + BigUint::from(2u32) - q_x)) % p_squared;
    ((q * &y) % p_squared)
        .is_one()
        .then(|| (&y * &y) % p_squared)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(42)
    }

    #[test]
    fn small_primes_are_recognised() {
        let mut r = rng();
        for p in [2u32, 3, 5, 7, 97, 251] {
            assert!(
                is_probable_prime(&BigUint::from(p), &mut r),
                "{p} should be prime"
            );
        }
    }

    #[test]
    fn small_composites_are_rejected() {
        let mut r = rng();
        for c in [
            1u32, 4, 6, 9, 15, 21, 25, 100, 561, /* Carmichael */
            1105,
        ] {
            assert!(
                !is_probable_prime(&BigUint::from(c), &mut r),
                "{c} should be composite"
            );
        }
    }

    #[test]
    fn known_large_prime_is_accepted() {
        // 2^61 - 1 is a Mersenne prime.
        let p = (BigUint::one() << 61u32) - BigUint::one();
        assert!(is_probable_prime(&p, &mut rng()));
    }

    #[test]
    fn known_large_composite_is_rejected() {
        // (2^61 - 1) * 7
        let c = ((BigUint::one() << 61u32) - BigUint::one()) * BigUint::from(7u32);
        assert!(!is_probable_prime(&c, &mut rng()));
    }

    #[test]
    fn generated_primes_have_requested_bit_length() {
        let mut r = rng();
        for bits in [64u64, 96, 128] {
            let p = generate_prime(bits, &mut r);
            assert_eq!(p.bits(), bits);
            assert!(is_probable_prime(&p, &mut r));
        }
    }

    #[test]
    fn generated_pair_is_distinct() {
        let mut r = rng();
        let (p, q) = generate_prime_pair(64, &mut r);
        assert_ne!(p, q);
    }

    #[test]
    #[should_panic(expected = "at least 8 bits")]
    fn tiny_prime_request_panics() {
        let mut r = rng();
        let _ = generate_prime(4, &mut r);
    }

    #[test]
    fn mod_inverse_round_trips() {
        let m = BigUint::from(1_000_000_007u64);
        for a in [2u64, 3, 17, 123_456_789] {
            let a = BigUint::from(a);
            let inv = mod_inverse(&a, &m).expect("inverse exists for prime modulus");
            assert_eq!((a * inv) % &m, BigUint::one());
        }
    }

    #[test]
    fn mod_inverse_absent_when_not_coprime() {
        let m = BigUint::from(12u32);
        assert!(mod_inverse(&BigUint::from(8u32), &m).is_none());
    }

    #[test]
    fn lifted_inverse_matches_the_extended_gcd_for_generated_keys() {
        let mut r = rng();
        for _ in 0..32 {
            let (p, q) = generate_prime_pair(64, &mut r);
            let (p2, q2) = (&p * &p, &q * &q);
            let x = mod_inverse(&(&q % &p), &p).expect("distinct primes");
            assert_eq!(
                lift_inverse_squared(&x, &q, &p2),
                mod_inverse(&(&q2 % &p2), &p2),
                "p = {p}, q = {q}"
            );
        }
    }

    #[test]
    fn lifting_a_wrong_inverse_is_refused_not_a_panic() {
        let (p, q) = (
            BigUint::from(1_000_000_007u64),
            BigUint::from(998_244_353u64),
        );
        let p2 = &p * &p;
        let x = mod_inverse(&(&q % &p), &p).unwrap();
        assert!(lift_inverse_squared(&x, &q, &p2).is_some());
        for wrong in [BigUint::zero(), &x + BigUint::one(), p.clone(), p2.clone()] {
            assert_eq!(lift_inverse_squared(&wrong, &q, &p2), None, "x = {wrong}");
        }
        // q sharing a factor with p has no inverse to lift, whatever x is.
        assert_eq!(
            lift_inverse_squared(&x, &(&p * BigUint::from(3u32)), &p2),
            None
        );
    }
}
