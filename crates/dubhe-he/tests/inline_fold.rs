//! A fold below the fan-out work bound creates no thread.
//!
//! One test, alone in its binary: `Threads:` in `/proc/self/status` counts
//! the whole process, and with sibling tests the harness would be starting
//! and joining their threads while this one samples. The zero-allocation
//! half of the same contract is pinned in `tests/alloc_counting.rs`.

use dubhe_he::{EncryptedVector, Keypair, RunningFold};
use rand::SeedableRng;

/// The `Threads:` line of `/proc/self/status`; `None` off Linux.
fn os_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("Threads:"))?;
    line["Threads:".len()..].trim().parse().ok()
}

#[test]
fn a_fold_below_the_work_bound_leaves_the_thread_count_unchanged() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x1417E);
    let kp = Keypair::generate(dubhe_he::TEST_KEY_BITS, &mut rng);
    // 64 limb multiplies per element at `TEST_KEY_BITS`: every length here
    // is under the bound, the last one barely. Encryption is kept out of the
    // sampled window — it is allowed to start the pool.
    for len in [1usize, 10, 64, 500] {
        let vs: Vec<EncryptedVector> = (0..40)
            .map(|i| {
                let v: Vec<u64> = (0..len).map(|j| ((i + j) % 3) as u64).collect();
                EncryptedVector::encrypt_u64(&kp.public, &v, &mut rng)
            })
            .collect();
        let before = os_threads();
        let mut fold = RunningFold::new(&vs[0]);
        for v in &vs[1..] {
            fold.fold(v).unwrap();
            assert_eq!(
                os_threads(),
                before,
                "a fold of {len} elements changed the thread count"
            );
        }
        assert_eq!(fold.folded(), 40);
    }
}
