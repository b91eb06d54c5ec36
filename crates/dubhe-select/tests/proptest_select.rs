//! Property-based tests for the Dubhe selection core: codebook bijection,
//! Algorithm-1 invariants, probability-calculation guarantees and selector
//! contracts.

use dubhe_data::ClassDistribution;
use dubhe_select::codebook::{binomial, rank_subset, unrank_subset, Category, RegistryLayout};
use dubhe_select::probability::{expected_participation, participation_probability};
use dubhe_select::registry::register;
use dubhe_select::selector::{population_distribution, ClientSelector, RandomSelector};
use dubhe_select::{DubheConfig, DubheSelector};
use proptest::prelude::*;
use rand::SeedableRng;

/// A strategy producing a non-empty 10-class count vector.
fn counts_10() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..200, 10)
        .prop_filter("at least one sample", |v| v.iter().sum::<u64>() > 0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rank_unrank_bijection(classes in 4usize..20, k in 1usize..4, raw_rank in any::<u64>()) {
        let k = k.min(classes);
        let total = binomial(classes, k);
        let rank = raw_rank % total;
        let subset = unrank_subset(rank, k, classes);
        prop_assert_eq!(subset.len(), k);
        prop_assert!(subset.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(*subset.last().unwrap() < classes);
        prop_assert_eq!(rank_subset(&subset, classes), rank);
    }

    #[test]
    fn registry_position_round_trip(counts in counts_10()) {
        let layout = RegistryLayout::group1();
        let d = ClassDistribution::from_counts(counts);
        let reg = register(&d, &layout, &[0.7, 0.1, 0.0]);
        // Exactly one bit is set, at the reported position, and the category
        // decodes back from that position.
        prop_assert_eq!(reg.registry.iter().sum::<u64>(), 1);
        prop_assert_eq!(reg.registry[reg.position], 1);
        prop_assert_eq!(layout.category_at(reg.position), reg.category.clone());
        // The dominating-class count is a member of G.
        prop_assert!(layout.reference_set().contains(&reg.dominating_count));
        // Dominating classes really are the most frequent ones: every class in
        // the category has at least as many samples as every class outside it
        // (up to ties).
        let min_in: u64 = reg.category.classes.iter().map(|&c| d.counts()[c]).min().unwrap();
        let max_out: u64 = (0..10)
            .filter(|c| !reg.category.classes.contains(c))
            .map(|c| d.counts()[c])
            .max()
            .unwrap_or(0);
        prop_assert!(min_in >= max_out);
    }

    #[test]
    fn expected_participation_never_exceeds_k_or_population(
        overall in prop::collection::vec(0u64..50, 1..60),
        k in 1usize..40,
    ) {
        let e = expected_participation(&overall, k);
        let population: u64 = overall.iter().sum();
        prop_assert!(e <= k as f64 + 1e-9, "expectation {e} exceeds K {k}");
        prop_assert!(e <= population as f64 + 1e-9);
        // And it equals K exactly when no category saturates.
        let nonzero = overall.iter().filter(|&&c| c > 0).count();
        if nonzero > 0 && overall.iter().filter(|&&c| c > 0).all(|&c| c as usize * nonzero >= k) {
            prop_assert!((e - k as f64).abs() < 1e-6);
        }
    }

    #[test]
    fn probabilities_are_valid_and_equal_within_category(
        overall in prop::collection::vec(0u64..50, 1..60),
        k in 1usize..40,
    ) {
        for pos in 0..overall.len() {
            let p = participation_probability(&overall, pos, k);
            prop_assert!((0.0..=1.0).contains(&p));
            if overall[pos] == 0 {
                prop_assert_eq!(p, 0.0);
            }
        }
    }

    #[test]
    fn random_selector_contract(n in 2usize..200, k_frac in 0.01f64..1.0, seed in any::<u64>()) {
        let k = ((n as f64 * k_frac).ceil() as usize).clamp(1, n);
        let mut sel = RandomSelector::new(n, k);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let s = sel.select(&mut rng);
        prop_assert_eq!(s.len(), k);
        prop_assert!(s.windows(2).all(|w| w[0] < w[1]), "sorted and distinct");
        prop_assert!(s.iter().all(|&id| id < n));
    }

    #[test]
    fn population_distribution_is_a_distribution(
        seed in any::<u64>(),
        n in 5usize..80,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let dists: Vec<ClassDistribution> = (0..n)
            .map(|i| {
                let mut counts = vec![1u64; 10];
                counts[i % 10] += (i as u64 * 7) % 90;
                ClassDistribution::from_counts(counts)
            })
            .collect();
        let k = (n / 2).max(1);
        let mut sel = RandomSelector::new(n, k);
        let selected = sel.select(&mut rng);
        let p_o = population_distribution(&selected, &dists).unwrap();
        prop_assert_eq!(p_o.len(), 10);
        prop_assert!((p_o.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(p_o.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn dubhe_selector_always_returns_exactly_k(seed in any::<u64>()) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let dists: Vec<ClassDistribution> = (0..120)
            .map(|i| {
                let mut counts = vec![1u64; 10];
                counts[i % 10] += 60;
                ClassDistribution::from_counts(counts)
            })
            .collect();
        let mut config = DubheConfig::group1();
        config.k = 15;
        let mut sel = DubheSelector::new(&dists, config);
        let s = sel.select(&mut rng);
        prop_assert_eq!(s.len(), 15);
        prop_assert!(s.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn category_positions_are_unique(classes in 3usize..12) {
        let layout = RegistryLayout::new(classes, &[1, 2, classes]);
        let mut seen = std::collections::HashSet::new();
        for a in 0..classes {
            prop_assert!(seen.insert(layout.position(&Category::new(vec![a]))));
            for b in (a + 1)..classes {
                prop_assert!(seen.insert(layout.position(&Category::new(vec![a, b]))));
            }
        }
        prop_assert!(seen.insert(layout.position(&Category::new((0..classes).collect()))));
        prop_assert_eq!(seen.len(), layout.len());
    }
}

/// A shared keypair for the snapshot-resume properties (key generation
/// dominates runtime, exactly as in `dubhe-he`'s property suite).
fn snapshot_keys() -> &'static dubhe_he::Keypair {
    use std::sync::OnceLock;
    static KEYS: OnceLock<dubhe_he::Keypair> = OnceLock::new();
    KEYS.get_or_init(|| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5AFE);
        dubhe_he::Keypair::generate(dubhe_he::TEST_KEY_BITS, &mut rng)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Crash-recovery property over the coordinator grid: for any registry
    /// length × shard count × crash point, a coordinator restored from its
    /// snapshot finishes on a total bit-identical to the uninterrupted run at
    /// that shard count, to a run at a *different* shard count, and to the
    /// definition of the fold — the left-to-right `EncryptedVector::add`
    /// chain over the uploads in arrival order.
    #[test]
    fn sharded_snapshot_resumes_bit_identically(len in 1usize..16,
                                                n in 2usize..7,
                                                shards in 1usize..5,
                                                cut_seed in any::<u64>(),
                                                seed in any::<u64>()) {
        use dubhe_select::protocol::{
            Coordinator, Envelope, Party, ProtocolMsg, ShardedCoordinator,
        };

        let kp = snapshot_keys();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let registries: Vec<dubhe_he::EncryptedVector> = (0..n)
            .map(|client| {
                let v: Vec<u64> = (0..len).map(|j| ((client * 13 + j * 7) % 9) as u64).collect();
                dubhe_he::EncryptedVector::encrypt_u64(&kp.public, &v, &mut rng)
            })
            .collect();
        let uploads: Vec<Envelope> = (registries.iter().cloned().enumerate())
            .map(|(client, registry)| Envelope {
                from: Party::Client(client),
                to: Party::Server,
                epoch: 0,
                msg: ProtocolMsg::EncryptedRegistry { client, registry },
            })
            .collect();
        let cut = 1 + (cut_seed as usize) % n;
        let chain = (registries.into_iter()).reduce(|sum, v| sum.add(&v).unwrap());

        // 1 ↔ 4, 2 ↔ 3: always a different partition of the same positions.
        let mut other = ShardedCoordinator::with_public_key(kp.public.clone(), n, 5 - shards);
        let mut whole = ShardedCoordinator::with_public_key(kp.public.clone(), n, shards);
        let mut doomed = ShardedCoordinator::with_public_key(kp.public.clone(), n, shards);
        for e in &uploads {
            Coordinator::deliver(&mut other, e.clone()).unwrap();
            Coordinator::deliver(&mut whole, e.clone()).unwrap();
        }
        for e in uploads.iter().take(cut) {
            Coordinator::deliver(&mut doomed, e.clone()).unwrap();
        }
        let bytes = doomed.snapshot().unwrap();
        drop(doomed);
        let mut resumed = ShardedCoordinator::restore(&bytes).unwrap();
        prop_assert_eq!(resumed.shards(), shards);
        for e in uploads.iter().skip(cut) {
            Coordinator::deliver(&mut resumed, e.clone()).unwrap();
        }

        let reference = chain.expect("n >= 2 uploads");
        let repartitioned = other.encrypted_total().expect("epoch complete");
        let uninterrupted = whole.encrypted_total().expect("epoch complete");
        let total = resumed.encrypted_total().expect("epoch complete");
        prop_assert_eq!(total.len(), reference.len());
        for (i, c) in reference.elements().iter().enumerate() {
            let a = &total.elements()[i];
            prop_assert_eq!(a.raw(), uninterrupted.elements()[i].raw(),
                            "resumed fold diverged from uninterrupted");
            prop_assert_eq!(a.raw(), repartitioned.elements()[i].raw(),
                            "fold diverged between shard counts");
            prop_assert_eq!(a.raw(), c.raw(), "sharded fold diverged from the add chain");
        }
    }
}
