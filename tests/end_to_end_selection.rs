//! Cross-crate integration tests: the full secure selection pipeline from
//! synthetic federation construction through encrypted registration to
//! probability-driven participation.

use dubhe::data::federated::{DatasetFamily, FederatedSpec};
use dubhe::select::probability::participation_probability;
use dubhe::select::protocol::{
    run_registration, run_try, InMemoryTransport, RegistrationRun, ShardedCoordinator,
};
use dubhe::select::registry::register_all;
use dubhe::select::selector::{population_unbiasedness, selection_stats};
use dubhe::{ClientSelector, DubheConfig, DubheSelector, GreedySelector, RandomSelector};
use rand::SeedableRng;

const TEST_KEY_BITS: u64 = 256;

fn build_clients(
    family: DatasetFamily,
    rho: f64,
    emd: f64,
    clients: usize,
    seed: u64,
) -> Vec<dubhe::data::ClassDistribution> {
    let spec = FederatedSpec {
        family,
        rho,
        emd_avg: emd,
        clients,
        samples_per_client: 64,
        test_samples_per_class: 1,
        seed,
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    spec.build_partition(&mut rng).client_distributions()
}

/// One in-process registration epoch, one coordinator shard.
fn register(
    clients: &[dubhe::data::ClassDistribution],
    config: &DubheConfig,
    transport: &mut InMemoryTransport,
    rng: &mut rand::rngs::StdRng,
) -> RegistrationRun {
    let server = ShardedCoordinator::new(clients.len(), 1);
    run_registration(clients, config, TEST_KEY_BITS, None, server, transport, rng).unwrap()
}

#[test]
fn secure_and_plaintext_registration_agree_end_to_end() {
    // 200 clients so no registry category saturates (Eq. 7's sum-to-K
    // property only holds exactly when every category has >= K/|G| members).
    let clients = build_clients(DatasetFamily::MnistLike, 10.0, 1.5, 200, 1);
    let config = DubheConfig::group1();
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);

    let run = register(&clients, &config, &mut InMemoryTransport::new(), &mut rng);
    let layout = config.validate();
    let (_, plaintext) = register_all(&clients, &layout, &config.effective_thresholds());

    let overall = run.overall_registry().unwrap();
    assert_eq!(overall, plaintext);
    // Probabilities derived from the decrypted registry sum to ~K (Eq. 7).
    let expected: f64 = run
        .registrations()
        .unwrap()
        .iter()
        .map(|r| participation_probability(overall, r.position, config.k))
        .sum();
    assert!(
        (expected - config.k as f64).abs() < 1.5,
        "expected participation {expected}"
    );
}

#[test]
fn full_pipeline_dubhe_beats_random_on_unbiasedness() {
    // The paper's headline selection result at ICPP-scale parameters
    // (N = 1000, K = 20, rho = 10, EMD = 1.5), selection-only.
    let clients = build_clients(DatasetFamily::MnistLike, 10.0, 1.5, 1000, 3);
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);

    let mut random = RandomSelector::new(clients.len(), 20);
    let mut dubhe = DubheSelector::new(&clients, DubheConfig::group1());
    let r = selection_stats(&mut random, &clients, 40, &mut rng).unwrap();
    let d = selection_stats(&mut dubhe, &clients, 40, &mut rng).unwrap();

    assert!(
        d.mean < r.mean * 0.85,
        "Dubhe mean {:.3} should be well below random mean {:.3}",
        d.mean,
        r.mean
    );
}

#[test]
fn greedy_baseline_requires_plaintext_but_is_most_balanced() {
    let clients = build_clients(DatasetFamily::MnistLike, 10.0, 1.5, 400, 5);
    let mut rng = rand::rngs::StdRng::seed_from_u64(6);
    let mut greedy = GreedySelector::new(&clients, 20);
    let mut dubhe = DubheSelector::new(&clients, DubheConfig::group1());
    let g = selection_stats(&mut greedy, &clients, 15, &mut rng).unwrap();
    let d = selection_stats(&mut dubhe, &clients, 15, &mut rng).unwrap();
    assert!(
        g.mean <= d.mean + 0.05,
        "greedy {:.3} vs dubhe {:.3}",
        g.mean,
        d.mean
    );
}

#[test]
fn secure_tentative_try_is_consistent_with_plaintext_population() {
    let clients = build_clients(DatasetFamily::FemnistLike, 13.64, 0.554, 120, 7);
    let mut rng = rand::rngs::StdRng::seed_from_u64(8);
    let config = DubheConfig::group2();
    let mut transport = InMemoryTransport::new();
    let mut run = register(&clients, &config, &mut transport, &mut rng);

    let mut selector = DubheSelector::new(&clients, config);
    let selected = selector.select(&mut rng);
    run.agent.expect_tries(1);
    run_try(
        0,
        &selected,
        &mut run.agent,
        &mut run.clients,
        &mut run.server,
        &mut transport,
        &mut rng,
    )
    .unwrap();
    let secure = run.agent.try_outcomes().pop().unwrap();
    let plaintext = population_unbiasedness(&selected, &clients).unwrap();
    assert!(
        (secure.distance_to_uniform - plaintext).abs() < 1e-3,
        "secure {:.5} vs plaintext {:.5}",
        secure.distance_to_uniform,
        plaintext
    );
}

#[test]
fn group2_femnist_scale_registration_stays_fast_and_correct() {
    // 2000 clients over 52 classes: registration, aggregation and probability
    // calculation are all linear-time and must handle this comfortably.
    let clients = build_clients(DatasetFamily::FemnistLike, 13.64, 0.554, 2000, 9);
    let config = DubheConfig::group2();
    let mut dubhe = DubheSelector::new(&clients, config.clone());
    let mut rng = rand::rngs::StdRng::seed_from_u64(10);
    let selected = dubhe.select(&mut rng);
    assert_eq!(selected.len(), config.k);
    let layout = config.validate();
    assert_eq!(dubhe.overall_registry().len(), layout.len());
    assert_eq!(dubhe.overall_registry().iter().sum::<u64>(), 2000);
}
