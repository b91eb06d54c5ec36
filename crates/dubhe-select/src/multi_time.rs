//! Multi-time selection (§5.3): repeat the tentative selection `H` times,
//! evaluate each try's population distribution, and keep the best.
//!
//! Two consumers use the machinery:
//!
//! * **Client determination** (§5.3.1): the agent picks the try `h*` whose
//!   population distribution is closest to uniform,
//!   `h* = argmin_h ‖p_o,h − p_u‖₁`, and the clients of that try train.
//! * **Parameter search** (§5.3.2): for a candidate threshold set, the agent
//!   computes the *expected* population distribution over the `H` tries and the
//!   server scans the parameter space for the thresholds minimising
//!   `‖E_h(p_o,h) − p_u‖₁`.
//!
//! The secure variant drives the exchanges through the role-separated actor
//! API of [`crate::protocol`]: tentatively selected clients upload
//! `Enc(p_l)`, the coordinator folds per-try sums, the agent decrypts and
//! issues the verdict.

use dubhe_data::{l1_distance, mean_proportions, ClassDistribution};
use dubhe_he::{Keypair, PrivateKey, PublicKey};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::error::SelectError;
use crate::protocol::{
    run_try, AgentNode, InMemoryTransport, SecureTryOutcome, SelectClientNode, ShardedCoordinator,
};
use crate::selector::{population_distribution, ClientId, ClientSelector};

/// The outcome of one multi-time selection round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiTimeOutcome {
    /// The clients of the winning try `h*`.
    pub selected: Vec<ClientId>,
    /// Index of the winning try.
    pub best_try: usize,
    /// `EMD* = ‖p_o,h* − p_u‖₁`, the paper's Table 2 metric.
    pub best_distance: f64,
    /// `‖p_o,h − p_u‖₁` for every try, in order.
    pub all_distances: Vec<f64>,
    /// `‖E_h(p_o,h) − p_u‖₁` — the parameter-search objective.
    pub expectation_distance: f64,
}

/// Runs `h` tentative selections with `selector` and returns the best.
///
/// Returns [`SelectError::ZeroTries`] for `h == 0` and propagates any
/// selection error (empty or out-of-range tentative sets).
pub fn multi_time_select<S, R>(
    selector: &mut S,
    client_distributions: &[ClassDistribution],
    h: usize,
    rng: &mut R,
) -> Result<MultiTimeOutcome, SelectError>
where
    S: ClientSelector + ?Sized,
    R: Rng,
{
    if h == 0 {
        return Err(SelectError::ZeroTries);
    }
    let classes = client_distributions
        .first()
        .ok_or(SelectError::NoClients)?
        .classes();
    let p_u = vec![1.0 / classes as f64; classes];

    let mut tries: Vec<Vec<ClientId>> = Vec::with_capacity(h);
    let mut populations: Vec<Vec<f64>> = Vec::with_capacity(h);
    let mut distances: Vec<f64> = Vec::with_capacity(h);
    for _ in 0..h {
        let selected = selector.select(rng);
        let p_o = population_distribution(&selected, client_distributions)?;
        distances.push(l1_distance(&p_o, &p_u));
        populations.push(p_o);
        tries.push(selected);
    }
    let best_try = distances
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, _)| i)
        .expect("h >= 1");
    let expectation = mean_proportions(&populations);
    Ok(MultiTimeOutcome {
        selected: tries[best_try].clone(),
        best_try,
        best_distance: distances[best_try],
        all_distances: distances,
        expectation_distance: l1_distance(&expectation, &p_u),
    })
}

/// The outcome of one *secure* multi-time selection round: the plaintext
/// decision plus everything that crossed the network encrypted.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SecureMultiTimeOutcome {
    /// The clients of the winning try `h*`.
    pub selected: Vec<ClientId>,
    /// Index of the winning try.
    pub best_try: usize,
    /// `EMD* = ‖p_o,h* − p_u‖₁` as measured by the agent on decrypted sums.
    pub best_distance: f64,
    /// The per-try secure evaluations, in order.
    pub tries: Vec<SecureTryOutcome>,
    /// Total ciphertext bytes across all tries (≈ `H·K` encrypted
    /// distributions, the paper's §6.4 multi-time overhead).
    pub ciphertext_bytes: usize,
}

/// Builds the actors of a session whose epoch keys the caller already
/// holds: the agent and every client get the keypair, the coordinator the
/// public key.
fn keyed_session(
    client_distributions: &[ClassDistribution],
    public_key: &PublicKey,
    private_key: &PrivateKey,
) -> Result<(AgentNode, Vec<SelectClientNode>, ShardedCoordinator), SelectError> {
    let classes = client_distributions
        .first()
        .ok_or(SelectError::NoClients)?
        .classes();
    let agent = AgentNode::from_keypair(
        Keypair {
            public: public_key.clone(),
            private: private_key.clone(),
        },
        classes,
    );
    let mut clients: Vec<SelectClientNode> = client_distributions
        .iter()
        .enumerate()
        .map(|(id, d)| SelectClientNode::without_registration(id, d.clone()))
        .collect();
    for c in &mut clients {
        c.install_keys(public_key.clone(), private_key.clone());
    }
    let server = ShardedCoordinator::with_public_key(public_key.clone(), 0, 1);
    Ok((agent, clients, server))
}

/// Runs `h` tentative selections with the *secure* §5.3.1 exchange through
/// the actor API: each try's tentatively selected clients encrypt their
/// scaled label distributions under the epoch key (fast precomputed-base
/// path), the coordinator folds each try's sum incrementally, and the agent
/// decrypts only the sums and announces `h* = argmin_h ‖p_o,h − p_u‖₁`.
///
/// Functionally equivalent to [`multi_time_select`] (the agent learns the
/// same winning try); the difference is what the server sees — ciphertexts
/// only — and what this costs, which the outcome reports.
///
/// Returns [`SelectError::ZeroTries`] for `h == 0` and
/// [`SelectError::EmptySelection`] if any try selects no clients.
pub fn secure_multi_time_select<S, R>(
    selector: &mut S,
    client_distributions: &[ClassDistribution],
    h: usize,
    public_key: &PublicKey,
    private_key: &PrivateKey,
    rng: &mut R,
) -> Result<SecureMultiTimeOutcome, SelectError>
where
    S: ClientSelector + ?Sized,
    R: Rng,
{
    if h == 0 {
        return Err(SelectError::ZeroTries);
    }
    let (mut agent, mut clients, mut server) =
        keyed_session(client_distributions, public_key, private_key)?;
    agent.expect_tries(h);
    let mut transport = InMemoryTransport::new();

    let mut tries: Vec<Vec<ClientId>> = Vec::with_capacity(h);
    for try_index in 0..h {
        let selected = selector.select(rng);
        run_try(
            try_index,
            &selected,
            &mut agent,
            &mut clients,
            &mut server,
            &mut transport,
            rng,
        )?;
        tries.push(selected);
    }

    let (best_try, best_distance) = agent.verdict().expect("all tries evaluated");
    let outcomes = agent.try_outcomes();
    debug_assert_eq!(server.last_verdict(), Some((best_try, best_distance)));
    Ok(SecureMultiTimeOutcome {
        selected: tries[best_try].clone(),
        best_try,
        best_distance,
        ciphertext_bytes: outcomes.iter().map(|o| o.ciphertext_bytes).sum(),
        tries: outcomes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DubheConfig;
    use crate::dubhe::DubheSelector;
    use crate::selector::RandomSelector;
    use dubhe_data::federated::{DatasetFamily, FederatedSpec};
    use dubhe_he::Keypair;
    use rand::SeedableRng;

    fn clients(n: usize, seed: u64) -> Vec<ClassDistribution> {
        let spec = FederatedSpec {
            family: DatasetFamily::MnistLike,
            rho: 10.0,
            emd_avg: 1.5,
            clients: n,
            samples_per_client: 100,
            test_samples_per_class: 1,
            seed,
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        spec.build_partition(&mut rng).client_distributions()
    }

    #[test]
    fn best_try_minimises_the_distance() {
        let dists = clients(300, 1);
        let mut sel = RandomSelector::new(300, 20);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let outcome = multi_time_select(&mut sel, &dists, 10, &mut rng).unwrap();
        assert_eq!(outcome.all_distances.len(), 10);
        assert_eq!(outcome.selected.len(), 20);
        let min = outcome
            .all_distances
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        assert!((outcome.best_distance - min).abs() < 1e-12);
        assert!((outcome.all_distances[outcome.best_try] - min).abs() < 1e-12);
    }

    #[test]
    fn single_try_is_equivalent_to_one_off_selection() {
        let dists = clients(100, 3);
        let mut sel = RandomSelector::new(100, 20);
        let outcome = multi_time_select(
            &mut sel,
            &dists,
            1,
            &mut rand::rngs::StdRng::seed_from_u64(4),
        )
        .unwrap();
        let mut sel2 = RandomSelector::new(100, 20);
        let direct = {
            let mut rng = rand::rngs::StdRng::seed_from_u64(4);
            let sel_dyn: &mut dyn crate::selector::ClientSelector = &mut sel2;
            sel_dyn.select(&mut rng)
        };
        assert_eq!(outcome.selected, direct);
        assert_eq!(outcome.best_try, 0);
    }

    #[test]
    fn more_tries_never_hurt_on_average() {
        // Table 2: EMD* decreases as H grows. Check the trend statistically.
        let dists = clients(500, 5);
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let average_best = |h: usize, rng: &mut rand::rngs::StdRng| -> f64 {
            let mut total = 0.0;
            for _ in 0..15 {
                let mut sel = DubheSelector::new(&dists, DubheConfig::group1());
                total += multi_time_select(&mut sel, &dists, h, rng)
                    .unwrap()
                    .best_distance;
            }
            total / 15.0
        };
        let h1 = average_best(1, &mut rng);
        let h10 = average_best(10, &mut rng);
        assert!(
            h10 < h1,
            "H=10 ({h10:.4}) should achieve lower EMD* than H=1 ({h1:.4}) on average"
        );
    }

    #[test]
    fn expectation_distance_is_reported() {
        let dists = clients(200, 7);
        let mut sel = DubheSelector::new(&dists, DubheConfig::group1());
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let outcome = multi_time_select(&mut sel, &dists, 5, &mut rng).unwrap();
        assert!(outcome.expectation_distance >= 0.0 && outcome.expectation_distance <= 2.0);
        // The expectation over tries is at least as balanced as the average try.
        let mean_try: f64 =
            outcome.all_distances.iter().sum::<f64>() / outcome.all_distances.len() as f64;
        assert!(outcome.expectation_distance <= mean_try + 1e-9);
    }

    #[test]
    fn secure_multi_time_picks_the_argmin_try_over_decrypted_sums() {
        let dists = clients(80, 11);
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let (pk, sk) = Keypair::generate(256, &mut rng).split();

        let mut sel = DubheSelector::new(&dists, DubheConfig::group1());
        let secure = secure_multi_time_select(&mut sel, &dists, 5, &pk, &sk, &mut rng).unwrap();

        assert_eq!(secure.tries.len(), 5);
        let min = secure
            .tries
            .iter()
            .map(|t| t.distance_to_uniform)
            .fold(f64::INFINITY, f64::min);
        assert!((secure.best_distance - min).abs() < 1e-12);
        assert!(
            (secure.tries[secure.best_try].distance_to_uniform - min).abs() < 1e-12,
            "best_try must index the minimising try"
        );
        // Every try's decrypted population is a probability distribution.
        for t in &secure.tries {
            assert!((t.population.iter().sum::<f64>() - 1.0).abs() < 1e-4);
        }
        assert!(secure.ciphertext_bytes > 0);
        let per_try_messages: usize = secure.tries.iter().map(|t| t.messages).sum();
        assert_eq!(per_try_messages, 5 * 20, "H tries x K clients");
        assert_eq!(secure.selected.len(), 20);
    }

    #[test]
    fn zero_tries_is_an_error() {
        let dists = clients(50, 9);
        let mut sel = RandomSelector::new(50, 10);
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        assert_eq!(
            multi_time_select(&mut sel, &dists, 0, &mut rng).unwrap_err(),
            SelectError::ZeroTries
        );
    }
}
