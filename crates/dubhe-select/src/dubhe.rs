//! The Dubhe selector: registration + self-computed participation probability +
//! replenish/trim to exactly `K` participants.
//!
//! The plaintext fast path in this module models the *decisions* each party
//! takes; the [`crate::protocol`] drivers run the identical decisions through
//! Paillier ciphertexts, and the server's type only ever holds encrypted
//! data. Keeping the two separated lets the large-scale experiments (1000–8962
//! clients, hundreds of repetitions) run at full speed while the secure path is
//! exercised end-to-end in its own tests and in the overhead study.

use dubhe_data::ClassDistribution;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::codebook::RegistryLayout;
use crate::config::DubheConfig;
use crate::probability::participation_probability;
use crate::registry::{register_all, Registration};
use crate::selector::{ClientId, ClientSelector};

/// The Dubhe client-selection system (plaintext decision model).
#[derive(Debug, Clone)]
pub struct DubheSelector {
    config: DubheConfig,
    layout: RegistryLayout,
    registrations: Vec<Registration>,
    overall_registry: Vec<u64>,
    population: usize,
}

impl DubheSelector {
    /// Builds the selector by running a registration epoch over every client's
    /// label distribution.
    pub fn new(client_distributions: &[ClassDistribution], config: DubheConfig) -> Self {
        assert!(!client_distributions.is_empty(), "need at least one client");
        assert!(
            config.k <= client_distributions.len(),
            "K = {} exceeds the client population {}",
            config.k,
            client_distributions.len()
        );
        let layout = config.validate();
        let thresholds = config.effective_thresholds();
        let (registrations, overall_registry) =
            register_all(client_distributions, &layout, &thresholds);
        DubheSelector {
            config,
            layout,
            registrations,
            overall_registry,
            population: client_distributions.len(),
        }
    }

    /// The overall registry `R_A` (what every client decrypts).
    pub fn overall_registry(&self) -> &[u64] {
        &self.overall_registry
    }

    /// The registry layout in use.
    pub fn layout(&self) -> &RegistryLayout {
        &self.layout
    }

    /// The per-client registrations.
    pub fn registrations(&self) -> &[Registration] {
        &self.registrations
    }

    /// The participation probability of one client (Eq. 6).
    pub fn client_probability(&self, client: ClientId) -> f64 {
        participation_probability(
            &self.overall_registry,
            self.registrations[client].position,
            self.config.k,
        )
    }

    /// Re-runs registration with new thresholds (used by the parameter search,
    /// which redistributes the registry form and codebook to all clients).
    pub fn reregister(&mut self, client_distributions: &[ClassDistribution], thresholds: Vec<f64>) {
        self.config = self.config.with_thresholds(thresholds);
        let thresholds = self.config.effective_thresholds();
        let (registrations, overall) =
            register_all(client_distributions, &self.layout, &thresholds);
        self.registrations = registrations;
        self.overall_registry = overall;
    }

    /// One *proactive participation* pass: every client flips its own coin with
    /// its own probability. The result may have any size; Dubhe then fixes it
    /// up to exactly `K` (replenish or trim uniformly, §5.2).
    pub fn proactive_participation<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<ClientId> {
        (0..self.population)
            .filter(|&id| rng.gen::<f64>() < self.client_probability(id))
            .collect()
    }

    /// Adjusts a participation set to exactly `K` clients: uniformly add
    /// non-participating clients if too few volunteered, uniformly drop
    /// participants if too many did.
    pub fn adjust_to_k<R: Rng + ?Sized>(
        &self,
        mut selected: Vec<ClientId>,
        rng: &mut R,
    ) -> Vec<ClientId> {
        let k = self.config.k;
        if selected.len() > k {
            selected.shuffle(rng);
            selected.truncate(k);
        } else if selected.len() < k {
            let chosen: std::collections::HashSet<ClientId> = selected.iter().copied().collect();
            let mut others: Vec<ClientId> = (0..self.population)
                .filter(|id| !chosen.contains(id))
                .collect();
            others.shuffle(rng);
            selected.extend(others.into_iter().take(k - selected.len()));
        }
        selected.sort_unstable();
        selected
    }

    /// The configuration in use.
    pub fn config(&self) -> &DubheConfig {
        &self.config
    }
}

impl ClientSelector for DubheSelector {
    fn select(&mut self, rng: &mut dyn rand::RngCore) -> Vec<ClientId> {
        let volunteers = self.proactive_participation(rng);
        self.adjust_to_k(volunteers, rng)
    }

    fn name(&self) -> &'static str {
        "Dubhe"
    }

    fn population(&self) -> usize {
        self.population
    }

    fn target_participants(&self) -> usize {
        self.config.k
    }

    fn registry_len(&self) -> Option<usize> {
        Some(self.layout.len())
    }

    fn secure_config(&self) -> Option<&DubheConfig> {
        Some(&self.config)
    }

    fn overall_registry(&self) -> Option<&[u64]> {
        Some(&self.overall_registry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selector::{population_unbiasedness, RandomSelector};
    use dubhe_data::federated::{DatasetFamily, FederatedSpec};
    use rand::SeedableRng;

    fn skewed_clients(n: usize, seed: u64) -> Vec<ClassDistribution> {
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
    fn selection_returns_exactly_k_distinct_clients() {
        let dists = skewed_clients(300, 1);
        let mut sel = DubheSelector::new(&dists, DubheConfig::group1());
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        for _ in 0..5 {
            let s = sel.select(&mut rng);
            assert_eq!(s.len(), 20);
            assert!(s.windows(2).all(|w| w[0] < w[1]), "distinct and sorted");
            assert!(s.iter().all(|&id| id < 300));
        }
        assert_eq!(sel.name(), "Dubhe");
    }

    #[test]
    fn expected_volunteers_close_to_k() {
        let dists = skewed_clients(1000, 3);
        let sel = DubheSelector::new(&dists, DubheConfig::group1());
        let expected: f64 = (0..1000).map(|id| sel.client_probability(id)).sum();
        // Eq. (7): the expectation equals K when no probability saturates.
        assert!(
            (expected - 20.0).abs() < 1.0,
            "expected volunteers {expected}"
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mean_volunteers: f64 = (0..50)
            .map(|_| sel.proactive_participation(&mut rng).len() as f64)
            .sum::<f64>()
            / 50.0;
        assert!(
            (mean_volunteers - 20.0).abs() < 4.0,
            "observed volunteers {mean_volunteers}"
        );
    }

    #[test]
    fn dubhe_is_more_balanced_than_random() {
        let dists = skewed_clients(1000, 5);
        let mut dubhe = DubheSelector::new(&dists, DubheConfig::group1());
        let mut random = RandomSelector::new(1000, 20);
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let reps = 30;
        let mut dubhe_sum = 0.0;
        let mut random_sum = 0.0;
        for _ in 0..reps {
            dubhe_sum += population_unbiasedness(&dubhe.select(&mut rng), &dists).unwrap();
            random_sum += population_unbiasedness(&random.select(&mut rng), &dists).unwrap();
        }
        // §6.3.1: Dubhe reduces ‖p_o − p_u‖₁ vs random at rho = 10, EMD = 1.5
        // (the paper reports up to 64.4% with H-time selection; the single-shot
        // selector tested here achieves a smaller but still clear reduction).
        assert!(
            dubhe_sum < random_sum * 0.85,
            "Dubhe ({dubhe_sum:.3}) should clearly beat random ({random_sum:.3})"
        );
    }

    #[test]
    fn probabilities_equalise_categories() {
        let dists = skewed_clients(1000, 7);
        let sel = DubheSelector::new(&dists, DubheConfig::group1());
        // Every client in the same category has the same probability.
        let mut by_position: std::collections::HashMap<usize, Vec<f64>> = Default::default();
        for (id, reg) in sel.registrations().iter().enumerate() {
            by_position
                .entry(reg.position)
                .or_default()
                .push(sel.client_probability(id));
        }
        for (pos, probs) in by_position {
            let first = probs[0];
            assert!(
                probs.iter().all(|&p| (p - first).abs() < 1e-12),
                "category at {pos} has inconsistent probabilities"
            );
        }
    }

    #[test]
    fn adjust_to_k_replenishes_and_trims() {
        let dists = skewed_clients(100, 8);
        let sel = DubheSelector::new(&dists, DubheConfig::group1());
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        // Too few volunteers.
        let adjusted = sel.adjust_to_k(vec![1, 2, 3], &mut rng);
        assert_eq!(adjusted.len(), 20);
        assert!([1, 2, 3].iter().all(|id| adjusted.contains(id)));
        // Too many volunteers.
        let many: Vec<ClientId> = (0..60).collect();
        let adjusted = sel.adjust_to_k(many, &mut rng);
        assert_eq!(adjusted.len(), 20);
        // Exactly K is left untouched (up to ordering).
        let exact: Vec<ClientId> = (10..30).collect();
        assert_eq!(sel.adjust_to_k(exact.clone(), &mut rng), exact);
    }

    #[test]
    fn reregister_changes_thresholds_and_registry() {
        let dists = skewed_clients(200, 10);
        let mut sel = DubheSelector::new(&dists, DubheConfig::group1());
        let before = sel.overall_registry().to_vec();
        // Absurdly strict sigma_1 pushes everyone out of the single-class block.
        sel.reregister(&dists, vec![1.0, 1.0, 0.0]);
        let after = sel.overall_registry().to_vec();
        assert_ne!(before, after);
        // With sigma = 1.0 nobody can have a dominating class unless it is 100%.
        let singles_after: u64 = after[..10].iter().sum();
        let singles_before: u64 = before[..10].iter().sum();
        assert!(singles_after <= singles_before);
    }

    #[test]
    #[should_panic(expected = "exceeds the client population")]
    fn k_larger_than_population_panics() {
        let dists = skewed_clients(10, 11);
        let _ = DubheSelector::new(&dists, DubheConfig::group1());
    }
}
