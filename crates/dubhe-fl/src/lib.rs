//! # dubhe-fl — the federated-learning simulator
//!
//! A deterministic, in-process FL substrate that reproduces the training side
//! of the Dubhe paper's evaluation: FedVC virtual clients with uniform
//! aggregation (Eq. 1), Adam/SGD local training, pluggable client selection,
//! per-round accuracy / population-distribution tracking, communication
//! accounting (§6.4) and weight-divergence instrumentation (§4.2).
//!
//! Selected clients train in parallel with rayon; the round seed is derived per
//! `(round, client)` so parallel and sequential runs produce identical results.
//!
//! The secure selection protocol runs in one of three
//! [`SecureMode`]s — `Modeled` (plaintext decisions,
//! modeled byte accounting), `Encrypted` (the real actor exchange in
//! process), and `EncryptedTcp` (the same exchange over loopback TCP
//! against a sharded coordinator, with measured frame bytes in the ledger).
//! All three produce identical selections, histories and canonical byte
//! totals on the same seed; the equivalence tests pin it.
//!
//! ## Example: Dubhe selection driving a federated run
//!
//! ```
//! use dubhe_data::federated::{DatasetFamily, FederatedSpec};
//! use dubhe_fl::models::small_mlp;
//! use dubhe_fl::{FlSimulation, SimulationConfig};
//! use dubhe_select::{DubheConfig, DubheSelector};
//! use rand::SeedableRng;
//!
//! let spec = FederatedSpec {
//!     family: DatasetFamily::MnistLike,
//!     rho: 10.0,
//!     emd_avg: 1.5,
//!     clients: 40,
//!     samples_per_client: 32,
//!     test_samples_per_class: 10,
//!     seed: 3,
//! };
//! let mut rng = rand::rngs::StdRng::seed_from_u64(3);
//! let data = spec.build_dataset(&mut rng);
//! let selector = Box::new(DubheSelector::new(&data.client_distributions(), DubheConfig::group1()));
//! let model = small_mlp(32, 10, 0);
//! let mut sim = FlSimulation::from_datasets(
//!     data.client_data,
//!     data.test,
//!     model,
//!     selector,
//!     SimulationConfig::quick(2, 7),
//! );
//! let history = sim.run().expect("selector produced valid rounds");
//! assert_eq!(history.len(), 2);
//! ```
//!
//! With [`sim::SecureMode::Encrypted`] in the [`SimulationConfig`], the
//! registration epoch and every multi-time round run through the real
//! actor/transport exchange of `dubhe_select::protocol` — ciphertexts, agent
//! decryptions and a ledger charged from the metered transport.

pub mod aggregate;
pub mod client;
pub mod comm;
pub mod divergence;
pub mod error;
pub mod history;
pub mod models;
pub mod sim;

pub use aggregate::{aggregate, Aggregation};
pub use client::{FlClient, LocalOptimizer, LocalTrainingConfig, LocalUpdate};
pub use comm::{CommLedger, RoundComm};
pub use divergence::{centralized_reference, update_dispersion, weight_distance, DivergenceTrace};
pub use error::FlError;
pub use history::{History, RoundRecord};
pub use sim::{ClientDropout, FlSimulation, SecureMode, SimulationConfig};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::small_mlp;
    use dubhe_data::federated::{DatasetFamily, FederatedSpec};
    use dubhe_select::{DubheConfig, DubheSelector, GreedySelector, RandomSelector};
    use rand::SeedableRng;

    /// A miniature Fig. 6: on a skewed federation, Dubhe's participated data is
    /// strictly more balanced than random selection's, and the balanced
    /// selectors do not lose accuracy.
    #[test]
    fn miniature_fig6_shape() {
        let spec = FederatedSpec {
            family: DatasetFamily::MnistLike,
            rho: 10.0,
            emd_avg: 1.5,
            clients: 60,
            samples_per_client: 32,
            test_samples_per_class: 15,
            seed: 21,
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let data = spec.build_dataset(&mut rng);
        let dists = data.client_distributions();

        let run = |selector: Box<dyn dubhe_select::ClientSelector>| {
            let model = small_mlp(32, 10, 9);
            let mut config = SimulationConfig::quick(6, 33);
            config.local.optimizer = LocalOptimizer::Sgd { lr: 0.1 };
            let mut sim = FlSimulation::from_datasets(
                data.client_data.clone(),
                data.test.clone(),
                model,
                selector,
                config,
            );
            let history = sim.run().unwrap();
            (
                history.final_accuracy().unwrap(),
                history.mean_unbiasedness(),
            )
        };

        let (random_acc, random_unb) = run(Box::new(RandomSelector::new(60, 20)));
        let (dubhe_acc, dubhe_unb) =
            run(Box::new(DubheSelector::new(&dists, DubheConfig::group1())));
        let (greedy_acc, greedy_unb) = run(Box::new(GreedySelector::new(&dists, 20)));

        assert!(
            dubhe_unb < random_unb,
            "Dubhe ({dubhe_unb:.3}) vs random ({random_unb:.3})"
        );
        assert!(greedy_unb <= dubhe_unb + 0.05);
        // Accuracy ordering is noisy at this scale; only require that the
        // balanced selectors are not substantially worse than random.
        assert!(
            dubhe_acc > random_acc - 0.1,
            "dubhe {dubhe_acc} vs random {random_acc}"
        );
        assert!(greedy_acc > random_acc - 0.1);
    }
}
