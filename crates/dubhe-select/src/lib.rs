//! # dubhe-select — the Dubhe client-selection system
//!
//! This crate implements the contribution of *"Dubhe: Towards Data
//! Unbiasedness with Homomorphic Encryption in Federated Learning Client
//! Selection"* (ICPP '21): a pluggable, privacy-preserving client-selection
//! method that closes the gap between the per-round *population distribution*
//! `p_o` (the label distribution of the data that actually trains) and the
//! uniform distribution `p_u`, which §4.2 of the paper shows bounds the weight
//! divergence of FedAvg under skewed data.
//!
//! The pieces, in protocol order:
//!
//! * [`codebook`] — the registry layout: a bijection between sets of
//!   dominating classes and one-hot positions, `l = Σ_{i∈G} C-choose-i`.
//! * [`registry`] — Algorithm 1: each client maps its label distribution to a
//!   category and a one-hot registry vector.
//! * [`protocol`] — the role-separated protocol: typed wire messages, the
//!   agent/client/server actors, and the metered transport they exchange
//!   over, and one driver per exchange. What the server can see is a
//!   property of its type.
//! * [`probability`] — Eq. (6)–(8): clients compute their own participation
//!   probability from the decrypted overall registry.
//! * [`selector`] / [`greedy`] / [`dubhe`] — the three selection policies the
//!   paper compares (Random baseline, Greedy "optimal" bound, Dubhe).
//! * [`multi_time`] — §5.3 H-time tentative selection and the `EMD*` metric of
//!   Table 2.
//! * [`param_search`] — §5.3.2 grid search for the registration thresholds σᵢ.
//!
//! ## Example: selecting a balanced round on skewed data
//!
//! ```
//! use dubhe_data::federated::{DatasetFamily, FederatedSpec};
//! use dubhe_select::{DubheConfig, DubheSelector};
//! use dubhe_select::selector::{population_unbiasedness, ClientSelector, RandomSelector};
//! use rand::SeedableRng;
//!
//! // A small skewed federation: 200 clients, global imbalance 10x, high EMD.
//! let spec = FederatedSpec {
//!     family: DatasetFamily::MnistLike,
//!     rho: 10.0,
//!     emd_avg: 1.5,
//!     clients: 200,
//!     samples_per_client: 100,
//!     test_samples_per_class: 1,
//!     seed: 7,
//! };
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let clients = spec.build_partition(&mut rng).client_distributions();
//!
//! let mut dubhe = DubheSelector::new(&clients, DubheConfig::group1());
//! let mut random = RandomSelector::new(clients.len(), 20);
//! let dubhe_gap = population_unbiasedness(&dubhe.select(&mut rng), &clients).unwrap();
//! let random_gap = population_unbiasedness(&random.select(&mut rng), &clients).unwrap();
//! // Dubhe's participated data is much closer to uniform.
//! assert!(dubhe_gap < random_gap);
//! ```
//!
//! ## Example: a sharded coordinator
//!
//! The drivers are generic over the [`Coordinator`] slot. A
//! [`ShardedCoordinator`] partitions registry positions across N
//! rayon-parallel folds and merges a total that is bit-identical at every
//! shard count (one shard is the in-process default):
//!
//! ```
//! use dubhe_data::federated::{DatasetFamily, FederatedSpec};
//! use dubhe_select::protocol::{run_registration, InMemoryTransport, ShardedCoordinator};
//! use dubhe_select::DubheConfig;
//! use rand::SeedableRng;
//!
//! let spec = FederatedSpec {
//!     family: DatasetFamily::MnistLike,
//!     rho: 10.0,
//!     emd_avg: 1.5,
//!     clients: 24,
//!     samples_per_client: 50,
//!     test_samples_per_class: 1,
//!     seed: 5,
//! };
//! let mut rng = rand::rngs::StdRng::seed_from_u64(5);
//! let dists = spec.build_partition(&mut rng).client_distributions();
//!
//! let mut transport = InMemoryTransport::new();
//! let run = run_registration(
//!     &dists,
//!     &DubheConfig::group1(),
//!     dubhe_he::TEST_KEY_BITS,
//!     None, // element-wise registries, no slot packing
//!     ShardedCoordinator::new(24, 4), // registry positions split across 4 folds
//!     &mut transport,
//!     &mut rng,
//! )
//! .unwrap();
//! // 24 clients registered; the shards' merged total decrypts to their sum.
//! assert_eq!(run.overall_registry().unwrap().iter().sum::<u64>(), 24);
//! ```
//!
//! ## Example: the identical exchange over loopback TCP
//!
//! [`TcpTransport`] connects the same driver slot to `dubhe-net`'s
//! `ReactorListener` across real sockets — length-prefixed frames, an
//! event-loop listener, typed errors on every failure mode:
//!
//! ```
//! use dubhe_data::federated::{DatasetFamily, FederatedSpec};
//! use dubhe_net::ReactorListener;
//! use dubhe_select::protocol::{
//!     run_registration, InMemoryTransport, ShardedCoordinator, TcpTransport,
//! };
//! use dubhe_select::DubheConfig;
//! use rand::SeedableRng;
//!
//! let spec = FederatedSpec {
//!     family: DatasetFamily::MnistLike,
//!     rho: 10.0,
//!     emd_avg: 1.5,
//!     clients: 24,
//!     samples_per_client: 50,
//!     test_samples_per_class: 1,
//!     seed: 5,
//! };
//! let mut rng = rand::rngs::StdRng::seed_from_u64(5);
//! let dists = spec.build_partition(&mut rng).client_distributions();
//!
//! // Server side: a sharded coordinator behind an ephemeral loopback port.
//! let listener = ReactorListener::spawn(ShardedCoordinator::new(24, 4)).unwrap();
//! // Client side: the connector fills the same coordinator slot.
//! let endpoint = TcpTransport::connect(listener.addr()).unwrap();
//!
//! let mut transport = InMemoryTransport::new();
//! let run = run_registration(
//!     &dists,
//!     &DubheConfig::group1(),
//!     dubhe_he::TEST_KEY_BITS,
//!     None,
//!     endpoint,
//!     &mut transport,
//!     &mut rng,
//! )
//! .unwrap();
//! assert_eq!(run.overall_registry().unwrap().iter().sum::<u64>(), 24);
//! // Real frames crossed the socket.
//! assert!(run.server.wire_stats().total_bytes() > 0);
//! run.server.shutdown().unwrap();
//! ```

pub mod codebook;
pub mod config;
pub mod dubhe;
pub mod error;
pub mod greedy;
pub mod multi_time;
pub mod param_search;
pub mod probability;
pub mod protocol;
pub mod registry;
pub mod selector;

pub use codebook::{binomial, Category, RegistryLayout};
pub use config::DubheConfig;
pub use dubhe::DubheSelector;
pub use error::{ProtocolError, SelectError};
pub use greedy::GreedySelector;
pub use multi_time::{
    multi_time_select, secure_multi_time_select, MultiTimeOutcome, SecureMultiTimeOutcome,
};
pub use param_search::{parameter_search, SearchGrid, SearchOutcome};
pub use probability::participation_probability;
pub use protocol::{
    AgentNode, Coordinator, InMemoryTransport, Party, ProtocolMsg, SecureTryOutcome,
    SelectClientNode, ShardedCoordinator, TcpTransport, Transport, TransportStats,
};
pub use registry::{register, register_all, register_all_encrypted, Registration};
pub use selector::{
    population_distribution, population_unbiasedness, selection_stats, ClientId, ClientSelector,
    RandomSelector, SelectionStats,
};

#[cfg(test)]
mod tests {
    use super::*;
    use dubhe_data::federated::{DatasetFamily, FederatedSpec};
    use rand::SeedableRng;

    /// The headline comparison of the paper, in miniature: on skewed data the
    /// ordering of data unbiasedness is Greedy <= Dubhe < Random.
    #[test]
    fn selector_ordering_matches_the_paper() {
        let spec = FederatedSpec {
            family: DatasetFamily::MnistLike,
            rho: 10.0,
            emd_avg: 1.5,
            clients: 500,
            samples_per_client: 100,
            test_samples_per_class: 1,
            seed: 123,
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(123);
        let clients = spec.build_partition(&mut rng).client_distributions();

        let reps = 20;
        let mut random = RandomSelector::new(clients.len(), 20);
        let mut dubhe = DubheSelector::new(&clients, DubheConfig::group1());
        let mut greedy = GreedySelector::new(&clients, 20);

        let random_stats = selection_stats(&mut random, &clients, reps, &mut rng).unwrap();
        let dubhe_stats = selection_stats(&mut dubhe, &clients, reps, &mut rng).unwrap();
        let greedy_stats = selection_stats(&mut greedy, &clients, reps, &mut rng).unwrap();

        assert!(
            greedy_stats.mean <= dubhe_stats.mean + 0.05,
            "greedy ({:.3}) should be at least as balanced as Dubhe ({:.3})",
            greedy_stats.mean,
            dubhe_stats.mean
        );
        assert!(
            dubhe_stats.mean < random_stats.mean,
            "Dubhe ({:.3}) should beat random ({:.3})",
            dubhe_stats.mean,
            random_stats.mean
        );
    }
}
