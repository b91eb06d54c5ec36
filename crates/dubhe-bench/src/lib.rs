//! # dubhe-bench — the experiment harness
//!
//! One binary per table / figure of the paper's evaluation section, plus
//! `load_gen`, the 10³–10⁴-connection smoke of the listener. Timed numbers
//! come from the detached `benchmark/` crate at the repo root — its
//! per-layer ladder and its four end-to-end workloads — not from here.
//!
//! Every binary:
//!
//! * runs at a laptop-scale default (finishes in seconds to a couple of
//!   minutes) and accepts `--full` for the paper-scale configuration;
//! * prints the same rows/series the paper reports, so the *shape* of the
//!   result (who wins, by roughly how much, where crossovers fall) can be
//!   compared directly with the original figures;
//! * is deterministic for a fixed `--seed`.
//!
//! The experiment index, with its paper anchor, lives in each binary's
//! module docs (see `docs/ARCHITECTURE.md` at the repo root).
//!
//! ## Example: building a comparable federation for any method
//!
//! ```
//! use dubhe_bench::{dubhe_config_for, scaled_spec, Method};
//! use dubhe_data::federated::DatasetFamily;
//! use dubhe_select::ClientSelector;
//! use rand::SeedableRng;
//!
//! // The laptop-scale MNIST-like spec every binary shares (quick mode).
//! let spec = scaled_spec(DatasetFamily::MnistLike, 10.0, 1.5, false, 42);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//! let dists = spec.build_partition(&mut rng).client_distributions();
//!
//! // Each paper method yields a ready selector over the same population.
//! let config = dubhe_config_for(DatasetFamily::MnistLike);
//! for method in Method::all() {
//!     let mut selector = method.build(&dists, &config);
//!     assert!(!selector.select(&mut rng).is_empty(), "{}", method.name());
//! }
//! ```

use dubhe_data::federated::{DatasetFamily, FederatedSpec};
use dubhe_data::ClassDistribution;
use dubhe_fl::models::small_mlp;
use dubhe_fl::{FlSimulation, History, LocalOptimizer, SimulationConfig};
use dubhe_select::{ClientSelector, DubheConfig, DubheSelector, GreedySelector, RandomSelector};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

/// Simple command-line options shared by all experiment binaries.
#[derive(Debug, Clone)]
pub struct ExperimentArgs {
    /// Run at paper scale instead of the quick laptop scale.
    pub full: bool,
    /// Master seed.
    pub seed: u64,
    /// Optional free-form part selector (e.g. `--part a`).
    pub part: Option<String>,
}

impl ExperimentArgs {
    /// Parses `--full`, `--seed <n>` and `--part <x>` from `std::env::args`.
    pub fn parse() -> Self {
        let args: Vec<String> = std::env::args().collect();
        let full = args.iter().any(|a| a == "--full");
        let seed = value_after(&args, "--seed")
            .and_then(|v| v.parse().ok())
            .unwrap_or(42);
        let part = value_after(&args, "--part");
        ExperimentArgs { full, seed, part }
    }
}

fn value_after(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// The three selection methods compared throughout the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Method {
    /// Uniform random selection (baseline).
    Random,
    /// Dubhe (the paper's contribution).
    Dubhe,
    /// Greedy KL minimisation (the non-private "optimal" bound).
    Greedy,
}

impl Method {
    /// All three methods in the order the paper lists them.
    pub fn all() -> [Method; 3] {
        [Method::Random, Method::Dubhe, Method::Greedy]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Method::Random => "Random",
            Method::Dubhe => "Dubhe",
            Method::Greedy => "Greedy",
        }
    }

    /// Builds the selector for a given client population.
    pub fn build(
        &self,
        distributions: &[ClassDistribution],
        config: &DubheConfig,
    ) -> Box<dyn ClientSelector> {
        match self {
            Method::Random => Box::new(RandomSelector::new(distributions.len(), config.k)),
            Method::Dubhe => Box::new(DubheSelector::new(distributions, config.clone())),
            Method::Greedy => Box::new(GreedySelector::new(distributions, config.k)),
        }
    }
}

/// A federation specification scaled for the harness: the paper-scale client
/// count when `full`, a reduced one otherwise.
pub fn scaled_spec(
    family: DatasetFamily,
    rho: f64,
    emd: f64,
    full: bool,
    seed: u64,
) -> FederatedSpec {
    let (clients, samples_per_client, test_per_class) = match (family, full) {
        (DatasetFamily::FemnistLike, true) => (8962, 32, 20),
        (DatasetFamily::FemnistLike, false) => (600, 32, 10),
        (_, true) => (1000, 128, 50),
        (_, false) => (200, 48, 25),
    };
    FederatedSpec {
        family,
        rho,
        emd_avg: emd,
        clients,
        samples_per_client,
        test_samples_per_class: test_per_class,
        seed,
    }
}

/// The Dubhe configuration matching a dataset family (group 1 vs group 2).
pub fn dubhe_config_for(family: DatasetFamily) -> DubheConfig {
    match family {
        DatasetFamily::FemnistLike => DubheConfig::group2(),
        _ => DubheConfig::group1(),
    }
}

/// Runs one federated training session with the given selection method.
pub fn run_training(
    spec: &FederatedSpec,
    method: Method,
    rounds: usize,
    eval_every: usize,
    multi_time_h: usize,
    seed: u64,
) -> History {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let data = spec.build_dataset(&mut rng);
    let dists = data.client_distributions();
    let config = dubhe_config_for(spec.family);
    let selector = method.build(&dists, &config);
    let model = small_mlp(data.test.feature_dim(), spec.classes(), seed);
    let mut sim_config = SimulationConfig::quick(rounds, seed);
    sim_config.eval_every = eval_every;
    sim_config.multi_time_h = multi_time_h;
    sim_config.local.optimizer = LocalOptimizer::Sgd { lr: 0.08 };
    let mut sim =
        FlSimulation::from_datasets(data.client_data, data.test, model, selector, sim_config);
    sim.run()
        .expect("experiment selectors always produce valid participant sets")
}

/// Prints a named series as `name: v0 v1 v2 ...` with three decimals, the
/// format used for every "curve" in the harness output.
pub fn print_series(name: &str, values: &[f64]) {
    let joined: Vec<String> = values.iter().map(|v| format!("{v:.3}")).collect();
    println!("{name:<22} {}", joined.join(" "));
}

/// Writes any serialisable result object as JSON next to the binary output so
/// EXPERIMENTS.md can reference machine-readable results.
pub fn dump_json<T: Serialize>(experiment: &str, value: &T) {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{experiment}.json"));
    if let Ok(json) = serde_json::to_string_pretty(value) {
        let _ = std::fs::write(&path, json);
        println!("(results written to {})", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_builders_produce_the_right_selector() {
        let dists: Vec<ClassDistribution> = (0..30)
            .map(|i| {
                let mut c = vec![1u64; 10];
                c[i % 10] = 50;
                ClassDistribution::from_counts(c)
            })
            .collect();
        let config = DubheConfig::group1();
        for method in Method::all() {
            let selector = method.build(&dists, &config);
            assert_eq!(selector.name(), method.name());
            assert_eq!(selector.population(), 30);
            assert_eq!(selector.target_participants(), 20);
        }
    }

    #[test]
    fn scaled_specs_match_paper_populations_when_full() {
        let g1 = scaled_spec(DatasetFamily::MnistLike, 10.0, 1.5, true, 1);
        assert_eq!(g1.clients, 1000);
        let g2 = scaled_spec(DatasetFamily::FemnistLike, 13.64, 0.554, true, 1);
        assert_eq!(g2.clients, 8962);
        let quick = scaled_spec(DatasetFamily::CifarLike, 10.0, 1.5, false, 1);
        assert!(quick.clients < 1000);
    }

    #[test]
    fn dubhe_config_selection_follows_group() {
        assert_eq!(dubhe_config_for(DatasetFamily::MnistLike).classes, 10);
        assert_eq!(dubhe_config_for(DatasetFamily::FemnistLike).classes, 52);
    }

    #[test]
    fn a_tiny_training_run_completes() {
        let spec = FederatedSpec {
            family: DatasetFamily::MnistLike,
            rho: 2.0,
            emd_avg: 0.5,
            clients: 20,
            samples_per_client: 24,
            test_samples_per_class: 5,
            seed: 3,
        };
        let history = run_training(&spec, Method::Dubhe, 3, 1, 1, 7);
        assert_eq!(history.len(), 3);
        assert!(history.final_accuracy().is_some());
    }
}
