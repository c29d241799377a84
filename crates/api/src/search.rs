//! [`SearchJob`]: portfolio schedule search as a typed session job.

use crate::spec::ExperimentSpec;
use prophunt_search::{SearchParams, SearchResult, StrategyKind};
use std::time::Duration;

/// A strategy-portfolio search job: race N seeded [`StrategyKind`] instances
/// over the spec's code and starting schedule in synchronized rounds, sharing
/// the incumbent deterministically (see [`prophunt_search::Portfolio`]).
///
/// The spec contributes the code, the starting schedule, the noise model the
/// MaxSAT-descent arm analyses, and the syndrome-measurement round count; the
/// job contributes the portfolio shape (strategy mix, size, rounds) and the
/// per-round effort knobs.
#[derive(Debug, Clone)]
pub struct SearchJob {
    /// The experiment whose schedule is searched.
    pub spec: ExperimentSpec,
    /// The strategy mix; instance slot `i` runs `strategies[i % len]`.
    pub strategies: Vec<StrategyKind>,
    /// Number of strategy instances raced in parallel.
    pub portfolio_size: usize,
    /// Number of synchronized portfolio rounds.
    pub rounds: usize,
    /// Mutation proposals per instance per round (local-search arms).
    pub proposals_per_round: usize,
    /// Subgraph-expansion samples per MaxSAT-descent iteration.
    pub samples_per_iteration: usize,
    /// Budget per minimum-weight solve, enforced as a deterministic cap on the
    /// column subsets the exact solver enumerates (converted at
    /// `prophunt::minweight::SUBSETS_PER_BUDGET_SECOND`).
    pub maxsat_budget: Duration,
    /// Seed override; `None` uses the session runtime's seed.
    pub seed: Option<u64>,
    /// Label used in events (default: the code name).
    pub label: Option<String>,
}

impl SearchJob {
    /// Creates a job with the quick-profile defaults: the full built-in
    /// strategy mix, one instance per strategy, 8 rounds, and the per-round
    /// effort of [`SearchParams::default`] (24 proposals per round, 20 MaxSAT
    /// samples per iteration).
    pub fn new(spec: ExperimentSpec) -> SearchJob {
        let params = SearchParams::default();
        SearchJob {
            spec,
            strategies: StrategyKind::ALL.to_vec(),
            portfolio_size: StrategyKind::ALL.len(),
            rounds: 8,
            proposals_per_round: params.proposals_per_round,
            samples_per_iteration: params.samples_per_iteration,
            maxsat_budget: params.maxsat_budget,
            seed: None,
            label: None,
        }
    }

    /// Sets the strategy mix; also grows the portfolio to at least one
    /// instance per listed strategy.
    pub fn with_strategies(mut self, strategies: Vec<StrategyKind>) -> SearchJob {
        self.portfolio_size = self.portfolio_size.max(strategies.len());
        self.strategies = strategies;
        self
    }

    /// Sets the number of parallel strategy instances.
    pub fn with_portfolio_size(mut self, portfolio_size: usize) -> SearchJob {
        self.portfolio_size = portfolio_size;
        self
    }

    /// Sets the number of synchronized rounds.
    pub fn with_rounds(mut self, rounds: usize) -> SearchJob {
        self.rounds = rounds;
        self
    }

    /// Sets the per-instance, per-round mutation-proposal budget.
    pub fn with_proposals(mut self, proposals_per_round: usize) -> SearchJob {
        self.proposals_per_round = proposals_per_round;
        self
    }

    /// Sets the MaxSAT-descent per-iteration sample count.
    pub fn with_samples(mut self, samples: usize) -> SearchJob {
        self.samples_per_iteration = samples;
        self
    }

    /// Overrides the seed (default: the session runtime's seed).
    pub fn with_seed(mut self, seed: u64) -> SearchJob {
        self.seed = Some(seed);
        self
    }

    /// Sets the event label.
    pub fn with_label(mut self, label: impl Into<String>) -> SearchJob {
        self.label = Some(label.into());
        self
    }

    /// The effective label.
    pub fn label(&self) -> &str {
        self.label
            .as_deref()
            .unwrap_or_else(|| self.spec.code().name())
    }
}

/// The result of a [`SearchJob`].
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The portfolio's full result: final incumbent with provenance plus every
    /// per-round record.
    pub result: SearchResult,
    /// Why the job stopped.
    pub stop: crate::job::StopReason,
    /// The seed the run was computed with (reproduces the result with
    /// [`SearchOutcome::chunk_size`] at any thread count).
    pub seed: u64,
    /// The deterministic chunk size.
    pub chunk_size: usize,
    /// Wall-clock duration of the job.
    pub wall: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d3_spec() -> ExperimentSpec {
        ExperimentSpec::builder()
            .code_family("surface:3")
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn defaults_cover_the_full_strategy_mix() {
        let job = SearchJob::new(d3_spec());
        assert_eq!(job.strategies, StrategyKind::ALL.to_vec());
        assert_eq!(job.portfolio_size, 4);
        assert_eq!(job.label(), "surface_d3");
    }

    #[test]
    fn with_strategies_grows_the_portfolio_to_fit() {
        let job = SearchJob::new(d3_spec())
            .with_portfolio_size(2)
            .with_strategies(vec![
                StrategyKind::Annealing,
                StrategyKind::Beam,
                StrategyKind::HillClimb,
            ]);
        assert_eq!(job.portfolio_size, 3, "portfolio must fit the mix");
        let job = job.with_portfolio_size(6).with_label("probe");
        assert_eq!(job.portfolio_size, 6);
        assert_eq!(job.label(), "probe");
    }
}
