//! The existing MaxSAT-guided greedy descent, adapted behind [`Strategy`].

use crate::strategy::{Incumbent, Proposal, SearchContext, Strategy};
use prophunt::{PropHunt, PropHuntConfig};
use prophunt_circuit::MemoryBasis;
use prophunt_obs::Counter;
use prophunt_runtime::RuntimeConfig;

/// The paper's optimizer as a portfolio arm: each round runs **one**
/// `build_graph → sample → solve → enumerate → verify → apply` pipeline
/// iteration ([`PropHunt::step`]) on the instance's working schedule,
/// alternating the analysed memory basis between rounds exactly like
/// [`PropHunt::try_optimize`] alternates it between iterations.
///
/// Unlike the local-search arms this strategy does not chase depth directly:
/// it applies the minimum-depth *verified effective-distance-restoring*
/// changes, pulling the portfolio toward schedules that are also good circuits,
/// not just shallow ones.
///
/// Incumbent policy: adopts the portfolio incumbent as its working schedule
/// whenever the incumbent is strictly shallower — descent then continues from
/// the portfolio's best known point.
#[derive(Debug)]
pub struct MaxSatDescent {
    prophunt: PropHunt,
    schedule: prophunt_circuit::schedule::ScheduleSpec,
    depth: usize,
    /// Hoisted `search.maxsat.iterations` counter handle (None when the
    /// context's observability is disabled).
    iterations: Option<Counter>,
}

impl MaxSatDescent {
    /// Creates an instance working on the context's initial schedule.
    ///
    /// `seed` becomes the instance's private optimizer seed; the inner
    /// runtime is single-threaded so the portfolio's worker pool stays the
    /// only source of parallelism (nesting bounded pools would oversubscribe
    /// without changing any result).
    pub fn new(ctx: &SearchContext, seed: u64) -> MaxSatDescent {
        // Rounds call `PropHunt::step` directly, so the profile's iteration
        // count is unused; the subgraph-search caps come from the quick profile.
        let quick = PropHuntConfig::quick(ctx.params.memory_rounds);
        let config = PropHuntConfig {
            samples_per_iteration: ctx.params.samples_per_iteration,
            noise: ctx.params.noise,
            maxsat_budget: ctx.params.maxsat_budget,
            runtime: RuntimeConfig {
                threads: 1,
                seed,
                ..quick.runtime
            },
            ..quick
        };
        let depth = ctx
            .initial
            .depth()
            .expect("search context schedules are validated");
        MaxSatDescent {
            prophunt: PropHunt::new(ctx.code.clone(), config),
            schedule: ctx.initial.clone(),
            depth,
            iterations: ctx.obs.counter("search.maxsat.iterations"),
        }
    }
}

impl Strategy for MaxSatDescent {
    fn name(&self) -> &'static str {
        "maxsat"
    }

    fn propose(&mut self, round: usize, _seed: u64) -> Proposal {
        // The optimizer derives all stage randomness from (its own seed,
        // iteration); feeding the portfolio round as the iteration number
        // keeps the streams distinct across rounds, and the per-instance
        // optimizer seed keeps them distinct across instances.
        let basis = if round.is_multiple_of(2) {
            MemoryBasis::Z
        } else {
            MemoryBasis::X
        };
        if let Some(c) = &self.iterations {
            c.inc();
        }
        let record = self.prophunt.step(round, basis, &mut self.schedule);
        self.depth = record.depth;
        Proposal {
            schedule: self.schedule.clone(),
            depth: self.depth,
        }
    }

    fn observe(&mut self, incumbent: &Incumbent, accepted: bool) {
        if !accepted && incumbent.depth < self.depth {
            self.schedule = incumbent.schedule.clone();
            self.depth = incumbent.depth;
        }
    }
}
