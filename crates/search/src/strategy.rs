//! The [`Strategy`] trait, the shared search context, and the built-in
//! strategy registry ([`StrategyKind`]).

use crate::{Annealing, Beam, HillClimb, MaxSatDescent};
use prophunt_circuit::schedule::ScheduleSpec;
use prophunt_circuit::NoiseModel;
use prophunt_obs::Obs;
use prophunt_qec::CssCode;
use std::fmt;
use std::str::FromStr;
use std::time::Duration;

/// A candidate schedule offered by a strategy at the end of a round: the best
/// schedule the instance can currently vouch for, with its CNOT depth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Proposal {
    /// The candidate schedule (valid for the context's code).
    pub schedule: ScheduleSpec,
    /// Its CNOT depth.
    pub depth: usize,
}

/// The portfolio's current best candidate, with full provenance: which
/// strategy produced it, from which instance slot, in which round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Incumbent {
    /// The best schedule found so far.
    pub schedule: ScheduleSpec,
    /// Its CNOT depth.
    pub depth: usize,
    /// Name of the strategy that produced it ([`StrategyKind::name`], or
    /// [`crate::INITIAL_STRATEGY`] while the starting schedule still leads).
    pub strategy: &'static str,
    /// Portfolio instance slot that produced it.
    pub instance: usize,
    /// Round in which it became the incumbent (0 for the starting schedule).
    pub round: usize,
}

/// A search strategy: one arm of a [`crate::Portfolio`].
///
/// The portfolio drives every instance through the same synchronized
/// round protocol:
///
/// 1. [`Strategy::propose`] — do one round of work (a per-round `seed` derived
///    from the portfolio's [`prophunt_runtime::SeedStream`] is the **only**
///    source of randomness) and return the instance's current best candidate.
/// 2. The portfolio accepts the round's minimum-depth proposal (ties broken by
///    instance index) as the new incumbent when it improves on the old one.
/// 3. [`Strategy::observe`] — every instance sees the (possibly updated)
///    incumbent, plus whether its *own* proposal was the one accepted; what an
///    instance does with it (adopt, ignore, re-anneal) is strategy policy.
///
/// Implementations must be deterministic functions of their construction
/// arguments and the `(round, seed)` pairs they are stepped with — no
/// wall-clock, thread identity or global state — so the portfolio's
/// determinism contract holds.
pub trait Strategy: Send {
    /// Stable machine-readable name (used in events, records, CLI flags).
    fn name(&self) -> &'static str;

    /// Runs one synchronized round of search and returns the instance's
    /// current best candidate.
    fn propose(&mut self, round: usize, seed: u64) -> Proposal;

    /// Receives the portfolio incumbent after a round. `accepted` is true iff
    /// this instance's own round proposal was just accepted as the new
    /// incumbent.
    fn observe(&mut self, incumbent: &Incumbent, accepted: bool);
}

/// Tuning knobs shared by the built-in strategies.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchParams {
    /// Mutation proposals evaluated per instance per round (annealing / hill
    /// climbing; the beam strategy divides this budget across its beam slots).
    pub proposals_per_round: usize,
    /// Beam width of the [`Beam`] strategy.
    pub beam_width: usize,
    /// Syndrome-measurement rounds analysed by the MaxSAT-descent arm.
    pub memory_rounds: usize,
    /// Noise model the MaxSAT-descent arm builds its decoding graphs with.
    pub noise: NoiseModel,
    /// Subgraph-expansion samples per MaxSAT-descent iteration.
    pub samples_per_iteration: usize,
    /// Budget per minimum-weight solve. Enforced as a deterministic cap on
    /// enumerated subsets (converted at a fixed rate, as in
    /// [`prophunt::PropHuntConfig`]), so exhausting it cannot introduce
    /// machine-dependent results.
    pub maxsat_budget: Duration,
    /// Rounds without improvement before [`HillClimb`] restarts from a fresh
    /// randomized coloration.
    pub restart_stall: usize,
    /// Initial simulated-annealing temperature (in CNOT-depth units).
    pub initial_temperature: f64,
    /// Multiplicative temperature decay per round.
    pub cooling: f64,
}

impl Default for SearchParams {
    fn default() -> Self {
        SearchParams {
            proposals_per_round: 24,
            beam_width: 4,
            memory_rounds: 3,
            noise: NoiseModel::uniform_depolarizing(1e-3),
            samples_per_iteration: 20,
            maxsat_budget: Duration::from_secs(20),
            restart_stall: 2,
            initial_temperature: 1.5,
            cooling: 0.85,
        }
    }
}

/// Everything a strategy needs to know about the problem: the code, the
/// starting schedule, and the shared tuning parameters.
#[derive(Debug, Clone)]
pub struct SearchContext {
    /// The CSS code whose syndrome-measurement schedule is being searched.
    pub code: CssCode,
    /// The surface-code layout, when the code has one. Strategies that restart
    /// over permuted orderings ([`HillClimb`]) use it to draw structured
    /// corner-order restarts instead of only randomized colorations.
    pub layout: Option<prophunt_qec::surface::SurfaceLayout>,
    /// The (validated) starting schedule.
    pub initial: ScheduleSpec,
    /// Shared tuning knobs.
    pub params: SearchParams,
    /// Observability handle strategies hoist counter handles from at
    /// construction (`search.<arm>.*` names). Disabled by default; counts are
    /// functions of `(construction, round, seed)` only, so they stay on the
    /// deterministic side of the contract at any thread count.
    pub obs: Obs,
    /// Lazily computed corner-order restart family, shared across every
    /// instance built from this context (and its clones).
    corner_cache: std::sync::Arc<std::sync::OnceLock<std::sync::Arc<Vec<ScheduleSpec>>>>,
}

impl SearchContext {
    /// Creates a context. `initial` must already be validated for `code`.
    pub fn new(
        code: CssCode,
        layout: Option<prophunt_qec::surface::SurfaceLayout>,
        initial: ScheduleSpec,
        params: SearchParams,
    ) -> SearchContext {
        SearchContext {
            code,
            layout,
            initial,
            params,
            obs: Obs::disabled(),
            corner_cache: std::sync::Arc::new(std::sync::OnceLock::new()),
        }
    }

    /// Attaches an observability handle (builder-style).
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> SearchContext {
        self.obs = obs;
        self
    }

    /// The valid corner-order schedule family of the layout (empty when the
    /// code has none), enumerated on first use and shared by every instance —
    /// a portfolio cycling several restart-based slots pays for the 24 × 24
    /// enumeration once, not once per slot.
    pub fn corner_schedules(&self) -> std::sync::Arc<Vec<ScheduleSpec>> {
        self.corner_cache
            .get_or_init(|| {
                std::sync::Arc::new(
                    self.layout
                        .as_ref()
                        .map(|layout| crate::hillclimb::valid_corner_schedules(&self.code, layout))
                        .unwrap_or_default(),
                )
            })
            .clone()
    }
}

/// The built-in strategy registry: every strategy the portfolio can
/// instantiate by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    /// The paper's MaxSAT-guided greedy descent, one pipeline iteration per
    /// round ([`MaxSatDescent`]).
    MaxSatDescent,
    /// Simulated annealing over commutation-preserving schedule mutations
    /// ([`Annealing`]).
    Annealing,
    /// Greedy beam search over schedule orderings ([`Beam`]).
    Beam,
    /// Random-restart hill climbing ([`HillClimb`]).
    HillClimb,
}

impl StrategyKind {
    /// Every built-in strategy, in canonical portfolio fill order.
    pub const ALL: [StrategyKind; 4] = [
        StrategyKind::MaxSatDescent,
        StrategyKind::Annealing,
        StrategyKind::Beam,
        StrategyKind::HillClimb,
    ];

    /// The stable machine-readable name (also the CLI `--strategies` token).
    pub fn name(self) -> &'static str {
        match self {
            StrategyKind::MaxSatDescent => "maxsat",
            StrategyKind::Annealing => "anneal",
            StrategyKind::Beam => "beam",
            StrategyKind::HillClimb => "hillclimb",
        }
    }

    /// Instantiates the strategy for one portfolio slot. `seed` is the
    /// instance's base seed (used by strategies that need construction-time
    /// randomness or an internal deterministic runtime).
    pub fn build(self, ctx: &SearchContext, seed: u64) -> Box<dyn Strategy> {
        match self {
            StrategyKind::MaxSatDescent => Box::new(MaxSatDescent::new(ctx, seed)),
            StrategyKind::Annealing => Box::new(Annealing::new(ctx)),
            StrategyKind::Beam => Box::new(Beam::new(ctx)),
            StrategyKind::HillClimb => Box::new(HillClimb::new(ctx)),
        }
    }

    /// Parses a comma-separated strategy list (`"maxsat,anneal"`); the empty
    /// string and `"all"` select every built-in strategy.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first unknown token.
    pub fn parse_list(list: &str) -> Result<Vec<StrategyKind>, String> {
        let trimmed = list.trim();
        if trimmed.is_empty() || trimmed == "all" {
            return Ok(StrategyKind::ALL.to_vec());
        }
        trimmed
            .split(',')
            .map(|token| token.trim().parse())
            .collect()
    }
}

impl fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for StrategyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        StrategyKind::ALL
            .into_iter()
            .find(|kind| kind.name() == s)
            .ok_or_else(|| {
                format!(
                    "unknown strategy {s:?} (expected one of: {})",
                    StrategyKind::ALL.map(StrategyKind::name).join(", ")
                )
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_names_round_trip() {
        for kind in StrategyKind::ALL {
            assert_eq!(kind.name().parse::<StrategyKind>().unwrap(), kind);
            assert_eq!(kind.to_string(), kind.name());
        }
        assert!("nope".parse::<StrategyKind>().is_err());
    }

    #[test]
    fn parse_list_accepts_all_and_rejects_unknown_tokens() {
        assert_eq!(
            StrategyKind::parse_list("all").unwrap(),
            StrategyKind::ALL.to_vec()
        );
        assert_eq!(
            StrategyKind::parse_list("").unwrap(),
            StrategyKind::ALL.to_vec()
        );
        assert_eq!(
            StrategyKind::parse_list("beam, maxsat").unwrap(),
            vec![StrategyKind::Beam, StrategyKind::MaxSatDescent]
        );
        let err = StrategyKind::parse_list("beam,bogus").unwrap_err();
        assert!(err.contains("bogus"), "{err}");
    }
}
