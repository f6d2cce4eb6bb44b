//! The COMPASS genetic algorithm (paper Algorithm 1).

use crate::fitness::{mean_unit_fitness, partition_scores, EvaluatedGroup, FitnessContext};
use crate::mutation::{self, MutationKind};
use crate::partition::PartitionGroup;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// GA hyper-parameters of the paper's mutation-only Algorithm 1.
/// Defaults follow the paper (§IV-A3): population 100 for 30
/// generations, 20 selected, 80 mutated, with early stopping.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GaParams {
    /// Population size `N`.
    pub population: usize,
    /// Generations `G`.
    pub generations: usize,
    /// Individuals kept per generation (`n_sel`).
    pub n_sel: usize,
    /// Offspring generated by mutation per generation (`n_mut`).
    pub n_mut: usize,
    /// Stop after this many generations without best-fitness
    /// improvement (0 disables early stopping).
    pub early_stop_patience: usize,
}

impl GaParams {
    /// The paper's configuration.
    pub fn paper() -> Self {
        Self { population: 100, generations: 30, n_sel: 20, n_mut: 80, early_stop_patience: 8 }
    }

    /// A reduced configuration for fast tests and examples.
    pub fn fast() -> Self {
        Self { population: 24, generations: 10, n_sel: 6, n_mut: 18, early_stop_patience: 4 }
    }
}

impl Default for GaParams {
    fn default() -> Self {
        Self::paper()
    }
}

/// One individual's record within a generation trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IndividualRecord {
    /// Partition group fitness (lower is better).
    pub pgf: f64,
    /// Number of partitions in the chromosome.
    pub partitions: usize,
    /// `true` if this individual came from Πsel (survivor), `false`
    /// if it was produced by mutation this generation.
    pub selected: bool,
}

/// Per-generation snapshot for convergence plots (paper Fig. 10).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GenerationRecord {
    /// Generation index.
    pub generation: usize,
    /// All individuals' records.
    pub individuals: Vec<IndividualRecord>,
    /// Best (lowest) PGF in the generation.
    pub best_pgf: f64,
}

/// The evolution trace of a GA run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct GaTrace {
    /// One record per executed generation.
    pub generations: Vec<GenerationRecord>,
    /// Mutation attempts per scheme (successes).
    pub mutation_successes: [usize; 4],
    /// Mutation attempts per scheme (failures, i.e. no legal
    /// offspring).
    pub mutation_failures: [usize; 4],
}

impl GaTrace {
    /// Best fitness per generation, normalized to the final best
    /// (≥ 1.0, approaching 1.0 as the run converges) — the paper's
    /// Fig. 10 y-axis style.
    pub fn normalized_best(&self) -> Vec<f64> {
        let final_best =
            self.generations.last().map(|g| g.best_pgf).filter(|&b| b > 0.0).unwrap_or(1.0);
        self.generations.iter().map(|g| g.best_pgf / final_best).collect()
    }
}

/// Runs the COMPASS GA and returns the best partition group `ϕ` with
/// its evaluation and the full trace.
///
/// Algorithm 1: generate `N` groups; each generation, evaluate PGF,
/// keep the best `n_sel`, mutate `n_mut` drawn from the survivors
/// (worst-scoring partition chosen per the partition score, one of the
/// four mutation schemes applied with equal probability); repeat.
pub fn run<R: Rng + ?Sized>(
    ctx: &FitnessContext<'_>,
    params: &GaParams,
    rng: &mut R,
) -> (EvaluatedGroup, GaTrace) {
    assert!(params.population > 0 && params.n_sel > 0, "degenerate GA parameters");
    let mut trace = GaTrace::default();

    // Pre-size the memo for the incoming population so steady-state
    // generations never rehash mid-generation.
    ctx.reserve_for_population(params.population);

    // Π₀: initial population from the validity map. Candidates are
    // drawn first (the RNG stream defines the run), then evaluated.
    let initial: Vec<PartitionGroup> =
        (0..params.population).map(|_| PartitionGroup::random(rng, ctx.validity())).collect();
    // Evaluations are shared `Arc`s out of the fitness memo, so
    // survivors carried across generations are pointer bumps, not
    // clones of whole plans.
    let mut population: Vec<(Arc<EvaluatedGroup>, bool)> =
        initial.iter().map(|group| (ctx.evaluate(group), false)).collect();

    let mut best_so_far = f64::INFINITY;
    let mut stale = 0usize;

    for generation in 0..params.generations {
        // Sort ascending by PGF (lower = better).
        population
            .sort_by(|a, b| a.0.pgf.partial_cmp(&b.0.pgf).unwrap_or(std::cmp::Ordering::Equal));
        let best_pgf = population[0].0.pgf;
        trace.generations.push(GenerationRecord {
            generation,
            individuals: population
                .iter()
                .map(|(e, selected)| IndividualRecord {
                    pgf: e.pgf,
                    partitions: e.group.partition_count(),
                    selected: *selected,
                })
                .collect(),
            best_pgf,
        });

        if best_pgf + f64::EPSILON < best_so_far {
            best_so_far = best_pgf;
            stale = 0;
        } else {
            stale += 1;
            if params.early_stop_patience > 0 && stale >= params.early_stop_patience {
                break;
            }
        }

        // Πsel: survivors.
        population.truncate(params.n_sel.min(population.len()));
        for individual in &mut population {
            individual.1 = true;
        }
        let survivors: Vec<Arc<EvaluatedGroup>> =
            population.iter().map(|(e, _)| Arc::clone(e)).collect();
        let mean_m = mean_unit_fitness(&survivors, ctx.seq().len());

        // Πmut: offspring from randomly drawn survivors.
        let children = generate_children(ctx, params, rng, &survivors, &mean_m, &mut trace);
        ctx.reserve_for_population(children.len());
        population.extend(children.iter().map(|group| (ctx.evaluate(group), false)));
    }

    population.sort_by(|a, b| a.0.pgf.partial_cmp(&b.0.pgf).unwrap_or(std::cmp::Ordering::Equal));
    let best = population.remove(0).0;
    // Unshare the winner: callers own their result independent of the
    // context's memo lifetime. For the unwrap to actually succeed the
    // other owners must go first — the rest of the population
    // (including any duplicate of the winner) and the memo's own
    // reference; otherwise the fallback clone of the cut and
    // fitness vectors would be the unconditional path.
    drop(population);
    drop(ctx.release(best.group.cuts()));
    (Arc::try_unwrap(best).unwrap_or_else(|arc| (*arc).clone()), trace)
}

/// The serial offspring draw of Algorithm 1: `n_mut` children from
/// randomly chosen survivors, consuming the caller's RNG stream (which
/// defines the run).
fn generate_children<R: Rng + ?Sized>(
    ctx: &FitnessContext<'_>,
    params: &GaParams,
    rng: &mut R,
    survivors: &[Arc<EvaluatedGroup>],
    mean_m: &[f64],
    trace: &mut GaTrace,
) -> Vec<PartitionGroup> {
    // Each survivor parents several children: score it once. Drawing
    // from a slice of the same length keeps the RNG stream unchanged.
    let parents: Vec<_> = survivors.iter().map(|s| (s, partition_scores(s, mean_m))).collect();
    let mut children = Vec::with_capacity(params.n_mut);
    while children.len() < params.n_mut {
        let (parent, scores) = parents.choose(rng).expect("survivor population is non-empty");
        let kind = *MutationKind::ALL.choose(rng).expect("non-empty");
        let kind_idx = MutationKind::ALL.iter().position(|&k| k == kind).unwrap();
        match mutation::apply(kind, &parent.group, scores, rng, ctx.validity()) {
            Some(child) => {
                trace.mutation_successes[kind_idx] += 1;
                children.push(child);
            }
            None => {
                trace.mutation_failures[kind_idx] += 1;
                // Fall back to a fresh random individual so the
                // population size is maintained.
                children.push(PartitionGroup::random(rng, ctx.validity()));
            }
        }
    }
    children
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::decompose;
    use crate::fitness::FitnessKind;
    use crate::validity::ValidityMap;
    use pim_arch::ChipSpec;
    use pim_model::zoo;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run_ga(seed: u64, params: GaParams) -> (EvaluatedGroup, GaTrace) {
        let chip = ChipSpec::chip_s();
        let net = zoo::resnet18();
        let seq = decompose(&net, &chip);
        let validity = ValidityMap::build(&seq, &chip);
        let ctx = FitnessContext::new(&net, &seq, &validity, &chip, 8, FitnessKind::Latency);
        let mut rng = StdRng::seed_from_u64(seed);
        run(&ctx, &params, &mut rng)
    }

    #[test]
    fn winner_is_released_from_the_memo() {
        let chip = ChipSpec::chip_s();
        let net = zoo::resnet18();
        let seq = decompose(&net, &chip);
        let validity = ValidityMap::build(&seq, &chip);
        let ctx = FitnessContext::new(&net, &seq, &validity, &chip, 8, FitnessKind::Latency);
        let mut rng = StdRng::seed_from_u64(19);
        let (best, _) = run(&ctx, &GaParams::fast(), &mut rng);
        // `run` dropped the memo's reference to the winner so the
        // caller's copy unwrapped in place instead of deep-cloning.
        assert!(
            !ctx.memoized(best.group.cuts()),
            "the returned winner must be released from the whole-group memo"
        );
        assert!(ctx.cache_len() > 0, "only the winner's entry is released");
    }

    #[test]
    fn best_fitness_never_worsens_across_generations() {
        let (_, trace) = run_ga(1, GaParams::fast());
        let bests: Vec<f64> = trace.generations.iter().map(|g| g.best_pgf).collect();
        for pair in bests.windows(2) {
            assert!(pair[1] <= pair[0] + 1e-9, "elitism guarantees monotone best: {bests:?}");
        }
    }

    #[test]
    fn ga_beats_random_initialization() {
        let (best, trace) = run_ga(2, GaParams::fast());
        let initial_best = trace.generations[0].best_pgf;
        assert!(
            best.pgf <= initial_best,
            "GA result {} must be no worse than generation 0 best {}",
            best.pgf,
            initial_best
        );
        // And strictly better than the generation-0 *median* individual.
        let mut gen0: Vec<f64> = trace.generations[0].individuals.iter().map(|i| i.pgf).collect();
        gen0.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = gen0[gen0.len() / 2];
        assert!(best.pgf < median, "GA best {} should beat the random median {median}", best.pgf);
    }

    #[test]
    fn deterministic_given_seed() {
        let (a, _) = run_ga(3, GaParams::fast());
        let (b, _) = run_ga(3, GaParams::fast());
        assert_eq!(a.group, b.group);
        assert_eq!(a.pgf, b.pgf);
    }

    #[test]
    fn early_stopping_bounds_generations() {
        let mut params = GaParams::fast();
        params.generations = 50;
        params.early_stop_patience = 2;
        let (_, trace) = run_ga(4, params);
        assert!(trace.generations.len() <= 50);
    }

    #[test]
    fn trace_population_counts_match() {
        let params = GaParams::fast();
        let (_, trace) = run_ga(5, params);
        assert_eq!(trace.generations[0].individuals.len(), params.population);
        // Later generations: survivors + offspring.
        if trace.generations.len() > 1 {
            assert_eq!(trace.generations[1].individuals.len(), params.n_sel + params.n_mut);
        }
    }

    #[test]
    fn normalized_best_approaches_one() {
        let (_, trace) = run_ga(6, GaParams::fast());
        let norm = trace.normalized_best();
        let last = *norm.last().unwrap();
        assert!((last - 1.0).abs() < 1e-9);
        assert!(norm.iter().all(|&v| v >= 1.0 - 1e-9));
    }

    #[test]
    fn mutations_mostly_succeed() {
        let (_, trace) = run_ga(7, GaParams::fast());
        let ok: usize = trace.mutation_successes.iter().sum();
        let fail: usize = trace.mutation_failures.iter().sum();
        assert!(ok > fail, "mutation success {ok} vs failure {fail}");
    }
}
