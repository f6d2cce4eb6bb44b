//! The top-level COMPASS compiler API.

use crate::baselines;
use crate::decompose::{decompose, UnitSequence};
use crate::error::CompileError;
use crate::estimate::{Estimator, GroupEstimate};
use crate::fitness::FitnessContext;
pub use crate::fitness::FitnessKind;
use crate::ga::{self, GaParams, GaTrace};
use crate::partition::PartitionGroup;
use crate::plan::{GroupPlan, PartitionPlan};
use crate::replication::optimize_group;
use crate::scheduler::{schedule_group, SchedulerOptions, CHUNKS_PER_SAMPLE};
use crate::system::SystemTarget;
use crate::validity::ValidityMap;
use pim_arch::{ChipSpec, ScheduleMode, TimingMode};
use pim_isa::ChipProgram;
use pim_model::Network;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which partitioning strategy to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Strategy {
    /// The COMPASS genetic algorithm (the paper's contribution).
    #[default]
    Compass,
    /// Greedy baseline: maximal consecutive packing.
    Greedy,
    /// Layerwise baseline: one Conv/Linear layer per partition.
    Layerwise,
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Strategy::Compass => write!(f, "COMPASS"),
            Strategy::Greedy => write!(f, "greedy"),
            Strategy::Layerwise => write!(f, "layerwise"),
        }
    }
}

/// Compilation options (builder style).
///
/// The generated programs stream each sample through a partition in
/// [`CHUNKS_PER_SAMPLE`] pipeline chunks.
///
/// # Example
///
/// ```
/// use compass::{CompileOptions, FitnessKind, Strategy};
///
/// let options = CompileOptions::new()
///     .with_batch_size(16)
///     .with_strategy(Strategy::Compass)
///     .with_fitness(FitnessKind::Latency)
///     .with_seed(42);
/// assert_eq!(options.batch_size, 16);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompileOptions {
    /// Samples processed per weight-residency period (paper §II-B).
    pub batch_size: usize,
    /// Partitioning strategy.
    pub strategy: Strategy,
    /// GA fitness mode.
    pub fitness: FitnessKind,
    /// GA hyper-parameters (ignored by the baselines).
    pub ga: GaParams,
    /// RNG seed for reproducible compilations.
    pub seed: u64,
    /// Memory timing model the GA fitness and the final estimate are
    /// computed under ([`TimingMode::Analytic`] reproduces the paper).
    pub timing_mode: TimingMode,
    /// Intra-chip stage dispatch the GA fitness and the final
    /// estimate model ([`ScheduleMode::Barrier`] reproduces the
    /// paper's serial batch cycle; [`ScheduleMode::Interleaved`] makes
    /// the GA optimize the bottleneck stage the interleaved executor
    /// is paced by).
    pub schedule_mode: ScheduleMode,
    /// Multi-chip deployment the GA fitness and the final estimate
    /// target (`None` — the default — is the paper's single chip).
    pub system: Option<SystemTarget>,
}

impl CompileOptions {
    /// Paper-default options: batch 1, COMPASS strategy, latency
    /// fitness, paper GA parameters.
    pub fn new() -> Self {
        Self {
            batch_size: 1,
            strategy: Strategy::Compass,
            fitness: FitnessKind::Latency,
            ga: GaParams::paper(),
            seed: 0,
            timing_mode: TimingMode::Analytic,
            schedule_mode: ScheduleMode::Barrier,
            system: None,
        }
    }

    /// Sets the batch size.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Sets the strategy.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the fitness mode.
    pub fn with_fitness(mut self, fitness: FitnessKind) -> Self {
        self.fitness = fitness;
        self
    }

    /// Sets the GA parameters.
    pub fn with_ga(mut self, ga: GaParams) -> Self {
        self.ga = ga;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the memory timing model the GA tunes against (pair with
    /// the simulator's matching mode).
    pub fn with_timing_mode(mut self, mode: TimingMode) -> Self {
        self.timing_mode = mode;
        self
    }

    /// Sets the intra-chip stage dispatch the GA tunes against (pair
    /// with the simulator's matching `with_schedule_mode`).
    pub fn with_schedule_mode(mut self, mode: ScheduleMode) -> Self {
        self.schedule_mode = mode;
        self
    }

    /// Sets the multi-chip deployment the GA tunes against (pair with
    /// `plan_system` + the system simulator's matching topology).
    pub fn with_system_target(mut self, target: SystemTarget) -> Self {
        self.system = Some(target);
        self
    }

    fn validate(&self) -> Result<(), CompileError> {
        if self.batch_size == 0 {
            return Err(CompileError::InvalidOptions("batch size must be >= 1".into()));
        }
        // The baselines ignore the GA parameters.
        if self.strategy == Strategy::Compass && (self.ga.population == 0 || self.ga.n_sel == 0) {
            return Err(CompileError::InvalidOptions(
                "GA population and n_sel must be >= 1".into(),
            ));
        }
        Ok(())
    }
}

impl Default for CompileOptions {
    fn default() -> Self {
        Self::new()
    }
}

/// The result of a compilation: partition plans, per-partition core
/// programs, the analytical estimate, and (for COMPASS runs) the GA
/// trace.
#[derive(Debug, Clone)]
pub struct CompiledModel {
    strategy: Strategy,
    group: PartitionGroup,
    plans: GroupPlan,
    programs: Vec<ChipProgram>,
    estimate: GroupEstimate,
    ga_trace: Option<GaTrace>,
    unit_count: usize,
}

impl CompiledModel {
    /// The strategy that produced this compilation.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The chosen partition group.
    pub fn group(&self) -> &PartitionGroup {
        &self.group
    }

    /// The resolved, replication-optimized partition plans.
    pub fn partitions(&self) -> &[PartitionPlan] {
        self.plans.plans()
    }

    /// Per-partition core programs, in execution order.
    pub fn programs(&self) -> &[ChipProgram] {
        &self.programs
    }

    /// The analytical performance estimate at the compiled batch size.
    pub fn estimate(&self) -> &GroupEstimate {
        &self.estimate
    }

    /// The GA evolution trace (present for [`Strategy::Compass`]).
    pub fn ga_trace(&self) -> Option<&GaTrace> {
        self.ga_trace.as_ref()
    }

    /// Number of partition units `M` the model decomposed into.
    pub fn unit_count(&self) -> usize {
        self.unit_count
    }
}

impl fmt::Display for CompiledModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} compilation: {} partitions over {} units",
            self.strategy,
            self.partitions().len(),
            self.unit_count
        )?;
        write!(f, "  {}", self.estimate)
    }
}

/// The COMPASS compiler for a fixed chip.
pub struct Compiler {
    chip: ChipSpec,
}

impl Compiler {
    /// Creates a compiler for `chip`.
    pub fn new(chip: ChipSpec) -> Self {
        Self { chip }
    }

    /// The chip this compiler targets.
    pub fn chip(&self) -> &ChipSpec {
        &self.chip
    }

    /// Decomposes and partitions `network`, optimizes each partition
    /// on-chip, estimates performance, and generates per-core
    /// programs.
    ///
    /// # Errors
    ///
    /// * [`CompileError::InvalidChip`] if the chip fails validation,
    /// * [`CompileError::NoWeightedLayers`] if nothing maps to
    ///   crossbars,
    /// * [`CompileError::UnitTooLarge`] if a layer cannot be sliced to
    ///   fit one core,
    /// * [`CompileError::InvalidOptions`] for degenerate options.
    pub fn compile(
        &self,
        network: &Network,
        options: &CompileOptions,
    ) -> Result<CompiledModel, CompileError> {
        options.validate()?;
        self.chip.validate().map_err(|e| CompileError::InvalidChip(e.detail().to_string()))?;
        let seq = decompose(network, &self.chip);
        if seq.is_empty() {
            return Err(CompileError::NoWeightedLayers);
        }
        self.check_units(network, &seq)?;
        let validity = ValidityMap::build(&seq, &self.chip);

        let (group, ga_trace) = match options.strategy {
            Strategy::Greedy => (baselines::greedy(&validity), None),
            Strategy::Layerwise => (baselines::layerwise(&seq, &validity), None),
            Strategy::Compass => {
                let ctx = FitnessContext::new(
                    network,
                    &seq,
                    &validity,
                    &self.chip,
                    options.batch_size,
                    options.fitness,
                )
                .with_timing_mode(options.timing_mode)
                .with_schedule_mode(options.schedule_mode)
                .with_system_target(options.system.clone());
                let mut rng = StdRng::seed_from_u64(options.seed);
                let (best, trace) = ga::run(&ctx, &options.ga, &mut rng);
                (best.group, Some(trace))
            }
        };

        let mut plans = GroupPlan::build(network, &seq, &group);
        optimize_group(&mut plans, &self.chip);
        let mut estimator = Estimator::new(&self.chip)
            .with_timing_mode(options.timing_mode)
            .with_schedule_mode(options.schedule_mode);
        if let Some(target) = &options.system {
            estimator = estimator.with_system(target);
        }
        let estimate = estimator.estimate_group(&plans, options.batch_size);
        let scheduler_options = SchedulerOptions {
            batch: options.batch_size,
            chunks_per_sample: CHUNKS_PER_SAMPLE,
            schedule: options.schedule_mode,
        };
        let programs = schedule_group(network, plans.plans(), &self.chip, &scheduler_options);

        Ok(CompiledModel {
            strategy: options.strategy,
            group,
            unit_count: seq.len(),
            plans,
            programs,
            estimate,
            ga_trace,
        })
    }

    fn check_units(&self, network: &Network, seq: &UnitSequence) -> Result<(), CompileError> {
        for u in seq.units() {
            if u.crossbars > self.chip.crossbars_per_core {
                return Err(CompileError::UnitTooLarge {
                    layer: network.node(u.node).name.clone(),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_model::zoo;

    fn fast_options() -> CompileOptions {
        CompileOptions::new().with_ga(GaParams::fast()).with_seed(1)
    }

    #[test]
    fn compiles_all_three_paper_networks_on_all_chips() {
        for chip in [ChipSpec::chip_s(), ChipSpec::chip_m(), ChipSpec::chip_l()] {
            for net in [zoo::vgg16(), zoo::resnet18(), zoo::squeezenet()] {
                let compiler = Compiler::new(chip.clone());
                let compiled = compiler
                    .compile(&net, &fast_options().with_strategy(Strategy::Greedy))
                    .unwrap_or_else(|e| panic!("{} on Chip-{}: {e}", net.name(), chip.name));
                assert!(compiled.estimate().throughput_ips() > 0.0);
            }
        }
    }

    #[test]
    fn compass_beats_or_ties_baselines_on_resnet18() {
        let chip = ChipSpec::chip_m();
        let net = zoo::resnet18();
        let compiler = Compiler::new(chip);
        let batch = 8;
        let throughput = |strategy: Strategy| {
            compiler
                .compile(&net, &fast_options().with_batch_size(batch).with_strategy(strategy))
                .expect("compiles")
                .estimate()
                .throughput_ips()
        };
        let compass = throughput(Strategy::Compass);
        let greedy = throughput(Strategy::Greedy);
        let layerwise = throughput(Strategy::Layerwise);
        assert!(
            compass >= greedy * 0.99,
            "COMPASS ({compass:.1}) should not lose to greedy ({greedy:.1})"
        );
        assert!(
            compass >= layerwise * 0.99,
            "COMPASS ({compass:.1}) should not lose to layerwise ({layerwise:.1})"
        );
    }

    #[test]
    fn compass_produces_trace_baselines_do_not() {
        let chip = ChipSpec::chip_s();
        let net = zoo::squeezenet();
        let compiler = Compiler::new(chip);
        let c = compiler.compile(&net, &fast_options()).unwrap();
        assert!(c.ga_trace().is_some());
        let g = compiler.compile(&net, &fast_options().with_strategy(Strategy::Greedy)).unwrap();
        assert!(g.ga_trace().is_none());
    }

    #[test]
    fn rejects_zero_batch() {
        let compiler = Compiler::new(ChipSpec::chip_s());
        let err =
            compiler.compile(&zoo::tiny_cnn(), &fast_options().with_batch_size(0)).unwrap_err();
        assert!(matches!(err, CompileError::InvalidOptions(_)));
        // A GA that keeps no individuals cannot run; the baselines
        // never read the GA parameters, so they still compile.
        let no_population = GaParams { population: 0, ..GaParams::fast() };
        let no_selection = GaParams { n_sel: 0, ..GaParams::fast() };
        for ga in [no_population, no_selection] {
            let options = fast_options().with_ga(ga);
            let err = compiler.compile(&zoo::tiny_cnn(), &options).unwrap_err();
            assert!(matches!(err, CompileError::InvalidOptions(_)), "{ga:?}");
            let greedy = options.with_strategy(Strategy::Greedy);
            assert!(compiler.compile(&zoo::tiny_cnn(), &greedy).is_ok(), "{ga:?}");
        }
    }

    #[test]
    fn rejects_weightless_network() {
        use pim_model::{NetworkBuilder, TensorShape};
        let mut b = NetworkBuilder::new("empty");
        let i = b.input(TensorShape::new(3, 8, 8));
        let _ = b.relu("r", i);
        let net = b.build().unwrap();
        let compiler = Compiler::new(ChipSpec::chip_s());
        assert_eq!(
            compiler.compile(&net, &fast_options()).unwrap_err(),
            CompileError::NoWeightedLayers
        );
    }

    #[test]
    fn deterministic_compilation() {
        let chip = ChipSpec::chip_s();
        let net = zoo::resnet18();
        let compiler = Compiler::new(chip);
        let a = compiler.compile(&net, &fast_options()).unwrap();
        let b = compiler.compile(&net, &fast_options()).unwrap();
        assert_eq!(a.group(), b.group());
        assert_eq!(a.estimate().batch_latency_ns, b.estimate().batch_latency_ns);
    }

    #[test]
    fn programs_match_partitions() {
        let chip = ChipSpec::chip_s();
        let net = zoo::tiny_resnet();
        let compiler = Compiler::new(chip);
        let c = compiler.compile(&net, &fast_options().with_strategy(Strategy::Layerwise)).unwrap();
        assert_eq!(c.programs().len(), c.partitions().len());
        assert!(c.to_string().contains("partitions"));
    }
}
