//! Regenerates **Fig. 10** (evolution of partition groups and their
//! partition counts over GA generations, "ResNet18-M-16").

use compass::{CompileOptions, Compiler, Strategy};
use compass_bench::{network, BenchMode};
use pim_arch::{ChipClass, ChipSpec};

fn main() {
    let mode = BenchMode::from_args();
    let chip = ChipSpec::preset(ChipClass::M);
    let compiled = Compiler::new(chip)
        .compile(
            &network("resnet18"),
            &CompileOptions::new()
                .with_batch_size(16)
                .with_strategy(Strategy::Compass)
                .with_ga(mode.ga_params())
                .with_seed(2025),
        )
        .expect("compiles");
    let trace = compiled.ga_trace().expect("COMPASS runs carry a GA trace");

    println!("generation | best PGF (norm.) | mean PGF (norm.) | partition-count histogram");
    let final_best = trace.generations.last().unwrap().best_pgf;
    for (g, best) in trace.generations.iter().zip(trace.normalized_best()) {
        let mean: f64 =
            g.individuals.iter().map(|i| i.pgf).sum::<f64>() / g.individuals.len() as f64;
        // Histogram over the paper's three bands: <=8, 9-10, 11+.
        let (mut low, mut mid, mut high) = (0, 0, 0);
        for i in &g.individuals {
            match i.partitions {
                0..=8 => low += 1,
                9..=10 => mid += 1,
                _ => high += 1,
            }
        }
        println!(
            "{:>10} | {:>16.4} | {:>16.4} | <=8: {:<3} 9-10: {:<3} 11+: {:<3}",
            g.generation,
            best,
            mean / final_best,
            low,
            mid,
            high
        );
    }
    println!(
        "\nmutation successes (merge/split/move/fixed-random): {:?}",
        trace.mutation_successes
    );
    println!("mutation failures: {:?}", trace.mutation_failures);
    println!(
        "final: {} partitions, PGF {:.0}, throughput {:.1} inf/s",
        compiled.partitions().len(),
        final_best,
        compiled.estimate().throughput_ips()
    );
    println!(
        "\npaper reference: population converges steadily; optimal partition count reached around generation 9-10, refined within the same count afterwards"
    );
}
