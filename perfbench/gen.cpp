/// \file gen.cpp
/// Benchmark input generator: simulate one workload's reads from a seed and
/// write them as FASTQ plus the ground-truth sidecar that `dibella --truth`
/// loads. The genome is the preset's own (one organism per workload); the
/// seed only draws a fresh sequencing run of it, and seed 0 reproduces the
/// preset's default reads exactly.
///
/// Usage:
///   perfbench_gen --preset=ecoli30x|ecoli100x --scale=F --seed=N
///                 [--error-rate=F] --out=PREFIX
///
/// Writes PREFIX.fq and PREFIX.truth.tsv, and prints one JSON line with the
/// dataset's size and the values the pipeline must be told explicitly on the
/// --input path (coverage, error rate, true-overlap threshold).

#include <cstdio>
#include <exception>
#include <string>

#include "io/fastx.hpp"
#include "io/truth.hpp"
#include "simgen/presets.hpp"
#include "util/args.hpp"

int main(int argc, char** argv) {
  using namespace dibella;
  try {
    const util::Args args(argc, argv);
    const std::string name = args.get("preset", "");
    const double scale = args.get_double("scale", 0.0);
    const std::string out = args.get("out", "");
    if (out.empty() || !args.has("seed") || scale <= 0.0 || scale > 1.0) {
      std::fprintf(stderr, "perfbench_gen: need --preset, --scale in (0,1], --seed, --out\n");
      return 2;
    }
    simgen::DatasetPreset preset;
    if (name == "ecoli30x") {
      preset = simgen::ecoli30x_like(scale);
    } else if (name == "ecoli100x") {
      preset = simgen::ecoli100x_like(scale);
    } else {
      std::fprintf(stderr, "perfbench_gen: unknown --preset=%s\n", name.c_str());
      return 2;
    }
    preset.reads.seed += static_cast<u64>(args.get_i64("seed", 0));
    preset.reads.error_rate = args.get_double("error-rate", preset.reads.error_rate);

    const simgen::SimulatedReads sim = simgen::make_dataset(preset);
    io::save_file(out + ".fq", io::to_fastq(sim.reads));
    simgen::truth_table(sim).save_tsv(out + ".truth.tsv");

    u64 bases = 0;
    for (const io::Read& r : sim.reads) bases += r.seq.size();
    std::printf(
        "{\"reads\": %llu, \"bases\": %llu, \"genome_bp\": %llu, \"coverage\": %.17g, "
        "\"error_rate\": %.17g, \"min_true_overlap\": %llu}\n",
        static_cast<unsigned long long>(sim.reads.size()),
        static_cast<unsigned long long>(bases),
        static_cast<unsigned long long>(sim.genome_length), preset.reads.coverage,
        preset.reads.error_rate, static_cast<unsigned long long>(preset.min_true_overlap));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_gen: %s\n", e.what());
    return 1;
  }
}
