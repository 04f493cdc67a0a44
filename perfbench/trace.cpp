/// \file trace.cpp
/// Traced pipeline harness: the same work `dibella --input=... --truth=...`
/// does (parse, cost-model calibration, stages 1-5, eval, PAF/GFA/eval.tsv),
/// driven through the library's public entry points with a wallclock timer
/// around every call on every rank. The program itself carries no benchmark
/// spans; all timing lives here.
///
/// Usage:
///   perfbench_trace --input=FQ --truth=TSV --out-dir=DIR [--ranks=4]
///                   [--minimizer-w=N] [--overlap-comm=on|off] [--blocks=N]
///                   [--memory-budget=BYTES] [--spill-dir=DIR]
///                   [--coverage=F] [--error-rate=F] [--eval-min-overlap=N]
///
/// Writes alignments.paf, graph.gfa, eval.tsv, components.tsv and
/// unitigs.tsv to DIR (the first three must be byte-identical to the CLI's)
/// and prints one JSON object of per-layer metrics on stdout. Counts come
/// from the stage result structs and the wire registry that
/// StageContext::attach fills; times are per-rank steady_clock intervals.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "comm/world.hpp"
#include "core/kernel_costs.hpp"
#include "core/output.hpp"
#include "core/pipeline.hpp"
#include "core/stage_context.hpp"
#include "eval/report.hpp"
#include "io/fastx.hpp"
#include "io/read_block.hpp"
#include "io/truth.hpp"
#include "netsim/platform.hpp"
#include "sgraph/unitig.hpp"
#include "util/args.hpp"
#include "util/radix_sort.hpp"

namespace {

using namespace dibella;
using Clock = std::chrono::steady_clock;

/// Per-rank layers, in pipeline order. kRx and kAlign alternate once per
/// block round in block mode; their walls sum over rounds.
enum Layer { kStore, kBloom, kDht, kOverlap, kRx, kAlign, kSpill, kSgraph, kLayers };
constexpr std::array<const char*, kLayers> kLayerNames = {
    "store", "bloom", "dht", "overlap", "rx", "align", "spill", "sgraph"};

/// Which per-rank layer a collective's stage tag belongs to (the alignment
/// kernel makes no collectives, so "align" records are the read exchange).
Layer layer_of_tag(const std::string& tag) {
  if (tag == "bloom") return kBloom;
  if (tag == "ht") return kDht;
  if (tag == "overlap") return kOverlap;
  if (tag == "align") return kRx;
  if (tag == "sgraph") return kSgraph;
  return kLayers;
}

struct RankTimes {
  std::array<double, kLayers> entry{};  ///< first entry, seconds since start
  std::array<double, kLayers> wall{};   ///< seconds inside the layer
  std::array<double, kLayers> wait{};   ///< of wall, blocked in collectives
  std::array<bool, kLayers> entered{};
};

class Stopwatch {
 public:
  explicit Stopwatch(Clock::time_point origin) : origin_(origin), start_(Clock::now()) {}
  double since_origin() const { return seconds(origin_, start_); }
  double elapsed() const { return seconds(start_, Clock::now()); }
  static double seconds(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  }

 private:
  Clock::time_point origin_;
  Clock::time_point start_;
};

/// Run `fn` as one visit to `layer` on this rank.
template <class Fn>
auto timed(RankTimes& t, Layer layer, Clock::time_point origin, Fn&& fn) {
  const Stopwatch sw(origin);
  if (!t.entered[layer]) {
    t.entered[layer] = true;
    t.entry[layer] = sw.since_origin();
  }
  struct Add {
    RankTimes& t;
    Layer layer;
    const Stopwatch& sw;
    ~Add() { t.wall[layer] += sw.elapsed(); }
  } add{t, layer, sw};
  return fn();
}

/// Record source that charges the time spent pulling records to `seconds`
/// (the spill k-way merge in block mode, the resident vector otherwise).
class TimedSource final : public align::RecordSource {
 public:
  TimedSource(align::RecordSource& inner, double& seconds)
      : inner_(inner), seconds_(seconds) {}
  bool next(align::AlignmentRecord& out) override {
    const Stopwatch sw(Clock::now());
    const bool more = inner_.next(out);
    seconds_ += sw.elapsed();
    return more;
  }

 private:
  align::RecordSource& inner_;
  double& seconds_;
};

void sort_records(std::vector<align::AlignmentRecord>& records) {
  util::radix_sort_u64(records, [](const align::AlignmentRecord& r) { return r.rid_b; });
  util::radix_sort_u64(records, [](const align::AlignmentRecord& r) { return r.rid_a; });
}

void write_file(const std::filesystem::path& path, const std::string& data) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << data;
  if (!os.flush()) throw Error("write failed: " + path.string());
}

double max_of(const std::vector<double>& v) { return *std::max_element(v.begin(), v.end()); }

double sum_of(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double mean_of(const std::vector<double>& v) { return sum_of(v) / static_cast<double>(v.size()); }

/// max / mean, or 1 when the layer did no measurable work.
double imbalance(const std::vector<double>& v) {
  const double mean = mean_of(v);
  return mean > 0.0 ? max_of(v) / mean : 1.0;
}

double ratio(double num, u64 den) { return den ? num / static_cast<double>(den) : 0.0; }

int run(const util::Args& args) {
  const Clock::time_point origin = Clock::now();
  std::map<std::string, double> m;  // metric name -> value, printed as JSON

  const std::string input = args.get("input", "");
  const std::string truth_path = args.get("truth", "");
  const std::filesystem::path out_dir = args.get("out-dir", "");
  const int P = static_cast<int>(args.get_i64("ranks", 4));
  if (input.empty() || truth_path.empty() || out_dir.empty() || P < 1) {
    std::fprintf(stderr, "perfbench_trace: need --input, --truth, --out-dir, --ranks>=1\n");
    return 2;
  }

  // The CLI calibrates lazily inside stage 1; here it is its own layer.
  {
    const Stopwatch sw(origin);
    (void)core::KernelCosts::get();
    m["core.calib_s"] = sw.elapsed();
  }

  std::vector<io::Read> reads;
  std::shared_ptr<const io::TruthTable> truth;
  {
    const Stopwatch sw(origin);
    reads = io::parse_fastq(io::load_file(input));
    truth = std::make_shared<const io::TruthTable>(io::TruthTable::load_tsv(truth_path));
    m["io.parse_s"] = sw.elapsed();
  }
  DIBELLA_CHECK(!reads.empty() && truth->size() == reads.size(),
                "reads and truth table disagree");

  // The CLI's configuration for --input with the flags below.
  const Stopwatch setup_sw(origin);
  core::PipelineConfig cfg;
  cfg.assumed_coverage = args.get_double("coverage", 30.0);
  cfg.assumed_error_rate = args.get_double("error-rate", 0.15);
  cfg.minimizer_w = static_cast<u32>(args.get_i64("minimizer-w", 0));
  cfg.overlap_comm = args.get("overlap-comm", "on") == "on";
  cfg.blocks = static_cast<u32>(args.get_i64("blocks", 1));
  cfg.memory_budget_bytes = static_cast<u64>(args.get_i64("memory-budget", 0));
  cfg.spill_dir = args.get("spill-dir", "");
  cfg.stage5 = true;
  cfg.eval = true;
  cfg.eval_min_overlap = static_cast<u64>(args.get_i64("eval-min-overlap", 2000));
  const u32 max_count = cfg.resolved_max_kmer_count();
  const u32 B = cfg.blocks;

  std::vector<u64> lens;
  lens.reserve(reads.size());
  for (const io::Read& r : reads) lens.push_back(r.seq.size());
  const io::ReadPartition partition(lens, P);
  std::shared_ptr<core::AlignmentSpillSet> spill;
  if (B > 1) spill = std::make_shared<core::AlignmentSpillSet>(cfg.spill_dir);

  const auto n = static_cast<std::size_t>(P);
  std::vector<RankTimes> times(n);
  std::vector<netsim::RankTrace> traces(n);
  std::vector<obs::Registry> rank_metrics(n), rank_wire(n);
  std::vector<bloom::BloomStageResult> bloom_res(n);
  std::vector<dht::HashTableStageResult> ht_res(n);
  std::vector<overlap::OverlapStageResult> ov_res(n);
  std::vector<align::ReadExchangeResult> rx_res(n);
  std::vector<align::AlignmentStageResult> al_res(n);
  std::vector<std::vector<align::AlignmentRecord>> records(n);
  std::vector<sgraph::StringGraphStageResult> sg_res(n);
  std::vector<sgraph::StringGraphShard> sg_out(n);
  std::vector<io::ReadStoreMemoryStats> mem(n);
  std::vector<double> sgraph_merge_s(n, 0.0);
  comm::World world(P);
  m["core.setup_s"] = setup_sw.elapsed();

  world.run([&](comm::Communicator& comm) {
    const auto rank = static_cast<std::size_t>(comm.rank());
    RankTimes& t = times[rank];
    core::StageContext ctx{comm, traces[rank], nullptr, &rank_metrics[rank], &rank_wire[rank]};
    ctx.attach();

    io::BlockConfig block_cfg;
    block_cfg.blocks = B;
    block_cfg.memory_budget_bytes = cfg.memory_budget_bytes;
    io::ReadStore store = timed(t, kStore, origin, [&] {
      io::ReadStore s(reads, partition, comm.rank(), block_cfg);
      s.attach_truth(truth);
      return s;
    });

    dht::LocalKmerTable table(1024, max_count + 1);
    bloom::BloomStageConfig bcfg;
    bcfg.k = cfg.k;
    bcfg.batch_kmers = cfg.batch_kmers;
    bcfg.bloom_fpr = cfg.bloom_fpr;
    bcfg.assumed_error_rate = cfg.assumed_error_rate;
    bcfg.sketch = sketch::SketchConfig{cfg.minimizer_w, cfg.syncmer};
    bcfg.overlap_comm = cfg.overlap_comm;
    bcfg.exchange_chunk_bytes = cfg.exchange_chunk_bytes;
    bloom_res[rank] = timed(t, kBloom, origin,
                            [&] { return bloom::run_bloom_stage(ctx, store, bcfg, table); });

    dht::HashTableStageConfig hcfg;
    hcfg.k = cfg.k;
    hcfg.batch_instances = cfg.batch_kmers;
    hcfg.min_count = cfg.min_kmer_count;
    hcfg.max_count = max_count;
    hcfg.sketch = sketch::SketchConfig{cfg.minimizer_w, cfg.syncmer};
    hcfg.overlap_comm = cfg.overlap_comm;
    hcfg.exchange_chunk_bytes = cfg.exchange_chunk_bytes;
    ht_res[rank] = timed(t, kDht, origin,
                         [&] { return dht::run_hashtable_stage(ctx, store, hcfg, table); });

    overlap::OverlapStageConfig ocfg;
    ocfg.seed_filter = cfg.seed_filter;
    ocfg.overlap_comm = cfg.overlap_comm;
    ocfg.batch_tasks = cfg.batch_overlap_tasks;
    ocfg.exchange_chunk_bytes = cfg.exchange_chunk_bytes;
    std::vector<overlap::AlignmentTask> tasks = timed(t, kOverlap, origin, [&] {
      return overlap::run_overlap_stage(ctx, table, partition, ocfg, &ov_res[rank]);
    });

    align::ReadExchangeConfig rcfg;
    rcfg.overlap_comm = cfg.overlap_comm;
    rcfg.exchange_chunk_bytes = cfg.exchange_chunk_bytes;
    align::AlignmentStageConfig acfg;
    acfg.scoring = cfg.scoring;
    acfg.xdrop = cfg.xdrop;
    acfg.k = cfg.k;
    acfg.min_score = cfg.min_report_score;
    acfg.chain = cfg.chain;
    if (B == 1) {
      rx_res[rank] = timed(t, kRx, origin,
                           [&] { return align::run_read_exchange(ctx, store, tasks, rcfg); });
      std::vector<align::AlignmentRecord> kept = timed(t, kAlign, origin, [&] {
        return align::run_alignment_stage(ctx, store, tasks, acfg, &al_res[rank]);
      });
      // In memory the records' store step is the resident hand-off to the merge.
      timed(t, kSpill, origin, [&] { records[rank] = std::move(kept); });
    } else {
      // One read-exchange + alignment round per block; a task joins the
      // round of its remote read's block (both-local: rid_b's), as in
      // core::run_pipeline.
      std::vector<std::vector<overlap::AlignmentTask>> rounds(B);
      timed(t, kAlign, origin, [&] {
        for (overlap::AlignmentTask& task : tasks) {
          const u64 gid = !store.is_local(task.rid_a) ? task.rid_a : task.rid_b;
          rounds[io::block_of(partition, B, gid)].push_back(std::move(task));
        }
        tasks.clear();
        tasks.shrink_to_fit();
      });
      for (u32 r = 0; r < B; ++r) {
        const align::ReadExchangeResult rx = timed(
            t, kRx, origin, [&] { return align::run_read_exchange(ctx, store, rounds[r], rcfg); });
        rx_res[rank].reads_requested += rx.reads_requested;
        rx_res[rank].reads_served += rx.reads_served;
        rx_res[rank].bytes_received += rx.bytes_received;
        align::AlignmentStageResult al;
        std::vector<align::AlignmentRecord> round_records = timed(t, kAlign, origin, [&] {
          return align::run_alignment_stage(ctx, store, rounds[r], acfg, &al);
        });
        al_res[rank].pairs_aligned += al.pairs_aligned;
        al_res[rank].dp_cells += al.dp_cells;
        al_res[rank].records_kept += al.records_kept;
        timed(t, kSpill, origin, [&] {
          sort_records(round_records);
          (void)spill->add_run(comm.rank(), round_records);
        });
        timed(t, kRx, origin, [&] {
          store.clear_remote_cache();
          rounds[r].clear();
          rounds[r].shrink_to_fit();
        });
      }
    }

    sgraph::StringGraphConfig scfg;
    scfg.min_overlap_score = cfg.min_overlap_score;
    scfg.fuzz = cfg.sgraph_fuzz;
    scfg.overlap_comm = cfg.overlap_comm;
    scfg.batch_bytes = cfg.batch_graph_bytes;
    scfg.exchange_chunk_bytes = cfg.exchange_chunk_bytes;
    sg_out[rank] = timed(t, kSgraph, origin, [&] {
      if (!spill) {
        return sgraph::run_string_graph_stage(ctx, store, records[rank], scfg, &sg_res[rank]);
      }
      core::SpillMergeSource merged(spill->rank_runs(comm.rank()));
      TimedSource local(merged, sgraph_merge_s[rank]);
      return sgraph::run_string_graph_stage(ctx, store, local, scfg, &sg_res[rank]);
    });
    mem[rank] = store.memory_stats();
  });

  core::PipelineOutput out;
  out.spill = spill;
  {
    const Stopwatch sw(origin);
    if (!spill) {
      for (auto& v : records) out.alignments.insert(out.alignments.end(), v.begin(), v.end());
      sort_records(out.alignments);
    }
    m["core.merge_s"] = sw.elapsed();
  }
  {
    const Stopwatch sw(origin);
    out.string_graph = sgraph::finalize_string_graph(std::move(sg_out));
    m["sgraph.finalize_s"] = sw.elapsed();
  }
  out.traces = std::move(traces);
  out.exchange_log = world.exchange_records();

  double merge_s = 0.0;  // pulling the merged record stream, summed over its consumers
  eval::EvalReport report;
  {
    const Stopwatch sw(origin);
    eval::EvalConfig ecfg;
    ecfg.min_true_overlap = cfg.eval_min_overlap;
    ecfg.len_bin = cfg.eval_len_bin;
    auto source = out.alignment_source();
    TimedSource timed_source(*source, merge_s);
    report = eval::evaluate(*truth, timed_source, &out.string_graph.layout, ecfg);
    m["eval.wall_s"] = sw.elapsed();
  }
  {
    const Stopwatch sw(origin);
    const netsim::Topology topo{P / std::min(P, 4), std::min(P, 4)};
    (void)out.evaluate(netsim::local_host(), topo);
    m["netsim.replay_s"] = sw.elapsed();
  }
  {
    const Stopwatch sw(origin);
    std::filesystem::create_directories(out_dir);
    std::ostringstream paf;
    {
      auto source = out.alignment_source();
      TimedSource timed_source(*source, merge_s);
      core::write_paf(paf, timed_source, reads, cfg.sgraph_fuzz);
    }
    write_file(out_dir / "alignments.paf", paf.str());
    std::ostringstream ev, comp, unis, gfa;
    eval::write_eval_tsv(ev, report);
    write_file(out_dir / "eval.tsv", ev.str());
    sgraph::write_component_summary(comp, out.string_graph.layout);
    write_file(out_dir / "components.tsv", comp.str());
    sgraph::write_unitig_table(unis, out.string_graph.layout);
    write_file(out_dir / "unitigs.tsv", unis.str());
    sgraph::write_gfa(gfa, out.string_graph.surviving_edges, reads);
    write_file(out_dir / "graph.gfa", gfa.str());
    m["output.write_s"] = sw.elapsed();
  }
  const double pipeline_wall = Stopwatch::seconds(origin, Clock::now());

  // --- per-rank layers: blocked time from the exchange log, busy = wall - wait.
  for (std::size_t r = 0; r < n; ++r) {
    for (const comm::ExchangeRecord& rec : out.exchange_log[r]) {
      const Layer layer = layer_of_tag(rec.stage);
      if (layer != kLayers) times[r].wait[layer] += rec.wall_seconds;
    }
  }
  const auto per_rank = [&](auto&& fn) {
    std::vector<double> v(n);
    for (std::size_t r = 0; r < n; ++r) v[r] = fn(times[r]);
    return v;
  };
  std::size_t critical = 0;
  double critical_sum = -1.0;
  for (std::size_t r = 0; r < n; ++r) {
    double s = 0.0;
    for (double w : times[r].wall) s += w;
    if (s > critical_sum) critical_sum = s, critical = r;
  }
  const RankTimes& crit = times[critical];
  m["io.store_s"] = crit.wall[kStore];
  m["spill.write_s"] = crit.wall[kSpill];
  for (const Layer l : {kBloom, kDht, kOverlap, kRx, kAlign, kSgraph}) {
    const std::string name = kLayerNames[l];
    m[name + ".wall_s"] = crit.wall[l];
    const auto entries = per_rank([&](const RankTimes& t) { return t.entry[l]; });
    m[name + ".entry_skew_s"] =
        max_of(entries) - *std::min_element(entries.begin(), entries.end());
    m[name + ".imbalance"] = imbalance(per_rank([&](const RankTimes& t) {
      return t.wall[l] - t.wait[l];
    }));
  }
  const auto busy_sum = [&](Layer l) {
    return sum_of(per_rank([&](const RankTimes& t) { return t.wall[l] - t.wait[l]; }));
  };

  u64 windows = 0, kmers = 0, retained = 0, tasks = 0, pairs = 0, rx_reads = 0;
  u64 dp_cells = 0, aligned = 0, edges = 0, removed = 0;
  for (std::size_t r = 0; r < n; ++r) {
    windows += bloom_res[r].windows_scanned;
    kmers += bloom_res[r].parsed_instances;
    retained += ht_res[r].retained_keys;
    tasks += ov_res[r].pair_tasks_formed;
    pairs += ov_res[r].distinct_pairs;
    rx_reads += rx_res[r].reads_requested;
    dp_cells += al_res[r].dp_cells;
    aligned += al_res[r].pairs_aligned;
    edges += sg_res[r].edges_owned;
    removed += sg_res[r].edges_removed;
  }
  obs::Registry wire;
  for (const obs::Registry& reg : rank_wire) wire.merge(reg);
  const auto wire_counter = [&](const char* name, const char* tag) {
    return static_cast<double>(wire.counter(name, {{"stage", tag}}).value());
  };
  double comm_bytes = 0.0, comm_calls = 0.0;
  for (const char* tag : {"bloom", "ht", "overlap", "align", "sgraph"}) {
    comm_bytes += wire_counter("exchange_bytes", tag);
    comm_calls += wire_counter("exchange_calls", tag);
  }

  m["sketch.windows"] = static_cast<double>(windows);
  m["sketch.seeds_kept"] = static_cast<double>(kmers);
  m["bloom.kmers"] = static_cast<double>(kmers);
  m["bloom.bytes"] = wire_counter("exchange_bytes", "bloom");
  m["bloom.ns_per_kmer"] = 1e9 * ratio(busy_sum(kBloom), windows);  // per window scanned
  m["dht.retained_kmers"] = static_cast<double>(retained);
  m["dht.bytes"] = wire_counter("exchange_bytes", "ht");
  m["overlap.tasks"] = static_cast<double>(tasks);
  m["overlap.pairs"] = static_cast<double>(pairs);
  m["overlap.bytes"] = wire_counter("exchange_bytes", "overlap");
  m["overlap.ns_per_task"] = 1e9 * ratio(busy_sum(kOverlap), tasks);
  m["rx.reads"] = static_cast<double>(rx_reads);
  m["rx.bytes"] = wire_counter("exchange_bytes", "align");
  m["rx.wait_s"] = crit.wait[kRx];
  m["align.dp_cells"] = static_cast<double>(dp_cells);
  m["align.pairs"] = static_cast<double>(aligned);
  m["align.ns_per_cell"] = 1e9 * ratio(busy_sum(kAlign), dp_cells);
  m["align.useful_frac"] = ratio(static_cast<double>(report.overlap.true_positives), aligned);
  m["sgraph.edges"] = static_cast<double>(edges);
  m["sgraph.edges_removed"] = static_cast<double>(removed);
  m["sgraph.bytes"] = wire_counter("exchange_bytes", "sgraph");
  m["comm.bytes"] = comm_bytes;
  m["comm.calls"] = comm_calls;
  double exposed = 0.0;
  for (double w : crit.wait) exposed += w;
  m["comm.exposed_s"] = exposed;

  u64 loads = 0, evictions = 0, peak = 0;
  for (const io::ReadStoreMemoryStats& s : mem) {
    loads += s.block_loads;
    evictions += s.block_evictions;
    peak = std::max(peak, s.peak_resident_bytes);
  }
  m["io.block_loads"] = static_cast<double>(loads);
  m["io.block_evictions"] = static_cast<double>(evictions);
  m["io.peak_resident_bytes"] = static_cast<double>(peak);
  m["spill.bytes"] = spill ? static_cast<double>(spill->spill_bytes()) : 0.0;
  m["spill.merge_s"] = merge_s + sgraph_merge_s[critical];

  // Coverage: the layers on the critical path must account for the wall.
  double covered = critical_sum;
  for (const char* k : {"core.calib_s", "io.parse_s", "core.setup_s", "core.merge_s",
                        "sgraph.finalize_s", "eval.wall_s", "netsim.replay_s",
                        "output.write_s"}) {
    covered += m[k];
  }
  m["pipeline.wall_s"] = pipeline_wall;
  m["trace.coverage"] = covered / pipeline_wall;

  std::printf("{");
  const char* sep = "";
  for (const auto& [name, value] : m) {
    std::printf("%s\"%s\": %.17g", sep, name.c_str(), value);
    sep = ", ";
  }
  std::printf("}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(dibella::util::Args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_trace: %s\n", e.what());
    return 1;
  }
}
