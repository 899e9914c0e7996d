// What the two Table-I workloads (in process and launched) share: the
// pinned config, the report format, and the output checks.
#ifndef PERFBENCH_TABLE1_COMMON_HPP
#define PERFBENCH_TABLE1_COMMON_HPP

#include <string>
#include <vector>

#include "bench.hpp"
#include "core/experiment.hpp"

namespace perfbench {

struct Table1Spec {
  qaoaml::core::DatasetConfig corpus;
  double split_frac = 0.2;
  std::uint64_t split_seed = 5;
  qaoaml::core::ExperimentConfig sweep;
  /// One sweep seed per distinct pass, derived from the workload seed.
  std::vector<std::uint64_t> sweep_seeds;
};

/// From the corpus.*, split.* and sweep.* keys.
Table1Spec table1_spec(const Config& config, std::uint64_t seed);

/// The qaoaml-table1-report-v1 format tools/run_table1 --out writes.
void write_table1_report(const std::string& path,
                         const std::vector<qaoaml::core::TableRow>& rows);

/// Checks record count, depths, AR in (0, 1], FC > 0 and in-bounds
/// angles; returns the corpus's objective calls.
double check_corpus(Context& ctx, const qaoaml::core::ParameterDataset& dataset,
                    const qaoaml::core::DatasetConfig& config);

/// Checks row count, AR in (0, 1] and FC > 0; returns the sweep's
/// objective calls (naive and ML arms).
double check_rows(Context& ctx, const std::vector<qaoaml::core::TableRow>& rows,
                  const qaoaml::core::ExperimentConfig& sweep,
                  std::size_t test_graphs);

/// What every Table-I pass measures, in process or launched.
struct Table1Pass {
  double wall_s = 0.0;
  double fc = 0.0;  ///< objective calls of the corpus and the sweep
  std::vector<qaoaml::core::TableRow> rows;
};

/// Reports wall_s and fc_per_s (medians over the `untraced` passes that
/// open `passes`), fc_reduction_pct and ar_ml_mean over the rows of the
/// first `distinct` passes (one per sweep seed, so deterministic per
/// run seed), and in a traced run trace.overhead_pct.
void report_table1_passes(Context& ctx,
                          const std::vector<const Table1Pass*>& passes,
                          std::size_t untraced, std::size_t distinct);

/// `passes` as base pointers, for report_table1_passes.
template <typename Pass>
std::vector<const Table1Pass*> as_table1_passes(const std::vector<Pass>& passes) {
  std::vector<const Table1Pass*> out;
  for (const Pass& pass : passes) out.push_back(&pass);
  return out;
}

/// Serial replay of every corpus unit at one thread:
/// pipeline.unit_s_{p50,max} and pipeline.fanout_efficiency.
void replay_corpus_units(Context& ctx, const qaoaml::core::DatasetConfig& corpus,
                         int threads, double corpus_s);

}  // namespace perfbench

#endif  // PERFBENCH_TABLE1_COMMON_HPP
