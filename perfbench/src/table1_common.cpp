#include "table1_common.hpp"

#include <cmath>
#include <fstream>
#include <iomanip>
#include <stdexcept>

#include "common/parallel.hpp"
#include "core/parameter_dataset.hpp"

namespace perfbench {

Table1Spec table1_spec(const Config& config, std::uint64_t seed) {
  Table1Spec spec;
  spec.corpus = dataset_config(config, "corpus", config.u64("corpus.seed"));
  spec.split_frac = config.real("split.frac");
  spec.split_seed = config.u64("split.seed");
  spec.sweep.optimizers.clear();
  for (const std::string& name : config.strings("sweep.optimizers")) {
    spec.sweep.optimizers.push_back(qaoaml::optim::optimizer_from_string(name));
  }
  spec.sweep.target_depths = config.integers("sweep.depths");
  spec.sweep.naive_runs = config.integer("sweep.naive_runs");
  spec.sweep.ml_repeats = config.integer("sweep.ml_repeats");
  const int distinct = config.integer("sweep.distinct_seeds");
  for (int k = 0; k < distinct; ++k) {
    spec.sweep_seeds.push_back(seed * 1000 + static_cast<std::uint64_t>(k));
  }
  return spec;
}

void write_table1_report(const std::string& path,
                         const std::vector<qaoaml::core::TableRow>& rows) {
  std::ofstream os(path);
  os << "qaoaml-table1-report-v1\n";
  os << std::setprecision(17);
  for (const qaoaml::core::TableRow& row : rows) {
    os << "row " << qaoaml::optim::to_string(row.optimizer) << ' '
       << row.target_depth << ' ' << row.naive_ar_mean << ' '
       << row.naive_ar_sd << ' ' << row.naive_fc_mean << ' '
       << row.naive_fc_sd << ' ' << row.ml_ar_mean << ' ' << row.ml_ar_sd
       << ' ' << row.ml_fc_mean << ' ' << row.ml_fc_sd << ' '
       << row.fc_reduction_percent << '\n';
  }
  os << "average_fc_reduction " << qaoaml::core::average_fc_reduction(rows)
     << '\n';
  os.flush();
  if (!os) throw std::runtime_error("cannot write " + path);
}

namespace {

bool ratio_ok(double ar) { return std::isfinite(ar) && ar > 0.0 && ar <= 1.0 + 1e-12; }

}  // namespace

double check_corpus(Context& ctx, const qaoaml::core::ParameterDataset& dataset,
                    const qaoaml::core::DatasetConfig& config) {
  ctx.report.check(dataset.size() == static_cast<std::size_t>(config.num_graphs),
                   "corpus holds " + std::to_string(dataset.size()) +
                       " records, want " + std::to_string(config.num_graphs));
  double fc = 0.0;
  std::uint64_t bad = 0;
  std::uint64_t checked = 0;
  for (const qaoaml::core::InstanceRecord& record : dataset.records()) {
    ++checked;
    bool ok = record.optimal_params.size() ==
                  static_cast<std::size_t>(config.max_depth) &&
              record.problem.num_nodes() == config.num_nodes;
    for (std::size_t d = 0; ok && d < record.optimal_params.size(); ++d) {
      ok = angles_ok(record.optimal_params[d], static_cast<int>(d) + 1) &&
           ratio_ok(record.approximation_ratio[d]) &&
           record.generation_fc[d] > 0;
      fc += record.generation_fc[d];
    }
    if (!ok) ++bad;
  }
  ctx.report.operations(checked, bad, "corpus record out of range");
  return fc;
}

double check_rows(Context& ctx, const std::vector<qaoaml::core::TableRow>& rows,
                  const qaoaml::core::ExperimentConfig& sweep,
                  std::size_t test_graphs) {
  const std::size_t want = sweep.optimizers.size() * sweep.target_depths.size();
  ctx.report.check(rows.size() == want, "Table-I has " +
                                            std::to_string(rows.size()) +
                                            " rows, want " + std::to_string(want));
  double fc = 0.0;
  std::uint64_t bad = 0;
  for (const qaoaml::core::TableRow& row : rows) {
    const bool ok = ratio_ok(row.naive_ar_mean) && ratio_ok(row.ml_ar_mean) &&
                    row.naive_fc_mean > 0 && row.ml_fc_mean > 0 &&
                    std::isfinite(row.fc_reduction_percent);
    if (!ok) ++bad;
    fc += std::round((row.naive_fc_mean * sweep.naive_runs +
                      row.ml_fc_mean * sweep.ml_repeats) *
                     static_cast<double>(test_graphs));
  }
  ctx.report.operations(rows.size(), bad, "Table-I row out of range");
  return fc;
}

void report_table1_passes(Context& ctx,
                          const std::vector<const Table1Pass*>& passes,
                          std::size_t untraced, std::size_t distinct) {
  std::vector<double> walls;
  std::vector<double> traced_walls;
  std::vector<double> fc_rates;
  for (std::size_t p = 0; p < passes.size(); ++p) {
    (p < untraced ? walls : traced_walls).push_back(passes[p]->wall_s);
    if (p < untraced) fc_rates.push_back(passes[p]->fc / passes[p]->wall_s);
  }
  ctx.report.metric("wall_s", median(walls), "s", Better::kLower);
  ctx.report.metric("fc_per_s", median(fc_rates), "1/s", Better::kHigher);

  std::vector<qaoaml::core::TableRow> rows;
  double ar = 0.0;
  for (std::size_t p = 0; p < distinct; ++p) {
    for (const qaoaml::core::TableRow& row : passes[p]->rows) {
      rows.push_back(row);
      ar += row.ml_ar_mean;
    }
  }
  ctx.report.metric("fc_reduction_pct",
                    qaoaml::core::average_fc_reduction(rows), "%",
                    Better::kHigher);
  ctx.report.metric("ar_ml_mean", ar / static_cast<double>(rows.size()),
                    "ratio", Better::kHigher);
  if (ctx.trace) {
    ctx.report.metric("trace.overhead_pct",
                      100.0 * (median(traced_walls) / median(walls) - 1.0),
                      "%", Better::kLower);
  }
}

void replay_corpus_units(Context& ctx, const qaoaml::core::DatasetConfig& corpus,
                         int threads, double corpus_s) {
  auto span = ctx.tracer.span("replay.corpus_units");
  const qaoaml::ScopedThreadCount one(1);
  std::vector<double> unit_s;
  for (int g = 0; g < corpus.num_graphs; ++g) {
    auto unit_span = ctx.tracer.span("replay.unit");
    const double t0 = now_s();
    qaoaml::core::generate_instance_record(corpus, static_cast<std::size_t>(g));
    unit_s.push_back(now_s() - t0);
  }
  double sum = 0.0;
  for (const double s : unit_s) sum += s;
  ctx.report.metric("pipeline.unit_s_p50", median(unit_s), "s", Better::kLower);
  ctx.report.metric("pipeline.unit_s_max", quantile(unit_s, 1.0), "s",
                    Better::kLower);
  ctx.report.metric("pipeline.fanout_efficiency", sum / (threads * corpus_s),
                    "ratio", Better::kHigher);
}

}  // namespace perfbench
