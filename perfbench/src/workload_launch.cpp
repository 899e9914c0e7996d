// launch-table1: a smaller Table-I pipeline driven through
// core::run_shards over the real worker CLIs — corpus shards, the
// corpus merge, Table-I shards (each reloading the corpus and
// retraining the bank) and the report merge, all separate processes.
// It is the only workload that exercises the process layer: spawn,
// @qshard frames, per-shard reload/retrain and out-of-process merges.
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <tuple>

#include "bench.hpp"
#include "common/parallel.hpp"
#include "common/subprocess.hpp"
#include "core/shard_orchestrator.hpp"
#include "table1_common.hpp"

namespace perfbench {

namespace {

std::string tools_dir() {
  return (std::filesystem::read_symlink("/proc/self/exe").parent_path() /
          "qaoaml" / "tools")
      .string();
}

/// The worker CLI flags of the corpus stage: the pinned values, verbatim.
std::vector<std::string> corpus_flags(const Config& cfg) {
  return {"--graphs",    cfg.str("corpus.graphs"),
          "--nodes",     cfg.str("corpus.nodes"),
          "--min-edges", cfg.str("corpus.min_edges"),
          "--depth",     cfg.str("corpus.depth"),
          "--restarts",  cfg.str("corpus.restarts"),
          "--optimizer", cfg.str("corpus.optimizer"),
          "--family",    cfg.str("corpus.family"),
          "--edge-prob", cfg.str("corpus.edge_prob"),
          "--seed",      cfg.str("corpus.seed")};
}

/// The worker CLI flags of the Table-I stage for one sweep seed.
std::vector<std::string> table1_flags(const Config& cfg,
                                      std::uint64_t sweep_seed) {
  return {"--corpus",     "corpus.txt",
          "--split-frac", cfg.str("split.frac"),
          "--split-seed", cfg.str("split.seed"),
          "--optimizers", cfg.str("sweep.optimizers"),
          "--depths",     cfg.str("sweep.depths"),
          "--naive-runs", cfg.str("sweep.naive_runs"),
          "--ml-repeats", cfg.str("sweep.ml_repeats"),
          "--seed",       std::to_string(sweep_seed)};
}

struct StageResult {
  double wall_s = 0.0;
  double busy_s = 0.0;  ///< summed worker `done` seconds
  int attempts = 0;
};

/// Runs one sharded stage through the orchestrator.
StageResult run_stage(Context& ctx, const std::string& binary,
                      const std::vector<std::string>& flags,
                      const std::string& dir, const std::string& stem,
                      int shards, int workers) {
  StageResult result;
  std::mutex mutex;
  qaoaml::core::OrchestratorConfig config;
  config.shard_count = shards;
  config.workers = workers;
  config.retry_budget = ctx.config.integer("launch.retries");
  config.stall_timeout_s = ctx.config.real("launch.stall_timeout_s");
  config.worker_argv = [&](int shard) {
    std::vector<std::string> argv{binary};
    argv.insert(argv.end(), flags.begin(), flags.end());
    for (const std::string& tail :
         {std::string("--dir"), dir, std::string("--shards"),
          std::to_string(shards), std::string("--shard"), std::to_string(shard),
          std::string("--no-merge"), std::string("--progress-stream")}) {
      argv.push_back(tail);
    }
    return argv;
  };
  config.lock_path = [&](int shard) {
    return dir + "/" + stem + ".shard" + std::to_string(shard) + "of" +
           std::to_string(shards) + ".txt.lock";
  };
  // The injector hook sees every protocol event; it never kills, it
  // only collects each worker's own `done` seconds.
  config.kill_injector = [&](int, int, const qaoaml::proto::Event& event) {
    if (event.kind == qaoaml::proto::Event::Kind::kDone) {
      const std::lock_guard<std::mutex> lock(mutex);
      result.busy_s += event.seconds;
    }
    return false;
  };
  const double t0 = now_s();
  const qaoaml::core::OrchestratorReport report = qaoaml::core::run_shards(config);
  result.wall_s = now_s() - t0;
  for (const auto& shard : report.shards) result.attempts += shard.attempts;
  ctx.report.check(report.succeeded, "every " + stem + " shard succeeded");
  return result;
}

/// Runs a worker's --merge-only step as its own process.
double run_merge(Context& ctx, const std::string& binary,
                 std::vector<std::string> argv) {
  argv.insert(argv.begin(), binary);
  const double t0 = now_s();
  qaoaml::Subprocess merge = qaoaml::Subprocess::spawn(argv);
  std::string line;
  std::string output;
  while (merge.read_line(line, -1) == qaoaml::Subprocess::ReadResult::kLine) {
    output += line + "\n";
  }
  const qaoaml::Subprocess::ExitStatus status = merge.wait();
  ctx.report.check(status.success(), binary + " merge: " + status.describe() +
                                         "\n" + output);
  return now_s() - t0;
}

std::vector<qaoaml::core::TableRow> parse_report(const std::string& path) {
  std::ifstream is(path);
  std::vector<qaoaml::core::TableRow> rows;
  std::string line;
  while (std::getline(is, line)) {
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag != "row") continue;
    qaoaml::core::TableRow row;
    std::string optimizer;
    ls >> optimizer >> row.target_depth >> row.naive_ar_mean >>
        row.naive_ar_sd >> row.naive_fc_mean >> row.naive_fc_sd >>
        row.ml_ar_mean >> row.ml_ar_sd >> row.ml_fc_mean >> row.ml_fc_sd >>
        row.fc_reduction_percent;
    if (!ls) throw std::runtime_error("malformed report line: " + line);
    row.optimizer = qaoaml::optim::optimizer_from_string(optimizer);
    rows.push_back(row);
  }
  return rows;
}

struct Pass : Table1Pass {
  StageResult corpus;
  StageResult sweep;
  double merge_s = 0.0;
  std::string report_digest;
};

}  // namespace

void launch_table1(Context& ctx) {
  const Config& cfg = ctx.config;
  const int threads = cfg.integer("threads");
  const int shards = cfg.integer("launch.shards");
  const int workers = cfg.integer("launch.workers");
  const Table1Spec spec = table1_spec(cfg, ctx.seed);
  const LayerProbeSpec probe = probe_spec(ctx, spec.corpus.num_nodes,
                                          cfg.integer("probe.depth"), threads);
  // Workers inherit the environment; the in-process parts match them.
  setenv("QAOAML_THREADS", std::to_string(threads).c_str(), 1);
  const qaoaml::ScopedThreadCount scope(threads);
  const std::string bin = tools_dir();
  const std::string generate_corpus = bin + "/generate_corpus";
  const std::string run_table1 = bin + "/run_table1";

  // Set-up: the first corpus unit in process (the reference the
  // launched corpus must reproduce bit for bit).
  qaoaml::core::InstanceRecord reference;
  SetupTimer setup(cfg.integer("setup.repeats"));
  auto warm_up = [&] {
    auto span = ctx.tracer.span("setup.instances");
    reference = qaoaml::core::generate_instance_record(spec.corpus, 0);
  };
  setup.sample(warm_up);

  std::vector<Pass> passes;
  Bank first;  // pass 0's merged corpus, for the bank served between passes
  std::unique_ptr<PredictLeg> leg;
  auto run_pass = [&](bool) {
    const std::size_t k = passes.size();
    const std::uint64_t sweep_seed = spec.sweep_seeds[k % spec.sweep_seeds.size()];
    const std::string dir = fresh_dir(ctx, "launch-pass");
    Pass pass;
    std::optional<Tracer::Scope> pass_span;
    pass_span.emplace(ctx.tracer, "pass", 0);
    const double t0 = now_s();
    const std::vector<std::string> cflags = corpus_flags(cfg);
    {
      auto span = ctx.tracer.span("launch.corpus");
      pass.corpus = run_stage(ctx, generate_corpus, cflags, dir, "corpus",
                              shards, workers);
    }
    {
      auto span = ctx.tracer.span("launch.merge");
      std::vector<std::string> argv = cflags;
      for (const char* tail : {"--dir", dir.c_str(), "--shards"}) argv.push_back(tail);
      argv.insert(argv.end(), {std::to_string(shards), "--merge-only", "--out",
                               "corpus.txt"});
      pass.merge_s += run_merge(ctx, generate_corpus, argv);
    }
    maybe_corrupt(ctx, "corpus", dir + "/corpus.txt");
    const std::vector<std::string> tflags = table1_flags(cfg, sweep_seed);
    {
      auto span = ctx.tracer.span("launch.sweep");
      pass.sweep = run_stage(ctx, run_table1, tflags, dir, "table1", shards,
                             workers);
    }
    {
      auto span = ctx.tracer.span("launch.merge");
      std::vector<std::string> argv = tflags;
      for (const char* tail : {"--dir", dir.c_str(), "--shards"}) argv.push_back(tail);
      argv.insert(argv.end(), {std::to_string(shards), "--merge-only", "--out",
                               "table1.txt"});
      pass.merge_s += run_merge(ctx, run_table1, argv);
    }
    pass.wall_s = now_s() - t0;
    pass_span.reset();

    const std::string corpus_path = dir + "/corpus.txt";
    const std::string report_path = dir + "/table1.txt";
    qaoaml::core::ParameterDataset corpus =
        qaoaml::core::ParameterDataset::load(corpus_path);
    pass.rows = parse_report(report_path);
    pass.report_digest = file_digest(report_path);
    qaoaml::Rng split_rng(spec.split_seed);
    const std::size_t test_graphs =
        corpus.split_indices(spec.split_frac, split_rng).second.size();
    pass.fc = check_corpus(ctx, corpus, spec.corpus) +
              check_rows(ctx, pass.rows, spec.sweep, test_graphs);
    ctx.report.check(!corpus.records().empty() &&
                         corpus.records()[0].optimal_params ==
                             reference.optimal_params &&
                         corpus.records()[0].generation_fc ==
                             reference.generation_fc,
                     "launched corpus unit 0 equals the in-process unit");
    if (k == 0) {
      check_digest(ctx, "launch-table1.corpus", corpus_path, true);
      check_digest(ctx, "launch-table1.report", report_path, false);
      first.corpus = std::move(corpus);
    }
    if (k >= spec.sweep_seeds.size()) {
      ctx.report.check(
          pass.report_digest ==
              passes[k % spec.sweep_seeds.size()].report_digest,
          "a repeated launch reproduces its report bit for bit");
    }
    passes.push_back(std::move(pass));
  };
  // The serve-many half: the bank every Table-I worker trained, rebuilt
  // from pass 0's merged corpus the same deterministic way, behind
  // qaoad; one predict window after each later pass.
  auto serve = [&](bool) {
    setup.sample(warm_up);
    if (leg) {
      leg->window();
      return;
    }
    qaoaml::Rng rng(spec.split_seed);
    std::tie(first.train, first.test) =
        first.corpus.split_indices(spec.split_frac, rng);
    const double t0 = now_s();
    first.predictor.train(first.corpus, first.train);
    ctx.report.metric("ml.train_s", now_s() - t0, "s", Better::kLower);
    first.path = ctx.work_dir + "/launch.qpbk";
    first.predictor.save(first.path);
    leg = std::make_unique<PredictLeg>(ctx, first);
  };
  const std::size_t untraced =
      run_window(ctx, spec.sweep_seeds.size(), run_pass, serve);
  leg->finish();
  setup.fill(warm_up);

  report_table1_passes(ctx, as_table1_passes(passes), untraced,
                       spec.sweep_seeds.size());

  ctx.report.metric("setup_s", setup.median_s() + leg->daemon_start_s(), "s",
                    Better::kLower);
  ctx.report.metric("peak_rss_mb", peak_rss_mb(), "MB", Better::kLower);

  auto stage = [&](auto pick) {
    std::vector<double> v;
    for (std::size_t p = 0; p < untraced; ++p) v.push_back(pick(passes[p]));
    return median(v);
  };
  ctx.report.metric("launch.corpus_s",
                    stage([](const Pass& p) { return p.corpus.wall_s; }), "s",
                    Better::kLower);
  ctx.report.metric("launch.sweep_s",
                    stage([](const Pass& p) { return p.sweep.wall_s; }), "s",
                    Better::kLower);
  ctx.report.metric("launch.merge_s",
                    stage([](const Pass& p) { return p.merge_s; }), "s",
                    Better::kLower);
  ctx.report.metric(
      "launch.worker_busy_share", stage([&](const Pass& p) {
        return (p.corpus.busy_s + p.sweep.busy_s) /
               (workers * (p.corpus.wall_s + p.sweep.wall_s));
      }),
      "ratio", Better::kHigher);
  double attempts = 0.0;
  for (const Pass& p : passes) attempts += p.corpus.attempts + p.sweep.attempts;
  ctx.report.metric("launch.attempts", attempts / static_cast<double>(passes.size()),
                    "count", Better::kLower);
  if (!ctx.trace) return;

  probe_layers(ctx, probe);
}

}  // namespace perfbench
