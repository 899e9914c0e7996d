// table1-pipeline: the paper's offline pipeline in one process through
// the public shard API — corpus (CorpusPipeline::run_shard +
// merge_shards), GPR bank training on a 20:80 split, the Table-I sweep
// (run_table1_shard + merge_table1_shards) and the merged report —
// repeated for the whole measuring window.
#include <filesystem>
#include <memory>

#include "bench.hpp"
#include "common/parallel.hpp"
#include "core/corpus_pipeline.hpp"
#include "core/experiment.hpp"
#include "table1_common.hpp"

namespace perfbench {

namespace {

struct Pass : Table1Pass {
  double corpus_s = 0.0;
  double train_s = 0.0;
  double bank_s = 0.0;
  double sweep_s = 0.0;
  double merge_s = 0.0;
  double bytes = 0.0;
  std::size_t sweep_units = 0;
  std::string corpus_digest;
  std::string report_digest;
};

}  // namespace

void table1_pipeline(Context& ctx) {
  const Config& cfg = ctx.config;
  const int threads = cfg.integer("threads");
  const qaoaml::ScopedThreadCount scope(threads);
  const Table1Spec spec = table1_spec(cfg, ctx.seed);
  const LayerProbeSpec probe = probe_spec(ctx, spec.corpus.num_nodes,
                                          cfg.integer("probe.depth"), threads);

  // Set-up: the first corpus unit, which starts the pool and warms the
  // allocator and caches the passes then reuse.
  SetupTimer setup(cfg.integer("setup.repeats"));
  auto warm_up = [&] {
    auto span = ctx.tracer.span("setup.instances");
    const qaoaml::core::InstanceRecord record =
        qaoaml::core::generate_instance_record(spec.corpus, 0);
    ctx.report.check(record.optimal_params.size() ==
                         static_cast<std::size_t>(spec.corpus.max_depth),
                     "warm-up record has every depth");
  };
  setup.sample(warm_up);

  std::vector<Pass> passes;
  Bank first;  // pass 0's corpus and bank, served between passes
  std::unique_ptr<PredictLeg> leg;
  auto run_pass = [&](bool) {
    const std::size_t k = passes.size();
    qaoaml::core::ExperimentConfig sweep = spec.sweep;
    sweep.seed = spec.sweep_seeds[k % spec.sweep_seeds.size()];
    const std::string dir = fresh_dir(ctx, "table1-pass");
    const std::string corpus_path = dir + "/corpus.txt";
    const std::string report_path = dir + "/table1.txt";
    Pass pass;
    qaoaml::core::ParameterDataset dataset;
    std::vector<std::size_t> train;
    std::vector<std::size_t> test;
    qaoaml::core::ParameterPredictor bank;
    {
      auto pass_span = ctx.tracer.span("pass");
      const double t0 = now_s();
      {
        auto span = ctx.tracer.span("pipeline.corpus");
        qaoaml::core::CorpusShardConfig shard;
        shard.dataset = spec.corpus;
        shard.directory = dir;
        qaoaml::core::CorpusPipeline::run_shard(shard);
        pass.corpus_s = now_s() - t0;
        const double m0 = now_s();
        auto merge_span = ctx.tracer.span("pipeline.merge");
        qaoaml::core::CorpusPipeline::merge_shards(spec.corpus, 1, dir,
                                                   corpus_path);
        pass.merge_s += now_s() - m0;
      }
      maybe_corrupt(ctx, "corpus", corpus_path);
      {
        auto span = ctx.tracer.span("pipeline.train");
        const double l0 = now_s();
        dataset = qaoaml::core::ParameterDataset::load(corpus_path);
        qaoaml::Rng rng(spec.split_seed);
        std::tie(train, test) = dataset.split_indices(spec.split_frac, rng);
        const double b0 = now_s();
        bank.train(dataset, train);
        pass.bank_s = now_s() - b0;
        pass.train_s = now_s() - l0;
      }
      {
        auto span = ctx.tracer.span("pipeline.sweep");
        const double s0 = now_s();
        const qaoaml::core::Table1ShardReport shard =
            qaoaml::core::run_table1_shard(dataset, test, bank, sweep, {0, 1},
                                           dir);
        pass.sweep_s = now_s() - s0;
        pass.sweep_units = shard.units_generated;
        const double m0 = now_s();
        auto merge_span = ctx.tracer.span("pipeline.merge");
        pass.rows =
            qaoaml::core::merge_table1_shards(dataset, test, sweep, 1, dir);
        write_table1_report(report_path, pass.rows);
        pass.merge_s += now_s() - m0;
      }
      pass.wall_s = now_s() - t0;
    }

    pass.corpus_digest = file_digest(corpus_path);
    pass.report_digest = file_digest(report_path);
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      pass.bytes += static_cast<double>(file_size(entry.path().string()));
    }
    pass.fc = check_corpus(ctx, dataset, spec.corpus) +
              check_rows(ctx, pass.rows, sweep, test.size());
    if (k == 0) {
      check_digest(ctx, "table1-pipeline.corpus", corpus_path, true);
      check_digest(ctx, "table1-pipeline.report", report_path, false);
      first.corpus = std::move(dataset);
      first.train = std::move(train);
      first.test = std::move(test);
      first.predictor = std::move(bank);
    }
    if (k >= spec.sweep_seeds.size()) {
      const Pass& twin = passes[k % spec.sweep_seeds.size()];
      ctx.report.check(pass.report_digest == twin.report_digest &&
                           pass.corpus_digest == twin.corpus_digest,
                       "a repeated pass reproduces its artifacts bit for bit");
    }
    passes.push_back(std::move(pass));
  };
  // The serve-many half: pass 0's bank behind qaoad, one predict window
  // after each later pass.
  auto serve = [&](bool) {
    setup.sample(warm_up);
    if (leg) {
      leg->window();
      return;
    }
    first.path = ctx.work_dir + "/table1.qpbk";
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

  auto stage = [&](auto member) {
    std::vector<double> v;
    for (std::size_t p = 0; p < untraced; ++p) v.push_back(passes[p].*member);
    return median(v);
  };
  const double corpus_s = stage(&Pass::corpus_s);
  const double sweep_s = stage(&Pass::sweep_s);
  ctx.report.metric("pipeline.corpus_s", corpus_s, "s", Better::kLower);
  ctx.report.metric("pipeline.train_s", stage(&Pass::train_s), "s",
                    Better::kLower);
  ctx.report.metric("pipeline.sweep_s", sweep_s, "s", Better::kLower);
  ctx.report.metric("pipeline.merge_s", stage(&Pass::merge_s), "s",
                    Better::kLower);
  ctx.report.metric("pipeline.corpus_units_per_s",
                    spec.corpus.num_graphs / corpus_s, "1/s", Better::kHigher);
  ctx.report.metric("pipeline.sweep_units_per_s",
                    static_cast<double>(passes[0].sweep_units) / sweep_s, "1/s",
                    Better::kHigher);
  ctx.report.metric("pipeline.bytes_written", passes[0].bytes, "B",
                    Better::kLower);
  ctx.report.metric("ml.train_s", stage(&Pass::bank_s), "s", Better::kLower);
  if (!ctx.trace) return;

  replay_corpus_units(ctx, spec.corpus, threads, corpus_s);
  probe_layers(ctx, probe);
}

}  // namespace perfbench
