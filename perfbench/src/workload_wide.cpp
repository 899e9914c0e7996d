// wide-solve: a few fixed Erdos-Renyi instances at 16 qubits, each
// solved naively (L-BFGS-B from a random start) and through the
// two-level ML flow with a bank trained in set-up on small graphs.  At
// 2^16 amplitudes the amplitude kernels and their sharding across the
// pool carry the time; optimizer and pipeline overhead is negligible.
// 16 rather than 18 qubits: a 4 MB state spills the per-core L2, and
// neighbours' cache and memory traffic then moved wall_s by 20-25%
// (quartile spread over ten runs) where the 1 MB state moves ~3%.
#include <cmath>

#include "bench.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/qaoa_solver.hpp"
#include "core/two_level_solver.hpp"
#include "graph/generators.hpp"

namespace perfbench {

namespace {

struct Round {
  double wall_s = 0.0;
  double naive_fc = 0.0;
  double ml_fc = 0.0;
  double ml_ar = 0.0;
  int solves = 0;
  std::vector<double> signature;  ///< every AR and FC, for the repeat check
};

}  // namespace

void wide_solve(Context& ctx) {
  const Config& cfg = ctx.config;
  const int threads = cfg.integer("threads");
  const qaoaml::ScopedThreadCount scope(threads);
  const int depth = cfg.integer("solve.depth");
  const int inits = cfg.integer("solve.inits_per_instance");
  // Pinned like the instances: a run holds too few wide solves to
  // average out seed-to-seed differences in optimizer work.
  const std::uint64_t init_seed = cfg.u64("solve.init_seed");
  qaoaml::core::TwoLevelConfig flow;
  flow.optimizer =
      qaoaml::optim::optimizer_from_string(cfg.str("solve.optimizer"));
  flow.level1_restarts = cfg.integer("solve.level1_restarts");
  const qaoaml::core::DatasetConfig bank_corpus =
      dataset_config(cfg, "bank", cfg.u64("bank.seed"));
  const LayerProbeSpec probe =
      probe_spec(ctx, cfg.integer("instances.nodes"), depth, threads);

  // Set-up: the bank (small-graph corpus + GPR) and the instances.
  // Later samples rebuild both under another name and drop them.
  auto set_up = [&](Bank& bank, std::vector<qaoaml::core::MaxCutQaoa>& instances,
                    const std::string& name) {
    bank = build_bank(ctx, bank_corpus, cfg.real("bank.split_frac"),
                      cfg.u64("bank.split_seed"), name);
    auto span = ctx.tracer.span("setup.instances");
    qaoaml::Rng rng(cfg.u64("instances.seed"));
    while (static_cast<int>(instances.size()) < cfg.integer("instances.count")) {
      qaoaml::graph::Graph g = qaoaml::graph::erdos_renyi_gnp(
          cfg.integer("instances.nodes"), cfg.real("instances.edge_prob"), rng);
      if (g.num_edges() >= 1) instances.emplace_back(std::move(g), depth);
    }
  };
  auto set_up_again = [&] {
    Bank bank;
    std::vector<qaoaml::core::MaxCutQaoa> instances;
    set_up(bank, instances, "wide-repeat");
  };
  SetupTimer setup(cfg.integer("setup.repeats"));
  Bank bank;
  std::vector<qaoaml::core::MaxCutQaoa> instances;
  setup.sample([&] { set_up(bank, instances, "wide"); });
  ctx.report.metric("ml.train_s", bank.train_s, "s", Better::kLower);

  // The serve-many half: the set-up bank behind qaoad, one predict
  // window after each round.
  PredictLeg leg(ctx, bank);

  std::vector<Round> rounds;
  std::vector<Round> traced;
  auto run_round = [&](bool is_traced) {
    auto round_span = ctx.tracer.span("round");
    Round round;
    const double t0 = now_s();
    for (std::size_t i = 0; i < instances.size(); ++i) {
      for (int j = 0; j < inits; ++j) {
        qaoaml::Rng rng(init_seed * 7919 + i * 131 + static_cast<std::uint64_t>(j));
        const qaoaml::core::QaoaRun naive = [&] {
          auto span = ctx.tracer.span("solve.naive");
          return qaoaml::core::solve_random_init(instances[i], flow.optimizer,
                                                 rng, flow.options);
        }();
        const qaoaml::core::AcceleratedRun ml = [&] {
          auto span = ctx.tracer.span("solve.two_level");
          return qaoaml::core::solve_two_level(
              instances[i].problem_graph(), depth, bank.predictor, flow, rng);
        }();
        round.naive_fc += naive.function_calls;
        round.ml_fc += ml.total_function_calls;
        round.ml_ar += ml.final.approximation_ratio;
        round.solves += 1;
        const bool ok = naive.function_calls > 0 &&
                        ml.total_function_calls > 0 &&
                        naive.approximation_ratio > 0 &&
                        naive.approximation_ratio <= 1 + 1e-12 &&
                        ml.final.approximation_ratio > 0 &&
                        ml.final.approximation_ratio <= 1 + 1e-12 &&
                        angles_ok(naive.params, depth) &&
                        angles_ok(ml.final.params, depth) &&
                        angles_ok(ml.predicted_init, depth);
        ctx.report.check(ok, "wide-solve result out of range");
        round.signature.insert(
            round.signature.end(),
            {naive.approximation_ratio, ml.final.approximation_ratio,
             static_cast<double>(naive.function_calls),
             static_cast<double>(ml.total_function_calls)});
      }
    }
    round.wall_s = now_s() - t0;
    (is_traced ? traced : rounds).push_back(std::move(round));
  };
  run_window(ctx, 2, run_round, [&](bool) {
    setup.sample(set_up_again);
    leg.window();
  });
  leg.finish();
  setup.fill(set_up_again);
  std::uint64_t differing = 0;
  for (const Round& r : rounds) differing += r.signature != rounds[0].signature;
  for (const Round& r : traced) differing += r.signature != rounds[0].signature;
  ctx.report.operations(rounds.size() + traced.size(), differing,
                        "a repeated wide-solve round changed its results");

  std::vector<double> walls;
  std::vector<double> traced_walls;
  for (const Round& r : rounds) walls.push_back(r.wall_s);
  for (const Round& r : traced) traced_walls.push_back(r.wall_s);
  const Round& first = rounds[0];
  const double wall = median(walls);
  ctx.report.metric("wall_s", wall, "s", Better::kLower);
  ctx.report.metric("fc_per_s", (first.naive_fc + first.ml_fc) / wall, "1/s",
                    Better::kHigher);
  ctx.report.metric("fc_reduction_pct",
                    100.0 * (first.naive_fc - first.ml_fc) / first.naive_fc,
                    "%", Better::kHigher);
  ctx.report.metric("ar_ml_mean", first.ml_ar / first.solves, "ratio",
                    Better::kHigher);

  ctx.report.metric("setup_s", setup.median_s() + leg.daemon_start_s(), "s",
                    Better::kLower);
  ctx.report.metric("peak_rss_mb", peak_rss_mb(), "MB", Better::kLower);
  if (!ctx.trace) return;

  ctx.report.metric("trace.overhead_pct",
                    100.0 * (median(traced_walls) / wall - 1.0), "%",
                    Better::kLower);
  probe_layers(ctx, probe);
}

}  // namespace perfbench
