// serve-mixed: an in-process qaoad Server (2 workers) on 2 connections,
// answering 60% predict, 30% warm-start and 10% solve requests on n = 12
// graphs at target depth 3.  Half the window plays open-loop traffic at
// a fixed rate (the latency figures); the other half plays saturating
// bursts of the same mix (wall_s, fc_per_s: the server's capacity).
// The same scheduler and micro-batcher serve pure ML/wire requests
// beside simulator- and optimizer-heavy ones.
#include <cmath>
#include <map>
#include <memory>
#include <numeric>
#include <utility>

#include "bench.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/qaoa_solver.hpp"
#include "core/serving_client.hpp"
#include "graph/generators.hpp"

namespace perfbench {

namespace {

using qaoaml::core::serving::Mode;
using qaoaml::core::serving::Response;

struct Pool {
  std::vector<qaoaml::graph::Graph> graphs;
  std::vector<double> gamma1;    ///< depth-1 optimum (predict inputs)
  std::vector<double> beta1;
  std::vector<double> naive_fc;  ///< naive solve at the target depth
};

}  // namespace

void serve_mixed(Context& ctx) {
  const Config& cfg = ctx.config;
  const int threads = cfg.integer("threads");
  const qaoaml::ScopedThreadCount scope(threads);
  const std::string family = cfg.str("serve.family");
  const int depth = cfg.integer("serve.target_depth");
  const double rate = cfg.real("serve.rate_rps");
  // Half the window plays the open-loop schedule, half the bursts.
  const int requests = std::max(
      cfg.integer("serve.min_requests"),
      static_cast<int>(std::lround(rate * ctx.seconds / 2)));
  const int burst_size = cfg.integer("serve.burst");
  const int min_bursts = cfg.integer("serve.min_bursts");
  const double mix_predict = cfg.real("serve.mix_predict");
  const double mix_warm = cfg.real("serve.mix_warm_start");
  const int level1_restarts = cfg.integer("serve.level1_restarts");
  const int naive_inits = cfg.integer("pool.naive_inits");
  // Pinned per graph, like the pool: the run seed picks the traffic.
  const std::uint64_t pool_seed = cfg.u64("pool.seed");
  const qaoaml::optim::OptimizerKind optimizer =
      qaoaml::optim::optimizer_from_string(cfg.str("serve.optimizer"));
  const qaoaml::core::DatasetConfig bank_corpus =
      dataset_config(cfg, "bank", cfg.u64("bank.seed"));
  const LayerProbeSpec probe =
      probe_spec(ctx, cfg.integer("pool.nodes"), depth, threads);

  // Set-up: bank, request pool (graphs, their depth-1 optima and a
  // naive baseline solve), daemon start.  Later samples build a second
  // stack under another name, check its pool equals the first, and stop
  // it.
  struct Stack {
    Bank bank;
    Pool pool;
    qaoaml::core::serving::ServerConfig config;
    std::unique_ptr<qaoaml::core::serving::Server> server;
  };
  auto set_up = [&](Stack& stack, const std::string& name) {
    stack.bank = build_bank(ctx, bank_corpus, cfg.real("bank.split_frac"),
                            cfg.u64("bank.split_seed"), name);
    auto span = ctx.tracer.span("setup.instances");
    // One RNG stream per graph, so the pool is built across the pool
    // threads and still the same on every run and thread count.
    const auto graphs = static_cast<std::size_t>(cfg.integer("pool.graphs"));
    const int nodes = cfg.integer("pool.nodes");
    const double edge_prob = cfg.real("pool.edge_prob");
    Pool& pool = stack.pool;
    pool.graphs.resize(graphs);
    pool.gamma1.resize(graphs);
    pool.beta1.resize(graphs);
    pool.naive_fc.resize(graphs);
    qaoaml::parallel_for(graphs, [&](std::size_t g) {
      qaoaml::Rng rng(pool_seed * 7919 + g);
      qaoaml::graph::Graph graph;
      do {
        graph = qaoaml::graph::erdos_renyi_gnp(nodes, edge_prob, rng);
      } while (graph.num_edges() < 1);
      const qaoaml::core::QaoaRun level1 = qaoaml::core::solve_random_init(
          qaoaml::core::MaxCutQaoa(graph, 1), optimizer, rng);
      const qaoaml::core::MaxCutQaoa instance(graph, depth);
      double naive_fc = 0.0;
      for (int i = 0; i < naive_inits; ++i) {
        naive_fc += qaoaml::core::solve_random_init(instance, optimizer, rng)
                        .function_calls;
      }
      pool.gamma1[g] = level1.params[0];
      pool.beta1[g] = level1.params[1];
      pool.naive_fc[g] = naive_fc / naive_inits;
      pool.graphs[g] = std::move(graph);
    });
    auto daemon_span = ctx.tracer.span("setup.daemon_start");
    stack.config = server_config(ctx, stack.bank.path, name);
    stack.server = std::make_unique<qaoaml::core::serving::Server>(stack.config);
    qaoaml::core::serving::Client(stack.config.socket_path).ping();
  };
  SetupTimer setup(cfg.integer("setup.repeats"));
  Stack live;
  setup.sample([&] { set_up(live, "serve"); });
  const Bank& bank = live.bank;
  const Pool& pool = live.pool;
  const std::string socket_path = live.config.socket_path;
  auto set_up_again = [&] {
    Stack spare;
    setup.sample([&] { set_up(spare, "serve-repeat"); });
    if (!spare.server) return;  // every sample was already in
    spare.server->stop();
    ctx.report.check(spare.pool.gamma1 == pool.gamma1 &&
                         spare.pool.beta1 == pool.beta1 &&
                         spare.pool.naive_fc == pool.naive_fc,
                     "a repeated set-up builds the same pool");
  };
  ctx.report.metric("ml.train_s", bank.train_s, "s", Better::kLower);

  auto request_for = [&](Mode mode, std::size_t g) {
    Scheduled item;
    auto& rq = item.request;
    rq.mode = mode;
    rq.family = family;
    rq.target_depth = depth;
    rq.gamma1 = pool.gamma1[g];
    rq.beta1 = pool.beta1[g];
    if (mode != Mode::kPredict) rq.problem = pool.graphs[g];
    rq.seed = pool_seed * 1000 + g;  // one level-1 stream per graph
    rq.level1_restarts = level1_restarts;
    return item;
  };
  const double mix[3] = {mix_predict, mix_warm, 1.0 - mix_predict - mix_warm};

  // The open-loop schedule at the pinned rate.
  qaoaml::Rng rng(ctx.seed * 15485863 + 3);
  std::vector<Scheduled> schedule;
  std::vector<std::size_t> graph_of;
  // Each mode walks the pool in freshly shuffled rounds, so every graph
  // is asked about equally often: which graphs a run happens to draw
  // would otherwise move the solve tail, and with it serve_p99_ms.
  std::vector<std::size_t> order[3];
  std::size_t drawn[3] = {0, 0, 0};
  double due = 0.0;
  for (int k = 0; k < requests; ++k) {
    due += -std::log(1.0 - rng.uniform()) / rate;
    const double u = rng.uniform();
    const Mode mode = u < mix[0]          ? Mode::kPredict
                      : u < mix[0] + mix[1] ? Mode::kWarmStart
                                            : Mode::kSolve;
    const int m = static_cast<int>(mode);
    if (drawn[m] % pool.graphs.size() == 0) {
      order[m].resize(pool.graphs.size());
      std::iota(order[m].begin(), order[m].end(), std::size_t{0});
      rng.shuffle(order[m]);
    }
    const std::size_t g = order[m][drawn[m]++ % pool.graphs.size()];
    schedule.push_back(request_for(mode, g));
    schedule.back().due_s = due;
    graph_of.push_back(g);
  }

  // The saturating burst: exactly the mix's share of each mode, each
  // mode cycling through the pool, in a pinned shuffled order, all due
  // at once.  Like the pool it is the same on every seed, so the burst
  // figures move with the server's speed, not with the draw.
  std::vector<Scheduled> burst;
  std::vector<std::size_t> burst_graph;
  {
    qaoaml::Rng order_rng(pool_seed * 104729 + 5);
    std::vector<std::pair<Mode, std::size_t>> slots;
    for (int m = 0; m < 3; ++m) {
      const long count = std::lround(mix[m] * burst_size);
      for (long i = 0; i < count; ++i) {
        slots.emplace_back(static_cast<Mode>(m),
                           static_cast<std::size_t>(i) % pool.graphs.size());
      }
    }
    order_rng.shuffle(slots);
    for (const auto& [mode, g] : slots) {
      burst.push_back(request_for(mode, g));
      burst_graph.push_back(g);
    }
  }

  const int clients = cfg.integer("serve.clients");
  auto play = [&](bool traced, const std::vector<Scheduled>& plan) {
    ctx.tracer.enable(traced);
    auto span = ctx.tracer.span("serve.open_loop");
    ServeOutcome outcome = play_schedule(ctx, socket_path, plan, clients, true);
    ctx.tracer.enable(false);
    return outcome;
  };
  ServeOutcome outcome;
  if (ctx.trace) {
    // Untraced first half, traced second half of the same schedule.
    const std::size_t half = schedule.size() / 2;
    std::vector<Scheduled> first(schedule.begin(), schedule.begin() + half);
    std::vector<Scheduled> second(schedule.begin() + half, schedule.end());
    const double shift = second.front().due_s;
    for (Scheduled& item : second) item.due_s -= shift;
    outcome = play(false, first);
    const ServeOutcome later = play(true, second);
    ctx.report.metric("trace.overhead_pct",
                      100.0 * (median(later.latency_ms) /
                                   median(outcome.latency_ms) -
                               1.0),
                      "%", Better::kLower);
    schedule.resize(half);
  } else {
    outcome = play(false, schedule);
  }

  // Bursts for the rest of the window (untraced), at least min_bursts,
  // with the set-up samples between them.
  std::vector<ServeOutcome> bursts;
  const double bursts_begin = now_s();
  while (static_cast<int>(bursts.size()) < min_bursts ||
         now_s() - bursts_begin < ctx.seconds / 2) {
    bursts.push_back(play_schedule(ctx, socket_path, burst, clients, true));
    set_up_again();
  }
  // Samples still missing after a short window.
  for (int r = 0; r < cfg.integer("setup.repeats"); ++r) set_up_again();
  ctx.tracer.enable(ctx.trace);

  // Output checks.  The first burst is checked against the bank and the
  // value ranges; every later burst and every open-loop answer must
  // equal the first burst's answer to the same question bit for bit
  // (the server promises that batching never changes the bits).
  auto same = [](const Response& a, const Response& b) {
    return a.ok && b.ok && a.angles == b.angles &&
           a.function_calls == b.function_calls &&
           a.approximation_ratio == b.approximation_ratio &&
           a.expectation == b.expectation && a.gamma1 == b.gamma1 &&
           a.beta1 == b.beta1;
  };
  const ServeOutcome& reference = bursts.front();
  std::map<std::pair<int, std::size_t>, std::size_t> reference_slot;
  double burst_fc = 0.0;
  double solve_fc = 0.0;
  double naive_fc = 0.0;
  double solve_ar = 0.0;
  std::uint64_t solves = 0;
  std::uint64_t bad = 0;
  for (std::size_t k = 0; k < burst.size(); ++k) {
    const auto& rq = burst[k].request;
    const auto& rs = reference.responses[k];
    reference_slot.emplace(std::make_pair(static_cast<int>(rq.mode), burst_graph[k]), k);
    bool ok = rs.ok && angles_ok(rs.angles, depth);
    if (rq.mode == Mode::kPredict) {
      ok = ok && rs.angles == bank.predictor.predict(rq.gamma1, rq.beta1, depth);
    } else {
      ok = ok && rs.function_calls > 0 && rs.approximation_ratio > 0 &&
           rs.approximation_ratio <= 1 + 1e-12;
      burst_fc += rs.function_calls;
    }
    if (rq.mode == Mode::kSolve) {
      ++solves;
      solve_fc += rs.function_calls;
      solve_ar += rs.approximation_ratio;
      naive_fc += pool.naive_fc[burst_graph[k]];
    }
    if (!ok) ++bad;
  }
  ctx.report.operations(burst.size(), bad, "burst response wrong or out of range");
  ctx.report.check(solves > 0, "the burst holds solve requests");
  std::uint64_t differing = 0;
  for (std::size_t b = 1; b < bursts.size(); ++b) {
    for (std::size_t k = 0; k < burst.size(); ++k) {
      differing += !same(bursts[b].responses[k], reference.responses[k]);
    }
  }
  ctx.report.operations(burst.size() * (bursts.size() - 1), differing,
                        "a repeated burst changed an answer");
  differing = 0;
  for (std::size_t k = 0; k < schedule.size(); ++k) {
    if (!outcome.responses[k].ok) continue;  // counted by report_serving
    const auto slot = reference_slot.find(
        {static_cast<int>(schedule[k].request.mode), graph_of[k]});
    differing += slot == reference_slot.end() ||
                 !same(outcome.responses[k], reference.responses[slot->second]);
  }
  ctx.report.operations(schedule.size(), differing,
                        "an open-loop answer differs from the burst's");

  std::vector<double> walls;
  for (const ServeOutcome& b : bursts) {
    ctx.report.operations(b.sent, b.failed, "burst responses not ok");
    walls.push_back(b.wall_s);
  }
  const double wall = median(walls);
  ctx.report.metric("wall_s", wall, "s", Better::kLower);
  ctx.report.metric("fc_per_s", burst_fc / wall, "1/s", Better::kHigher);
  ctx.report.metric("fc_reduction_pct", 100.0 * (naive_fc - solve_fc) / naive_fc,
                    "%", Better::kHigher);
  ctx.report.metric("ar_ml_mean", solve_ar / static_cast<double>(solves),
                    "ratio", Better::kHigher);
  const double capacity = static_cast<double>(burst.size()) / wall;
  ctx.report.metric("serving.capacity_rps", capacity, "1/s", Better::kHigher);
  ctx.report.metric("serving.utilization", rate / capacity, "ratio",
                    Better::kLower);

  if (ctx.trace) {
    measure_predict_overhead(ctx, socket_path, family,
                             bank.predictor, pool.gamma1[0], pool.beta1[0],
                             depth);
  }
  live.server->stop();
  report_serving(ctx, outcome,
                 static_cast<std::size_t>(cfg.integer("serve.window")));
  ctx.report.metric("setup_s", setup.median_s(), "s", Better::kLower);
  ctx.report.metric("peak_rss_mb", peak_rss_mb(), "MB", Better::kLower);
  if (!ctx.trace) return;

  probe_layers(ctx, probe);
}

}  // namespace perfbench
