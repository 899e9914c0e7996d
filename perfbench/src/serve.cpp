// The bank every workload trains and the serving legs that answer from
// it: an in-process qaoad Server driven by open- or closed-loop
// schedules.
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "bench.hpp"
#include "common/rng.hpp"
#include "common/wire.hpp"
#include "core/corpus_pipeline.hpp"
#include "core/serving_client.hpp"

namespace perfbench {

using qaoaml::core::serving::Client;
using qaoaml::core::serving::Mode;
using qaoaml::core::serving::Request;
using qaoaml::core::serving::Response;

/// Latency recorded for a request that failed or never came back.
constexpr double kFailedMs = 1e9;

Bank build_bank(Context& ctx, const qaoaml::core::DatasetConfig& corpus,
                double split_frac, std::uint64_t split_seed,
                const std::string& name) {
  Bank bank;
  {
    auto span = ctx.tracer.span("bank.corpus");
    bank.corpus = qaoaml::core::ParameterDataset(
        corpus, qaoaml::core::CorpusPipeline::generate_records(corpus));
  }
  qaoaml::Rng rng(split_seed);
  auto [train, test] = bank.corpus.split_indices(split_frac, rng);
  bank.train = std::move(train);
  bank.test = std::move(test);
  {
    auto span = ctx.tracer.span("bank.train");
    const double t0 = now_s();
    bank.predictor.train(bank.corpus, bank.train);
    bank.train_s = now_s() - t0;
  }
  bank.path = (std::filesystem::path(ctx.work_dir) / (name + ".qpbk")).string();
  bank.predictor.save(bank.path);
  return bank;
}

qaoaml::core::serving::ServerConfig server_config(const Context& ctx,
                                                  const std::string& bank_path,
                                                  const std::string& name) {
  qaoaml::core::serving::ServerConfig config;
  config.socket_path =
      (std::filesystem::path(ctx.work_dir) / (name + ".sock")).string();
  std::filesystem::remove(config.socket_path);
  config.banks = {{ctx.config.str("serve.family"), bank_path}};
  config.workers = ctx.config.integer("serve.workers");
  config.batch_max =
      static_cast<std::size_t>(ctx.config.integer("serve.batch_max"));
  config.queue_capacity =
      static_cast<std::size_t>(ctx.config.integer("serve.queue"));
  config.solver.optimizer = qaoaml::optim::optimizer_from_string(
      ctx.config.str("serve.optimizer"));
  config.solver.level1_restarts = ctx.config.integer("serve.level1_restarts");
  return config;
}

ServeOutcome play_schedule(Context& ctx, const std::string& socket_path,
                           const std::vector<Scheduled>& schedule, int clients,
                           bool open_loop) {
  // Open loop: this thread writes request k on connection k % clients
  // at its due time and never waits for answers; one reader per
  // connection collects the responses (matched by id = k + 1).  Closed
  // loop: each connection sends its next request when the previous one
  // is answered.  Latency runs from the due time (open) or the send
  // time (closed) to the answer.
  ServeOutcome outcome;
  const std::size_t count = schedule.size();
  const std::size_t lanes = static_cast<std::size_t>(clients);
  outcome.responses.resize(count);
  std::vector<double> sent_at(count, 0.0);
  std::vector<double> done_at(count, 0.0);
  std::vector<qaoaml::net::Fd> fds;
  for (std::size_t c = 0; c < lanes; ++c) {
    fds.push_back(qaoaml::net::unix_connect(socket_path));
  }
  std::atomic<std::size_t> answered{0};
  auto send = [&](std::size_t k) {
    Request request = schedule[k].request;
    request.id = k + 1;
    return qaoaml::wire::send_frame(
        fds[k % lanes].get(),
        qaoaml::core::serving::request_frame_type(request.mode),
        qaoaml::core::serving::encode_request(request));
  };
  auto receive = [&](std::size_t c) {
    qaoaml::wire::Frame frame;
    if (qaoaml::wire::recv_frame(fds[c].get(), frame) !=
        qaoaml::wire::RecvResult::kFrame) {
      return false;
    }
    Response response = qaoaml::core::serving::decode_response(frame.payload);
    const std::size_t slot = static_cast<std::size_t>(response.id - 1);
    if (response.id == 0 || slot >= count) return false;
    done_at[slot] = now_s();
    outcome.responses[slot] = std::move(response);
    answered.fetch_add(1);
    return true;
  };

  const double start = now_s() + 0.01;
  {
    std::vector<std::jthread> lanes_threads;
    for (std::size_t c = 0; c < lanes; ++c) {
      lanes_threads.emplace_back([&, c] {
        try {
          if (open_loop) {
            while (answered.load() < count && receive(c)) {
            }
            return;
          }
          for (std::size_t k = c; k < count; k += lanes) {
            sent_at[k] = now_s();
            if (!send(k) || !receive(c)) return;
          }
        } catch (const std::exception&) {
          // A hung-up or shut-down connection: unanswered slots fail.
        }
      });
    }
    if (open_loop) {
      for (std::size_t k = 0; k < count; ++k) {
        sent_at[k] = start + schedule[k].due_s;
        const double wait = sent_at[k] - now_s();
        if (wait > 0) {
          std::this_thread::sleep_for(std::chrono::duration<double>(wait));
        }
        outcome.late_ms_max =
            std::max(outcome.late_ms_max, (now_s() - sent_at[k]) * 1e3);
        if (!send(k)) {
          std::fprintf(stderr, "perfbench: daemon hung up mid-schedule\n");
          break;
        }
      }
      // Every answer, or a generous deadline; then unblock the readers.
      const double deadline = now_s() + 60.0;
      while (answered.load() < count && now_s() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      for (const qaoaml::net::Fd& fd : fds) ::shutdown(fd.get(), SHUT_RDWR);
    }
  }  // joins the lanes

  outcome.sent = count;
  double last_done = start;
  for (std::size_t k = 0; k < count; ++k) {
    outcome.modes.push_back(schedule[k].request.mode);
    if (!outcome.responses[k].ok || done_at[k] == 0.0) {
      // A failed request misses every latency limit.
      ++outcome.failed;
      outcome.latency_ms.push_back(kFailedMs);
      continue;
    }
    last_done = std::max(last_done, done_at[k]);
    outcome.latency_ms.push_back((done_at[k] - sent_at[k]) * 1e3);
  }
  outcome.wall_s = last_done - start;
  try {
    outcome.stats = Client(socket_path).server_stats();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: server stats failed: %s\n", e.what());
  }
  if (ctx.tracer.enabled()) {
    // One span per request, keyed by its id, on the tracer clock.
    const double offset = ctx.tracer.now() - now_s();
    for (std::size_t k = 0; k < count; ++k) {
      if (done_at[k] == 0.0) continue;
      ctx.tracer.add("serving.request", sent_at[k] + offset,
                     done_at[k] + offset, k + 1);
    }
  }
  return outcome;
}

namespace {

/// Latencies of the slots in [begin, end) of `mode` (every slot if < 0).
std::vector<double> latencies(const ServeOutcome& outcome, std::size_t begin,
                              std::size_t end, int mode) {
  std::vector<double> out;
  for (std::size_t k = begin; k < end; ++k) {
    if (mode < 0 || static_cast<int>(outcome.modes[k]) == mode) {
      out.push_back(outcome.latency_ms[k]);
    }
  }
  return out;
}

}  // namespace

void report_serving(Context& ctx, const ServeOutcome& outcome,
                    std::size_t window) {
  ctx.report.operations(outcome.sent, outcome.failed,
                        "served responses not ok");
  const std::size_t count = outcome.latency_ms.size();
  window = std::min(window, count);  // a half-length traced schedule
  std::vector<double> p50s;
  std::vector<double> p99s;
  for (std::size_t begin = 0; begin + window <= count; begin += window) {
    std::vector<double> mode_p50s;
    for (int m = 0; m < 3; ++m) {
      const std::vector<double> v = latencies(outcome, begin, begin + window, m);
      if (!v.empty()) mode_p50s.push_back(quantile(v, 0.50));
    }
    p50s.push_back(median(mode_p50s));
    p99s.push_back(quantile(latencies(outcome, begin, begin + window, -1), 0.99));
  }
  ctx.report.metric("serve_p50_ms", median(p50s), "ms", Better::kLower);
  ctx.report.metric("serve_p99_ms", median(p99s), "ms", Better::kLower);

  static const char* kModes[3] = {"predict", "warm_start", "solve"};
  for (int m = 0; m < 3; ++m) {
    const std::string name = std::string("serving.") + kModes[m];
    const std::vector<double> all = latencies(outcome, 0, count, m);
    if (all.empty()) continue;  // a predict-only leg
    ctx.report.metric(name + "_p50_ms", quantile(all, 0.50), "ms",
                      Better::kLower);
    ctx.report.metric(name + "_p99_ms", quantile(all, 0.99), "ms",
                      Better::kLower);
  }
  const double batches = static_cast<double>(outcome.stats.batches);
  ctx.report.metric(
      "serving.batch_mean",
      batches > 0 ? static_cast<double>(outcome.stats.served +
                                        outcome.stats.errors) /
                        batches
                  : 0.0,
      "count", Better::kHigher);
  ctx.report.metric("serving.batch_max",
                    static_cast<double>(outcome.stats.max_batch), "count",
                    Better::kHigher);
  ctx.report.metric("serving.generator_late_ms_max", outcome.late_ms_max, "ms",
                    Better::kLower);
  ctx.report.metric("serving.sent", static_cast<double>(outcome.sent), "count",
                    Better::kHigher);
  ctx.report.metric("serving.failed", static_cast<double>(outcome.failed),
                    "count", Better::kLower);
}

void measure_predict_overhead(Context& ctx, const std::string& socket_path,
                              const std::string& family,
                              const qaoaml::core::ParameterPredictor& bank,
                              double gamma1, double beta1, int depth) {
  Client client(socket_path);
  std::vector<double> remote;
  std::vector<double> local;
  for (int i = 0; i < 400; ++i) {
    double t0 = now_s();
    const Response response = client.predict(family, gamma1, beta1, depth);
    remote.push_back(now_s() - t0);
    t0 = now_s();
    const std::vector<double> angles = bank.predict(gamma1, beta1, depth);
    local.push_back(now_s() - t0);
    ctx.report.check(response.ok && response.angles == angles,
                     "closed-loop predict equals the local bank");
  }
  ctx.report.metric("serving.overhead_us", (median(remote) - median(local)) * 1e6,
                    "us", Better::kLower);
  ctx.report.metric("ml.predict_us", median(local) * 1e6, "us", Better::kLower);
}

PredictLeg::PredictLeg(Context& ctx, const Bank& bank)
    : ctx_(ctx),
      bank_(bank),
      config_(server_config(ctx, bank_.path, "qaoad")),
      window_(static_cast<std::size_t>(ctx.config.integer("serve.window"))),
      windows_(static_cast<std::size_t>(ctx.config.integer("serve.windows"))),
      clients_(ctx.config.integer("serve.clients")) {
  const std::string family = ctx.config.str("serve.family");
  const std::vector<int> depths = ctx.config.integers("serve.target_depths");
  // Inputs: depth-1 optima of the bank corpus's held-out graphs.
  qaoaml::Rng rng(ctx.seed ^ 0x5e7e5e7eULL);
  for (std::size_t k = 0; k < window_ * windows_; ++k) {
    const auto& record =
        bank_.corpus.records()[bank_.test[rng.uniform_int(bank_.test.size())]];
    Scheduled item;
    item.request.mode = Mode::kPredict;
    item.request.family = family;
    item.request.target_depth =
        depths[static_cast<std::size_t>(rng.uniform_int(depths.size()))];
    item.request.gamma1 = record.gamma_opt(1, 1);
    item.request.beta1 = record.beta_opt(1, 1);
    schedule_.push_back(std::move(item));
  }
  // Daemon start is set-up: repeated, median kept.
  SetupTimer start(ctx.config.integer("setup.repeats"));
  start.fill([&] {
    server_.reset();
    auto span = ctx_.tracer.span("setup.daemon_start");
    server_ = std::make_unique<qaoaml::core::serving::Server>(config_);
    Client(config_.socket_path).ping();
  });
  daemon_start_s_ = start.median_s();
}

void PredictLeg::window() {
  if (played_ == windows_) return;
  auto span = ctx_.tracer.span("serve.predict_window");
  const auto first = schedule_.begin() + static_cast<std::ptrdiff_t>(played_ * window_);
  const std::vector<Scheduled> slice(first, first + static_cast<std::ptrdiff_t>(window_));
  ServeOutcome part = play_schedule(ctx_, config_.socket_path, slice, clients_,
                                    false);
  outcome_.sent += part.sent;
  outcome_.failed += part.failed;
  outcome_.late_ms_max = std::max(outcome_.late_ms_max, part.late_ms_max);
  outcome_.latency_ms.insert(outcome_.latency_ms.end(), part.latency_ms.begin(),
                             part.latency_ms.end());
  outcome_.modes.insert(outcome_.modes.end(), part.modes.begin(),
                        part.modes.end());
  outcome_.responses.insert(outcome_.responses.end(), part.responses.begin(),
                            part.responses.end());
  outcome_.stats = part.stats;  // the daemon's running totals
  ++played_;
}

void PredictLeg::finish() {
  while (played_ < windows_) window();
  std::uint64_t mismatches = 0;
  for (std::size_t k = 0; k < schedule_.size(); ++k) {
    const Request& rq = schedule_[k].request;
    const Response& rs = outcome_.responses[k];
    if (!rs.ok) continue;  // counted by report_serving
    const std::vector<double> local =
        bank_.predictor.predict(rq.gamma1, rq.beta1, rq.target_depth);
    if (rs.angles != local || !angles_ok(rs.angles, rq.target_depth)) {
      ++mismatches;
    }
  }
  ctx_.report.operations(schedule_.size(), mismatches,
                         "served predict differs from the local bank");
  if (ctx_.trace) {
    const Request& rq = schedule_.front().request;
    measure_predict_overhead(ctx_, config_.socket_path, rq.family,
                             bank_.predictor, rq.gamma1, rq.beta1,
                             rq.target_depth);
  }
  server_->stop();
  report_serving(ctx_, outcome_, window_);
}

}  // namespace perfbench
