// Shared plumbing of the perfbench binary: pinned configuration,
// metric/check bookkeeping, in-memory spans, the measuring window, and
// the load generator the serving legs share.
//
// Every number the benchmark reports is measured from this directory's
// own code, around calls into the library's public API; nothing inside
// src/ is instrumented.
#ifndef PERFBENCH_BENCH_HPP
#define PERFBENCH_BENCH_HPP

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/parameter_dataset.hpp"
#include "core/parameter_predictor.hpp"
#include "core/serving.hpp"

namespace perfbench {

/// Flat key=value workload configuration.  Every value the benchmark
/// uses comes from here (perfbench/workloads.json via run.py); a
/// missing key throws, and a key no code read is reported by
/// unused_keys(), so the pinned record and the code cannot drift.
class Config {
 public:
  void set(const std::string& key, const std::string& value);
  std::string str(const std::string& key) const;
  int integer(const std::string& key) const;
  double real(const std::string& key) const;
  std::uint64_t u64(const std::string& key) const;
  std::vector<int> integers(const std::string& key) const;
  std::vector<std::string> strings(const std::string& key) const;
  std::vector<std::string> unused_keys() const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::set<std::string> used_;
};

enum class Better { kLower, kHigher };

struct Metric {
  double value = 0.0;
  std::string unit;
  Better better = Better::kLower;
};

/// Metrics plus output checks; every check counts as one attempted
/// operation, and a failed one is printed to stderr as it happens.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              Better better);
  /// Records `attempts` operations, `failures` of them failed.
  void operations(std::uint64_t attempts, std::uint64_t failures,
                  const std::string& what);
  void check(bool ok, const std::string& what);

  const std::map<std::string, Metric>& metrics() const { return metrics_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::map<std::string, Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// In-memory span recorder.  Disabled, a span costs one branch; enabled,
/// it records (id, parent, name, start, end) and nothing else, and the
/// spans are written out once, when the run ends.
class Tracer {
 public:
  struct Span {
    int id = 0;
    int parent = -1;
    std::string name;
    std::uint64_t request = 0;  ///< shared by a request's spans; 0 = none
    double start_s = 0.0;
    double end_s = 0.0;
  };

  class Scope {
   public:
    Scope(Tracer& tracer, const std::string& name, std::uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_ = -1;
  };

  void enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  Scope span(const std::string& name, std::uint64_t request = 0) {
    return Scope(*this, name, request);
  }
  /// Records a finished span measured elsewhere (e.g. on another thread).
  void add(const std::string& name, double start_s, double end_s,
           std::uint64_t request = 0);
  double now() const;
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::chrono::steady_clock::time_point origin_ = std::chrono::steady_clock::now();
};

/// Everything a workload needs.
struct Context {
  const Config& config;
  std::uint64_t seed = 1;
  bool default_seed = false;  ///< digest tripwires apply
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
  std::string corrupt;  ///< self-test: name of the artifact to damage
  Report& report;
  Tracer& tracer;
};

using Workload = void (*)(Context&);
void table1_pipeline(Context& ctx);
void wide_solve(Context& ctx);
void serve_mixed(Context& ctx);
void launch_table1(Context& ctx);

// ---------------------------------------------------------------------
// Statistics and small helpers.
double median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> values, double q);
double now_s();
double peak_rss_mb();  ///< this process plus its largest child
/// FNV-1a 64-bit of a file's bytes, as 16 hex digits.
std::string file_digest(const std::string& path);
std::uint64_t file_size(const std::string& path);
/// Fresh empty directory under the work dir.
std::string fresh_dir(const Context& ctx, const std::string& name);
/// The measuring window shared by the pass-based workloads: runs
/// `pass(traced)` until `ctx.seconds` have passed and at least
/// `min_passes` ran, calling `between(traced)` after each pass, outside
/// its timing.  In a traced run the first half of the window runs
/// untraced and the second half traced (at least one pass each), with
/// the tracer on only inside the traced passes.  Returns the number of
/// untraced passes.
std::size_t run_window(Context& ctx, std::size_t min_passes,
                       const std::function<void(bool)>& pass,
                       const std::function<void(bool)>& between);
/// Set-up timing.  A workload times its set-up once before the timed
/// phase and once more after each pass, outside the pass's timing,
/// until `repeats` samples are in; setup_s is their median.  A slow
/// spell of the host then moves one sample, not the figure.
class SetupTimer {
 public:
  explicit SetupTimer(int repeats)
      : repeats_(static_cast<std::size_t>(std::max(repeats, 1))) {}
  /// Times one run of `body`, unless every sample is already in.
  void sample(const std::function<void()>& body);
  /// Samples until every sample is in.
  void fill(const std::function<void()>& body);
  double median_s() const;

 private:
  std::size_t repeats_;
  std::vector<double> samples_;
};
/// Changes one digit in the second half of `path` when the self-test
/// asks for this artifact to be corrupted.
void maybe_corrupt(const Context& ctx, const std::string& artifact,
                   const std::string& path);
/// Checks a digest tripwire: on every seed for artifacts the seed does
/// not reach (the pinned corpora), else on the default seed only.
void check_digest(Context& ctx, const std::string& artifact,
                  const std::string& path, bool seed_independent);

/// DatasetConfig from `<prefix>.*` keys (graphs, nodes, edge_prob,
/// depth, restarts, seed; min_edges fixed by the key too).
qaoaml::core::DatasetConfig dataset_config(const Config& config,
                                           const std::string& prefix,
                                           std::uint64_t seed);

/// Angle checks shared by every workload: finite, in the QAOA box.
bool angles_ok(const std::vector<double>& angles, int depth);

// ---------------------------------------------------------------------
// Per-layer probes (layers.cpp), each at the workload's size/threads.
struct LayerProbeSpec {
  int qubits = 10;
  int depth = 3;
  int threads = 1;
  std::uint64_t seed = 1;
  double budget_s = 0.5;  ///< rough time per timing probe
};
/// Reads the probe.* keys up front, so every run reads the same config.
LayerProbeSpec probe_spec(const Context& ctx, int qubits, int depth,
                          int threads);
/// The quantum, objective and optim probes, in that order.
void probe_layers(Context& ctx, const LayerProbeSpec& spec);

// ---------------------------------------------------------------------
// Bank + serving leg shared by every workload.
struct Bank {
  qaoaml::core::ParameterDataset corpus;
  std::vector<std::size_t> train;
  std::vector<std::size_t> test;
  qaoaml::core::ParameterPredictor predictor;
  std::string path;  ///< saved QPBK file
  double train_s = 0.0;
};
/// Generates `corpus` (in memory), splits it, trains the GPR bank and
/// saves it under the work dir.
Bank build_bank(Context& ctx, const qaoaml::core::DatasetConfig& corpus,
                double split_frac, std::uint64_t split_seed,
                const std::string& name);

/// One request of a schedule.
struct Scheduled {
  double due_s = 0.0;  ///< offset from the schedule start
  qaoaml::core::serving::Request request;
};

/// What a played schedule produced, by schedule slot.
struct ServeOutcome {
  std::uint64_t sent = 0;
  std::uint64_t failed = 0;
  double wall_s = 0.0;       ///< schedule start to the last answer
  double late_ms_max = 0.0;  ///< how late the generator sent
  std::vector<double> latency_ms;  ///< a failed request reads 1e9 ms
  std::vector<qaoaml::core::serving::Mode> modes;
  std::vector<qaoaml::core::serving::Response> responses;
  qaoaml::core::serving::ServerStats stats;
};

/// Plays `schedule` against the server at `socket_path` over `clients`
/// connections (request k on connection k % clients).  Open loop: each
/// request is written at its due time, answered or not, and timed from
/// it.  Closed loop: a connection sends its next request once the last
/// is answered, and due times are ignored.
ServeOutcome play_schedule(Context& ctx, const std::string& socket_path,
                           const std::vector<Scheduled>& schedule, int clients,
                           bool open_loop);

/// Serving config from `serve.*` keys, listening on `<name>.sock` in the
/// work dir (a stale socket file there is removed).
qaoaml::core::serving::ServerConfig server_config(const Context& ctx,
                                                  const std::string& bank_path,
                                                  const std::string& name);

/// The serve-many half of an offline workload: the bank it trained,
/// behind an in-process qaoad server, answering `serve.windows`
/// closed-loop windows of `serve.window` predict requests.  Workloads
/// play one window after each pass, so the windows spread over the run
/// and a burst of host contention moves one of them, not the median.
class PredictLeg {
 public:
  /// Starts the daemon: set-up, repeated, median in daemon_start_s().
  /// `bank` (saved at bank.path) must outlive the leg.
  PredictLeg(Context& ctx, const Bank& bank);
  PredictLeg(const PredictLeg&) = delete;
  PredictLeg& operator=(const PredictLeg&) = delete;

  double daemon_start_s() const { return daemon_start_s_; }
  /// Plays the next window, if one is left.
  void window();
  /// Plays what is left, checks every answer bit-equal to a local
  /// predict, stops the daemon, and reports serve_* and serving.*.
  void finish();

 private:
  Context& ctx_;
  const Bank& bank_;
  qaoaml::core::serving::ServerConfig config_;
  std::size_t window_;
  std::size_t windows_;
  int clients_;
  std::vector<Scheduled> schedule_;
  ServeOutcome outcome_;
  std::size_t played_ = 0;
  double daemon_start_s_ = 0.0;
  std::unique_ptr<qaoaml::core::serving::Server> server_;
};

/// Reports the serving.* metrics over every request (per-mode latencies
/// only for the modes the schedule holds), and serve_p50_ms/serve_p99_ms
/// as medians over consecutive windows of `window` requests:
/// serve_p50_ms from the median of each window's per-mode medians, so
/// a mixed schedule's figure follows its simulator-heavy middle mode
/// (warm-start) and a predict-only one its predicts; serve_p99_ms from
/// all of a window's answers.  A burst of host contention then moves
/// one window, not the reported number.
void report_serving(Context& ctx, const ServeOutcome& outcome,
                    std::size_t window);

/// serving.overhead_us (closed-loop predict round trip minus the local
/// predict of the same inputs) and ml.predict_us.
void measure_predict_overhead(Context& ctx, const std::string& socket_path,
                              const std::string& family,
                              const qaoaml::core::ParameterPredictor& bank,
                              double gamma1, double beta1, int depth);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_HPP
