#include "bench.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "common/cli.hpp"
#include "core/angles.hpp"

namespace perfbench {

// ---------------------------------------------------------------- Config

void Config::set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

std::string Config::str(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) {
    throw std::runtime_error("config key missing: " + key);
  }
  used_.insert(key);
  return it->second;
}

int Config::integer(const std::string& key) const {
  int value = 0;
  if (!qaoaml::cli::to_int(str(key).c_str(), value)) {
    throw std::runtime_error("config key " + key + " is not an integer");
  }
  return value;
}

double Config::real(const std::string& key) const {
  double value = 0.0;
  if (!qaoaml::cli::to_double(str(key).c_str(), value)) {
    throw std::runtime_error("config key " + key + " is not a number");
  }
  return value;
}

std::uint64_t Config::u64(const std::string& key) const {
  std::uint64_t value = 0;
  if (!qaoaml::cli::to_u64(str(key).c_str(), value)) {
    throw std::runtime_error("config key " + key + " is not a u64");
  }
  return value;
}

std::vector<std::string> Config::strings(const std::string& key) const {
  return qaoaml::cli::split_list(str(key));
}

std::vector<int> Config::integers(const std::string& key) const {
  std::vector<int> out;
  for (const std::string& item : strings(key)) {
    int value = 0;
    if (!qaoaml::cli::to_int(item.c_str(), value)) {
      throw std::runtime_error("config key " + key + " has a non-integer");
    }
    out.push_back(value);
  }
  return out;
}

std::vector<std::string> Config::unused_keys() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : values_) {
    if (used_.count(key) == 0) out.push_back(key);
  }
  return out;
}

// ---------------------------------------------------------------- Report

void Report::metric(const std::string& name, double value,
                    const std::string& unit, Better better) {
  metrics_[name] = Metric{value, unit, better};
}

void Report::operations(std::uint64_t attempts, std::uint64_t failures,
                        const std::string& what) {
  attempted_ += attempts;
  failed_ += failures;
  if (failures > 0) {
    std::fprintf(stderr, "perfbench: CHECK FAILED (%llu of %llu): %s\n",
                 static_cast<unsigned long long>(failures),
                 static_cast<unsigned long long>(attempts), what.c_str());
  }
}

void Report::check(bool ok, const std::string& what) {
  operations(1, ok ? 0 : 1, what);
}

// ---------------------------------------------------------------- Tracer

Tracer::Scope::Scope(Tracer& tracer, const std::string& name,
                     std::uint64_t request)
    : tracer_(tracer) {
  if (!tracer_.enabled_) return;
  Span span;
  span.id = static_cast<int>(tracer_.spans_.size());
  span.parent = tracer_.open_.empty() ? -1 : tracer_.open_.back();
  span.name = name;
  span.request = request;
  span.start_s = tracer_.now();
  index_ = span.id;
  tracer_.spans_.push_back(std::move(span));
  tracer_.open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  tracer_.spans_[static_cast<std::size_t>(index_)].end_s = tracer_.now();
  tracer_.open_.pop_back();
}

void Tracer::add(const std::string& name, double start_s, double end_s,
                 std::uint64_t request) {
  if (!enabled_) return;
  Span span;
  span.id = static_cast<int>(spans_.size());
  span.parent = open_.empty() ? -1 : open_.back();
  span.name = name;
  span.request = request;
  span.start_s = start_s;
  span.end_s = end_s;
  spans_.push_back(std::move(span));
}

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

// ---------------------------------------------------------------- helpers

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

std::string file_digest(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return "missing";
  std::uint64_t h = 1469598103934665603ULL;
  char buffer[65536];
  while (is.read(buffer, sizeof buffer) || is.gcount() > 0) {
    for (std::streamsize i = 0; i < is.gcount(); ++i) {
      h ^= static_cast<unsigned char>(buffer[i]);
      h *= 1099511628211ULL;
    }
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

std::uint64_t file_size(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

std::string fresh_dir(const Context& ctx, const std::string& name) {
  const std::filesystem::path dir = std::filesystem::path(ctx.work_dir) / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::size_t run_window(Context& ctx, std::size_t min_passes,
                       const std::function<void(bool)>& pass,
                       const std::function<void(bool)>& between) {
  const double window = ctx.trace ? ctx.seconds / 2 : ctx.seconds;
  ctx.tracer.enable(false);
  std::size_t untraced = 0;
  for (const double begin = now_s();
       untraced < min_passes || now_s() - begin < window; ++untraced) {
    pass(false);
    between(false);
  }
  if (ctx.trace) {
    ctx.tracer.enable(true);
    const double begin = now_s();
    do {
      pass(true);
      between(true);
    } while (now_s() - begin < window);
  }
  ctx.tracer.enable(ctx.trace);
  return untraced;
}

void SetupTimer::sample(const std::function<void()>& body) {
  if (samples_.size() >= repeats_) return;
  const double t0 = now_s();
  body();
  samples_.push_back(now_s() - t0);
}

void SetupTimer::fill(const std::function<void()>& body) {
  while (samples_.size() < repeats_) sample(body);
}

double SetupTimer::median_s() const { return median(samples_); }

void maybe_corrupt(const Context& ctx, const std::string& artifact,
                   const std::string& path) {
  if (ctx.corrupt != artifact) return;
  std::string bytes;
  {
    std::ifstream is(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(is), {});
  }
  // Change one digit past the middle, so the file still parses and only
  // the checks can notice.
  for (std::size_t i = bytes.size() / 2; i < bytes.size(); ++i) {
    if (bytes[i] >= '0' && bytes[i] <= '9') {
      bytes[i] = static_cast<char>('0' + (bytes[i] - '0' + 1) % 10);
      std::ofstream(path, std::ios::binary) << bytes;
      return;
    }
  }
}

void check_digest(Context& ctx, const std::string& artifact,
                  const std::string& path, bool seed_independent) {
  const std::string key = "digest." + artifact;
  const std::string expected = ctx.config.str(key);
  if (!seed_independent && !ctx.default_seed) return;
  const std::string actual = file_digest(path);
  ctx.report.check(actual == expected, "digest of " + artifact + " is " +
                                           actual + ", pinned " + expected);
}

qaoaml::core::DatasetConfig dataset_config(const Config& config,
                                           const std::string& prefix,
                                           std::uint64_t seed) {
  qaoaml::core::DatasetConfig dataset;
  dataset.num_graphs = config.integer(prefix + ".graphs");
  dataset.num_nodes = config.integer(prefix + ".nodes");
  dataset.ensemble.family =
      qaoaml::core::family_from_string(config.str(prefix + ".family"));
  dataset.ensemble.edge_probability = config.real(prefix + ".edge_prob");
  dataset.min_edges = config.integer(prefix + ".min_edges");
  dataset.max_depth = config.integer(prefix + ".depth");
  dataset.restarts = config.integer(prefix + ".restarts");
  dataset.optimizer =
      qaoaml::optim::optimizer_from_string(config.str(prefix + ".optimizer"));
  dataset.seed = seed;
  return dataset;
}

bool angles_ok(const std::vector<double>& angles, int depth) {
  if (angles.size() != qaoaml::core::num_angles(depth)) return false;
  const qaoaml::optim::Bounds box = qaoaml::core::qaoa_bounds(depth);
  for (const double a : angles) {
    if (!std::isfinite(a)) return false;
  }
  return box.contains(angles);
}

}  // namespace perfbench
