// perfbench: runs one workload of the repository benchmark and writes
// its result record (environment, checks, metrics, spans) as JSON.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR --out FILE --default-seed N
//             [--corrupt ARTIFACT] --set key=value ...
//
// perfbench/run.py builds this binary, passes the pinned config of
// perfbench/workloads.json as --set pairs, and prints the summary line.
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include "bench.hpp"
#include "common/cli.hpp"
#include "quantum/dispatch.hpp"

namespace {

using perfbench::Better;

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string cpu_model() {
  std::ifstream is("/proc/cpuinfo");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::map<std::string, std::string> environment(const perfbench::Config& config) {
  return {
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"qaoaml_native_arch", PERFBENCH_NATIVE_ARCH},
      {"compiler", PERFBENCH_COMPILER},
      {"cpu_model", cpu_model()},
      {"simd_tier",
       qaoaml::quantum::to_string(qaoaml::quantum::detected_simd_tier())},
      {"nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN))},
      {"threads", config.str("threads")},
  };
}

void write_result(const std::string& path, const std::string& workload,
                  std::uint64_t seed, bool trace,
                  const std::map<std::string, std::string>& env,
                  const perfbench::Report& report,
                  const perfbench::Tracer& tracer) {
  std::ofstream os(path);
  os << "{\n  \"workload\": " << json_string(workload)
     << ",\n  \"seed\": " << seed << ",\n  \"trace\": " << (trace ? 1 : 0)
     << ",\n  \"environment\": {";
  const char* sep = "\n";
  for (const auto& [key, value] : env) {
    os << sep << "    " << json_string(key) << ": " << json_string(value);
    sep = ",\n";
  }
  os << "\n  },\n  \"attempted\": " << report.attempted()
     << ",\n  \"failed\": " << report.failed() << ",\n  \"metrics\": {";
  sep = "\n";
  for (const auto& [name, metric] : report.metrics()) {
    os << sep << "    " << json_string(name) << ": {\"value\": "
       << json_number(metric.value) << ", \"unit\": " << json_string(metric.unit)
       << ", \"better\": "
       << (metric.better == Better::kLower ? "\"lower\"" : "\"higher\"") << "}";
    sep = ",\n";
  }
  os << "\n  },\n  \"spans\": [";
  sep = "\n";
  for (const perfbench::Tracer::Span& span : tracer.spans()) {
    os << sep << "    {\"id\": " << span.id << ", \"parent\": " << span.parent
       << ", \"name\": " << json_string(span.name)
       << ", \"request\": " << span.request
       << ", \"start_s\": " << json_number(span.start_s)
       << ", \"end_s\": " << json_number(span.end_s) << "}";
    sep = ",\n";
  }
  os << "\n  ]\n}\n";
  os.flush();
  if (!os) throw std::runtime_error("cannot write " + path);
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR --out FILE --default-seed N "
               "[--corrupt ARTIFACT] --set key=value ...\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::map<std::string, perfbench::Workload> workloads = {
      {"table1-pipeline", perfbench::table1_pipeline},
      {"wide-solve", perfbench::wide_solve},
      {"serve-mixed", perfbench::serve_mixed},
      {"launch-table1", perfbench::launch_table1},
  };
  perfbench::Config config;
  std::string workload;
  std::string work_dir;
  std::string out;
  std::string corrupt;
  std::uint64_t seed = 0;
  std::uint64_t default_seed = 0;
  double seconds = 0.0;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    bool ok = true;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      ok = qaoaml::cli::to_u64(value, seed);
    } else if (flag == "--default-seed") {
      ok = qaoaml::cli::to_u64(value, default_seed);
    } else if (flag == "--seconds") {
      ok = qaoaml::cli::to_double(value, seconds) && seconds > 0;
    } else if (flag == "--trace") {
      ok = qaoaml::cli::to_int(value, trace) && (trace == 0 || trace == 1);
    } else if (flag == "--work-dir") {
      work_dir = value;
    } else if (flag == "--out") {
      out = value;
    } else if (flag == "--corrupt") {
      corrupt = value;
    } else if (flag == "--set") {
      const char* eq = std::strchr(value, '=');
      ok = eq != nullptr;
      if (ok) config.set(std::string(value, eq), std::string(eq + 1));
    } else {
      ok = false;
    }
    if (!ok) {
      std::fprintf(stderr, "perfbench: bad argument %s %s\n", flag.c_str(), value);
      return usage();
    }
  }
  const auto entry = workloads.find(workload);
  if (argc % 2 == 0 || entry == workloads.end() || work_dir.empty() ||
      out.empty() || seconds <= 0) {
    return usage();
  }

  perfbench::Report report;
  perfbench::Tracer tracer;
  tracer.enable(trace == 1);
  try {
    std::filesystem::create_directories(work_dir);
    perfbench::Context ctx{config,  seed,   seed == default_seed, seconds,
                           trace == 1, work_dir, corrupt,          report,
                           tracer};
    entry->second(ctx);
    const std::vector<std::string> unused = config.unused_keys();
    for (const std::string& key : unused) {
      std::fprintf(stderr, "perfbench: pinned key %s was never read\n",
                   key.c_str());
    }
    report.check(unused.empty(), "every pinned config key is used");
    write_result(out, workload, seed, trace == 1, environment(config), report,
                 tracer);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", workload.c_str(), e.what());
    return 1;
  }
  for (const auto& [name, metric] : report.metrics()) {
    std::printf("  %-36s %16.6g %-10s (%s is better)\n", name.c_str(),
                metric.value, metric.unit.c_str(),
                metric.better == Better::kLower ? "lower" : "higher");
  }
  std::printf("checks: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(report.attempted()),
              static_cast<unsigned long long>(report.failed()));
  return report.failed() == 0 ? 0 : 3;
}
