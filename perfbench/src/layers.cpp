// Per-layer probes of the traced run: the amplitude kernels, the
// objective, and the optimizers, each timed through its public entry
// points at the workload's qubit count, depth and thread count.
#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "bench.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/angles.hpp"
#include "core/batch_evaluator.hpp"
#include "core/qaoa_objective.hpp"
#include "core/qaoa_solver.hpp"
#include "graph/generators.hpp"
#include "quantum/dispatch.hpp"
#include "quantum/fused_kernels.hpp"

namespace perfbench {

namespace {

/// Instances the batch probe spreads its jobs over.
constexpr int kProbeInstances = 2;

/// Median seconds per call of `body`, from 5 batches sized so that all
/// batches together take about `budget_s`.
double seconds_per_call(double budget_s, const std::function<void()>& body) {
  const double t0 = now_s();
  body();
  const double once = std::max(now_s() - t0, 1e-7);
  const int per_batch =
      std::clamp(static_cast<int>(budget_s / 5.0 / once), 1, 1 << 20);
  std::vector<double> batches;
  for (int b = 0; b < 5; ++b) {
    const double start = now_s();
    for (int i = 0; i < per_batch; ++i) body();
    batches.push_back((now_s() - start) / per_batch);
  }
  return median(batches);
}

/// The optimizer's suffix in the optim.fc_per_solve.* metric names.
const char* metric_key(qaoaml::optim::OptimizerKind kind) {
  switch (kind) {
    case qaoaml::optim::OptimizerKind::kLbfgsb:
      return "lbfgsb";
    case qaoaml::optim::OptimizerKind::kNelderMead:
      return "nelder-mead";
    case qaoaml::optim::OptimizerKind::kSlsqp:
      return "slsqp";
    case qaoaml::optim::OptimizerKind::kCobyla:
      return "cobyla";
  }
  return "unknown";
}

qaoaml::graph::Graph probe_graph(const LayerProbeSpec& spec, std::uint64_t k) {
  qaoaml::Rng rng(spec.seed * 1000003ULL + k);
  for (;;) {
    qaoaml::graph::Graph g = qaoaml::graph::erdos_renyi_gnp(spec.qubits, 0.5, rng);
    if (g.num_edges() >= 1) return g;
  }
}

void probe_quantum(Context& ctx, const LayerProbeSpec& spec) {
  auto span = ctx.tracer.span("probe.quantum");
  const qaoaml::core::MaxCutQaoa instance(probe_graph(spec, 0), 1);
  const std::vector<double>& diag = instance.hamiltonian().diagonal();
  std::vector<int> int_diag(diag.size());
  for (std::size_t z = 0; z < diag.size(); ++z) {
    int_diag[z] = static_cast<int>(std::lround(diag[z]));
  }
  const int max_value = *std::max_element(int_diag.begin(), int_diag.end());
  qaoaml::quantum::Statevector state =
      qaoaml::quantum::Statevector::uniform(spec.qubits);
  const double dim = static_cast<double>(state.dimension());

  auto layer_ns = [&](int threads) {
    const qaoaml::ScopedThreadCount scope(threads);
    return seconds_per_call(spec.budget_s, [&] {
             state.apply_qaoa_layer_integral(int_diag, 0.37, max_value, 0.21,
                                             true);
           }) *
           1e9 / dim;
  };
  const double at_threads = layer_ns(spec.threads);
  const double at_one = layer_ns(1);
  ctx.report.metric("quantum.layer_ns_per_amp", at_threads, "ns",
                    Better::kLower);
  ctx.report.metric("quantum.thread_scaling", at_one / at_threads, "x",
                    Better::kHigher);
  for (const auto tier :
       {qaoaml::quantum::SimdTier::kScalar, qaoaml::quantum::SimdTier::kAvx2,
        qaoaml::quantum::SimdTier::kAvx512}) {
    // Tiers the CPU lacks report 0: no measurement exists.
    double value = 0.0;
    if (qaoaml::quantum::simd_tier_supported(tier)) {
      const qaoaml::quantum::ScopedSimdTier scope(tier);
      value = layer_ns(1);
    }
    ctx.report.metric(std::string("quantum.layer_ns_per_amp.") +
                          qaoaml::quantum::to_string(tier),
                      value, "ns", Better::kLower);
  }
  {
    const qaoaml::ScopedThreadCount scope(spec.threads);
    double sink = 0.0;
    const double expect_s = seconds_per_call(
        spec.budget_s, [&] { sink += state.expectation_diagonal(diag); });
    ctx.report.metric("quantum.expect_ns_per_amp", expect_s * 1e9 / dim, "ns",
                      Better::kLower);
    if (!std::isfinite(sink)) ctx.report.check(false, "expectation not finite");
  }
  // Computed, not measured: each fused sweep reads and writes every
  // 16-byte amplitude once; the first also reads the 4-byte cut table.
  const int block = qaoaml::quantum::fused::kBlockQubits;
  const int sweeps = 1 + std::max(0, (spec.qubits - block + 1) / 2);
  ctx.report.metric("quantum.bytes_per_layer", sweeps * dim * 32.0 + dim * 4.0,
                    "B-computed", Better::kLower);
}

void probe_objective(Context& ctx, const LayerProbeSpec& spec) {
  auto span = ctx.tracer.span("probe.objective");
  const qaoaml::ScopedThreadCount scope(spec.threads);
  std::vector<qaoaml::core::MaxCutQaoa> instances;
  for (int k = 0; k < kProbeInstances; ++k) {
    instances.emplace_back(probe_graph(spec, static_cast<std::uint64_t>(k)),
                           spec.depth);
  }
  qaoaml::Rng rng(spec.seed);
  const std::vector<double> params = qaoaml::core::random_angles(spec.depth, rng);
  qaoaml::quantum::Statevector workspace =
      qaoaml::quantum::Statevector::uniform(spec.qubits);
  double sink = 0.0;
  const double eval_s = seconds_per_call(spec.budget_s, [&] {
    sink += instances[0].expectation_using(workspace, params);
  });
  ctx.report.metric("objective.evals_per_s", 1.0 / eval_s, "1/s",
                    Better::kHigher);
  const double dim = std::ldexp(1.0, spec.qubits);
  const auto& m = ctx.report.metrics();
  if (m.count("quantum.layer_ns_per_amp") && m.count("quantum.expect_ns_per_amp")) {
    const double kernel_ns = (spec.depth * m.at("quantum.layer_ns_per_amp").value +
                              m.at("quantum.expect_ns_per_amp").value) *
                             dim;
    ctx.report.metric("objective.kernel_share", kernel_ns / (eval_s * 1e9),
                      "ratio", Better::kHigher);
  }

  std::vector<qaoaml::core::BatchJob> jobs;
  for (int j = 0; j < 2 * spec.threads; ++j) {
    qaoaml::core::BatchJob job;
    job.instance = &instances[static_cast<std::size_t>(j) % instances.size()];
    job.params = qaoaml::core::random_angles(spec.depth, rng);
    jobs.push_back(std::move(job));
  }
  const double batch_s = seconds_per_call(spec.budget_s, [&] {
    sink += qaoaml::core::BatchEvaluator::expectations(jobs)[0];
  });
  ctx.report.metric("objective.batch_evals_per_s",
                    static_cast<double>(jobs.size()) / batch_s, "1/s",
                    Better::kHigher);
  if (!std::isfinite(sink)) ctx.report.check(false, "objective not finite");
}

void probe_optim(Context& ctx, const LayerProbeSpec& spec) {
  auto span = ctx.tracer.span("probe.optim");
  const qaoaml::ScopedThreadCount scope(spec.threads);
  const qaoaml::core::MaxCutQaoa instance(probe_graph(spec, 0), spec.depth);
  qaoaml::Rng rng(spec.seed ^ 0x0b7140ULL);
  const std::vector<double> x0 = qaoaml::core::random_angles(spec.depth, rng);
  const qaoaml::optim::Options options{};

  double fd_calls = 0.0;
  double gradient_calls = 0.0;
  double minimize_s = 0.0;
  double objective_s = 0.0;
  for (const qaoaml::optim::OptimizerKind kind : qaoaml::optim::all_optimizers()) {
    // The wrapper counts every call, times it, and classifies a call as
    // a finite-difference probe when it differs from a recent non-probe
    // point in exactly one coordinate by at most one FD step.
    const qaoaml::optim::ObjectiveFn inner = instance.buffered_objective();
    int calls = 0;
    int probes = 0;
    double inside_s = 0.0;
    std::vector<std::vector<double>> bases;
    const qaoaml::optim::ObjectiveFn wrapped =
        [&](std::span<const double> x) {
          ++calls;
          bool probe = false;
          for (const auto& base : bases) {
            int differing = 0;
            bool small = true;
            for (std::size_t i = 0; i < x.size(); ++i) {
              if (x[i] == base[i]) continue;
              ++differing;
              const double h = options.fd_step * std::max(1.0, std::abs(base[i]));
              small = small && std::abs(x[i] - base[i]) <= h * (1.0 + 1e-9);
            }
            if (differing == 1 && small) probe = true;
          }
          if (probe) {
            ++probes;
          } else {
            bases.emplace_back(x.begin(), x.end());
            if (bases.size() > 4) bases.erase(bases.begin());
          }
          const double t0 = now_s();
          const double value = inner(x);
          inside_s += now_s() - t0;
          return value;
        };
    const double t0 = now_s();
    const qaoaml::optim::OptimResult result = qaoaml::optim::minimize(
        kind, wrapped, x0, instance.bounds(), options);
    const double total_s = now_s() - t0;
    const qaoaml::core::QaoaRun run =
        qaoaml::core::solve_from(instance, kind, x0, options);
    const std::string name = qaoaml::optim::to_string(kind);
    ctx.report.check(calls == result.nfev && calls == run.function_calls,
                     "optim wrapper counted " + std::to_string(calls) + " " +
                         name + " calls, minimize " +
                         std::to_string(result.nfev) + ", solve_from " +
                         std::to_string(run.function_calls));
    ctx.report.metric(std::string("optim.fc_per_solve.") + metric_key(kind),
                      calls, "count", Better::kLower);
    if (qaoaml::optim::is_gradient_based(kind)) {
      fd_calls += probes;
      gradient_calls += calls;
    }
    minimize_s += total_s;
    objective_s += inside_s;
  }
  ctx.report.metric("optim.fd_probe_share",
                    gradient_calls > 0 ? fd_calls / gradient_calls : 0.0,
                    "ratio", Better::kLower);
  ctx.report.metric("optim.self_share",
                    minimize_s > 0 ? (minimize_s - objective_s) / minimize_s : 0.0,
                    "ratio", Better::kLower);
}

}  // namespace

LayerProbeSpec probe_spec(const Context& ctx, int qubits, int depth,
                          int threads) {
  LayerProbeSpec spec;
  spec.qubits = qubits;
  spec.depth = depth;
  spec.threads = threads;
  spec.seed = ctx.seed;
  spec.budget_s = ctx.config.real("probe.budget_s");
  return spec;
}

void probe_layers(Context& ctx, const LayerProbeSpec& spec) {
  probe_quantum(ctx, spec);
  probe_objective(ctx, spec);
  probe_optim(ctx, spec);
}

}  // namespace perfbench
