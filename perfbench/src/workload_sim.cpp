// sim_20q: one 20-qubit strongly-entangling circuit through
// CircuitExecutor, alternating expectation evaluations (run) and full
// adjoint gradients (adjoint_batch). A 2^20-amplitude state is above the
// amplitude-parallel threshold, so all of the work runs through the
// parallel kernel table, the cache-blocked schedule and the per-gate
// adjoint reverse sweep.
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <vector>

#include "checks.h"
#include "common/rng.h"
#include "qsim/circuit.h"
#include "qsim/executor.h"
#include "qsim/kernels.h"
#include "qsim/observable.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace qsim = sqvae::qsim;
namespace kernels = sqvae::qsim::kernels;

constexpr int kQubits = 20;
constexpr int kLayers = 1;
constexpr int kExpectPerRound = 4;
constexpr std::size_t kShiftSamples = 4;  // parameter-shift checked slots

/// <psi|D|psi> of the circuit at `params`, evaluated into `state`.
double expectation(const qsim::CircuitExecutor& exec,
                   const std::vector<double>& params,
                   const std::vector<double>& diag, qsim::Statevector& state) {
  state.reset();
  {
    ScopedSpan span("executor.run");
    exec.run(params, state);
  }
  return state.expectation_diag(diag);
}

}  // namespace

Outcome run_sim_workload(const Args& args, Clock::time_point process_start) {
  Outcome out;
  Tracer& tracer = Tracer::instance();

  // ---- set-up: circuit, compiled plan, parameters, observable, state ----
  sqvae::Rng rng(mix_seed(args.seed, 1));
  qsim::Circuit circuit(kQubits);
  const int slot = circuit.angle_embedding(0);
  circuit.strongly_entangling_layers(kLayers, slot);
  const qsim::CircuitExecutor exec(circuit);
  std::vector<double> params(static_cast<std::size_t>(exec.num_param_slots()));
  for (double& v : params) v = rng.uniform(-std::numbers::pi, std::numbers::pi);
  std::vector<double> weights(kQubits);
  for (double& w : weights) w = rng.uniform(-1.0, 1.0);
  const std::vector<double> diag = qsim::weighted_z_diagonal(kQubits, weights);
  qsim::Statevector state(kQubits);
  const qsim::Statevector zero(kQubits);
  const double setup_s = seconds_since(process_start);

  // ---- warm-up: first touches of the state and the adjoint buffers -------
  expectation(exec, params, diag, state);
  exec.adjoint_batch({params}, {zero}, {diag});

  // ---- measured phase: whole rounds of kExpectPerRound expectations and
  // one gradient ------------------------------------------------------------
  std::vector<double> expect_s;
  std::vector<double> grad_s;
  std::vector<double> gradient;
  double energy = 0.0;
  bool norms_ok = true;
  std::string norm_why;
  const Clock::time_point measure_start = Clock::now();
  while (grad_s.empty() || seconds_since(measure_start) < args.seconds) {
    Clock::time_point t0;
    for (int e = 0; e < kExpectPerRound; ++e) {
      t0 = Clock::now();
      energy = expectation(exec, params, diag, state);
      expect_s.push_back(seconds_since(t0));
      if (norms_ok) norms_ok = norm_is_one(state, 1e-10, &norm_why);
    }

    t0 = Clock::now();
    const std::uint64_t span = tracer.begin("executor.adjoint");
    const auto result = exec.adjoint_batch({params}, {zero}, {diag});
    tracer.end(span);
    grad_s.push_back(seconds_since(t0));
    gradient = result.front().param_grads;
    out.check(std::abs(result.front().value - energy) <= 1e-10,
              "adjoint value disagrees with the expectation evaluation");
  }
  out.attempted = (kExpectPerRound + 1) * grad_s.size();
  out.check(norms_ok, norm_why);

  // ---- checks ---------------------------------------------------------------
  {
    // Parameter shift on a seeded sample of rotation slots.
    std::vector<double> adjoint;
    std::vector<double> shift;
    std::vector<double> shifted = params;
    for (std::size_t k = 0; k < kShiftSamples; ++k) {
      const std::size_t i = rng.uniform_index(params.size());
      shifted[i] = params[i] + std::numbers::pi / 2;
      const double plus = expectation(exec, shifted, diag, state);
      shifted[i] = params[i] - std::numbers::pi / 2;
      const double minus = expectation(exec, shifted, diag, state);
      shifted[i] = params[i];
      adjoint.push_back(gradient.at(i));
      shift.push_back(0.5 * (plus - minus));
    }
    std::string why;
    out.check(gradients_match(adjoint, shift, 1e-9, &why), why);
  }
  {
    // The same forward with the serial kernel table pinned.
    qsim::Statevector parallel(kQubits);
    exec.run(params, parallel);
    const std::size_t saved = kernels::parallel_threshold();
    kernels::set_parallel_threshold(std::numeric_limits<std::size_t>::max());
    qsim::Statevector serial(kQubits);
    for (int rep = 0; rep < (args.trace ? 3 : 1); ++rep) {
      serial.reset();
      ScopedSpan span("kernels.serial_forward");
      exec.run(params, serial);
    }
    kernels::set_parallel_threshold(saved);
    std::string why;
    out.check(states_identical(parallel, serial, &why), why);
  }

  // ---- metrics --------------------------------------------------------------
  // Medians over the run's evaluations, so a burst of load from outside
  // the benchmark moves a few evaluations and not the reported figure.
  out.e2e("setup_s", setup_s, "s");
  out.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
  // The gradient's time is reported by the traced run (executor.adjoint_s)
  // and not here: it runs thousands of OpenMP regions over a 16 MiB state
  // and on a shared machine moves with CPU steal far beyond any usable
  // bound, while the blocked forward pass stays steady. So here the two
  // figures below are reciprocals of one median.
  out.e2e("throughput_per_s", 1.0 / quantile(expect_s, 0.5), "1/s");
  out.e2e("latency_p50_ms", 1e3 * quantile(expect_s, 0.5), "ms");

  if (args.trace) {
    const double forward_s = quantile(tracer.durations("executor.run"), 0.5);
    const double serial_forward_s =
        quantile(tracer.durations("kernels.serial_forward"), 0.5);
    const double state_bytes =
        static_cast<double>(state.dim() * sizeof(qsim::cplx));
    const double sweeps = static_cast<double>(
        exec.blocked() ? exec.num_block_groups() : exec.num_plan_ops());
    out.layer("executor.circuit_ops",
              static_cast<double>(exec.num_circuit_ops()), "count");
    out.layer("executor.plan_ops", static_cast<double>(exec.num_plan_ops()),
              "count");
    out.layer("executor.block_groups",
              static_cast<double>(exec.num_block_groups()), "count");
    out.layer("executor.exchange_steps",
              static_cast<double>(exec.num_exchange_steps()), "count");
    out.layer("executor.forward_s", forward_s, "s");
    out.layer("executor.adjoint_s",
              quantile(tracer.durations("executor.adjoint"), 0.5), "s");
    out.layer("kernels.serial_forward_s", serial_forward_s, "s");
    out.layer("kernels.parallel_speedup", serial_forward_s / forward_s, "x");
    out.layer("kernels.bytes_moved_forward", 2.0 * sweeps * state_bytes,
              "bytes");
  }
  return out;
}

}  // namespace perfbench
