// perfbench_selftest: shows that every correctness check of the benchmark
// accepts a correct output and rejects a corrupted one.
//
//   python3 perfbench/run.py --selftest
//
// Exits 1 when any check accepts a corruption or rejects a correct output.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numbers>
#include <string>
#include <utility>
#include <vector>

#include "checks.h"
#include "common/rng.h"
#include "qsim/circuit.h"
#include "qsim/executor.h"
#include "qsim/observable.h"

namespace {

using namespace perfbench;
namespace qsim = sqvae::qsim;

int g_failures = 0;

void expect(bool accepted, bool want, const char* what,
            const std::string& why) {
  const bool ok = accepted == want;
  if (!ok) ++g_failures;
  std::printf("%-4s %-58s %s%s\n", ok ? "ok" : "FAIL", what,
              accepted ? "accepted" : "rejected",
              accepted ? "" : (": " + why).c_str());
}

void gradient_cases() {
  // A small strongly-entangling circuit: adjoint against parameter shift.
  const int qubits = 4;
  qsim::Circuit c(qubits);
  c.strongly_entangling_layers(1, c.angle_embedding(0));
  const qsim::CircuitExecutor exec(c);
  sqvae::Rng rng(11);
  std::vector<double> params(static_cast<std::size_t>(exec.num_param_slots()));
  for (double& v : params) v = rng.uniform(-std::numbers::pi, std::numbers::pi);
  const std::vector<double> diag =
      qsim::weighted_z_diagonal(qubits, {0.3, -0.7, 0.5, 0.9});
  const auto adj = exec.adjoint_batch({params}, {qsim::Statevector(qubits)},
                                      {diag})
                       .front()
                       .param_grads;
  auto energy = [&](const std::vector<double>& p) {
    qsim::Statevector s(qubits);
    exec.run(p, s);
    return s.expectation_diag(diag);
  };
  std::vector<double> shift;
  for (std::size_t i = 0; i < params.size(); ++i) {
    std::vector<double> p = params;
    p[i] += std::numbers::pi / 2;
    const double plus = energy(p);
    p[i] -= std::numbers::pi;
    shift.push_back(0.5 * (plus - energy(p)));
  }
  std::string why;
  expect(gradients_match(adj, shift, 1e-9, &why), true,
         "adjoint gradient vs parameter shift", why);
  std::vector<double> bad = adj;
  bad[3] += 1e-6;
  expect(gradients_match(bad, shift, 1e-9, &why), false,
         "gradient entry perturbed by 1e-6", why);

  qsim::Statevector psi(qubits);
  exec.run(params, psi);
  expect(norm_is_one(psi, 1e-10, &why), true, "state norm", why);
  qsim::Statevector off = psi;
  off[5] *= 1.0 + 1e-8;
  expect(norm_is_one(off, 1e-10, &why), false, "state whose norm is off", why);
  expect(states_identical(psi, psi, &why), true, "identical amplitudes", why);
  off = psi;
  off[9] = qsim::cplx(std::nextafter(off[9].real(), 2.0), off[9].imag());
  expect(states_identical(psi, off, &why), false,
         "amplitude one ulp away from serial", why);
}

void training_cases() {
  std::vector<sqvae::Matrix> a = {sqvae::Matrix(2, 3, 0.25),
                                  sqvae::Matrix(1, 4, -1.5)};
  std::string why;
  expect(params_identical(a, a, &why), true, "identical parameters", why);
  std::vector<sqvae::Matrix> b = a;
  b[1][2] = std::nextafter(b[1][2], 0.0);
  expect(params_identical(a, b, &why), false,
         "parameter one ulp away at another thread count", why);

  const sqvae::Matrix x(3, 2, 1.0);
  sqvae::Matrix y = x;
  y[4] = 1.5;
  const double own = mean_squared_error(x, y);
  expect(mse_matches(own, own, 1e-12, &why), true, "test MSE equal", why);
  expect(mse_matches(own * (1 + 1e-9), own, 1e-12, &why), false,
         "test MSE off by 1e-9 relative", why);
}

void shard_cases() {
  std::vector<std::pair<sqvae::chem::MolHash, std::string>> records;
  for (const char* s : {"CCO", "c1ccccc1", "CC(=O)N", "OCCN", "FC(F)F"}) {
    records.emplace_back(sqvae::chem::hash_bytes(s), s);
  }
  std::sort(records.begin(), records.end(),
            [](const auto& l, const auto& r) { return l.first < r.first; });
  std::string why;
  expect(shard_consistent(records, 5, &why), true, "shard of 5 distinct", why);
  auto dup = records;
  dup.insert(dup.begin() + 2, dup[1]);
  expect(shard_consistent(dup, 5, &why), false,
         "shard carrying a duplicate key", why);
  expect(shard_consistent(records, 6, &why), false,
         "shard missing a distinct molecule", why);
  auto wrong = records;
  wrong[0].second = "CCN";
  expect(shard_consistent(wrong, 5, &why), false,
         "record whose key is not its hash", why);
}

// Two connections, four request keys; the reference body of key k is
// ", \"op\": \"encode\", \"y\": [k]}".
std::string body(std::size_t key) {
  return ", \"op\": \"encode\", \"y\": [" + std::to_string(key) + "]}";
}

std::string line(std::uint64_t id, std::size_t key) {
  return "{\"ok\": true, \"id\": " + std::to_string(id) + body(key);
}

struct Sent {
  std::size_t conn;
  std::uint64_t id;
  std::size_t key;
};

bool run_stream(const std::vector<Sent>& sent,
                std::vector<std::vector<std::string>> received,
                std::string* why) {
  ResponseChecker checker(2, 4);
  for (const Sent& s : sent) checker.expect(s.conn, s.id, s.key);
  for (std::size_t c = 0; c < received.size(); ++c) {
    for (const std::string& l : received[c]) checker.on_line(c, l);
  }
  return checker.finish(body, why);
}

void response_cases() {
  const std::vector<Sent> sent = {{0, 1, 0}, {1, 2, 1}, {0, 3, 2}, {0, 4, 0},
                                  {1, 5, 2}, {1, 6, 1}, {0, 7, 3}};
  const std::vector<std::vector<std::string>> good = {
      {line(1, 0), line(3, 2), line(4, 0), line(7, 3)},
      {line(2, 1), line(5, 2), line(6, 1)}};
  std::string why;
  expect(run_stream(sent, good, &why), true, "pipelined responses", why);

  auto dropped = good;
  dropped[1].erase(dropped[1].begin() + 1);
  expect(run_stream(sent, dropped, &why), false, "one response dropped", why);

  auto reordered = good;
  std::swap(reordered[0][0], reordered[0][1]);
  expect(run_stream(sent, reordered, &why), false, "one response reordered",
         why);

  auto changed_once = good;
  changed_once[0][3][changed_once[0][3].size() - 3] = '8';
  expect(run_stream(sent, changed_once, &why), false,
         "one changed byte in a key's only response", why);

  auto changed_repeat = good;
  changed_repeat[0][2][changed_repeat[0][2].size() - 3] = '7';
  expect(run_stream(sent, changed_repeat, &why), false,
         "one changed byte in a repeated key's response", why);

  auto error = good;
  error[1][0] = "{\"ok\": false, \"id\": 2, \"error\": \"overloaded\"}";
  expect(run_stream(sent, error, &why), false, "an error response", why);

  std::vector<double> a, b;
  parse_response_values(", \"op\": \"decode\", \"y\": [0.5, -1.25, 3]}", &a);
  parse_response_values(", \"op\": \"decode\", \"y\": [0.5, -1.25, 3.000001]}",
                        &b);
  expect(a.size() == 3 && max_abs_diff(a, a) <= 1e-9, true,
         "composition of equal responses", "");
  expect(max_abs_diff(a, b) <= 1e-9, false, "composition off by 1e-6",
         "differs by 1e-6");
}

}  // namespace

int main() {
  gradient_cases();
  training_cases();
  shard_cases();
  response_cases();
  std::printf("%s\n", g_failures == 0 ? "selftest passed"
                                      : "selftest FAILED");
  return g_failures == 0 ? 0 : 1;
}
