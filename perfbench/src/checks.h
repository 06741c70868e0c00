// Correctness checks of the benchmark, kept apart from the workloads so the
// self-test (selftest.cpp) can feed each one a deliberately corrupted
// output and show that it fails. Every check compares against an
// independent computation or a property the method must have, never
// against a stored copy of an earlier output.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "chem/mol_hash.h"
#include "common/matrix.h"
#include "qsim/statevector.h"

namespace perfbench {

/// Adjoint gradient entries against parameter-shift estimates
/// [E(t + pi/2) - E(t - pi/2)] / 2 of the same slots. Fails when any
/// |adjoint - shift| exceeds `tol`.
bool gradients_match(const std::vector<double>& adjoint,
                     const std::vector<double>& shift, double tol,
                     std::string* why);

/// | ||psi||^2 - 1 | <= tol.
bool norm_is_one(const sqvae::qsim::Statevector& psi, double tol,
                 std::string* why);

/// Amplitudes equal bit for bit.
bool states_identical(const sqvae::qsim::Statevector& a,
                      const sqvae::qsim::Statevector& b, std::string* why);

/// Two parameter sets equal bit for bit (same shapes, same bytes).
bool params_identical(const std::vector<sqvae::Matrix>& a,
                      const std::vector<sqvae::Matrix>& b, std::string* why);

/// Mean of (a - b)^2 over every entry, summed in row-major order.
double mean_squared_error(const sqvae::Matrix& a, const sqvae::Matrix& b);

/// |reported - own| <= rel_tol * |own|.
bool mse_matches(double reported, double own, double rel_tol,
                 std::string* why);

/// A shard's records in index order: keys strictly ascending (so no key
/// appears twice), each key the hash of its record's bytes, and as many
/// records as the benchmark's own count of distinct canonical SMILES.
bool shard_consistent(
    const std::vector<std::pair<sqvae::chem::MolHash, std::string>>& records,
    std::size_t distinct_canonical, std::string* why);

/// Parses the "y" array of a protocol response body into `out`.
bool parse_response_values(std::string_view body, std::vector<double>* out);

/// Largest |a_i - b_i|; infinity on a length mismatch.
double max_abs_diff(const std::vector<double>& a, const std::vector<double>& b);

/// Checks a pipelined response stream on several connections: every
/// request gets exactly one ok response, in the order it was sent on its
/// connection, and all responses to one request key carry the same bytes
/// after the id. finish() compares those bytes with a reference body per
/// key. Requests carry ids; a response body is the text after the id.
class ResponseChecker {
 public:
  ResponseChecker(std::size_t connections, std::size_t keys);

  /// Request `id` for `key` was sent on `conn`.
  void expect(std::size_t conn, std::uint64_t id, std::size_t key);
  /// A response line (without the newline) arrived on `conn`.
  void on_line(std::size_t conn, std::string_view line);

  /// Responses that matched their request so far.
  std::uint64_t matched() const { return matched_; }
  /// Requests still waiting for a response.
  std::uint64_t outstanding() const;

  /// Final verdict: nothing outstanding, nothing mismatched, and the body
  /// seen for each key equal to `reference(key)`.
  bool finish(const std::function<std::string(std::size_t)>& reference,
              std::string* why) const;

  /// Splits `line` into id and body; false if it is not an ok response
  /// with an id.
  static bool split(std::string_view line, std::uint64_t* id,
                    std::string_view* body);

 private:
  void fail(std::string what);

  struct Pending {
    std::uint64_t id;
    std::size_t key;
  };
  std::vector<std::deque<Pending>> pending_;
  std::vector<std::string> bodies_;
  std::uint64_t matched_ = 0;
  std::uint64_t mismatched_ = 0;  // wrong id, wrong bytes, error, unexpected
  std::string first_error_;
};

}  // namespace perfbench
