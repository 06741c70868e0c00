// Shared plumbing of the benchmark runner: command-line arguments, the
// result record every workload fills, timing and memory helpers, and the
// provenance line printed before each result.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";  // spans and the set-up's shard
  std::string git_sha = "unavailable";
  std::string source_digest = "unavailable";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `attempted`/`failed` count the
/// operations of the measured phase; `problems` lists every correctness
/// check that did not hold.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  std::vector<Metric> end_to_end;
  std::vector<Metric> layers;

  /// Records a failed check when `ok` is false; returns `ok`.
  bool check(bool ok, const std::string& what);
  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    layers.push_back({name, value, unit});
  }
};

/// Seconds elapsed since `since`.
double seconds_since(Clock::time_point since);

/// Peak resident set size of this process in MiB (getrusage).
double peak_rss_mb();

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double quantile(std::vector<double> values, double q);

/// SplitMix64 step: derives independent sub-seeds from the run's seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/// One JSON object naming the hardware and build a result came from.
std::string provenance_json(const Args& args);

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(const Outcome& outcome, bool trace);

/// Minimal JSON string escaping for names and messages.
std::string json_escape(const std::string& s);

}  // namespace perfbench
