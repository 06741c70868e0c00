#include "util.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <thread>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "qsim/kernels.h"

namespace perfbench {

bool Outcome::check(bool ok, const std::string& what) {
  if (!ok) problems.push_back(what);
  return ok;
}

double seconds_since(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string provenance_json(const Args& args) {
  namespace k = sqvae::qsim::kernels;
#ifdef _OPENMP
  const int omp_max = omp_get_max_threads();
#else
  const int omp_max = 1;
#endif
  std::ostringstream os;
  os << "{\"provenance\": {\"git_sha\": \"" << json_escape(args.git_sha)
     << "\", \"source_digest\": \"" << json_escape(args.source_digest)
     << "\", \"compiler\": \"" << json_escape(PERFBENCH_COMPILER)
     << "\", \"build_type\": \"" << json_escape(PERFBENCH_BUILD_TYPE)
     << "\", \"kernel_isa\": \"" << k::isa_name(k::active_isa())
     << "\", \"hardware_threads\": " << std::thread::hardware_concurrency()
     << ", \"omp_max_threads\": " << omp_max << ", \"workload\": \""
     << json_escape(args.workload) << "\", \"seed\": " << args.seed
     << ", \"seconds\": " << args.seconds
     << ", \"trace\": " << (args.trace ? 1 : 0) << "}}";
  return os.str();
}

std::string result_json(const Outcome& outcome, bool trace) {
  const std::vector<Metric>& metrics =
      trace ? outcome.layers : outcome.end_to_end;
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (outcome.problems.empty() ? "true" : "false")
     << ", \"attempted\": " << outcome.attempted
     << ", \"failed\": " << outcome.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    os << (i ? ", " : "") << "\"" << json_escape(m.name)
       << "\": {\"value\": " << v << ", \"unit\": \"" << json_escape(m.unit)
       << "\"}";
  }
  os << "}}";
  return os.str();
}

}  // namespace perfbench
