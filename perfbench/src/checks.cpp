#include "checks.h"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>

namespace perfbench {

namespace {

void set_why(std::string* why, const std::string& text) {
  if (why != nullptr) *why = text;
}

}  // namespace

bool gradients_match(const std::vector<double>& adjoint,
                     const std::vector<double>& shift, double tol,
                     std::string* why) {
  if (adjoint.size() != shift.size() || adjoint.empty()) {
    set_why(why, "gradient sample sizes differ");
    return false;
  }
  for (std::size_t i = 0; i < adjoint.size(); ++i) {
    const double d = std::abs(adjoint[i] - shift[i]);
    if (!(d <= tol)) {
      std::ostringstream os;
      os.precision(17);
      os << "adjoint gradient " << adjoint[i] << " vs parameter shift "
         << shift[i] << " (sample " << i << ")";
      set_why(why, os.str());
      return false;
    }
  }
  return true;
}

bool norm_is_one(const sqvae::qsim::Statevector& psi, double tol,
                 std::string* why) {
  const double n = psi.norm_squared();
  if (std::abs(n - 1.0) <= tol) return true;
  std::ostringstream os;
  os.precision(17);
  os << "state norm^2 " << n;
  set_why(why, os.str());
  return false;
}

bool states_identical(const sqvae::qsim::Statevector& a,
                      const sqvae::qsim::Statevector& b, std::string* why) {
  if (a.dim() != b.dim() ||
      std::memcmp(a.amplitudes().data(), b.amplitudes().data(),
                  a.dim() * sizeof(sqvae::qsim::cplx)) != 0) {
    set_why(why, "amplitudes differ from the serial kernel table");
    return false;
  }
  return true;
}

bool params_identical(const std::vector<sqvae::Matrix>& a,
                      const std::vector<sqvae::Matrix>& b, std::string* why) {
  if (a.size() != b.size()) {
    set_why(why, "parameter counts differ");
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].rows() != b[i].rows() || a[i].cols() != b[i].cols() ||
        std::memcmp(a[i].data(), b[i].data(), a[i].size() * sizeof(double)) !=
            0) {
      set_why(why, "parameter matrix " + std::to_string(i) +
                       " differs between 1 thread and the default count");
      return false;
    }
  }
  return true;
}

double mean_squared_error(const sqvae::Matrix& a, const sqvae::Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols() || a.size() == 0) {
    return std::numeric_limits<double>::infinity();
  }
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s / static_cast<double>(a.size());
}

bool mse_matches(double reported, double own, double rel_tol,
                 std::string* why) {
  if (std::abs(reported - own) <= rel_tol * std::abs(own)) return true;
  std::ostringstream os;
  os.precision(17);
  os << "trainer test MSE " << reported << " vs own " << own;
  set_why(why, os.str());
  return false;
}

bool shard_consistent(
    const std::vector<std::pair<sqvae::chem::MolHash, std::string>>& records,
    std::size_t distinct_canonical, std::string* why) {
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (!(sqvae::chem::hash_bytes(records[i].second) == records[i].first)) {
      set_why(why, "record " + std::to_string(i) + " key is not its hash");
      return false;
    }
    if (i > 0 && !(records[i - 1].first < records[i].first)) {
      set_why(why, "record " + std::to_string(i) +
                       " key does not ascend (duplicate or out of order)");
      return false;
    }
  }
  if (records.size() != distinct_canonical) {
    set_why(why, std::to_string(records.size()) + " records, " +
                     std::to_string(distinct_canonical) +
                     " distinct canonical SMILES");
    return false;
  }
  return true;
}

bool parse_response_values(std::string_view body, std::vector<double>* out) {
  out->clear();
  const std::size_t open = body.find("\"y\": [");
  if (open == std::string_view::npos) return false;
  std::string numbers(body.substr(open + 6));
  const char* p = numbers.c_str();
  while (*p != '\0' && *p != ']') {
    char* end = nullptr;
    const double v = std::strtod(p, &end);
    if (end == p) return false;
    out->push_back(v);
    p = end;
    while (*p == ',' || *p == ' ') ++p;
  }
  return *p == ']';
}

double max_abs_diff(const std::vector<double>& a,
                    const std::vector<double>& b) {
  if (a.size() != b.size()) return std::numeric_limits<double>::infinity();
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a[i] - b[i]));
  }
  return m;
}

ResponseChecker::ResponseChecker(std::size_t connections, std::size_t keys)
    : pending_(connections), bodies_(keys) {}

void ResponseChecker::expect(std::size_t conn, std::uint64_t id,
                             std::size_t key) {
  pending_[conn].push_back({id, key});
}

bool ResponseChecker::split(std::string_view line, std::uint64_t* id,
                            std::string_view* body) {
  static constexpr std::string_view kPrefix = "{\"ok\": true, \"id\": ";
  if (line.substr(0, kPrefix.size()) != kPrefix) return false;
  std::size_t pos = kPrefix.size();
  std::uint64_t value = 0;
  const std::size_t digits_begin = pos;
  while (pos < line.size() && line[pos] >= '0' && line[pos] <= '9') {
    value = value * 10 + static_cast<std::uint64_t>(line[pos] - '0');
    ++pos;
  }
  if (pos == digits_begin) return false;
  *id = value;
  *body = line.substr(pos);
  return true;
}

void ResponseChecker::fail(std::string what) {
  ++mismatched_;
  if (first_error_.empty()) first_error_ = std::move(what);
}

void ResponseChecker::on_line(std::size_t conn, std::string_view line) {
  if (pending_[conn].empty()) {
    fail("response with no request outstanding on connection " +
         std::to_string(conn));
    return;
  }
  const Pending want = pending_[conn].front();
  pending_[conn].pop_front();
  std::uint64_t id = 0;
  std::string_view body;
  if (!split(line, &id, &body)) {
    fail("not an ok response: " + std::string(line.substr(0, 120)));
    return;
  }
  if (id != want.id) {
    fail("connection " + std::to_string(conn) + " expected id " +
         std::to_string(want.id) + ", got " + std::to_string(id));
    return;
  }
  std::string& seen = bodies_[want.key];
  if (seen.empty()) {
    seen.assign(body);
  } else if (seen != body) {
    fail("response " + std::to_string(id) +
         " differs from an earlier response to the same request key");
    return;
  }
  ++matched_;
}

std::uint64_t ResponseChecker::outstanding() const {
  std::uint64_t n = 0;
  for (const auto& q : pending_) n += q.size();
  return n;
}

bool ResponseChecker::finish(
    const std::function<std::string(std::size_t)>& reference,
    std::string* why) const {
  if (mismatched_ != 0) {
    set_why(why, std::to_string(mismatched_) +
                     " mismatched response(s); first: " + first_error_);
    return false;
  }
  if (outstanding() != 0) {
    set_why(why, std::to_string(outstanding()) + " request(s) unanswered");
    return false;
  }
  for (std::size_t key = 0; key < bodies_.size(); ++key) {
    if (bodies_[key].empty()) continue;
    if (bodies_[key] != reference(key)) {
      set_why(why, "response body for key " + std::to_string(key) +
                       " differs from execute_single");
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
