#include "trace.h"

#include <cstdio>

namespace perfbench {

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

Tracer::Buffer& Tracer::local() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    auto owned = std::make_unique<Buffer>();
    std::lock_guard<std::mutex> lock(mu_);
    owned->thread = static_cast<std::uint32_t>(buffers_.size());
    buffer = owned.get();
    buffers_.push_back(std::move(owned));
  }
  return *buffer;
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

std::uint64_t Tracer::begin(const char* name, std::uint64_t request) {
  if (!enabled()) return 0;
  Buffer& b = local();
  Span s;
  s.name = name;
  s.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  s.parent = b.open.empty() ? 0 : b.open.back().id;
  s.request = request;
  if (s.request == 0 && !b.open.empty()) s.request = b.open.back().request;
  s.thread = b.thread;
  s.start_ns = now_ns();
  b.open.push_back(s);
  return s.id;
}

void Tracer::end(std::uint64_t id) {
  Buffer& b = local();
  if (b.open.empty() || b.open.back().id != id) return;  // unbalanced
  Span s = b.open.back();
  b.open.pop_back();
  s.end_ns = now_ns();
  b.spans.push_back(s);
}

void Tracer::record(const char* name, Clock::time_point start,
                    Clock::time_point end, std::uint64_t request) {
  if (!enabled()) return;
  Buffer& b = local();
  Span s;
  s.name = name;
  s.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  s.parent = b.open.empty() ? 0 : b.open.back().id;
  s.request = request;
  s.thread = b.thread;
  s.start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(start - epoch_)
          .count();
  s.end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - epoch_)
          .count();
  b.spans.push_back(s);
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans) {
      if (name == s.name) out.push_back(1e-9 * (s.end_ns - s.start_ns));
    }
  }
  return out;
}

std::size_t Tracer::count(const std::string& name) const {
  return durations(name).size();
}

double Tracer::total_seconds(const std::string& name) const {
  double total = 0.0;
  for (const double d : durations(name)) total += d;
  return total;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans) {
      std::fprintf(f,
                   "{\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                   "\"request\": %llu, \"thread\": %u, \"start_ns\": %lld, "
                   "\"end_ns\": %lld}\n",
                   s.name, static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request), s.thread,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
