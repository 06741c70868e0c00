// In-memory span recorder for the traced run (--trace 1).
//
// Spans are recorded by the benchmark's own wrappers around calls into the
// library (models, data, serve, qsim), never from inside the library. Each
// thread appends to its own buffer, so recording takes no lock after a
// thread's first span; buffers are owned by the tracer and outlive the
// threads that filled them. Aggregates and the JSON-lines dump read the
// buffers only after the recording threads have quiesced (the end of an
// OpenMP region, a join, or a drained client loop).
//
// With tracing disabled every entry point returns at once, which is how
// the untraced run measures the end-to-end metrics.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util.h"

namespace perfbench {

struct Span {
  const char* name = "";     // static string
  std::uint64_t id = 0;      // unique per span
  std::uint64_t parent = 0;  // enclosing span on the same thread; 0 = root
  std::uint64_t request = 0; // shared by spans of one request; 0 = none
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t thread = 0;
};

class Tracer {
 public:
  static Tracer& instance();

  void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Opens a span on the calling thread; returns its id (0 when disabled).
  std::uint64_t begin(const char* name, std::uint64_t request = 0);
  /// Closes the innermost open span of the calling thread.
  void end(std::uint64_t id);
  /// Records an already-timed span (e.g. a client request whose start and
  /// end were observed at different points of an event loop).
  void record(const char* name, Clock::time_point start, Clock::time_point end,
              std::uint64_t request = 0);

  /// Number and total duration (seconds) of closed spans named `name`.
  std::size_t count(const std::string& name) const;
  double total_seconds(const std::string& name) const;
  /// Durations (seconds) of every closed span named `name`.
  std::vector<double> durations(const std::string& name) const;

  /// Writes every closed span as one JSON object per line. False on I/O
  /// failure.
  bool write_jsonl(const std::string& path) const;

 private:
  struct Buffer {
    std::uint32_t thread = 0;
    std::vector<Span> spans;        // closed spans
    std::vector<Span> open;         // stack of open spans
  };
  Buffer& local();
  std::int64_t now_ns() const;

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mu_;  // guards buffers_ (registration and reads)
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span; a no-op when tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t request = 0)
      : id_(Tracer::instance().begin(name, request)) {}
  ~ScopedSpan() {
    if (id_ != 0) Tracer::instance().end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::uint64_t id_;
};

}  // namespace perfbench
