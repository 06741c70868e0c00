// serve_pdbbind_sqae: the EventLoopServer + InferenceService stack that
// sqvae_serve runs in TCP mode, serving a checkpoint of the 32x32 SQ-AE,
// driven over loopback by a closed-loop client in this process.
//
// Load: one client thread, one connection per hardware thread, each
// keeping a fixed window of requests in flight so that micro-batches form.
// The endpoint mix, payload pool and repeated-key space follow the serving
// soak (bench/bench_serve_soak.cpp): 50% encode, 40% reconstruct and, in
// place of the soak's 10% latent_sample (which needs a VAE), 10% decode,
// over 32 payloads; a repeated request draws its seed from the soak's 8
// seeds, so the response cache can hit on it. A fixed share of requests
// repeats; every other request carries a seed of its own, so it misses.
// The cache budget is the soak's as well (--cache_mb=32 in
// ci/serve_soak.sh).
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "common/rng.h"
#include "data/molecule_dataset.h"
#include "models/checkpoint.h"
#include "models/scalable_quantum.h"
#include "serve/event_loop.h"
#include "serve/loaded_model.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/service.h"
#include "serve/stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace serve = sqvae::serve;
namespace models = sqvae::models;
using sqvae::Matrix;
using sqvae::Rng;

constexpr std::size_t kPool = 32;         // molecule / latent payloads
constexpr std::uint64_t kRepeatSeeds = 8;  // seeds of a repeated request
constexpr std::uint64_t kFirstSeed = 100;  // the soak's seeds: 100..107
// No traffic record gives the share of repeated keys; a quarter keeps the
// cache path visible while three requests in four still run the model.
constexpr double kRepeatShare = 0.25;
// nproc connections x 8 = twice max_batch in flight on 4 threads, so
// batches form; the soak is open-loop and gives no window.
constexpr std::size_t kWindow = 8;
// Warm-up lasts until the response cache is full (its first eviction), so
// the measured window sees a long-running server's cache and memory.
constexpr double kWarmupSeconds = 1.0;     // at least
constexpr double kMaxWarmupSeconds = 15.0;  // at most
constexpr std::size_t kCacheBytes = 32u << 20;
constexpr double kStallSeconds = 20.0;  // no response for this long = hung

constexpr serve::Endpoint kEndpoints[3] = {serve::Endpoint::kEncode,
                                           serve::Endpoint::kDecode,
                                           serve::Endpoint::kReconstruct};

constexpr const char* kReferenceSpans[3] = {
    "service.execute_single.encode", "service.execute_single.decode",
    "service.execute_single.reconstruct"};

/// Endpoint mix: 50% encode, 10% decode, 40% reconstruct.
int draw_endpoint(Rng& rng) {
  const double u = rng.uniform();
  return u < 0.5 ? 0 : (u < 0.6 ? 1 : 2);
}

std::string values_text(const double* v, std::size_t n) {
  std::string out = "[";
  char buf[40];
  for (std::size_t i = 0; i < n; ++i) {
    std::snprintf(buf, sizeof buf, "%s%.17g", i ? ", " : "", v[i]);
    out += buf;
  }
  out += "]";
  return out;
}

struct RequestKey {
  int endpoint = 0;
  std::size_t payload = 0;
  std::uint64_t seed = 0;
  std::size_t checker_key() const {
    return static_cast<std::size_t>(endpoint) * kPool + payload;
  }
};

struct Conn {
  int fd = -1;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  std::deque<std::pair<std::uint64_t, Clock::time_point>> inflight;
};

int connect_loopback(int port, bool nonblocking) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  if (nonblocking) ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

bool flush(Conn& c, std::uint64_t* bytes) {
  while (c.out_off < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                             c.out.size() - c.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      c.out_off += static_cast<std::size_t>(n);
      *bytes += static_cast<std::uint64_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  c.out.clear();
  c.out_off = 0;
  return true;
}

/// Blocking one-request exchange on a fresh connection (check phase, after
/// the load's connections are closed).
bool exchange(int port, const std::string& line, std::string* response) {
  const int fd = connect_loopback(port, false);
  if (fd < 0) return false;
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t n = ::send(fd, line.data() + off, line.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  response->clear();
  char buf[65536];
  while (response->find('\n') == std::string::npos) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    response->append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t nl = response->find('\n');
  if (nl == std::string::npos) return false;
  response->resize(nl);
  return true;
}

}  // namespace

Outcome run_serve_workload(const Args& args, Clock::time_point process_start) {
  Outcome out;
  Tracer& tracer = Tracer::instance();
  std::signal(SIGPIPE, SIG_IGN);

  // ---- set-up: payloads, checkpoint, serving stack, connections ----------
  Rng rng(mix_seed(args.seed, 1));
  const Matrix molecules =
      sqvae::data::make_pdbbind_like(kPool, 32, rng).features().samples;
  serve::ModelSpec spec;
  spec.kind = "sq-ae";
  spec.input_dim = 1024;
  models::ScalableQuantumConfig model_config;  // 8 patches, 5 layers
  spec.entangling_layers = model_config.entangling_layers;
  spec.patches = model_config.patches;
  Rng model_rng(mix_seed(args.seed, 2));
  const std::string checkpoint =
      models::checkpoint_to_text(*models::make_sq_ae(model_config, model_rng));
  std::string error;
  const auto loaded =
      serve::LoadedModel::from_checkpoint_text(spec, checkpoint, &error);
  if (!out.check(loaded != nullptr, "checkpoint load failed: " + error)) {
    return out;
  }
  const std::size_t latent_dim = loaded->latent_dim();
  Matrix latents(kPool, latent_dim);
  for (std::size_t i = 0; i < latents.size(); ++i) {
    latents[i] = rng.uniform(-1.0, 1.0);
  }
  std::vector<std::string> payload_text[2];  // [0] molecules, [1] latents
  for (std::size_t p = 0; p < kPool; ++p) {
    payload_text[0].push_back(
        values_text(molecules.data() + p * molecules.cols(), molecules.cols()));
    payload_text[1].push_back(
        values_text(latents.data() + p * latent_dim, latent_dim));
  }
  auto line_for = [&](const RequestKey& k, std::uint64_t id) {
    std::string line = "{\"op\": \"";
    line += serve::endpoint_name(kEndpoints[k.endpoint]);
    line += "\", \"seed\": " + std::to_string(k.seed) +
            ", \"id\": " + std::to_string(id) + ", \"x\": ";
    line += payload_text[k.endpoint == 1 ? 1 : 0][k.payload];
    line += "}\n";
    return line;
  };

  serve::ModelRegistry registry;
  registry.publish("default", loaded);
  serve::ServerStats stats;
  serve::ServeConfig config;  // sqvae_serve's TCP-mode defaults
  config.shed_on_full = true;
  config.cache_bytes = kCacheBytes;
  serve::InferenceService service(registry, config, &stats);
  serve::EventLoopConfig loop_config;
  loop_config.port = 0;  // kernel-chosen loopback port
  serve::EventLoopServer server(service, loop_config, stats);
  if (!out.check(server.start(&error), "server start failed: " + error)) {
    return out;
  }
  std::thread server_thread([&server] { server.run(); });

  const std::size_t connections =
      std::max(1u, std::thread::hardware_concurrency());
  std::vector<Conn> conns(connections);
  bool connected = true;
  for (Conn& c : conns) {
    c.fd = connect_loopback(server.port(), true);
    connected = connected && c.fd >= 0;
  }
  const double setup_s = seconds_since(process_start);

  // ---- closed-loop load: warm-up, measured window, drain -----------------
  ResponseChecker checker(connections, 3 * kPool);
  Rng load_rng(mix_seed(args.seed, 3));
  std::uint64_t next_id = 1;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::vector<double> latencies_ms;
  std::uint64_t window_sent = 0;
  std::vector<double> completion_s;  // since measure_start, in the window
  std::vector<std::string> sample_lines;  // traced run: protocol replay
  std::vector<RequestKey> sample_keys;
  bool io_ok = connected;

  enum class Phase { kWarmup, kMeasure, kDrain };
  Phase phase = Phase::kWarmup;
  const Clock::time_point warmup_start = Clock::now();
  Clock::time_point measure_start = warmup_start;
  double window_seconds = 0.0;

  auto issue = [&](std::size_t ci) {
    const std::uint64_t id = next_id++;
    RequestKey k;
    const bool repeat = load_rng.uniform() < kRepeatShare;
    k.endpoint = draw_endpoint(load_rng);
    k.payload = load_rng.uniform_index(kPool);
    k.seed = repeat ? kFirstSeed + load_rng.uniform_index(kRepeatSeeds)
                    : kFirstSeed + kRepeatSeeds + id;
    std::string line = line_for(k, id);
    if (args.trace && sample_lines.size() < 2000) {
      sample_lines.push_back(line.substr(0, line.size() - 1));
      sample_keys.push_back(k);
    }
    Conn& c = conns[ci];
    c.out += line;
    checker.expect(ci, id, k.checker_key());
    c.inflight.emplace_back(id, Clock::now());
    if (phase == Phase::kMeasure) ++window_sent;
    if (!flush(c, &bytes_sent)) io_ok = false;
  };

  for (std::size_t ci = 0; io_ok && ci < connections; ++ci) {
    for (std::size_t w = 0; w < kWindow; ++w) issue(ci);
  }
  std::vector<pollfd> fds(connections);
  Clock::time_point last_progress = Clock::now();
  char buf[1 << 16];
  while (io_ok) {
    const Clock::time_point now = Clock::now();
    if (phase == Phase::kWarmup &&
        seconds_since(warmup_start) >= kWarmupSeconds &&
        (stats.cache_evictions.load() > 0 ||
         seconds_since(warmup_start) >= kMaxWarmupSeconds)) {
      phase = Phase::kMeasure;
      measure_start = now;
      window_sent = 0;
      completion_s.clear();
      latencies_ms.clear();
    } else if (phase == Phase::kMeasure &&
               seconds_since(measure_start) >= args.seconds) {
      phase = Phase::kDrain;
      window_seconds = seconds_since(measure_start);
    }
    if (phase == Phase::kDrain && checker.outstanding() == 0) break;
    if (seconds_since(last_progress) > kStallSeconds) {
      out.check(false, "server stopped responding");
      break;
    }
    for (std::size_t ci = 0; ci < connections; ++ci) {
      fds[ci].fd = conns[ci].fd;
      fds[ci].events = static_cast<short>(
          POLLIN | (conns[ci].out.empty() ? 0 : POLLOUT));
      fds[ci].revents = 0;
    }
    if (::poll(fds.data(), fds.size(), 100) < 0 && errno != EINTR) {
      io_ok = false;
      break;
    }
    for (std::size_t ci = 0; io_ok && ci < connections; ++ci) {
      Conn& c = conns[ci];
      if (fds[ci].revents & POLLOUT) {
        if (!flush(c, &bytes_sent)) io_ok = false;
      }
      if (!(fds[ci].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      const ssize_t n = ::recv(c.fd, buf, sizeof buf, MSG_DONTWAIT);
      if (n == 0 || (n < 0 && errno != EAGAIN && errno != EINTR)) {
        io_ok = false;
        break;
      }
      if (n < 0) continue;
      bytes_received += static_cast<std::uint64_t>(n);
      c.in.append(buf, static_cast<std::size_t>(n));
      std::size_t begin = 0;
      for (std::size_t nl = c.in.find('\n'); nl != std::string::npos;
           nl = c.in.find('\n', begin)) {
        const Clock::time_point done = Clock::now();
        last_progress = done;
        checker.on_line(ci, std::string_view(c.in).substr(begin, nl - begin));
        begin = nl + 1;
        if (!c.inflight.empty()) {
          const auto [id, sent] = c.inflight.front();
          c.inflight.pop_front();
          if (phase != Phase::kWarmup && sent >= measure_start) {
            latencies_ms.push_back(
                1e3 * std::chrono::duration<double>(done - sent).count());
            if (phase == Phase::kMeasure) {
              completion_s.push_back(
                  std::chrono::duration<double>(done - measure_start).count());
            }
          }
          tracer.record("client.request", sent, done, id);
        }
        if (phase != Phase::kDrain) issue(ci);
      }
      c.in.erase(0, begin);
    }
  }
  out.check(io_ok, "client connection failed");
  out.attempted = window_sent;
  for (Conn& c : conns) {
    if (c.fd >= 0) ::close(c.fd);
  }

  // ---- checks: composition through the live server -----------------------
  double composition_error = 0.0;
  for (std::size_t p = 0; p < 3 && io_ok; ++p) {
    std::string r_enc, r_dec, r_rec;
    std::vector<double> z, y_dec, y_rec;
    RequestKey k{0, p, 0x0c0ffee0ull + p};
    bool ok = exchange(server.port(), line_for(k, 1), &r_enc) &&
              parse_response_values(r_enc, &z);
    if (ok) {
      const std::string dec = "{\"op\": \"decode\", \"seed\": 1, \"id\": 2, "
                              "\"x\": " + values_text(z.data(), z.size()) +
                              "}\n";
      k.endpoint = 2;
      ok = exchange(server.port(), dec, &r_dec) &&
           parse_response_values(r_dec, &y_dec) &&
           exchange(server.port(), line_for(k, 3), &r_rec) &&
           parse_response_values(r_rec, &y_rec);
    }
    if (!out.check(ok, "composition exchange failed")) break;
    composition_error = std::max(composition_error, max_abs_diff(y_rec, y_dec));
  }
  out.check(composition_error <= 1e-9,
            "reconstruct(x) differs from decode(encode(x)) by " +
                std::to_string(composition_error));

  server.request_stop();
  server_thread.join();
  service.shutdown();

  // Every response byte-identical to execute_single on a private replica.
  auto replica = loaded->make_replica();
  std::map<std::size_t, std::string> reference_bodies;
  auto reference = [&](std::size_t key) -> std::string {
    auto it = reference_bodies.find(key);
    if (it != reference_bodies.end()) return it->second;
    const int e = static_cast<int>(key / kPool);
    const std::size_t p = key % kPool;
    const Matrix& rows = e == 1 ? latents : molecules;
    const double* row = rows.data() + p * rows.cols();
    const std::vector<double> x(row, row + rows.cols());
    serve::InferenceResult result;
    {
      ScopedSpan span(kReferenceSpans[e]);
      result = serve::execute_single(*loaded, *replica, kEndpoints[e], x, 0);
    }
    serve::WireRequest wire;
    wire.op = serve::endpoint_name(kEndpoints[e]);
    wire.has_id = true;
    std::uint64_t id = 0;
    std::string_view body;
    const std::string line = serve::format_response(wire, result);
    std::string text = ResponseChecker::split(line, &id, &body)
                           ? std::string(body)
                           : "(execute_single failed: " + result.error + ")";
    reference_bodies.emplace(key, text);
    return text;
  };
  std::string why;
  const bool responses_ok = out.check(checker.finish(reference, &why), why);
  out.failed = responses_ok ? 0 : window_sent - std::min(window_sent,
                                                         checker.matched());

  // ---- metrics --------------------------------------------------------------
  out.e2e("setup_s", setup_s, "s");
  out.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
  // Completion rate in each of about one-second slices of the window,
  // median over slices: a burst of load from outside the benchmark moves a
  // slice or two and not the reported rate.
  const double slices = std::max(1.0, std::floor(window_seconds));
  const double slice_s = window_seconds / slices;
  std::vector<double> per_slice(static_cast<std::size_t>(slices), 0.0);
  for (const double t : completion_s) {
    const auto slice = static_cast<std::size_t>(t / slice_s);
    if (slice < per_slice.size()) per_slice[slice] += 1.0 / slice_s;
  }
  out.e2e("throughput_per_s", quantile(per_slice, 0.5), "1/s");
  out.e2e("latency_p50_ms", quantile(latencies_ms, 0.5), "ms");

  if (args.trace) {
    serve::InferenceResult result;
    for (std::size_t i = 0; i < sample_lines.size(); ++i) {
      serve::WireRequest wire;
      std::string err;
      bool parsed = false;
      {
        ScopedSpan span("protocol.parse");
        parsed = serve::parse_request_line(sample_lines[i], &wire, &err);
      }
      out.check(parsed, "replayed request did not parse: " + err);
      result.ok = true;
      parse_response_values(reference(sample_keys[i].checker_key()),
                            &result.values);
      std::string line;
      {
        ScopedSpan span("protocol.format");
        line = serve::format_response(wire, result);
      }
      out.check(!line.empty(), "format_response returned nothing");
    }
    const double requests = static_cast<double>(next_id - 1);
    const double hits = static_cast<double>(stats.cache_hits.load());
    const double misses = static_cast<double>(stats.cache_misses.load());
    out.layer("protocol.parse_us_per_req",
              1e6 * quantile(tracer.durations("protocol.parse"), 0.5), "us");
    out.layer("protocol.format_us_per_req",
              1e6 * quantile(tracer.durations("protocol.format"), 0.5), "us");
    out.layer("queue.mean_batch",
              static_cast<double>(service.queue().total_requests()) /
                  static_cast<double>(std::max<std::uint64_t>(
                      1, service.queue().total_batches())),
              "requests/batch");
    out.layer("cache.hit_ratio", hits / std::max(1.0, hits + misses), "ratio");
    out.layer("cache.evictions",
              static_cast<double>(stats.cache_evictions.load()), "count");
    const char* names[3] = {"encode", "decode", "reconstruct"};
    for (int e = 0; e < 3; ++e) {
      out.layer(std::string("service.reference_us_per_req.") + names[e],
                1e6 * quantile(tracer.durations(kReferenceSpans[e]), 0.5),
                "us");
    }
    out.layer("client.latency_p99_ms", quantile(latencies_ms, 0.99), "ms");
    out.layer("server.latency_p50_ms",
              stats.latency.percentile_us(0.50) / 1e3, "ms");
    out.layer("server.latency_p99_ms",
              stats.latency.percentile_us(0.99) / 1e3, "ms");
    out.layer("event_loop.bytes_in", static_cast<double>(bytes_sent) / requests,
              "bytes/req");
    out.layer("event_loop.bytes_out",
              static_cast<double>(bytes_received) / requests, "bytes/req");
  }
  return out;
}

}  // namespace perfbench
