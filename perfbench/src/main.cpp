// perfbench_runner: runs one workload of the benchmark in this process and
// prints its provenance line and then its result line (the last line of
// stdout). With --trace 1 the spans go to <out_dir>/<workload>-seed<N>
// .spans.jsonl.
//
//   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
//                    [--out_dir DIR] [--git_sha SHA] [--source_digest HEX]
//
// perfbench/run.py builds this program and passes the arguments through.
#include <cstdio>
#include <filesystem>
#include <string>

#include "trace.h"
#include "util.h"
#include "workloads.h"

namespace perfbench {

const std::vector<Metric>& end_to_end_catalogue() {
  static const std::vector<Metric> names = {
      {"setup_s", 0, "s"},
      {"peak_rss_mb", 0, "MiB"},
      {"throughput_per_s", 0, "1/s"},
      {"latency_p50_ms", 0, "ms"},
  };
  return names;
}

const std::vector<Metric>& layer_catalogue() {
  static const std::vector<Metric> names = {
      {"trainer.epoch_s", 0, "s"},
      {"trainer.threads", 0, "count"},
      {"trainer.backward_update_s", 0, "s"},
      {"trainer.test_mse", 0, "mse"},
      {"model.forward_calls", 0, "count/epoch"},
      {"model.forward_s", 0, "thread-s/epoch"},
      {"quantum_layer.forward_us_per_row", 0, "us"},
      {"data.rows_copied", 0, "count/epoch"},
      {"data.copy_row_s", 0, "thread-s/epoch"},
      {"ingest.molecules", 0, "count"},
      {"ingest.duplicates", 0, "count"},
      {"ingest.records_written", 0, "count"},
      {"ingest.shard_bytes", 0, "bytes"},
      {"ingest.s", 0, "s"},
      {"dataset_open.s", 0, "s"},
      {"protocol.parse_us_per_req", 0, "us"},
      {"protocol.format_us_per_req", 0, "us"},
      {"queue.mean_batch", 0, "requests/batch"},
      {"cache.hit_ratio", 0, "ratio"},
      {"cache.evictions", 0, "count"},
      {"service.reference_us_per_req.encode", 0, "us"},
      {"service.reference_us_per_req.decode", 0, "us"},
      {"service.reference_us_per_req.reconstruct", 0, "us"},
      {"client.latency_p99_ms", 0, "ms"},
      {"server.latency_p50_ms", 0, "ms"},
      {"server.latency_p99_ms", 0, "ms"},
      {"event_loop.bytes_in", 0, "bytes/req"},
      {"event_loop.bytes_out", 0, "bytes/req"},
      {"executor.circuit_ops", 0, "count"},
      {"executor.plan_ops", 0, "count"},
      {"executor.block_groups", 0, "count"},
      {"executor.exchange_steps", 0, "count"},
      {"executor.forward_s", 0, "s"},
      {"executor.adjoint_s", 0, "s"},
      {"kernels.serial_forward_s", 0, "s"},
      {"kernels.parallel_speedup", 0, "x"},
      {"kernels.bytes_moved_forward", 0, "bytes"},
  };
  return names;
}

namespace {

/// Orders `reported` by `catalogue`; names a workload did not report read
/// 0. A reported name missing from the catalogue is a benchmark bug.
std::vector<Metric> complete(const std::vector<Metric>& catalogue,
                             const std::vector<Metric>& reported,
                             Outcome& outcome) {
  std::vector<Metric> out = catalogue;
  for (const Metric& m : reported) {
    bool found = false;
    for (Metric& slot : out) {
      if (slot.name == m.name) {
        slot.value = m.value;
        slot.unit = m.unit;
        found = true;
      }
    }
    outcome.check(found, "metric not in the catalogue: " + m.name);
  }
  return out;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_runner: %s\nusage: perfbench_runner --workload "
               "NAME --seed N --seconds S --trace 0|1 [--out_dir DIR] "
               "[--git_sha SHA] [--source_digest HEX]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Clock::time_point process_start = Clock::now();
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        args.workload = value;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else if (key == "--out_dir") {
        args.out_dir = value;
      } else if (key == "--git_sha") {
        args.git_sha = value;
      } else if (key == "--source_digest") {
        args.source_digest = value;
      } else {
        return usage(("unknown flag " + key).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("flags come in --name value pairs");
  if (!(args.seconds > 0)) return usage("--seconds must be positive");
  Tracer::instance().enable(args.trace);

  Outcome outcome;
  if (args.workload == "train_qm9_sqvae" ||
      args.workload == "train_pdbbind_sqae") {
    outcome = run_train_workload(args, process_start);
  } else if (args.workload == "serve_pdbbind_sqae") {
    outcome = run_serve_workload(args, process_start);
  } else if (args.workload == "sim_20q") {
    outcome = run_sim_workload(args, process_start);
  } else {
    return usage(("unknown workload '" + args.workload + "'").c_str());
  }
  outcome.end_to_end =
      complete(end_to_end_catalogue(), outcome.end_to_end, outcome);
  for (const Metric& m : outcome.end_to_end) {
    outcome.check(m.value > 0, "end-to-end metric " + m.name + " is not > 0");
  }
  outcome.layers = complete(layer_catalogue(), outcome.layers, outcome);
  for (const std::string& p : outcome.problems) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", p.c_str());
  }

  if (args.trace) {
    std::error_code ec;
    std::filesystem::create_directories(args.out_dir, ec);
    const std::string path = args.out_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".spans.jsonl";
    if (!Tracer::instance().write_jsonl(path)) {
      std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
    }
  }
  std::printf("%s\n", provenance_json(args).c_str());
  // A traced run also prints its end-to-end figures (the line before the
  // result), so the tracing overhead is the difference to an untraced run.
  if (args.trace) std::printf("%s\n", result_json(outcome, false).c_str());
  std::printf("%s\n", result_json(outcome, args.trace).c_str());
  return 0;
}
