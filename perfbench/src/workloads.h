// The benchmark's four workloads (README.md lists their inputs and why
// each was chosen). Each builds its inputs from args.seed, times its
// set-up from `process_start`, warms up, measures for args.seconds,
// checks its outputs, and fills every end-to-end metric (and, with
// args.trace, every per-layer metric) of the returned Outcome.
#pragma once

#include "util.h"

namespace perfbench {

Outcome run_train_workload(const Args& args, Clock::time_point process_start);
Outcome run_serve_workload(const Args& args, Clock::time_point process_start);
Outcome run_sim_workload(const Args& args, Clock::time_point process_start);

/// Names of the end-to-end and per-layer metrics, in report order. Every
/// workload reports all of them; a layer a workload does not exercise
/// reads 0.
const std::vector<Metric>& end_to_end_catalogue();
const std::vector<Metric>& layer_catalogue();

}  // namespace perfbench
