// melody_e2ebench — runs one workload of the end-to-end benchmark and
// prints, as its last line, one JSON object with the keys correct,
// attempted, failed and metrics.
//
// Usage:
//   melody_e2ebench --workload longterm_sim|wire_serve|state_move
//                   --seed N --seconds S --trace 0|1 --workdir DIR
//
// --trace 0 reports the end-to-end metrics of untraced runs; --trace 1
// reports the per-layer metrics of the traced pass and its ledger.

#include <cstdio>
#include <exception>
#include <string>

#include "common.h"
#include "util/build_info.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace {

using e2ebench::Args;
using e2ebench::Outcome;
using e2ebench::Shape;

struct Workload {
  const char* name;
  const Shape* shape;
  Outcome (*run)(const Args&);
};

const Workload kWorkloads[] = {
    {"longterm_sim", &e2ebench::kLongtermSimShape, e2ebench::run_longterm_sim},
    {"wire_serve", &e2ebench::kWireServeShape, e2ebench::run_wire_serve},
    {"state_move", &e2ebench::kStateMoveShape, e2ebench::run_state_move},
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every run of every workload reports each end-to-end metric, measured on
// that workload's own operation (README.md, "End-to-end metrics").
const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"ops_per_s", "1/s"},
    {"latency_p50_ms", "ms"},  {"latency_p90_ms", "ms"},
    {"state_mb", "MB"},        {"est_error", "score"},
    {"requester_utility", "tasks"}, {"peak_rss_mb", "MB"},
    {"success_frac", "fraction"},
};

// The traced pass reports each per-layer metric; a layer the workload
// does not call reads 0 (README.md, "Per-layer metrics").
const MetricSpec kPerLayer[] = {
    {"sim.step_ms_p50", "ms"},
    {"sim.step_ms_p99", "ms"},
    {"sim.self_ms", "ms"},
    {"auction.run_ms", "ms"},
    {"auction.assignments", "count"},
    {"estimators.refit_ms", "ms"},
    {"estimators.filter_ms", "ms"},
    {"estimators.estimate_ms", "ms"},
    {"estimators.refits", "count"},
    {"svc.decode_us", "us"},
    {"svc.encode_us", "us"},
    {"svc.bytes_per_request", "bytes"},
    {"svc.submit_us_p50", "us"},
    {"svc.submit_us_p99", "us"},
    {"svc.inproc_requests_per_s", "1/s"},
    {"svc.full_retries", "count"},
    {"svc.write_us_p50", "us"},
    {"svc.read_us_p50", "us"},
    {"svc.broadcast_us_p50", "us"},
    {"svc.auction_runs", "count"},
    {"svc.run_reply_us_p50", "us"},
    {"svc.loop_residual_us_p50", "us"},
    {"svc.checkpoint_ms", "ms"},
    {"svc.restore_ms", "ms"},
    {"svc.service_save_ms", "ms"},
    {"svc.service_load_ms", "ms"},
    {"svc.shard_blob_mb", "MB"},
    {"sim.platform_save_ms", "ms"},
    {"sim.platform_blob_mb", "MB"},
    {"cluster.migration_pause_ms", "ms"},
    {"svc.migration_save_ms", "ms"},
    {"svc.migration_load_ms", "ms"},
    {"cluster.pause_residual_ms", "ms"},
    {"trace.overhead_frac", "ratio"},
};

int usage(const std::string& message) {
  std::fprintf(stderr,
               "melody_e2ebench: %s\n"
               "usage: melody_e2ebench --workload longterm_sim|wire_serve|"
               "state_move --seed N --seconds S --trace 0|1 --workdir DIR\n",
               message.c_str());
  return 2;
}

/// The result line. It is printed only when every output check passed; a
/// failed check ends the run with exit code 1 and no result.
template <std::size_t N>
void print_result(const Outcome& outcome, const MetricSpec (&specs)[N]) {
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed));
  for (std::size_t i = 0; i < N; ++i) {
    const auto it = outcome.metrics.find(specs[i].name);
    const double value = it == outcome.metrics.end() ? 0.0 : it->second;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", specs[i].name, value, specs[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Every reported name must be declared; in an untraced run every
/// declared end-to-end metric must also be reported.
template <std::size_t N>
std::string check_names(const Outcome& outcome, const MetricSpec (&specs)[N],
                        bool all_required) {
  for (const auto& [name, value] : outcome.metrics) {
    bool declared = false;
    for (const MetricSpec& spec : specs) declared |= name == spec.name;
    if (!declared) return "undeclared metric " + name;
  }
  if (all_required) {
    for (const MetricSpec& spec : specs) {
      if (!outcome.metrics.contains(spec.name)) {
        return std::string("missing metric ") + spec.name;
      }
    }
  }
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        args.seconds = std::stoi(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace is 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--workdir") {
        args.workdir = value;
      } else {
        return usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + flag + ": " + value);
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) return usage("unknown workload '" + args.workload + "'");
  if (!have_seed) return usage("--seed is required");
  if (args.seconds < 1) return usage("--seconds must be at least 1");
  if (args.workdir.empty()) return usage("--workdir is required");

  const Shape& shape = *workload->shape;
  const int cpus = e2ebench::available_cpus();
  std::printf("run_record {\"workload\": \"%s\", \"seed\": %llu, "
              "\"seconds\": %d, \"trace\": %d, \"nproc\": %d, "
              "\"busy_threads\": %d, \"pool_threads\": %d, \"shards\": %d, "
              "\"connections\": %d, \"window\": %d, \"build_type\": \"%s\", "
              "\"git_sha\": \"%s\"}\n",
              workload->name, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, cpus, shape.busy_threads,
              shape.pool_threads, shape.shards, shape.connections,
              shape.window, E2EBENCH_BUILD_TYPE,
              melody::util::build_git_sha().c_str());
  if (shape.busy_threads > cpus) {
    std::fprintf(stderr,
                 "melody_e2ebench: %s keeps %d threads busy but only %d CPUs "
                 "are available; refusing to run\n",
                 workload->name, shape.busy_threads, cpus);
    return 3;
  }
  melody::util::set_shared_thread_count(shape.pool_threads);

  Outcome outcome;
  try {
    outcome = workload->run(args);
  } catch (const e2ebench::CheckFailure& e) {
    std::fprintf(stderr, "melody_e2ebench: check failed: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "melody_e2ebench: error: %s\n", e.what());
    return 1;
  }
  if (!args.trace) {
    outcome.set("peak_rss_mb", e2ebench::peak_rss_mb());
    outcome.set("success_frac",
                outcome.attempted == 0
                    ? 0.0
                    : static_cast<double>(outcome.attempted - outcome.failed) /
                          static_cast<double>(outcome.attempted));
  }
  const std::string problem = args.trace
                                  ? check_names(outcome, kPerLayer, false)
                                  : check_names(outcome, kEndToEnd, true);
  if (!problem.empty() || outcome.attempted == 0) {
    std::fprintf(stderr, "melody_e2ebench: %s\n",
                 problem.empty() ? "nothing attempted" : problem.c_str());
    return 1;
  }
  if (args.trace) {
    print_result(outcome, kPerLayer);
  } else {
    print_result(outcome, kEndToEnd);
  }
  return 0;
}
