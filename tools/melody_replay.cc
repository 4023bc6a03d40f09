// melody_replay — re-drive a recorded MLDYTRC wire trace (melody_serve
// --trace-out) against a rebuilt deployment and verify the responses match
// byte for byte.
//
// The deployment is reconstructed from the trace header alone: it carries
// ServiceConfig::to_flags() of the recorded deployment (every flag-settable
// knob: population, seed, estimator, payment rule, re-estimation period,
// exploration weight, batch triggers, fault plan, clock mode, shards), read
// back through ServiceConfig::from_flags. --resume restores a checkpoint
// first, so a trace recorded after a kill/resume verifies against the same
// resumed state. In-frames are
// applied in file order through the single-threaded poll loop — the same
// per-shard order the live event loop produced — so with a manual clock
// every response is a pure function of the trace and any divergence is a
// real determinism break. Differences are reported frame by frame with the
// offending field; volatile fields (backpressure hints, queue gauges,
// event-loop tallies, latency percentiles) are masked by default, and
// --mask adds more patterns.
//
// Exit status: 0 on a clean replay, 1 on any diff, 2 on usage/IO errors.
//
// Note: a trace whose deployment configured --checkpoint re-executes its
// checkpoint ops, rewriting those files (bit-identical content by the
// determinism contract). Copy them first if the originals matter.
#include <cstdio>
#include <sstream>
#include <string>

#include "svc/replay.h"
#include "svc/router.h"
#include "util/flags.h"
#include "util/thread_pool.h"

namespace {

using namespace melody;

struct Options {
  std::string trace_path;
  std::string resume_path;
  std::string mask;
  std::int64_t threads = 1;
  std::int64_t max_diffs = 16;
  bool quiet = false;
};

Options read_options(const util::Flags& flags) {
  Options o;
  o.trace_path =
      flags.get_string("trace", "", "PATH", "MLDYTRC trace file to replay");
  o.resume_path = flags.get_string(
      "resume", "", "PATH",
      "restore this service checkpoint before replaying (default: the "
      "trace header's recorded resume path, if any)");
  o.mask = flags.get_string(
      "mask", "", "P1,P2",
      "extra volatile-field mask patterns (exact key, 'prefix*' or "
      "'*suffix'), added to the defaults");
  o.threads = flags.get_int(
      "threads", 1, "T",
      "worker threads for run execution (0: all hardware threads) — the "
      "replay must be bit-identical at any value");
  o.max_diffs =
      flags.get_int("max-diffs", 16, "N", "stop after N diffs (0: collect all)");
  o.quiet = flags.has_switch("quiet", "suppress the summary line");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  // Usage errors exit 2: 1 means the replay found diffs.
  util::CommandLine<Options> cli("melody_replay",
                                 "Replay a recorded melody_serve wire trace "
                                 "against a rebuilt deployment and diff every "
                                 "response.",
                                 2, read_options);
  if (const auto exit_code = cli.parse(argc, argv)) return *exit_code;
  const Options& options = cli.options();
  if (options.trace_path.empty()) return cli.usage("--trace is required");

  util::set_shared_thread_count(static_cast<int>(options.threads));

  try {
    const svc::TraceFile trace = svc::read_trace(options.trace_path);
    svc::ServiceConfig config = svc::config_from_trace(trace);
    if (!config.manual_clock && !options.quiet) {
      std::fprintf(stderr,
                   "melody_replay: warning: trace was recorded without "
                   "--manual-clock; batch timing may diverge\n");
    }
    // A trace recorded by a resumed session pins its checkpoint in the
    // header; replaying it fresh would diverge on frame one, so the
    // recorded path is the default and a missing file is a structured
    // error naming the path, not an open failure deep in restore().
    std::string resume = options.resume_path.empty()
                             ? svc::resume_path_from_trace(trace)
                             : options.resume_path;
    if (!resume.empty()) svc::require_resume_checkpoint(resume);
    svc::ShardedService service(std::move(config));
    if (!resume.empty()) service.restore(resume);

    svc::ReplayOptions replay_options;
    replay_options.max_diffs = static_cast<std::size_t>(options.max_diffs);
    if (!options.mask.empty()) {
      std::istringstream patterns(options.mask);
      std::string pattern;
      while (std::getline(patterns, pattern, ',')) {
        if (!pattern.empty()) replay_options.mask.push_back(pattern);
      }
    }

    const svc::ReplayResult result =
        svc::replay_trace(trace, service, replay_options);
    for (const svc::FrameDiff& diff : result.diffs) {
      std::fprintf(stderr, "melody_replay: %s\n",
                   svc::format_diff(diff).c_str());
    }
    if (!options.quiet) {
      std::fprintf(
          stderr,
          "melody_replay: %zu frames applied, %zu compared, %zu diffs "
          "(%zu rejections skipped, %zu after shutdown, %zu unmatched "
          "out-frames)\n",
          result.applied, result.compared, result.diffs.size(),
          result.skipped_rejections, result.skipped_after_shutdown,
          result.unmatched_out);
    }
    return result.clean() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "melody_replay: %s\n", e.what());
    return 2;
  }
}
