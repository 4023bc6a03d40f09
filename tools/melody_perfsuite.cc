// melody_perfsuite — run the pinned perf-trajectory micro-bench matrix and
// emit a schema-v1 BENCH_<date>_<gitsha>.json artifact (see perf/suite.h
// for the matrix and perf/artifact.h for the schema).
//
// The artifact is written to the repo root by convention (committed once
// per PR); diff two artifacts with tools/perf_compare, which is also the
// CI regression gate against the committed quick baseline:
//
//   melody_perfsuite --quick --out ci_candidate.json
//   perf_compare BENCH_quick_baseline.json ci_candidate.json \
//       --threshold 0.75 --require-all
//
// The serve path is not in this matrix: e2ebench/ measures it from outside
// (wire_serve, state_move), and CI gates it with tools/e2e_gate.py.
#include <cstdio>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "perf/artifact.h"
#include "perf/suite.h"
#include "util/flags.h"

namespace {

using namespace melody;

struct Options {
  perf::SuiteOptions suite;
  std::string out;
  std::string root = ".";
};

std::vector<std::string> split_csv(const std::string& list) {
  std::vector<std::string> out;
  std::stringstream stream(list);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

Options read_options(const util::Flags& flags) {
  Options o;
  o.suite.quick = flags.has_switch(
      "quick", "small sizes + fewer repeats (CI); artifact records quick=true");
  o.suite.repeats = static_cast<int>(flags.get_int(
      "repeats", 0, "K", "timed repeats per bench (0: 5 full / 3 quick)"));
  o.suite.threads = static_cast<int>(flags.get_int(
      "threads", 0, "N", "shared-pool concurrency (0: current setting)"));
  o.suite.only = split_csv(flags.get_string(
      "only", "", "A,B", "run only the named benches (comma-separated)"));
  o.suite.date = flags.get_string("date", "", "YYYY-MM-DD",
                                  "override the artifact date stamp");
  o.suite.git_sha = flags.get_string(
      "git-sha", "", "SHA", "override the artifact git sha stamp");
  o.out = flags.get_string(
      "out", "", "PATH",
      "artifact destination (default: BENCH_<date>_<gitsha>.json in --root)");
  o.root = flags.get_string("root", ".", "DIR",
                            "directory bare artifact names resolve against");
  return o;
}

int usage(const char* error) {
  util::Flags dummy;
  read_options(dummy);
  std::fputs(dummy.help("melody_perfsuite",
                        "Run the pinned perf benchmark matrix and emit a "
                        "BENCH_*.json trajectory artifact.")
                 .c_str(),
             stderr);
  if (error != nullptr) std::fprintf(stderr, "\nerror: %s\n", error);
  return error != nullptr ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  try {
    util::Flags flags(argc, argv);
    if (flags.has("help")) return usage(nullptr);
    options = read_options(flags);
    const std::vector<std::string> unused = flags.unused();
    if (!unused.empty()) {
      return usage(("unknown flag --" + unused.front()).c_str());
    }
    if (!flags.positional().empty()) {
      return usage("melody_perfsuite takes no positional arguments");
    }
  } catch (const std::exception& e) {
    return usage(e.what());
  }

  try {
    const perf::PerfArtifact artifact =
        perf::run_suite(options.suite, std::cout);
    const std::string name =
        options.out.empty() ? perf::artifact_file_name(artifact) : options.out;
    const std::string path = bench::perf_artifact_path(name, options.root);
    perf::write_artifact(artifact, path);
    std::printf("wrote %s (%zu benchmarks, %d repeats, %d threads%s)\n",
                path.c_str(), artifact.benchmarks.size(), artifact.repeats,
                artifact.threads, artifact.quick ? ", quick" : "");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
