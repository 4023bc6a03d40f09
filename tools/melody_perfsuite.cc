// melody_perfsuite — run the pinned micro-bench matrix and write a
// schema-v1 artifact (see perf/suite.h for the matrix and perf/artifact.h
// for the schema) to --out.
//
// CI runs it with --quick on the parent commit and on the change, in
// alternating pairs, and gates the pairs with tools/perf_gate.py (see
// tools/perf_pairs.sh). The serve path is not in this matrix: e2ebench/
// measures it from outside (wire_serve, state_move), gated the same way.
#include <cstdio>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "perf/artifact.h"
#include "perf/suite.h"
#include "util/flags.h"

namespace {

using namespace melody;

struct Options {
  perf::SuiteOptions suite;
  std::string out;
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
  o.out = flags.get_string("out", "", "PATH",
                           "artifact destination (required)");
  return o;
}

int usage(const char* error) {
  util::Flags dummy;
  read_options(dummy);
  std::fputs(dummy.help("melody_perfsuite",
                        "Run the pinned perf benchmark matrix and write "
                        "its artifact to --out.")
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
    if (options.out.empty()) return usage("--out is required");
  } catch (const std::exception& e) {
    return usage(e.what());
  }

  try {
    const perf::PerfArtifact artifact =
        perf::run_suite(options.suite, std::cout);
    perf::write_artifact(artifact, options.out);
    std::printf("wrote %s (%zu benchmarks, %d repeats, %d threads%s)\n",
                options.out.c_str(), artifact.benchmarks.size(),
                artifact.repeats, artifact.threads,
                artifact.quick ? ", quick" : "");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
