// The pinned perf-trajectory benchmark matrix behind tools/melody_perfsuite.
// One fixed set of benches, run median-of-K, emitted as a schema-v1
// PerfArtifact (see perf/artifact.h) that is committed at the repo root and
// diffed across PRs by tools/perf_compare.
//
// The matrix (sizes in the full / --quick variants):
//   greedy_scoring_100k  Algorithm 1 over 100k / 20k bids; also times the
//                        frozen scalar reference (perf/reference.h) and
//                        records counters.speedup_vs_scalar.
//   greedy_incremental_100k  8 re-auctions with 2% bid churn each over
//                        100k / 20k bids, ranked from the persistent bid
//                        book; speedup_vs_scalar against a full re-sort.
//   auction_scale_1m    fig8-style scaling point: one auction over 10^6 /
//                        10^5 bids.
//   kalman_chain         MELODY posterior updates, EM off: 50k x 20 /
//                        10k x 10 worker-runs with scattered (shuffled)
//                        worker ids, batch observe_run on the shared pool;
//                        speedup_vs_scalar against the AoS hash-map chain,
//                        which pays a dependent cache miss per worker per
//                        run once the population outgrows the cache.
//   kalman_em_chain      same chain with periodic EM + sliding window.
//   platform_step        full simulation steps (auction -> scoring ->
//                        estimator) on the Table-4 long-term scenario.
//
// The serve path (wire, shards, tracing, migration) is measured from outside
// by e2ebench/ (wire_serve, state_move), with spread; this matrix keeps the
// micro-benches that time production code against frozen references.
//
// Timed repeats run with the obs layer OFF (the production default); one
// extra instrumented pass per bench collects the obs phase timers into
// BenchmarkResult::phases. Repeats re-run setup-free bodies on identical
// inputs, so medians isolate layout/concurrency effects from sampling.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "perf/artifact.h"

namespace melody::perf {

struct SuiteOptions {
  /// Smaller sizes + fewer repeats for CI (artifact records quick=true, so
  /// perf_compare never silently compares quick vs full numbers — the
  /// baseline for a quick run must itself be quick).
  bool quick = false;
  /// Median-of-K timed repeats per bench; 0 picks the default (5 full,
  /// 3 quick).
  int repeats = 0;
  /// Shared-pool concurrency for the run; 0 keeps the current setting.
  int threads = 0;
  /// Run only benches whose name is listed (empty: the full matrix).
  std::vector<std::string> only;
  /// Artifact stamp overrides; empty picks the wall-clock date and
  /// `git rev-parse --short HEAD` (or "unknown" outside a checkout).
  std::string date;
  std::string git_sha;
};

/// Run the (filtered) matrix, logging one line per bench to `log`.
/// Throws std::invalid_argument for an unknown name in options.only.
PerfArtifact run_suite(const SuiteOptions& options, std::ostream& log);

/// `git rev-parse --short HEAD` of the working directory, "unknown" when
/// git or the repo is unavailable.
std::string detect_git_sha();

/// Local wall-clock date as YYYY-MM-DD.
std::string current_date();

}  // namespace melody::perf
