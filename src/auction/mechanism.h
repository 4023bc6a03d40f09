// Abstract interface for single-run task-allocation mechanisms so the
// simulation platform and the benches can swap MELODY and the baselines.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "auction/bid_book.h"
#include "auction/types.h"
#include "obs/sink.h"
#include "obs/trace.h"

namespace melody::sim {
struct FaultPlan;  // sim/fault.h — carried by pointer, never dereferenced here
}  // namespace melody::sim

namespace melody::auction {

/// Everything one auction run consumes, bundled: the worker profiles and
/// tasks (borrowed views — the caller keeps them alive for the duration of
/// run()), the per-run configuration, and an optional observability sink
/// for auction-level events.
///
/// This is the sole entry-point type: the deprecated three-argument shim
/// has been removed, so every caller constructs a context —
/// `mechanism.run({workers, tasks, config})` is the
/// minimal form. Long-term callers (the simulation platform) additionally
/// stamp the run index and the active fault plan so mechanisms and their
/// event streams can tell runs apart without a second overload.
struct AuctionContext {
  std::span<const WorkerProfile> workers;
  std::span<const Task> tasks;
  const AuctionConfig& config;
  /// Receiver for auction-level events; nullptr drops them for free.
  obs::Sink* sink = nullptr;
  /// 1-based run index within a long-term simulation; 0 for standalone
  /// auctions (tools, tests, single-run benches).
  int run = 0;
  /// The fault plan active in the enclosing simulation, if any. Mechanisms
  /// must never let it influence the allocation — faults are applied by
  /// the platform before and after the auction — but it is part of the
  /// run's provenance and may be surfaced in events.
  const sim::FaultPlan* faults = nullptr;

  /// Optional persistent price-ladder bid book. When non-null it holds the
  /// current bid population in (ratio desc, id asc) ladder order, and
  /// mechanisms with supports_incremental() may rank from it directly
  /// instead of rebuilding from `workers`. Contract: when both `workers`
  /// and `book` are set they describe the same population (the caller
  /// applies all deltas to the book before run()); when `workers` is empty
  /// the book alone is authoritative.
  const BidBook* book = nullptr;
  /// The bids that changed since the previous run (already applied to the
  /// book). Provenance for incremental mechanisms and event streams — must
  /// never influence the allocation beyond what the book already reflects.
  std::span<const BidDelta> deltas{};
  /// The request trace context active when the platform entered this run
  /// (inactive for untraced runs and standalone auctions). Mechanism-phase
  /// ScopedSpans pick their parent up from the thread-local slot
  /// automatically; this copy is provenance for sinks and mechanisms that
  /// hand work to other threads. Must never influence the allocation.
  obs::TraceContext trace{};

  /// Emit a structured event to this context's sink, falling back to the
  /// process-wide obs::sink() when none was attached.
  void emit(std::string_view name,
            std::initializer_list<obs::Field> fields) const {
    if (sink != nullptr) {
      sink->event(name, std::span<const obs::Field>(fields.begin(),
                                                    fields.size()));
    } else {
      obs::emit(name, fields);
    }
  }
};

/// A mechanism maps (workers' bids + estimated qualities, tasks, config) to
/// an allocation and payment scheme. Implementations must be deterministic
/// given their construction-time RNG seed, and must never inspect anything
/// beyond the WorkerProfile (latent quality is off limits). Observability
/// (timers, counters, context events) must never influence the allocation:
/// instrumented and uninstrumented runs produce bit-identical results.
class Mechanism {
 public:
  virtual ~Mechanism() = default;

  /// Sole entry point: `mechanism.run({workers, tasks, config})`.
  virtual AllocationResult run(const AuctionContext& context) = 0;

  /// Human-readable mechanism name for bench tables.
  virtual std::string name() const = 0;

  /// True when run() can rank directly from AuctionContext::book instead of
  /// re-sorting the worker span. Mechanisms that return false still accept
  /// book-only contexts through resolve_workers() (full rebuild).
  virtual bool supports_incremental() const { return false; }
};

/// Adapter for non-incremental mechanisms: the effective worker span for a
/// context. Returns `context.workers` verbatim when present; otherwise
/// materializes the bid book into `storage` (sorted by ascending id, the
/// order platforms submit worker spans in) and returns a view of it.
std::span<const WorkerProfile> resolve_workers(
    const AuctionContext& context, std::vector<WorkerProfile>& storage);

}  // namespace melody::auction
