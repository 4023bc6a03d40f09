#include "auction/melody_auction.h"

#include <stdexcept>

#include "auction/greedy_core.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace melody::auction {

AllocationResult MelodyAuction::run(const AuctionContext& context) {
  if (!context.config.accepts(context.tasks)) {
    throw std::invalid_argument(
        "MelodyAuction: non-finite budget or task quality threshold");
  }
  obs::ScopedTimer run_timer(obs::timer_if_enabled("auction/run"));
  // Parent on the context's trace explicitly: a mechanism may run on a
  // thread the platform never installed a slot on (standalone tools).
  obs::ScopedSpan auction_span("auction/run", context.trace);
  auction_span.annotate("run", context.run);

  AllocationResult result;
  std::size_t qualified = 0;
  std::size_t priceable = 0;
  {
    // Incremental path: a context carrying a bid book gets its ranking
    // queue from the persistent ladder's materialized image
    // (merge-repaired, no sort); otherwise the classic filter-and-sort
    // rebuild. Both produce the identical permutation.
    obs::ScopedSpan rank_span("auction/rank");
    const auto queue =
        context.book != nullptr
            ? internal::build_ranking_queue(*context.book, context.config)
            : internal::build_ranking_queue(context.workers, context.config);
    const auto pre = internal::pre_allocate(queue, context.tasks, rule_);
    qualified = queue.size();
    priceable = pre.size();
    rank_span.annotate("qualified", static_cast<std::int64_t>(qualified));
    rank_span.annotate("priceable", static_cast<std::int64_t>(priceable));

    // Stage 2 (lines 15-21): commit tasks in ascending order of P_j while
    // the budget lasts.
    obs::ScopedTimer commit_timer(obs::timer_if_enabled("auction/commit"));
    obs::ScopedSpan commit_span("auction/commit");
    double remaining = context.config.budget;
    for (const auto& p : pre) {
      if (p.total_payment > remaining) break;
      remaining -= p.total_payment;
      internal::commit(p, queue, context.tasks, result);
    }
    commit_span.annotate(
        "selected", static_cast<std::int64_t>(result.selected_tasks.size()));
  }

  if (obs::enabled()) {
    static obs::Counter& auctions = obs::registry().counter("auction/runs");
    static obs::Counter& committed =
        obs::registry().counter("auction/tasks_committed");
    auctions.add();
    committed.add(result.selected_tasks.size());
  }
  context.emit("auction/result",
               {{"mechanism", "MELODY"},
                {"run", context.run},
                {"workers", context.book != nullptr && context.workers.empty()
                                ? context.book->size()
                                : context.workers.size()},
                {"dirty_bids", context.deltas.size()},
                {"tasks", context.tasks.size()},
                {"qualified", qualified},
                {"priceable_tasks", priceable},
                {"selected_tasks", result.selected_tasks.size()},
                {"assignments", result.assignments.size()},
                {"total_payment", result.total_payment()}});
  return result;
}

}  // namespace melody::auction
