#include "auction/random_auction.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "obs/metrics.h"

namespace melody::auction {

AllocationResult RandomAuction::run(const AuctionContext& context) {
  if (!context.config.accepts(context.tasks)) {
    throw std::invalid_argument(
        "RandomAuction: non-finite budget or task quality threshold");
  }
  obs::ScopedTimer run_timer(obs::timer_if_enabled("auction/run"));
  // Full-rebuild adapter: book-only contexts are materialized by id, which
  // is the span order platforms submit, so the draw sequence is unchanged.
  std::vector<WorkerProfile> book_storage;
  const std::span<const WorkerProfile> workers =
      resolve_workers(context, book_storage);
  const std::span<const Task> tasks = context.tasks;
  const AuctionConfig& config = context.config;

  std::vector<const WorkerProfile*> qualified;
  for (const auto& w : workers) {
    if (config.admits(w)) qualified.push_back(&w);
  }

  std::vector<int> available(qualified.size());
  for (std::size_t i = 0; i < qualified.size(); ++i) {
    available[i] = qualified[i]->bid.frequency;
  }
  auto ratio = [&](std::size_t i) {
    return qualified[i]->estimated_quality / qualified[i]->bid.cost;
  };

  std::vector<std::size_t> task_order(tasks.size());
  std::iota(task_order.begin(), task_order.end(), std::size_t{0});
  rng_.shuffle(task_order);

  AllocationResult result;
  double remaining = config.budget;
  for (std::size_t task_index : task_order) {
    const double required = tasks[task_index].quality_threshold;

    // Draw workers uniformly (without replacement among those with spare
    // frequency) until the drawn set minus its lowest-ratio member covers Q.
    std::vector<std::size_t> pool;
    for (std::size_t i = 0; i < qualified.size(); ++i) {
      if (available[i] > 0) pool.push_back(i);
    }
    std::vector<std::size_t> drawn;
    double drawn_quality = 0.0;
    std::size_t loser = 0;  // index into `drawn` of lowest-ratio member
    bool covered = false;
    while (!pool.empty()) {
      const std::size_t pick = rng_.bounded(pool.size());
      const std::size_t widx = pool[pick];
      pool[pick] = pool.back();
      pool.pop_back();
      drawn.push_back(widx);
      drawn_quality += qualified[widx]->estimated_quality;
      if (drawn.size() < 2) continue;
      loser = 0;
      for (std::size_t d = 1; d < drawn.size(); ++d) {
        if (ratio(drawn[d]) < ratio(drawn[loser])) loser = d;
      }
      if (drawn_quality - qualified[drawn[loser]]->estimated_quality >=
          required) {
        covered = true;
        break;
      }
    }
    if (!covered) continue;

    const std::size_t loser_widx = drawn[loser];
    const double price_ratio =
        qualified[loser_widx]->bid.cost / qualified[loser_widx]->estimated_quality;
    double total_payment = 0.0;
    for (std::size_t d = 0; d < drawn.size(); ++d) {
      if (d == loser) continue;
      total_payment += price_ratio * qualified[drawn[d]]->estimated_quality;
    }
    if (total_payment > remaining) break;  // budget exhausted: stop selecting

    remaining -= total_payment;
    result.selected_tasks.push_back(tasks[task_index].id);
    for (std::size_t d = 0; d < drawn.size(); ++d) {
      if (d == loser) continue;
      const std::size_t widx = drawn[d];
      --available[widx];
      result.assignments.push_back(
          {qualified[widx]->id, tasks[task_index].id,
           price_ratio * qualified[widx]->estimated_quality});
    }
  }
  context.emit("auction/result",
               {{"mechanism", "RANDOM"},
                {"workers", workers.size()},
                {"tasks", tasks.size()},
                {"qualified", qualified.size()},
                {"selected_tasks", result.selected_tasks.size()},
                {"assignments", result.assignments.size()},
                {"total_payment", result.total_payment()}});
  return result;
}

}  // namespace melody::auction
