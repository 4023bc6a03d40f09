#include "auction/greedy_core.h"

#include <algorithm>
#include <cstdint>

#include "obs/metrics.h"

namespace melody::auction::internal {

namespace {

// Below this the counting passes cost more than comparison sorting.
constexpr std::size_t kRadixSortThreshold = 2048;

/// Per-thread scratch reused across auction runs so the hot path performs
/// no allocations once warm. Everything here is dead when its function
/// returns — only RankingQueue (owning) crosses call boundaries — so
/// thread-local reuse is safe even with mechanisms running concurrently on
/// pool threads (ParallelSweep), where each thread runs one auction at a
/// time end to end.
struct GreedyArena {
  std::vector<RankSortEntry> entries;       // build_ranking_queue
  std::vector<RankSortEntry> task_order;    // pre_allocate
  std::vector<RankSortEntry> sort_scratch;  // rank_sort ping-pong buffer
  std::vector<int> available;               // pre_allocate
  std::vector<std::uint32_t> next;          // pre_allocate live list
  std::vector<std::uint32_t> prev;
  std::vector<double> covered_before;       // pre_allocate
};

GreedyArena& arena() {
  static thread_local GreedyArena scratch;
  return scratch;
}

}  // namespace

void rank_sort(std::vector<RankSortEntry>& entries) {
  const std::size_t n = entries.size();
  if (n < kRadixSortThreshold) {
    std::sort(entries.begin(), entries.end());
    return;
  }
  // LSD radix: each stable pass sorts by one digit and keeps the order the
  // earlier passes left, so passes over src, then id, then key leave the
  // entries in (key, id, src) order. Input already in (id, src) order needs
  // neither the src nor the id passes, and input in src order needs no src
  // passes: stability carries that order through.
  bool by_id = true;
  bool by_src = true;
  for (std::size_t i = 1; i < n; ++i) {
    const RankSortEntry& a = entries[i - 1];
    const RankSortEntry& b = entries[i];
    by_src = by_src && a.src <= b.src;
    by_id = by_id && (a.id < b.id || (a.id == b.id && a.src <= b.src));
  }

  constexpr int kDigitBits = 11;
  constexpr std::uint32_t kDigits = 1u << kDigitBits;
  std::vector<RankSortEntry>& scratch = arena().sort_scratch;
  scratch.resize(n);
  std::uint32_t count[kDigits];
  const auto passes = [&](int bits, auto field) {
    for (int shift = 0; shift < bits; shift += kDigitBits) {
      const auto digit = [&](const RankSortEntry& e) {
        return static_cast<std::uint32_t>(field(e) >> shift) & (kDigits - 1);
      };
      std::fill(std::begin(count), std::end(count), 0u);
      for (const RankSortEntry& e : entries) ++count[digit(e)];
      if (count[digit(entries[0])] == n) continue;  // constant digit
      std::uint32_t offset = 0;
      for (std::uint32_t& c : count) {
        const std::uint32_t bucket = c;
        c = offset;
        offset += bucket;
      }
      for (const RankSortEntry& e : entries) scratch[count[digit(e)]++] = e;
      std::swap(entries, scratch);
    }
  };
  if (!by_id) {
    if (!by_src) {
      passes(32, [](const RankSortEntry& e) { return std::uint64_t{e.src}; });
    }
    // Flipping the sign bit makes the signed id's order the unsigned one.
    passes(32, [](const RankSortEntry& e) {
      return std::uint64_t{static_cast<std::uint32_t>(e.id) ^ 0x80000000u};
    });
  }
  passes(64, [](const RankSortEntry& e) { return e.key; });
}

RankingQueue build_ranking_queue(std::span<const WorkerProfile> workers,
                                 const AuctionConfig& config) {
  // Line 1: qualification filter W <- {i : Theta_m <= mu_i <= Theta_M,
  // C_m <= c_i <= C_M}, through AuctionConfig::admits, which also drops
  // non-positive or non-finite cost and quality and a non-positive
  // frequency.
  std::vector<RankSortEntry>& entries = arena().entries;
  entries.clear();
  entries.reserve(workers.size());
  for (std::size_t i = 0; i < workers.size(); ++i) {
    const WorkerProfile& w = workers[i];
    if (config.admits(w)) {
      entries.push_back({~rank_key(w.estimated_quality / w.bid.cost), w.id,
                         static_cast<std::uint32_t>(i)});
    }
  }
  // Line 2: ranking queue, descending estimated quality per unit cost, ties
  // by worker id: the complemented key sorts the ratio descending, and the
  // ratio is computed once per worker with the comparator's operands.
  obs::ScopedTimer sort_timer(obs::timer_if_enabled("auction/rank_sort"));
  if (obs::enabled()) {
    obs::registry().counter("auction/qualified_workers").add(entries.size());
  }
  rank_sort(entries);

  // Scatter into the SoA arrays in rank order.
  const std::size_t n = entries.size();
  RankingQueue queue;
  queue.ids.resize(n);
  queue.quality.resize(n);
  queue.density.resize(n);
  queue.frequency.resize(n);
  for (std::size_t p = 0; p < n; ++p) {
    const WorkerProfile& w = workers[entries[p].src];
    queue.ids[p] = w.id;
    queue.quality[p] = w.estimated_quality;
    queue.density[p] = w.bid.cost / w.estimated_quality;
    queue.frequency[p] = w.bid.frequency;
  }
  return queue;
}

RankingQueue build_ranking_queue(const BidBook& book,
                                 const AuctionConfig& config) {
  // The ladder is already the rank sort's total order (ratio desc, id asc)
  // over the whole population; one filtered pass over the materialized
  // image — contiguous arrays, merge-repaired from the bids that actually
  // changed since the last run — yields the qualified subsequence in
  // exactly the permutation the rebuild path produces. The density division
  // uses the same operands (cost / quality) as the rebuild path's scatter,
  // so every queue value is bit-identical.
  obs::ScopedTimer walk_timer(obs::timer_if_enabled("auction/rank_from_book"));
  const BidBook::LadderView ladder = book.materialized();
  RankingQueue queue;
  const std::size_t n = ladder.size();
  queue.ids.reserve(n);
  queue.quality.reserve(n);
  queue.density.reserve(n);
  queue.frequency.reserve(n);
  for (std::size_t p = 0; p < n; ++p) {
    const double cost = ladder.cost[p];
    const double quality = ladder.quality[p];
    const int frequency = ladder.frequency[p];
    if (config.admits(quality, cost, frequency)) {
      queue.ids.push_back(ladder.ids[p]);
      queue.quality.push_back(quality);
      queue.density.push_back(cost / quality);
      queue.frequency.push_back(frequency);
    }
  }
  if (obs::enabled()) {
    obs::registry().counter("auction/qualified_workers").add(queue.size());
  }
  return queue;
}

std::vector<PreAllocation> pre_allocate(const RankingQueue& queue,
                                        std::span<const Task> tasks,
                                        PaymentRule rule) {
  // One timer covers the whole stage-1 pass, pricing included (a null
  // pointer when collection is off — no clock reads on the hot path);
  // auction/winners_priced counts the pricing work.
  obs::ScopedTimer alloc_timer(obs::timer_if_enabled("auction/pre_allocate"));

  const double* const quality = queue.quality.data();
  const double* const density = queue.density.data();
  const std::size_t queue_size = queue.size();
  GreedyArena& scratch = arena();

  // Line 3: tasks in ascending order of quality threshold, ties by id.
  std::vector<RankSortEntry>& task_order = scratch.task_order;
  task_order.clear();
  for (std::size_t j = 0; j < tasks.size(); ++j) {
    task_order.push_back({rank_key(tasks[j].quality_threshold), tasks[j].id,
                          static_cast<std::uint32_t>(j)});
  }
  rank_sort(task_order);

  // The live list: the queue positions with frequency left, in queue order,
  // linked circularly through the sentinel `end`. Every scan below walks it
  // instead of the queue, so a used-up worker costs nothing after the task
  // that used him up; the sums it forms are the ones a scan of the whole
  // queue forms, since that scan adds exactly the live positions, in order.
  std::vector<int>& available = scratch.available;
  available.assign(queue.frequency.begin(), queue.frequency.end());
  const auto end = static_cast<std::uint32_t>(queue_size);
  std::vector<std::uint32_t>& next = scratch.next;
  std::vector<std::uint32_t>& prev = scratch.prev;
  next.resize(queue_size + 1);
  prev.resize(queue_size + 1);
  std::uint32_t tail = end;
  for (std::uint32_t pos = 0; pos < end; ++pos) {
    if (available[pos] > 0) {
      next[tail] = pos;
      prev[pos] = tail;
      tail = pos;
    }
  }
  next[tail] = end;
  prev[end] = tail;
  std::vector<double>& covered_before = scratch.covered_before;

  // Lines 5-14: pre-allocation.
  std::vector<PreAllocation> pre;
  pre.reserve(tasks.size());
  std::size_t uncoverable = 0;
  std::size_t unpriceable = 0;
  std::size_t winners_priced = 0;
  // The smallest threshold the live set failed to cover. The live set only
  // shrinks, and dropping a positive term never raises a floating-point sum
  // of positives (rounding is monotone), so every threshold at or above it
  // stays uncoverable: with tasks in ascending order, the loop stops
  // scanning at the first uncoverable task.
  bool any_uncoverable = false;
  double min_uncoverable = 0.0;
  for (const RankSortEntry& ordered : task_order) {
    const std::size_t task_index = ordered.src;
    const double required = tasks[task_index].quality_threshold;
    if (any_uncoverable && required >= min_uncoverable) {
      ++uncoverable;
      continue;
    }

    // Line 6: smallest k such that available workers in the queue prefix
    // [0, k) have total estimated quality >= Q_j. Every live position
    // scanned is a winner; covered_before[w] is the running sum before
    // winner w joined.
    PreAllocation p;
    p.task_index = task_index;
    covered_before.clear();
    double covered = 0.0;
    for (std::uint32_t pos = next[end]; pos != end && covered < required;
         pos = next[pos]) {
      covered_before.push_back(covered);
      covered += quality[pos];
      p.winners.push_back(pos);
    }
    if (covered < required) {  // no k exists: task cannot be covered
      ++uncoverable;
      any_uncoverable = true;
      min_uncoverable = required;
      continue;
    }

    // Lines 9-11: critical-value payments.
    const std::size_t m = p.winners.size();
    p.payments.reserve(m);
    if (rule == PaymentRule::kPaperNextInQueue) {
      // Paper-literal: every winner priced from the (k+1)-th queue worker,
      // the position just past the last winner, live or not.
      const std::size_t k = m == 0 ? 0 : p.winners.back() + 1;
      if (k >= queue_size) {  // no reference worker
        ++unpriceable;
        continue;
      }
      const double ratio = density[k];
      for (std::size_t widx : p.winners) {
        p.payments.push_back(ratio * quality[widx]);
      }
    } else {
      // Critical value: winner w stays a winner of this task exactly while
      // his ratio exceeds that of the worker at which coverage of Q_j
      // completes in the queue *without* w (under the current availability
      // state); its cost density is w's payment ratio. Every live position
      // before w is an earlier winner, and their running sums all stayed
      // below Q_j, so the walk without w resumes from covered_before[w]:
      // it adds the later winners, then the live positions past the last
      // winner — the additions, in order, of a walk from position 0.
      for (std::size_t w = 0; w < m; ++w) {
        double cumulative = covered_before[w];
        std::uint32_t critical = end;
        for (std::size_t later = w + 1; later < m; ++later) {
          cumulative += quality[p.winners[later]];
          if (cumulative >= required) {
            critical = static_cast<std::uint32_t>(p.winners[later]);
            break;
          }
        }
        for (std::uint32_t pos = next[p.winners.back()];
             critical == end && pos != end; pos = next[pos]) {
          cumulative += quality[pos];
          if (cumulative >= required) critical = pos;
        }
        if (critical == end) break;  // no critical worker exists for w
        p.payments.push_back(density[critical] * quality[p.winners[w]]);
      }
      if (p.payments.size() < m) {  // drop the task; frequencies untouched
        ++unpriceable;
        continue;
      }
    }

    winners_priced += m;
    for (std::size_t w = 0; w < m; ++w) {
      p.total_payment += p.payments[w];
      const std::size_t widx = p.winners[w];
      if (--available[widx] == 0) {  // used up: unlink from the live list
        next[prev[widx]] = next[widx];
        prev[next[widx]] = prev[widx];
      }
    }
    pre.push_back(std::move(p));
  }
  if (obs::enabled()) {
    obs::MetricsRegistry& reg = obs::registry();
    reg.counter("auction/tasks_uncoverable").add(uncoverable);
    reg.counter("auction/tasks_unpriceable").add(unpriceable);
    reg.counter("auction/winners_priced").add(winners_priced);
  }

  // Stage 2 prerequisite (line 16): ascending order of P_j, ties by id.
  std::sort(pre.begin(), pre.end(),
            [&](const PreAllocation& a, const PreAllocation& b) {
              if (a.total_payment != b.total_payment) {
                return a.total_payment < b.total_payment;
              }
              return tasks[a.task_index].id < tasks[b.task_index].id;
            });
  return pre;
}

void commit(const PreAllocation& pre, const RankingQueue& queue,
            std::span<const Task> tasks, AllocationResult& result) {
  result.selected_tasks.push_back(tasks[pre.task_index].id);
  for (std::size_t w = 0; w < pre.winners.size(); ++w) {
    result.assignments.push_back({queue.ids[pre.winners[w]],
                                  tasks[pre.task_index].id, pre.payments[w]});
  }
}

}  // namespace melody::auction::internal
