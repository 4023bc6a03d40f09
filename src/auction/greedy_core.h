// Internal shared machinery of the MELODY greedy mechanism (Algorithm 1's
// qualification, ranking, pre-allocation and pricing stages), used by both
// the primal budgeted auction (melody_auction) and the dual
// minimize-budget-for-target-utility form (dual_sra, paper footnote 6).
//
// The ranking queue is structure-of-arrays: the coverage scans and pricing
// walks (Algorithm 1's inner loops) read one contiguous double array each
// instead of chasing WorkerProfile pointers, and the rank sort compares
// precomputed ratios instead of dividing twice per comparison. The
// arithmetic is unchanged — ratio = quality / cost and
// density = cost / quality are the exact divisions the AoS code performed
// in place, computed once — so selection, pricing, and output order are
// bit-identical to the scalar layout (locked by test_soa_equivalence).
//
// Not part of the public API surface; include only from auction/*.cc.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "auction/bid_book.h"
#include "auction/melody_auction.h"
#include "auction/types.h"

namespace melody::auction::internal {

/// The ranking queue in structure-of-arrays form: position p in every array
/// describes the p-th ranked qualified worker. Owns its storage (per-call
/// scratch lives in a thread-local arena instead; see greedy_core.cc).
struct RankingQueue {
  std::vector<WorkerId> ids;
  std::vector<double> quality;   // mu-hat_i
  std::vector<double> density;   // c_i / mu-hat_i — the pricing ratio
  std::vector<int> frequency;    // n_i

  std::size_t size() const noexcept { return ids.size(); }
  bool empty() const noexcept { return ids.empty(); }
};

/// One pre-allocated task: the winners chosen in stage 1 and the total
/// pre-payment P_j the requester would owe if the task is committed.
struct PreAllocation {
  std::size_t task_index = 0;
  std::vector<std::size_t> winners;  // positions in the ranking queue
  std::vector<double> payments;      // parallel to winners
  double total_payment = 0.0;        // P_j
};

/// Algorithm 1 lines 1-2: qualification filter + ranking queue (descending
/// estimated quality per unit cost, ties by id).
RankingQueue build_ranking_queue(std::span<const WorkerProfile> workers,
                                 const AuctionConfig& config);

/// Incremental form of lines 1-2: one pass over the bid book's materialized
/// ladder image, applying the same qualification filter. The ladder's
/// (ratio desc, id asc) order is the rank sort's total order, so the
/// resulting queue is bit-identical to the rebuild path's — in O(N) with
/// no sort, since the image is merge-repaired from the changed bids only.
RankingQueue build_ranking_queue(const BidBook& book,
                                 const AuctionConfig& config);

/// Algorithm 1 lines 3-14: pre-allocate every task over the ranking queue,
/// consuming worker frequency, pricing winners per the payment rule, and
/// dropping unpriceable tasks. The result is sorted by ascending P_j
/// (ties by task id), ready for stage-2 commitment. Scans walk only the
/// workers with frequency left, each winner's pricing walk resumes from the
/// coverage prefix, and scanning stops at the first uncoverable task, so
/// the cost tracks the winners, not tasks times queue length: Theorem 8's
/// O(NM) is a bound the loop runs well under.
std::vector<PreAllocation> pre_allocate(const RankingQueue& queue,
                                        std::span<const Task> tasks,
                                        PaymentRule rule);

/// Append one pre-allocation's assignments to a result.
void commit(const PreAllocation& pre, const RankingQueue& queue,
            std::span<const Task> tasks, AllocationResult& result);

}  // namespace melody::auction::internal
