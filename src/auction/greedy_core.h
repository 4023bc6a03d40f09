// Internal shared machinery of the MELODY greedy mechanism (Algorithm 1's
// qualification, ranking, pre-allocation and pricing stages), used by both
// the primal budgeted auction (melody_auction) and the dual
// minimize-budget-for-target-utility form (dual_sra, paper footnote 6).
//
// The ranking queue is structure-of-arrays: the coverage scans and pricing
// walks (Algorithm 1's inner loops) read one contiguous double array each
// instead of chasing WorkerProfile pointers. The arithmetic is unchanged —
// ratio = quality / cost and density = cost / quality are the exact
// divisions the AoS code performed in place, computed once — so selection,
// pricing, and output order are bit-identical to the scalar layout (locked
// by test_soa_equivalence).
//
// Every order the mechanism needs — bids by ratio descending (line 2, here
// and in the bid book) and tasks by threshold ascending (line 3) — goes
// through one routine, rank_sort, over 16-byte (key, id, src) entries.
//
// Not part of the public API surface; include only from auction/*.cc.
#pragma once

#include <bit>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "auction/bid_book.h"
#include "auction/melody_auction.h"
#include "auction/types.h"

namespace melody::auction::internal {

/// One element of the rank sort: an order key, the id that breaks ties on
/// it, and the caller's source position (span index, book slot or task
/// index). Entries order by (key, id, src), which is total.
struct RankSortEntry {
  std::uint64_t key = 0;
  std::int32_t id = 0;
  std::uint32_t src = 0;

  friend auto operator<=>(const RankSortEntry&,
                          const RankSortEntry&) = default;
};
static_assert(sizeof(RankSortEntry) == 16);

/// The order-preserving map from a double to a rank-sort key: a < b gives
/// rank_key(a) < rank_key(b) for every non-NaN pair, infinities included
/// (the book's -inf sentinel for unqualifiable bids is the smallest key),
/// and -0.0 maps to +0.0's key, so values that compare equal tie and fall
/// through to the id. Complement the key (~rank_key) to sort descending.
inline std::uint64_t rank_key(double value) noexcept {
  const auto bits = std::bit_cast<std::uint64_t>(value == 0.0 ? 0.0 : value);
  return bits >> 63 ? ~bits : bits | (std::uint64_t{1} << 63);
}

/// Sort `entries` ascending by (key, id, src). Below 2048 entries this is a
/// comparison sort. At or above, it is a stable LSD radix sort in 11-bit
/// digit passes over src, then id, then key, skipping every pass whose
/// digit is constant; the id passes are skipped when the input is already
/// in ascending (id, src) order, and the src passes when it is in src order.
/// Either path yields the one sorted permutation.
void rank_sort(std::vector<RankSortEntry>& entries);

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
/// ladder image, applying the same qualification filter. The book orders
/// its ladder with rank_sort on the same keys, so the resulting queue is
/// bit-identical to the rebuild path's, in O(N) once the image is repaired.
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
