// Persistent price-ladder bid book: the platform's rank cache.
//
// The book keeps every live bid in a slot arena (parallel arrays, stable
// per-worker slots, free-list reuse) and serves it as a ladder ordered by
// the greedy score ratio mu_i / c_i — descending, ties broken by ascending
// worker id, which is exactly the total order the ranking-queue rank sort
// produces. The book orders its bids with that same routine
// (internal::rank_sort, greedy_core.h) on the same keys, so the ladder
// holds the permutation a full rebuild-and-sort would compute, whatever its
// history, and the greedy mechanism can materialize its ranking queue from
// the ladder in O(N) with bit-identical allocation (locked by
// test_bid_book / test_incremental_auction).
//
// The book carries no state of its own: Platform::step diffs it against
// the collected bids and applies the deltas every run, so an empty book
// converges in one step and checkpoints never store it. Order maintenance
// is LAZY: a mutation is O(1) — write the slot arrays, mark the slot
// dirty — and the contiguous materialized image is repaired on first read
// by rank-sorting the dirty slots and merging them into the previous image.
// That keeps the per-run ranking cost at ~one streaming pass instead of a
// sort of the whole book, which is where the low-churn re-run speedup
// comes from.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "auction/types.h"

namespace melody::auction {

/// One observed change to the bid population between two auction runs.
/// Upserts carry the worker's full new profile (absolute, not relative, so
/// applying a delta twice is a no-op); withdrawals carry only the id.
struct BidDelta {
  enum class Kind : std::uint8_t { kUpsert, kWithdraw };
  Kind kind = Kind::kUpsert;
  WorkerProfile profile;  // kWithdraw: only profile.id is meaningful

  bool operator==(const BidDelta&) const = default;
};

class BidBook {
 public:
  using Slot = std::int32_t;
  static constexpr Slot kNone = -1;

  BidBook() = default;

  std::size_t size() const noexcept { return index_.size(); }
  bool empty() const noexcept { return index_.empty(); }
  bool contains(WorkerId id) const { return index_.contains(id); }

  /// The arena slot holding a worker's bid, or kNone. A worker keeps its
  /// slot across updates; an erased worker's slot is reused.
  Slot slot_of(WorkerId id) const;

  // --- Mutation. All maintain the ladder invariants incrementally.

  /// Insert or update one bid. Returns true when the worker was new.
  bool upsert(const WorkerProfile& profile);

  /// Remove one bid. Returns false when the worker was not in the book.
  bool erase(WorkerId id);

  /// Apply a delta batch in order (upsert/withdraw). Idempotent: replaying
  /// a batch already applied leaves the book unchanged.
  void apply(std::span<const BidDelta> deltas);

  void clear();

  /// Replace the whole book with the given profiles (ids must be unique).
  void bulk_load(std::span<const WorkerProfile> profiles);

  /// Compute the delta batch transforming this book's content into exactly
  /// `target` (ids must be unique within target): upserts for new/changed
  /// workers in target order, then withdrawals for vanished workers in
  /// ladder order — a deterministic function of (book, target). Appends to
  /// `out` (cleared first). Does not modify the ladder.
  void diff(std::span<const WorkerProfile> target,
            std::vector<BidDelta>& out) const;

  /// The book's content as profiles sorted by ascending worker id.
  std::vector<WorkerProfile> snapshot_by_id() const;

  /// The ladder content in ladder order as contiguous parallel spans,
  /// valid until the next mutation.
  struct LadderView {
    std::span<const WorkerId> ids;
    std::span<const double> quality;
    std::span<const double> cost;
    std::span<const int> frequency;
    std::span<const double> ratio;

    std::size_t size() const noexcept { return ids.size(); }
  };

  /// Materialize the ladder into contiguous arrays (cached). After churn
  /// the cache is repaired by rank-sorting the dirtied slots and merging
  /// them into the previous image — O(N) streaming passes plus a sort of
  /// the dirty slots only — which is what makes ranking from the book
  /// cheaper than rebuild-and-sort on low-churn re-runs. Falls back to
  /// rank-sorting every live slot when most of the book changed (or no
  /// image exists yet). Both paths order by the same (ratio desc, id asc)
  /// total order the ladder holds, so the view is always the exact ladder
  /// sequence (asserted by check_links).
  LadderView materialized() const;

  /// check_auction_links-style invariant sweep over the (repaired)
  /// materialized image: strict (ratio desc, id asc) order, every entry
  /// found at its slot through the index and equal to that slot's
  /// contents, one entry per live bid, and free list + live = arena.
  /// Returns "" when healthy, else a description.
  std::string check_links() const;

 private:
  static double ladder_ratio(double quality, double cost) noexcept;

  Slot allocate_slot();

  /// Record `slot` as changed since the last materialization (no-op while
  /// no materialized image exists — a full sort rebuilds from scratch).
  void mark_dirty(Slot slot);
  void materialize_full() const;
  void materialize_merge() const;

  // Slot arena: parallel arrays, stable per-worker slots, free-list reuse.
  // live_ marks the slots that hold a bid: every WorkerId, -1 included, is
  // a valid id, so no id value can mark a free slot.
  std::vector<WorkerId> id_;
  std::vector<std::uint8_t> live_;
  std::vector<double> quality_;
  std::vector<double> cost_;
  std::vector<int> frequency_;
  std::vector<double> ratio_;
  std::vector<Slot> free_;

  std::unordered_map<WorkerId, Slot> index_;    // id -> slot

  // Epoch-marked scratch for diff(): seen_[slot] == seen_epoch_ means the
  // slot appeared in the current diff's target (avoids a per-call set).
  mutable std::vector<std::uint32_t> seen_;
  mutable std::uint32_t seen_epoch_ = 0;

  // Materialized-ladder cache (see materialized()): the ladder image in
  // ladder order plus the slots it was taken from, a second buffer set the
  // merge repair ping-pongs into, and the dirty list accumulated by
  // upsert/erase since the image was taken. All lazily maintained by const
  // reads, hence mutable.
  struct LadderImage {
    std::vector<Slot> slots;
    std::vector<WorkerId> ids;
    std::vector<double> quality;
    std::vector<double> cost;
    std::vector<int> frequency;
    std::vector<double> ratio;

    void resize(std::size_t n) {
      slots.resize(n);
      ids.resize(n);
      quality.resize(n);
      cost.resize(n);
      frequency.resize(n);
      ratio.resize(n);
    }
  };
  mutable LadderImage mat_;
  mutable LadderImage mat_scratch_;
  mutable bool mat_valid_ = false;
  mutable std::vector<Slot> mat_dirty_;
  mutable std::vector<std::uint8_t> mat_dirty_mark_;  // per-slot membership
};

}  // namespace melody::auction
