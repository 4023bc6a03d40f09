#include "auction/bid_book.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "auction/greedy_core.h"
#include "auction/mechanism.h"

namespace melody::auction {

namespace {

using internal::RankSortEntry;

std::uint64_t bits_of(double d) noexcept {
  return std::bit_cast<std::uint64_t>(d);
}

/// A ladder position's rank-sort entry: the complemented key sorts the
/// ratio descending, as build_ranking_queue's entries do.
RankSortEntry ladder_entry(double ratio, WorkerId id, BidBook::Slot slot) {
  return {~internal::rank_key(ratio), id, static_cast<std::uint32_t>(slot)};
}

}  // namespace

double BidBook::ladder_ratio(double quality, double cost) noexcept {
  // Bids that AuctionConfig::admits never admits (non-positive or
  // non-finite quality/cost) sink to the ladder tail under a well-defined
  // key instead of risking a NaN quotient breaking the strict weak order.
  if (!(quality > 0.0) || !(cost > 0.0) || !std::isfinite(quality) ||
      !std::isfinite(cost)) {
    return -std::numeric_limits<double>::infinity();
  }
  const double ratio = quality / cost;  // same operands as the rank sort
  if (std::isnan(ratio)) return -std::numeric_limits<double>::infinity();
  return ratio;
}

BidBook::Slot BidBook::slot_of(WorkerId id) const {
  const auto it = index_.find(id);
  return it == index_.end() ? kNone : it->second;
}

BidBook::Slot BidBook::allocate_slot() {
  if (!free_.empty()) {
    const Slot slot = free_.back();
    free_.pop_back();
    return slot;
  }
  const Slot slot = static_cast<Slot>(id_.size());
  id_.push_back(0);
  live_.push_back(0);
  quality_.push_back(0.0);
  cost_.push_back(0.0);
  frequency_.push_back(0);
  ratio_.push_back(0.0);
  return slot;
}

bool BidBook::upsert(const WorkerProfile& profile) {
  const double ratio = ladder_ratio(profile.estimated_quality,
                                    profile.bid.cost);
  const auto existing = index_.find(profile.id);
  if (existing != index_.end()) {
    const Slot slot = existing->second;
    const auto i = static_cast<std::size_t>(slot);
    // O(1): write the slot, mark it dirty, and let the next ordered read
    // repair the image by merge. The image holds the old values even when
    // the sort key is unchanged, so the slot is dirty regardless.
    quality_[i] = profile.estimated_quality;
    cost_[i] = profile.bid.cost;
    frequency_[i] = profile.bid.frequency;
    ratio_[i] = ratio;
    mark_dirty(slot);
    return false;
  }

  const Slot slot = allocate_slot();
  const auto i = static_cast<std::size_t>(slot);
  id_[i] = profile.id;
  live_[i] = 1;
  quality_[i] = profile.estimated_quality;
  cost_[i] = profile.bid.cost;
  frequency_[i] = profile.bid.frequency;
  ratio_[i] = ratio;
  index_.emplace(profile.id, slot);
  mark_dirty(slot);
  return true;
}

bool BidBook::erase(WorkerId id) {
  const auto it = index_.find(id);
  if (it == index_.end()) return false;
  const Slot slot = it->second;
  const auto i = static_cast<std::size_t>(slot);
  mark_dirty(slot);  // before the slot is freed: the mark is by slot
  index_.erase(it);
  live_[i] = 0;
  free_.push_back(slot);
  return true;
}

void BidBook::mark_dirty(Slot slot) {
  // Without a live image there is nothing to repair: the next
  // materialization sorts the live slots from scratch.
  if (!mat_valid_) return;
  const auto i = static_cast<std::size_t>(slot);
  if (mat_dirty_mark_.size() < id_.size()) {
    mat_dirty_mark_.resize(id_.size(), 0);
  }
  if (mat_dirty_mark_[i]) return;
  mat_dirty_mark_[i] = 1;
  mat_dirty_.push_back(slot);
}

void BidBook::materialize_full() const {
  // From-scratch rebuild: rank-sort every live slot by the ladder key.
  // (ratio desc, id asc) is a total order over unique ids, so the result
  // is the exact ladder permutation regardless of history.
  std::vector<RankSortEntry> live;
  live.reserve(size());
  for (Slot s = 0; s < static_cast<Slot>(id_.size()); ++s) {
    const auto i = static_cast<std::size_t>(s);
    if (live_[i]) live.push_back(ladder_entry(ratio_[i], id_[i], s));
  }
  internal::rank_sort(live);
  const std::size_t n = size();
  mat_.resize(n);
  for (std::size_t w = 0; w < n; ++w) {
    const auto s = static_cast<Slot>(live[w].src);
    const auto i = static_cast<std::size_t>(s);
    mat_.slots[w] = s;
    mat_.ids[w] = id_[i];
    mat_.quality[w] = quality_[i];
    mat_.cost[w] = cost_[i];
    mat_.frequency[w] = frequency_[i];
    mat_.ratio[w] = ratio_[i];
  }
  for (const Slot s : mat_dirty_) {
    mat_dirty_mark_[static_cast<std::size_t>(s)] = 0;
  }
  mat_dirty_.clear();
  mat_dirty_mark_.resize(id_.size(), 0);
  mat_valid_ = true;
}

void BidBook::materialize_merge() const {
  // The slots dirtied since the image was taken, rank-sorted by their
  // *current* ladder key; a dirty slot on the free list (erased, not
  // reused) simply drops out.
  std::vector<RankSortEntry> live;
  live.reserve(mat_dirty_.size());
  for (const Slot s : mat_dirty_) {
    const auto i = static_cast<std::size_t>(s);
    if (live_[i]) live.push_back(ladder_entry(ratio_[i], id_[i], s));
  }
  internal::rank_sort(live);

  // One streaming pass: the old image minus its dirty slots, merged with
  // the re-keyed dirty slots. Keys are unique (ids are), and a kept old
  // entry's slot content is untouched since the image was taken (any
  // mutation would have marked it), so copying image values is exact.
  const std::size_t n = size();
  LadderImage& out = mat_scratch_;
  out.resize(n);
  std::size_t w = 0;
  const auto emit_live = [&](const RankSortEntry& e) {
    const auto s = static_cast<Slot>(e.src);
    const auto i = static_cast<std::size_t>(s);
    out.slots[w] = s;
    out.ids[w] = id_[i];
    out.quality[w] = quality_[i];
    out.cost[w] = cost_[i];
    out.frequency[w] = frequency_[i];
    out.ratio[w] = ratio_[i];
    ++w;
  };
  std::size_t b = 0;
  const std::size_t old_n = mat_.slots.size();
  for (std::size_t a = 0; a < old_n; ++a) {
    const Slot s = mat_.slots[a];
    if (mat_dirty_mark_[static_cast<std::size_t>(s)]) continue;  // stale
    const RankSortEntry old = ladder_entry(mat_.ratio[a], mat_.ids[a], s);
    while (b < live.size() && live[b] < old) emit_live(live[b++]);
    out.slots[w] = s;
    out.ids[w] = mat_.ids[a];
    out.quality[w] = mat_.quality[a];
    out.cost[w] = mat_.cost[a];
    out.frequency[w] = mat_.frequency[a];
    out.ratio[w] = mat_.ratio[a];
    ++w;
  }
  while (b < live.size()) emit_live(live[b++]);
  std::swap(mat_, mat_scratch_);
  for (const Slot s : mat_dirty_) {
    mat_dirty_mark_[static_cast<std::size_t>(s)] = 0;
  }
  mat_dirty_.clear();
}

BidBook::LadderView BidBook::materialized() const {
  if (!mat_valid_ || mat_dirty_.size() * 4 >= size() + 4) {
    // No image yet, or so much churn that merging would touch most of the
    // book anyway: one from-scratch rank sort.
    materialize_full();
  } else if (!mat_dirty_.empty()) {
    materialize_merge();
  }
  return {mat_.ids, mat_.quality, mat_.cost, mat_.frequency, mat_.ratio};
}

void BidBook::apply(std::span<const BidDelta> deltas) {
  for (const BidDelta& delta : deltas) {
    if (delta.kind == BidDelta::Kind::kUpsert) {
      upsert(delta.profile);
    } else {
      erase(delta.profile.id);
    }
  }
}

void BidBook::clear() {
  id_.clear();
  live_.clear();
  quality_.clear();
  cost_.clear();
  frequency_.clear();
  ratio_.clear();
  free_.clear();
  index_.clear();
  seen_.clear();
  seen_epoch_ = 0;
  mat_ = {};
  mat_scratch_ = {};
  mat_valid_ = false;
  mat_dirty_.clear();
  mat_dirty_mark_.clear();
}

void BidBook::bulk_load(std::span<const WorkerProfile> profiles) {
  clear();
  for (const WorkerProfile& p : profiles) {
    if (index_.contains(p.id)) {
      throw std::invalid_argument("bulk_load: duplicate worker id");
    }
    upsert(p);
  }
}

void BidBook::diff(std::span<const WorkerProfile> target,
                   std::vector<BidDelta>& out) const {
  out.clear();
  seen_.resize(id_.size(), 0);
  if (++seen_epoch_ == 0) {  // epoch wrap: reset the scratch once
    std::fill(seen_.begin(), seen_.end(), 0u);
    seen_epoch_ = 1;
  }
  for (const WorkerProfile& p : target) {
    const auto it = index_.find(p.id);
    if (it == index_.end()) {
      out.push_back({BidDelta::Kind::kUpsert, p});
      continue;
    }
    const auto i = static_cast<std::size_t>(it->second);
    seen_[i] = seen_epoch_;
    if (bits_of(quality_[i]) != bits_of(p.estimated_quality) ||
        bits_of(cost_[i]) != bits_of(p.bid.cost) ||
        frequency_[i] != p.bid.frequency) {
      out.push_back({BidDelta::Kind::kUpsert, p});
    }
  }
  materialized();  // withdrawals are emitted in ladder order
  for (const Slot s : mat_.slots) {
    const auto i = static_cast<std::size_t>(s);
    if (seen_[i] != seen_epoch_) {
      out.push_back({BidDelta::Kind::kWithdraw, WorkerProfile{id_[i], {}, 0.0}});
    }
  }
}

std::vector<WorkerProfile> BidBook::snapshot_by_id() const {
  std::vector<WorkerProfile> profiles;
  profiles.reserve(size());
  materialized();
  for (const Slot s : mat_.slots) {
    const auto i = static_cast<std::size_t>(s);
    profiles.push_back({id_[i], {cost_[i], frequency_[i]}, quality_[i]});
  }
  std::sort(profiles.begin(), profiles.end(),
            [](const WorkerProfile& a, const WorkerProfile& b) {
              return a.id < b.id;
            });
  return profiles;
}

std::string BidBook::check_links() const {
  std::ostringstream bad;
  const std::size_t n = size();
  // The sweep validates the repaired image: it must be the exact ladder
  // sequence, the contract build_ranking_queue relies on.
  const LadderView view = materialized();
  if (view.size() != n || mat_.slots.size() != n) {
    bad << "materialized image size " << view.size() << " != book size "
        << n;
    return bad.str();
  }
  for (std::size_t p = 0; p < n; ++p) {
    const Slot s = mat_.slots[p];
    if (s < 0 || static_cast<std::size_t>(s) >= id_.size()) {
      bad << "image position " << p << " names slot " << s
          << " outside the arena";
      return bad.str();
    }
    const auto i = static_cast<std::size_t>(s);
    const auto idx = index_.find(view.ids[p]);
    if (idx == index_.end() || idx->second != s) {
      bad << "index disagrees for worker " << view.ids[p] << " at image "
          << "position " << p;
      return bad.str();
    }
    if (view.ids[p] != id_[i] ||
        bits_of(view.quality[p]) != bits_of(quality_[i]) ||
        bits_of(view.cost[p]) != bits_of(cost_[i]) ||
        view.frequency[p] != frequency_[i] ||
        bits_of(view.ratio[p]) != bits_of(ratio_[i])) {
      bad << "image position " << p << " disagrees with slot " << s;
      return bad.str();
    }
    // The order checked on the doubles themselves, not on the sort keys.
    const bool descends =
        p == 0 || view.ratio[p - 1] > view.ratio[p] ||
        (view.ratio[p - 1] == view.ratio[p] && view.ids[p - 1] < view.ids[p]);
    if (!descends) {
      bad << "ladder order violated between positions " << p - 1 << " and "
          << p;
      return bad.str();
    }
  }
  if (free_.size() + n != id_.size()) {
    bad << "free list size " << free_.size() << " + live " << n
        << " != arena " << id_.size();
    return bad.str();
  }
  return {};
}

std::span<const WorkerProfile> resolve_workers(
    const AuctionContext& context, std::vector<WorkerProfile>& storage) {
  if (!context.workers.empty() || context.book == nullptr) {
    return context.workers;
  }
  storage = context.book->snapshot_by_id();
  return storage;
}

}  // namespace melody::auction
