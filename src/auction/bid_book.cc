#include "auction/bid_book.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

#include "auction/mechanism.h"
#include "util/binio.h"

namespace melody::auction {

namespace {

// The bytes of the little-endian u32 0x4D4C4442 ("MLDB").
constexpr std::string_view kBookMagic = "BDLM";
constexpr std::uint32_t kBookVersion = 1;

namespace binio = util::binio;

std::uint64_t bits_of(double d) noexcept {
  return std::bit_cast<std::uint64_t>(d);
}

}  // namespace

double BidBook::ladder_ratio(double quality, double cost) noexcept {
  // Bids that can never pass the qualification filter (non-positive or
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

std::size_t BidBook::rank_of(WorkerId id) const {
  const Slot slot = slot_of(id);
  if (slot == kNone) throw std::out_of_range("rank_of: unknown worker");
  if (!rank_valid_) {
    materialized();
    rank_.resize(id_.size());
    for (std::size_t p = 0; p < mat_.slots.size(); ++p) {
      rank_[static_cast<std::size_t>(mat_.slots[p])] =
          static_cast<std::uint32_t>(p);
    }
    rank_valid_ = true;
  }
  return rank_[static_cast<std::size_t>(slot)];
}

BidBook::Slot BidBook::allocate_slot() {
  if (!free_.empty()) {
    const Slot slot = free_.back();
    free_.pop_back();
    return slot;
  }
  const Slot slot = static_cast<Slot>(id_.size());
  id_.push_back(-1);
  quality_.push_back(0.0);
  cost_.push_back(0.0);
  frequency_.push_back(0);
  ratio_.push_back(0.0);
  prev_.push_back(kNone);
  next_.push_back(kNone);
  return slot;
}

bool BidBook::upsert(const WorkerProfile& profile) {
  const double ratio = ladder_ratio(profile.estimated_quality,
                                    profile.bid.cost);
  const auto existing = index_.find(profile.id);
  if (existing != index_.end()) {
    const Slot slot = existing->second;
    const auto i = static_cast<std::size_t>(slot);
    if (bits_of(ratio_[i]) == bits_of(ratio)) {
      // Sort key unchanged: update values in place, ladder order (links,
      // cached ranks) stays valid. The materialized image still holds the
      // old values, so the slot is dirty regardless.
      quality_[i] = profile.estimated_quality;
      cost_[i] = profile.bid.cost;
      frequency_[i] = profile.bid.frequency;
      mark_dirty(slot);
      return false;
    }
    // Key changed: O(1) — write the slot, mark it dirty, and let the next
    // ordered read repair the image (merge), links, and ranks lazily.
    quality_[i] = profile.estimated_quality;
    cost_[i] = profile.bid.cost;
    frequency_[i] = profile.bid.frequency;
    ratio_[i] = ratio;
    links_valid_ = false;
    rank_valid_ = false;
    mark_dirty(slot);
    return false;
  }

  const Slot slot = allocate_slot();
  const auto i = static_cast<std::size_t>(slot);
  id_[i] = profile.id;
  quality_[i] = profile.estimated_quality;
  cost_[i] = profile.bid.cost;
  frequency_[i] = profile.bid.frequency;
  ratio_[i] = ratio;
  index_.emplace(profile.id, slot);
  links_valid_ = false;
  rank_valid_ = false;
  mark_dirty(slot);
  return true;
}

bool BidBook::erase(WorkerId id) {
  const auto it = index_.find(id);
  if (it == index_.end()) return false;
  const Slot slot = it->second;
  const auto i = static_cast<std::size_t>(slot);
  mark_dirty(slot);  // before the id is cleared: the mark is by slot
  index_.erase(it);
  id_[i] = -1;
  free_.push_back(slot);
  links_valid_ = false;
  rank_valid_ = false;
  return true;
}

void BidBook::mark_dirty(Slot slot) {
  // Without a live image there is nothing to repair: the next
  // materialization walks the ladder from scratch.
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
  // From-scratch rebuild: gather the live slots and sort them by the
  // ladder key. (ratio desc, id asc) is a total order over unique ids, so
  // the result is the exact ladder permutation regardless of history.
  const std::size_t n = size();
  std::vector<Slot> slots;
  slots.reserve(n);
  for (std::size_t i = 0; i < id_.size(); ++i) {
    if (id_[i] != -1) slots.push_back(static_cast<Slot>(i));
  }
  const KeyLess less;
  std::sort(slots.begin(), slots.end(), [&](Slot a, Slot b) {
    return less(key_at(a), key_at(b));
  });
  mat_.resize(n);
  for (std::size_t w = 0; w < n; ++w) {
    const Slot s = slots[w];
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
  // The slots dirtied since the image was taken, keyed by their *current*
  // ladder position; a dirty slot on the free list (erased, not reused)
  // simply drops out.
  struct Pending {
    Key key;
    Slot slot;
  };
  std::vector<Pending> live;
  live.reserve(mat_dirty_.size());
  for (const Slot s : mat_dirty_) {
    const auto i = static_cast<std::size_t>(s);
    if (id_[i] != -1) live.push_back({Key{ratio_[i], id_[i]}, s});
  }
  const KeyLess less;
  std::sort(live.begin(), live.end(), [&](const Pending& a, const Pending& b) {
    return less(a.key, b.key);
  });

  // One streaming pass: the old image minus its dirty slots, merged with
  // the re-keyed dirty slots. Keys are unique (ids are), and a kept old
  // entry's slot content is untouched since the image was taken (any
  // mutation would have marked it), so copying image values is exact.
  const std::size_t n = size();
  LadderImage& out = mat_scratch_;
  out.resize(n);
  std::size_t w = 0;
  const auto emit_live = [&](const Pending& p) {
    const auto i = static_cast<std::size_t>(p.slot);
    out.slots[w] = p.slot;
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
    const Key old_key{mat_.ratio[a], mat_.ids[a]};
    while (b < live.size() && less(live[b].key, old_key)) emit_live(live[b++]);
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
    // book anyway: one from-scratch sort.
    materialize_full();
  } else if (!mat_dirty_.empty()) {
    materialize_merge();
  }
  return {mat_.ids, mat_.quality, mat_.cost, mat_.frequency, mat_.ratio};
}

void BidBook::ensure_links() const {
  if (links_valid_) return;
  materialized();  // repair the image; the links are derived from it
  prev_.resize(id_.size(), kNone);
  next_.resize(id_.size(), kNone);
  const std::size_t n = mat_.slots.size();
  Slot last = kNone;
  for (std::size_t p = 0; p < n; ++p) {
    const Slot s = mat_.slots[p];
    const auto i = static_cast<std::size_t>(s);
    prev_[i] = last;
    if (last != kNone) next_[static_cast<std::size_t>(last)] = s;
    last = s;
  }
  if (last != kNone) next_[static_cast<std::size_t>(last)] = kNone;
  head_ = n == 0 ? kNone : mat_.slots.front();
  tail_ = last;
  links_valid_ = true;
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
  quality_.clear();
  cost_.clear();
  frequency_.clear();
  ratio_.clear();
  prev_.clear();
  next_.clear();
  free_.clear();
  head_ = kNone;
  tail_ = kNone;
  links_valid_ = true;  // trivially: the empty ladder has no links
  index_.clear();
  rank_.clear();
  rank_valid_ = false;
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
    profiles.push_back(profile_at(s));
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
  ensure_links();  // the sweep validates the repaired structures
  if ((head_ == kNone) != (n == 0) || (tail_ == kNone) != (n == 0)) {
    bad << "head/tail emptiness disagrees with size " << n;
    return bad.str();
  }
  std::size_t walked = 0;
  Slot last = kNone;
  const KeyLess less;
  for (Slot s = head_; s != kNone; s = next(s)) {
    if (++walked > n) {
      bad << "ladder walk exceeded size " << n << ": cycle";
      return bad.str();
    }
    const auto i = static_cast<std::size_t>(s);
    if (prev_[i] != last) {
      bad << "slot " << s << " prev link " << prev_[i] << " != " << last;
      return bad.str();
    }
    if (last != kNone && !less(key_at(last), key_at(s))) {
      bad << "ladder order violated between slots " << last << " and " << s;
      return bad.str();
    }
    const auto idx = index_.find(id_[i]);
    if (idx == index_.end() || idx->second != s) {
      bad << "index disagrees for worker " << id_[i] << " at slot " << s;
      return bad.str();
    }
    if (rank_valid_ && rank_[i] != walked - 1) {
      bad << "stale rank cache for worker " << id_[i] << ": " << rank_[i]
          << " != " << walked - 1;
      return bad.str();
    }
    last = s;
  }
  if (walked != n) {
    bad << "ladder walk covered " << walked << " of " << n << " entries";
    return bad.str();
  }
  if (tail_ != last) {
    bad << "tail " << tail_ << " != last walked slot " << last;
    return bad.str();
  }
  if (free_.size() + n != id_.size()) {
    bad << "free list size " << free_.size() << " + live " << n
        << " != arena " << id_.size();
    return bad.str();
  }
  // The materialized image (repaired by merge if dirty) must be the exact
  // ladder sequence — this is the contract build_ranking_queue relies on.
  const LadderView view = materialized();
  if (view.size() != n) {
    bad << "materialized view size " << view.size() << " != book size " << n;
    return bad.str();
  }
  std::size_t p = 0;
  for (Slot s = head_; s != kNone; s = next(s), ++p) {
    const auto i = static_cast<std::size_t>(s);
    if (mat_.slots[p] != s || view.ids[p] != id_[i] ||
        bits_of(view.quality[p]) != bits_of(quality_[i]) ||
        bits_of(view.cost[p]) != bits_of(cost_[i]) ||
        view.frequency[p] != frequency_[i] ||
        bits_of(view.ratio[p]) != bits_of(ratio_[i])) {
      bad << "materialized view disagrees with the ladder at position " << p;
      return bad.str();
    }
  }
  return {};
}

std::uint64_t BidBook::content_digest() const {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  const LadderView view = materialized();
  for (std::size_t p = 0; p < view.size(); ++p) {
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(view.ids[p])));
    mix(bits_of(view.quality[p]));
    mix(bits_of(view.cost[p]));
    mix(static_cast<std::uint64_t>(
        static_cast<std::uint32_t>(view.frequency[p])));
  }
  return h;
}

void BidBook::save(std::ostream& out) const {
  binio::write_header(out, kBookMagic, kBookVersion);
  binio::write_u64(out, static_cast<std::uint64_t>(size()));
  const LadderView view = materialized();
  for (std::size_t p = 0; p < view.size(); ++p) {
    binio::write_i32(out, view.ids[p]);
    binio::write_f64(out, view.quality[p]);
    binio::write_f64(out, view.cost[p]);
    binio::write_i32(out, view.frequency[p]);
  }
}

void BidBook::load(std::istream& in) {
  binio::read_header(in, kBookMagic, kBookVersion);
  const std::uint64_t count = binio::read_u64(in, "bid book count");
  clear();
  const KeyLess less;
  bool have_last = false;
  Key last_key{};
  for (std::uint64_t k = 0; k < count; ++k) {
    WorkerProfile p;
    p.id = binio::read_i32(in, "bid book entry");
    p.estimated_quality = binio::read_f64(in, "bid book entry");
    p.bid.cost = binio::read_f64(in, "bid book entry");
    p.bid.frequency = binio::read_i32(in, "bid book entry");
    const Key key{ladder_ratio(p.estimated_quality, p.bid.cost), p.id};
    if (have_last && !less(last_key, key)) {
      throw std::runtime_error("bid book blob: ladder out of order");
    }
    if (index_.contains(p.id)) {
      throw std::runtime_error("bid book blob: duplicate worker id");
    }
    last_key = key;
    have_last = true;
    upsert(p);
  }
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
