// Property tests of the persistent price-ladder bid book and the
// incremental ranking path it feeds: ladder invariants under randomized
// churn (including on 1/2/8 concurrent threads), diff/apply convergence,
// and the bit-identity contract — a queue ranked from the materialized
// ladder equals a full rebuild-and-sort, entry for entry, bit for bit.
#include "auction/bid_book.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <map>
#include <thread>
#include <tuple>
#include <vector>

#include "auction/greedy_core.h"
#include "auction/melody_auction.h"
#include "sim/scenario.h"
#include "util/rng.h"

namespace melody::auction {
namespace {

WorkerProfile profile(WorkerId id, double cost, int frequency,
                      double quality) {
  return {id, {cost, frequency}, quality};
}

/// The ladder contents in ladder order.
std::vector<WorkerId> ladder_ids(const BidBook& book) {
  const BidBook::LadderView view = book.materialized();
  return {view.ids.begin(), view.ids.end()};
}

/// 0-based ladder position of a worker in the book (0 == best ratio).
std::size_t position_of(const BidBook& book, WorkerId id) {
  const std::vector<WorkerId> ids = ladder_ids(book);
  const auto it = std::find(ids.begin(), ids.end(), id);
  EXPECT_NE(it, ids.end()) << "worker " << id << " not on the ladder";
  return static_cast<std::size_t>(it - ids.begin());
}

/// The whole ladder image in ladder order (id, quality, cost, frequency).
std::vector<std::tuple<WorkerId, double, double, int>> ladder_image(
    const BidBook& book) {
  const BidBook::LadderView view = book.materialized();
  std::vector<std::tuple<WorkerId, double, double, int>> image;
  for (std::size_t p = 0; p < view.size(); ++p) {
    image.emplace_back(view.ids[p], view.quality[p], view.cost[p],
                       view.frequency[p]);
  }
  return image;
}

TEST(BidBook, LadderOrdersByRatioDescendingTiesById) {
  BidBook book;
  book.upsert(profile(0, 2.0, 1, 4.0));  // ratio 2
  book.upsert(profile(1, 1.0, 1, 4.0));  // ratio 4
  book.upsert(profile(2, 1.0, 1, 3.0));  // ratio 3
  book.upsert(profile(7, 1.0, 1, 4.0));  // ratio 4, tie -> after id 1
  EXPECT_EQ(book.check_links(), "");
  EXPECT_EQ(ladder_ids(book), (std::vector<WorkerId>{1, 7, 2, 0}));
  EXPECT_EQ(position_of(book, 1), 0u);
  EXPECT_EQ(position_of(book, 7), 1u);
  EXPECT_EQ(position_of(book, 0), 3u);
}

TEST(BidBook, UpsertKeepsSlotStableAndRelinksOnKeyChange) {
  BidBook book;
  book.upsert(profile(0, 1.0, 1, 4.0));
  book.upsert(profile(1, 1.0, 1, 3.0));
  const BidBook::Slot slot = book.slot_of(1);
  // Key-preserving update: same ratio, new frequency.
  EXPECT_FALSE(book.upsert(profile(1, 1.0, 4, 3.0)));
  EXPECT_EQ(book.slot_of(1), slot);
  EXPECT_EQ(position_of(book, 1), 1u);
  EXPECT_EQ(book.materialized().frequency[1], 4);
  // Key-changing update: worker 1 overtakes worker 0.
  EXPECT_FALSE(book.upsert(profile(1, 1.0, 4, 9.0)));
  EXPECT_EQ(book.slot_of(1), slot);
  EXPECT_EQ(position_of(book, 1), 0u);
  EXPECT_EQ(book.check_links(), "");
}

TEST(BidBook, EraseFreesSlotForReuse) {
  BidBook book;
  book.upsert(profile(0, 1.0, 1, 4.0));
  book.upsert(profile(1, 1.0, 1, 3.0));
  const BidBook::Slot freed = book.slot_of(0);
  EXPECT_TRUE(book.erase(0));
  EXPECT_FALSE(book.erase(0));
  EXPECT_FALSE(book.contains(0));
  EXPECT_EQ(book.size(), 1u);
  book.upsert(profile(5, 2.0, 1, 5.0));
  EXPECT_EQ(book.slot_of(5), freed);
  EXPECT_EQ(book.check_links(), "");
}

TEST(BidBook, WorkerIdMinusOneIsALiveBid) {
  // -1 is a worker id like any other, not a free-slot mark: its bid is on
  // the ladder, and erasing it frees the slot.
  BidBook book;
  book.upsert(profile(-1, 1.0, 1, 4.0));  // ratio 4
  book.upsert(profile(3, 1.0, 1, 3.0));   // ratio 3
  book.upsert(profile(-2, 1.0, 1, 4.0));  // ratio 4, tie -> before id -1
  EXPECT_EQ(book.check_links(), "");
  EXPECT_EQ(ladder_ids(book), (std::vector<WorkerId>{-2, -1, 3}));
  EXPECT_TRUE(book.erase(-1));
  EXPECT_EQ(ladder_ids(book), (std::vector<WorkerId>{-2, 3}));
  book.upsert(profile(-1, 1.0, 1, 9.0));
  EXPECT_EQ(ladder_ids(book), (std::vector<WorkerId>{-1, -2, 3}));
  EXPECT_EQ(book.check_links(), "");
}

TEST(BidBook, UnqualifiableBidsSinkToTheTail) {
  BidBook book;
  book.upsert(profile(0, 1.0, 1, 4.0));
  book.upsert(profile(1, 0.0, 1, 4.0));   // zero cost -> -inf key
  book.upsert(profile(2, 1.0, 1, 0.0));   // zero quality -> -inf key
  EXPECT_EQ(book.check_links(), "");
  EXPECT_EQ(ladder_ids(book), (std::vector<WorkerId>{0, 1, 2}));
}

TEST(BidBook, UnknownWorkerHasNoSlot) {
  BidBook book;
  book.upsert(profile(0, 1.0, 1, 4.0));
  EXPECT_EQ(book.slot_of(99), BidBook::kNone);
  EXPECT_FALSE(book.contains(99));
  EXPECT_FALSE(book.erase(99));
  EXPECT_EQ(ladder_ids(book), (std::vector<WorkerId>{0}));
}

// Randomized churn against a std::map reference model: after every
// mutation the ladder's invariants hold and its order matches the
// reference exactly.
void churn_against_reference(std::uint64_t seed, int ops) {
  util::Rng rng(seed);
  BidBook book;
  struct Key {
    double ratio;
    WorkerId id;
    bool operator<(const Key& o) const {
      if (ratio != o.ratio) return ratio > o.ratio;
      return id < o.id;
    }
  };
  std::map<Key, WorkerId> reference;
  std::map<WorkerId, Key> by_id;
  for (int k = 0; k < ops; ++k) {
    const auto id = static_cast<WorkerId>(rng.uniform_int(0, 40));
    if (rng.uniform01() < 0.7) {
      const double cost = rng.uniform(1.0, 2.0);
      const double quality = rng.uniform(2.0, 4.0);
      book.upsert(profile(id, cost, 1, quality));
      const Key key{quality / cost, id};
      if (const auto it = by_id.find(id); it != by_id.end()) {
        reference.erase(it->second);
      }
      reference[key] = id;
      by_id[id] = key;
    } else {
      const bool erased = book.erase(id);
      const auto it = by_id.find(id);
      EXPECT_EQ(erased, it != by_id.end());
      if (it != by_id.end()) {
        reference.erase(it->second);
        by_id.erase(it);
      }
    }
    ASSERT_EQ(book.check_links(), "") << "op " << k;
    ASSERT_EQ(book.size(), reference.size()) << "op " << k;
    std::vector<WorkerId> expected;
    for (const auto& [key, worker] : reference) expected.push_back(worker);
    ASSERT_EQ(ladder_ids(book), expected) << "op " << k;
  }
}

TEST(BidBookProperty, RandomChurnKeepsLinkInvariants) {
  churn_against_reference(0xB1DB001, 400);
  churn_against_reference(0xB1DB002, 400);
}

TEST(BidBookProperty, ConcurrentIndependentBooksAgree) {
  // The book is single-writer by design; the thread matrix checks that
  // independent instances churned identically on 1, 2, and 8 concurrent
  // threads all land on the same ladder (no hidden global state).
  const auto image_after_churn = [] {
    BidBook book;
    util::Rng rng(0xC0FFEE);
    for (int k = 0; k < 600; ++k) {
      const auto id = static_cast<WorkerId>(rng.uniform_int(0, 60));
      if (rng.uniform01() < 0.75) {
        book.upsert(
            profile(id, rng.uniform(1.0, 2.0), 1, rng.uniform(2.0, 4.0)));
      } else {
        book.erase(id);
      }
    }
    EXPECT_EQ(book.check_links(), "");
    return ladder_image(book);
  };
  const auto serial = image_after_churn();
  for (const int threads : {1, 2, 8}) {
    std::vector<decltype(image_after_churn())> images(
        static_cast<std::size_t>(threads));
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&images, t, &image_after_churn] {
        images[static_cast<std::size_t>(t)] = image_after_churn();
      });
    }
    for (auto& thread : pool) thread.join();
    for (const auto& image : images) EXPECT_EQ(image, serial);
  }
}

TEST(BidBook, DiffApplyConvergesAndIsIdempotent) {
  util::Rng rng(0xD1FF);
  BidBook book;
  for (int i = 0; i < 30; ++i) {
    book.upsert(profile(i, rng.uniform(1.0, 2.0), 1, rng.uniform(2.0, 4.0)));
  }
  // Target: some workers changed, some vanished, some new.
  std::vector<WorkerProfile> target;
  for (int i = 10; i < 45; ++i) {
    target.push_back(
        profile(i, rng.uniform(1.0, 2.0), 2, rng.uniform(2.0, 4.0)));
  }
  std::vector<BidDelta> deltas;
  book.diff(target, deltas);
  EXPECT_FALSE(deltas.empty());
  book.apply(deltas);
  EXPECT_EQ(book.check_links(), "");
  std::vector<WorkerProfile> got = book.snapshot_by_id();
  ASSERT_EQ(got.size(), target.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, target[i].id);
    EXPECT_EQ(got[i].bid, target[i].bid);
    EXPECT_EQ(got[i].estimated_quality, target[i].estimated_quality);
  }
  // Replaying the batch must be a no-op, and a fresh diff must be empty.
  const auto image = ladder_image(book);
  book.apply(deltas);
  EXPECT_EQ(ladder_image(book), image);
  book.diff(target, deltas);
  EXPECT_TRUE(deltas.empty());
}

// --- Bit-identity of the incremental ranking path -------------------------

sim::SraScenario market(int workers) {
  sim::SraScenario scenario;
  scenario.num_workers = workers;
  scenario.num_tasks = 40;
  scenario.budget = 600.0;
  return scenario;
}

void expect_queue_bit_identity(std::span<const WorkerProfile> workers,
                               const AuctionConfig& config) {
  BidBook book;
  book.bulk_load(workers);
  const auto rebuilt = internal::build_ranking_queue(workers, config);
  const auto from_book = internal::build_ranking_queue(book, config);
  ASSERT_EQ(from_book.size(), rebuilt.size());
  EXPECT_EQ(from_book.ids, rebuilt.ids);
  EXPECT_EQ(from_book.frequency, rebuilt.frequency);
  for (std::size_t i = 0; i < rebuilt.size(); ++i) {
    // Exact equality on the doubles: same operands, same divisions.
    EXPECT_EQ(from_book.quality[i], rebuilt.quality[i]) << i;
    EXPECT_EQ(from_book.density[i], rebuilt.density[i]) << i;
  }
}

TEST(IncrementalRanking, QueueFromLadderMatchesRebuildOnRandomMarkets) {
  for (const std::uint64_t seed : {11u, 22u, 33u, 44u}) {
    util::Rng rng(seed);
    const sim::SraScenario scenario = market(300);
    const auto workers = scenario.sample_workers(rng);
    expect_queue_bit_identity(workers, scenario.auction_config());
  }
}

TEST(IncrementalRanking, QueueMatchesRebuildOnRadixSortSizedMarket) {
  // n >= 2048 takes the radix path of greedy_core's rank sort on both
  // sides; the ladder walk must still match the rebuild bit for bit.
  util::Rng rng(0x4AD1);
  const sim::SraScenario scenario = market(5000);
  const auto workers = scenario.sample_workers(rng);
  ASSERT_GE(workers.size(), 2048u);
  expect_queue_bit_identity(workers, scenario.auction_config());
}

TEST(IncrementalRanking, QueueMatchesRebuildAfterChurn) {
  util::Rng rng(0xC4A2);
  const sim::SraScenario scenario = market(400);
  std::vector<WorkerProfile> workers = scenario.sample_workers(rng);
  const AuctionConfig config = scenario.auction_config();
  BidBook book;
  book.bulk_load(workers);
  for (int round = 0; round < 20; ++round) {
    // Dirty a handful of bids, mirror into the flat vector, compare.
    std::vector<BidDelta> deltas;
    for (int d = 0; d < 10; ++d) {
      const auto slot =
          static_cast<std::size_t>(rng.uniform_int(0, 399));
      WorkerProfile p = workers[slot];
      p.bid.cost = rng.uniform(1.0, 2.0);
      p.estimated_quality = rng.uniform(2.0, 4.0);
      workers[slot] = p;
      deltas.push_back({BidDelta::Kind::kUpsert, p});
    }
    book.apply(deltas);
    ASSERT_EQ(book.check_links(), "");
    const auto rebuilt = internal::build_ranking_queue(workers, config);
    const auto from_book = internal::build_ranking_queue(book, config);
    ASSERT_EQ(from_book.ids, rebuilt.ids) << "round " << round;
    ASSERT_EQ(from_book.quality, rebuilt.quality) << "round " << round;
    ASSERT_EQ(from_book.density, rebuilt.density) << "round " << round;
    ASSERT_EQ(from_book.frequency, rebuilt.frequency) << "round " << round;
  }
}

TEST(IncrementalRanking, LargeChurnRoundMergesLikeARebuild) {
  // 10000 bids, 2400 dirty slots a round: past the rank sort's 2048-entry
  // radix threshold, yet under the book's full-rebuild cut (dirty * 4 <
  // size + 4), so every round repairs the image by merge with the dirty
  // slots radix-sorted. Bids enter the book in shuffled id order and each
  // round dirties slots in shuffled order, so the sort runs its src and id
  // passes too. Quantized costs and qualities make ratio ties common.
  constexpr int kBids = 10000;
  constexpr int kUpserts = 2200;
  constexpr int kSwaps = 100;  // withdrawals, each refilled by a newcomer
  static_assert((kUpserts + kSwaps) * 4 < kBids + 4);
  util::Rng rng(0xB16C);
  const auto quantized_bid = [&](WorkerId id) {
    return profile(id, 0.25 * static_cast<double>(rng.uniform_int(4, 8)),
                   static_cast<int>(rng.uniform_int(1, 3)),
                   0.5 * static_cast<double>(rng.uniform_int(4, 8)));
  };
  std::map<WorkerId, WorkerProfile> bids;
  std::vector<WorkerId> live;
  for (WorkerId id = 0; id < kBids; ++id) live.push_back(id);
  rng.shuffle(live);
  BidBook book;
  for (const WorkerId id : live) {
    bids[id] = quantized_bid(id);
    book.upsert(bids[id]);
  }
  AuctionConfig config;
  config.theta_min = 2.5;  // some bids fail the filter
  WorkerId next_id = kBids;
  for (int round = 0; round < 6; ++round) {
    ASSERT_EQ(book.check_links(), "") << "round " << round;
    rng.shuffle(live);
    std::vector<BidDelta> deltas;
    for (int d = 0; d < kUpserts; ++d) {
      bids[live[d]] = quantized_bid(live[d]);
      deltas.push_back({BidDelta::Kind::kUpsert, bids[live[d]]});
    }
    for (int d = kUpserts; d < kUpserts + kSwaps; ++d) {
      deltas.push_back({BidDelta::Kind::kWithdraw, profile(live[d], 0, 0, 0)});
      bids.erase(live[d]);
      live[d] = next_id++;
      bids[live[d]] = quantized_bid(live[d]);
      deltas.push_back({BidDelta::Kind::kUpsert, bids[live[d]]});
    }
    book.apply(deltas);
    ASSERT_EQ(book.check_links(), "") << "round " << round;

    std::vector<WorkerProfile> flat;
    for (const auto& [id, bid] : bids) flat.push_back(bid);
    BidBook rebuilt_book;
    rebuilt_book.bulk_load(flat);
    ASSERT_EQ(ladder_image(book), ladder_image(rebuilt_book))
        << "round " << round;
    const auto rebuilt = internal::build_ranking_queue(flat, config);
    const auto from_book = internal::build_ranking_queue(book, config);
    ASSERT_GE(rebuilt.size(), 2048u);
    ASSERT_EQ(from_book.ids, rebuilt.ids) << "round " << round;
    ASSERT_EQ(from_book.quality, rebuilt.quality) << "round " << round;
    ASSERT_EQ(from_book.density, rebuilt.density) << "round " << round;
    ASSERT_EQ(from_book.frequency, rebuilt.frequency) << "round " << round;
  }
}

void expect_allocation_equal(const AllocationResult& a,
                             const AllocationResult& b) {
  ASSERT_EQ(a.assignments.size(), b.assignments.size());
  for (std::size_t i = 0; i < a.assignments.size(); ++i) {
    EXPECT_EQ(a.assignments[i].worker, b.assignments[i].worker);
    EXPECT_EQ(a.assignments[i].task, b.assignments[i].task);
    EXPECT_EQ(a.assignments[i].payment, b.assignments[i].payment);
  }
  EXPECT_EQ(a.selected_tasks, b.selected_tasks);
}

TEST(IncrementalRanking, FullAuctionBitIdenticalUnderBothPaymentRules) {
  for (const auto rule :
       {PaymentRule::kCriticalValue, PaymentRule::kPaperNextInQueue}) {
    util::Rng rng(0xA11C);
    const sim::SraScenario scenario = market(500);
    const auto workers = scenario.sample_workers(rng);
    const auto tasks = scenario.sample_tasks(rng);
    const AuctionConfig config = scenario.auction_config();
    BidBook book;
    book.bulk_load(workers);

    MelodyAuction mechanism(rule);
    const AllocationResult rebuilt =
        mechanism.run({workers, tasks, config});
    AuctionContext context{{}, tasks, config};
    context.book = &book;
    const AllocationResult incremental = mechanism.run(context);
    expect_allocation_equal(incremental, rebuilt);
  }
}

TEST(IncrementalRanking, ResolveWorkersAdapterMatchesBookContent) {
  util::Rng rng(0xADA7);
  const sim::SraScenario scenario = market(100);
  const auto workers = scenario.sample_workers(rng);
  BidBook book;
  book.bulk_load(workers);
  const std::vector<Task> tasks;
  const AuctionConfig config = scenario.auction_config();

  AuctionContext context{{}, tasks, config};
  context.book = &book;
  std::vector<WorkerProfile> storage;
  const std::span<const WorkerProfile> resolved =
      resolve_workers(context, storage);
  ASSERT_EQ(resolved.size(), workers.size());
  for (std::size_t i = 0; i < workers.size(); ++i) {
    EXPECT_EQ(resolved[i].id, workers[i].id);
    EXPECT_EQ(resolved[i].bid, workers[i].bid);
    EXPECT_EQ(resolved[i].estimated_quality, workers[i].estimated_quality);
  }
  // With a worker span present, the span wins and no copy is made.
  AuctionContext both{workers, tasks, config};
  both.book = &book;
  std::vector<WorkerProfile> unused;
  EXPECT_EQ(resolve_workers(both, unused).data(), workers.data());
  EXPECT_TRUE(unused.empty());
}

TEST(Mechanism, SupportsIncrementalProbe) {
  MelodyAuction melody;
  EXPECT_TRUE(melody.supports_incremental());
}

}  // namespace
}  // namespace melody::auction
