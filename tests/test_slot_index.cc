// The id -> slot index (auction/slot_index.h) against a reference model,
// through its three users: the platform's worker store, the MELODY
// estimator and the platform's per-slot utility column. Random join /
// lookup / step / save -> load -> save sequences over ids that are
// positions, shifted, negative, counting down from INT_MAX, or an
// interleaving of all of these with ids that equal some other worker's
// slot.
#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "auction/melody_auction.h"
#include "auction/slot_index.h"
#include "estimators/melody_estimator.h"
#include "lds/gaussian.h"
#include "sim/platform.h"
#include "util/binio.h"
#include "util/rng.h"

namespace melody::sim {
namespace {

namespace binio = util::binio;
using auction::WorkerId;

enum class IdKind { kPositions, kShifted, kNegative, kIntMax, kInterleaved };

LongTermScenario scenario() {
  LongTermScenario s;
  s.num_workers = 0;
  s.num_tasks = 10;
  s.runs = 12;
  s.budget = 60.0;
  return s;
}

estimators::MelodyEstimatorConfig tracker_config() {
  estimators::MelodyEstimatorConfig config;
  config.reestimation_period = 3;
  config.min_history_for_em = 2;
  return config;
}

/// A platform with its own mechanism and estimator (the platform borrows
/// both), built empty or from `workers`.
struct Rig {
  LongTermScenario scenario_;
  auction::MelodyAuction mechanism;
  estimators::MelodyEstimator estimator{tracker_config()};
  Platform platform;

  explicit Rig(std::vector<SimWorker> workers)
      : scenario_(scenario()),
        platform(scenario_, mechanism, estimator, std::move(workers), 7) {}
};

/// What the index must answer: id -> slot, and the utility each worker
/// has been credited, for the workers a step has seen.
struct Model {
  std::map<WorkerId, std::size_t> slots;
  std::vector<WorkerId> ids;  // slot -> id
  std::map<WorkerId, double> utilities;
};

SimWorker make_worker(WorkerId id, util::Rng& rng) {
  TrajectoryConfig traj;
  traj.start_level = rng.uniform(2.0, 9.0);
  const auction::Bid bid{rng.uniform(1.0, 4.0),
                         static_cast<int>(rng.uniform_int(1, 4))};
  return SimWorker(id, bid, TrajectoryStream(traj, 12, rng));
}

/// A fresh id of `kind` for the worker joining at `slot`; may collide with
/// an id already held (the caller then expects a refusal).
WorkerId draw_id(IdKind kind, std::size_t slot, util::Rng& rng) {
  const auto s = static_cast<WorkerId>(slot);
  switch (kind) {
    case IdKind::kPositions:
      return s;
    case IdKind::kShifted:
      return s + 7;
    case IdKind::kNegative:
      return -1 - 3 * s;
    case IdKind::kIntMax:
      return INT_MAX - s;
    case IdKind::kInterleaved:
      break;
  }
  switch (rng.uniform_int(0, 4)) {
    case 0:
      return s;  // its own slot
    case 1:      // near the slots: often another worker's slot or id
      return static_cast<WorkerId>(rng.uniform_int(0, 2 * slot + 4));
    case 2:
      return static_cast<WorkerId>(-rng.uniform_int(1, 50));
    case 3:
      return INT_MAX - static_cast<WorkerId>(rng.uniform_int(0, 3));
    default:
      return INT_MIN + static_cast<WorkerId>(rng.uniform_int(0, 3));
  }
}

std::string save_bytes(const Platform& platform) {
  binio::Writer out;
  platform.save(out);
  return out.take();
}

/// The ids of the snapshot's utility section, in file order.
std::vector<WorkerId> utility_ids(const std::string& snapshot) {
  binio::Reader in(snapshot);
  // Magic, version, seed, run, the RNG and the fault plan.
  in.read_raw(8 + 4 + 8 + 4 + (4 * 8 + 8 + 1) + (4 * 8 + 2 * 4 + 8), "skip");
  in.read_raw(in.read_u64("workers") * 134, "workers");
  in.read_raw(in.read_u64("policies") * (4 + 8 + 3 + 8 + 4), "policies");
  std::vector<WorkerId> ids(in.read_u64("utilities"));
  for (WorkerId& id : ids) {
    id = in.read_i32("utility id");
    in.read_f64("utility total");
  }
  return ids;
}

void expect_matches(const Rig& rig, const Model& model, WorkerId probe) {
  const WorkerStateSoA& store = rig.platform.worker_state();
  ASSERT_EQ(store.ids(), model.ids);
  ASSERT_EQ(rig.estimator.worker_count(), model.ids.size());
  for (const auto& [id, slot] : model.slots) {
    ASSERT_TRUE(store.contains(id)) << id;
    EXPECT_EQ(store.slot_of(id), slot) << id;
    EXPECT_TRUE(rig.estimator.contains(id)) << id;
    EXPECT_NO_THROW(rig.estimator.estimate(id)) << id;
    const auto credited = model.utilities.find(id);
    EXPECT_EQ(rig.platform.worker_total_utility(id),
              credited == model.utilities.end() ? 0.0 : credited->second)
        << id;
  }
  if (model.slots.contains(probe)) return;
  EXPECT_FALSE(store.contains(probe)) << probe;
  EXPECT_FALSE(rig.estimator.contains(probe)) << probe;
  EXPECT_EQ(rig.platform.worker_total_utility(probe), 0.0);
  const std::string message = "unknown worker id " + std::to_string(probe);
  try {
    store.slot_of(probe);
    ADD_FAILURE() << "slot_of found " << probe;
  } catch (const std::out_of_range& e) {
    EXPECT_EQ(e.what(), message);
  }
  try {
    rig.estimator.estimate(probe);
    ADD_FAILURE() << "estimate found " << probe;
  } catch (const std::out_of_range& e) {
    EXPECT_EQ(e.what(), message);
  }
}

TEST(SlotIndexProperty, RandomOpsMatchAReferenceModel) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const auto kind = static_cast<IdKind>(seed % 5);
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    Model model;
    std::vector<SimWorker> initial;
    const auto initial_count = static_cast<std::size_t>(rng.uniform_int(0, 6));
    while (initial.size() < initial_count) {
      const WorkerId id = draw_id(kind, initial.size(), rng);
      if (model.slots.contains(id)) continue;
      model.slots.emplace(id, initial.size());
      model.ids.push_back(id);
      initial.push_back(make_worker(id, rng));
    }
    auto rig = std::make_unique<Rig>(std::move(initial));
    std::vector<double> utility;
    for (int op = 0; op < 60; ++op) {
      const auto choice = rng.uniform_int(0, 9);
      if (choice <= 3) {  // join: fresh, or a repeat that must be refused
        const std::size_t slot = model.ids.size();
        const bool repeat = !model.ids.empty() && rng.uniform_int(0, 3) == 0;
        const WorkerId id =
            repeat ? model.ids[static_cast<std::size_t>(rng.uniform_int(
                         0, static_cast<std::int64_t>(slot) - 1))]
                   : draw_id(kind, slot, rng);
        if (model.slots.contains(id)) {
          const std::string before = save_bytes(rig->platform);
          EXPECT_THROW(rig->platform.add_worker(make_worker(id, rng)),
                       std::invalid_argument)
              << id;
          EXPECT_EQ(save_bytes(rig->platform), before) << id;
          continue;
        }
        rig->platform.add_worker(make_worker(id, rng));
        model.slots.emplace(id, slot);
        model.ids.push_back(id);
      } else if (choice <= 6) {  // step: every slot is credited
        rig->platform.step();
        rig->platform.worker_state().utilities(rig->platform.last_result(),
                                               utility);
        for (std::size_t s = 0; s < model.ids.size(); ++s) {
          model.utilities[model.ids[s]] += utility[s];
        }
      } else if (choice <= 8) {  // save -> load -> save into a fresh rig
        const std::string bytes = save_bytes(rig->platform);
        // Never-stepped newcomers are not written.
        std::vector<WorkerId> written;
        for (const auto& [id, total] : model.utilities) written.push_back(id);
        EXPECT_EQ(utility_ids(bytes), written);
        auto loaded = std::make_unique<Rig>(std::vector<SimWorker>{});
        binio::Reader in(bytes);
        loaded->platform.load(in);
        EXPECT_EQ(save_bytes(loaded->platform), bytes);
        rig = std::move(loaded);
      }
      // Every op ends with lookups: every known id, and one probe that
      // may or may not be known.
      const WorkerId probe = draw_id(IdKind::kInterleaved,
                                     model.ids.size(), rng);
      expect_matches(*rig, model, probe);
    }
  }
}

TEST(SlotIndexProperty, EstimatorBlobsRoundTripForEveryIdKind) {
  // The estimator on its own: a re-registration keeps the chain, a load
  // rebuilds the index from the blob's id order, and a re-save gives the
  // same bytes.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const auto kind = static_cast<IdKind>(seed % 5);
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    estimators::MelodyEstimator estimator(tracker_config());
    std::vector<WorkerId> ids;
    while (ids.size() < 12) {
      const WorkerId id = draw_id(kind, ids.size(), rng);
      if (estimator.contains(id)) {
        estimator.register_worker(id);
        EXPECT_EQ(estimator.worker_count(), ids.size());
        continue;
      }
      estimator.register_worker(id);
      ids.push_back(id);
    }
    for (int run = 0; run < 4; ++run) {
      for (const WorkerId id : ids) {
        lds::ScoreSet scores;
        for (int k = rng.uniform_int(0, 2); k > 0; --k) {
          scores.add(rng.uniform(1.0, 10.0));
        }
        estimator.observe(id, scores);
      }
    }
    binio::Writer out;
    estimator.save_to(out);
    estimators::MelodyEstimator loaded(tracker_config());
    binio::Reader in(out.bytes());
    loaded.load_from(in);
    binio::Writer again;
    loaded.save_to(again);
    EXPECT_EQ(again.bytes(), out.bytes());
    for (const WorkerId id : ids) {
      EXPECT_EQ(loaded.estimate(id), estimator.estimate(id)) << id;
    }
  }
}

TEST(SlotIndex, AnIdAtItsOwnSlotNeedsNoMapEntryButAnotherSlotDoes) {
  // ids [0, 5, 2, 1, 3]: 0 and 2 sit at their own slots and are read off
  // the column; 5, 1 and 3 do not (ids[1] is 5, not 1), so the map
  // answers for them.
  std::vector<WorkerId> ids;
  auction::SlotIndex index;
  for (const WorkerId id : {0, 5, 2, 1, 3}) {
    ASSERT_TRUE(index.insert(ids, id)) << id;
    ids.push_back(id);
  }
  EXPECT_FALSE(index.insert(ids, 1));
  EXPECT_FALSE(index.insert(ids, 5));
  EXPECT_EQ(index.at(ids, 0), 0u);
  EXPECT_EQ(index.at(ids, 5), 1u);
  EXPECT_EQ(index.at(ids, 2), 2u);
  EXPECT_EQ(index.at(ids, 1), 3u);
  EXPECT_EQ(index.at(ids, 3), 4u);
  EXPECT_EQ(index.find(ids, 4), auction::SlotIndex::npos);
  EXPECT_FALSE(index.contains(ids, -1));
  EXPECT_THROW(index.at(ids, 4), std::out_of_range);
}

}  // namespace
}  // namespace melody::sim
