// SessionRegistry against a reference model: random bind / intern / find /
// count_bid / save -> load sequences over names that spell their own id,
// leading-zero spellings, names that spell an id under another offset and
// free-form names, plus the MLDYSESS load refusals (an id that is not its
// position, a next id other than the count, a duplicate name).
#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "svc/session.h"
#include "util/binio.h"
#include "util/rng.h"

namespace melody::svc {
namespace {

namespace binio = util::binio;

struct Model {
  std::map<std::string, auction::WorkerId> ids;
  std::vector<std::string> names;
  std::vector<std::uint64_t> bids;

  auction::WorkerId append(const std::string& name) {
    const auto id = static_cast<auction::WorkerId>(names.size());
    ids.emplace(name, id);
    names.push_back(name);
    bids.push_back(0);
    return id;
  }
};

std::string save_bytes(const SessionRegistry& registry) {
  binio::Writer out;
  registry.save(out);
  return out.take();
}

void expect_matches(const SessionRegistry& registry, const Model& model) {
  ASSERT_EQ(registry.size(), model.names.size());
  for (std::size_t id = 0; id < model.names.size(); ++id) {
    const auto wid = static_cast<auction::WorkerId>(id);
    ASSERT_NE(registry.name_of(wid), nullptr) << id;
    EXPECT_EQ(*registry.name_of(wid), model.names[id]);
    EXPECT_EQ(registry.find(model.names[id]), wid) << model.names[id];
    EXPECT_EQ(registry.bids_submitted(wid), model.bids[id]);
  }
  const auto past = static_cast<auction::WorkerId>(model.names.size());
  EXPECT_EQ(registry.name_of(past), nullptr);
  EXPECT_EQ(registry.name_of(-1), nullptr);
  EXPECT_EQ(registry.bids_submitted(past), 0u);
}

// A name drawn from the four families, centred on the ids near `size`.
std::string draw_name(util::Rng& rng, int offset, int other_offset,
                      std::size_t size) {
  const auto g = rng.uniform_int(0, static_cast<std::int64_t>(size) + 4);
  switch (rng.uniform_int(0, 3)) {
    case 0:  // spells an id under this registry's offset
      return "w" + std::to_string(offset + g);
    case 1:  // a leading-zero spelling of such a name
      return "w0" + std::to_string(offset + g);
    case 2:  // spells an id under another offset
      return "w" + std::to_string(other_offset + g);
    default: {
      static const char* const kFree[] = {"alice", "bob", "w", "w1x",
                                          "W3",    "w-2", "x7"};
      return std::string(kFree[rng.uniform_int(0, 6)]) +
             (rng.uniform_int(0, 1) == 0 ? "" : std::to_string(g));
    }
  }
}

TEST(SessionRegistryProperty, RandomOpsMatchAReferenceModel) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    util::Rng rng(seed);
    const int offset = static_cast<int>(rng.uniform_int(0, 3)) * 5;
    const int other_offset = offset == 0 ? 7 : 0;
    SessionRegistry registry(offset);
    Model model;
    for (int step = 0; step < 400; ++step) {
      const std::string name =
          draw_name(rng, offset, other_offset, model.names.size());
      const auto known = model.ids.find(name);
      switch (rng.uniform_int(0, 5)) {
        case 0: {  // bind, usually at the next id
          const auto next = static_cast<auction::WorkerId>(model.names.size());
          const auto id = rng.uniform_int(0, 3) == 0
                              ? static_cast<auction::WorkerId>(
                                    rng.uniform_int(-1, next + 1))
                              : next;
          if (known != model.ids.end() || id != next) {
            EXPECT_THROW(registry.bind(name, id), std::invalid_argument)
                << name << " " << id;
          } else {
            registry.bind(name, id);
            model.append(name);
          }
          break;
        }
        case 1:
        case 2: {  // intern
          bool created = false;
          const auction::WorkerId id = registry.intern(name, &created);
          EXPECT_EQ(created, known == model.ids.end()) << name;
          EXPECT_EQ(id, created ? model.append(name) : known->second) << name;
          break;
        }
        case 3: {  // find
          const auto found = registry.find(name);
          if (known == model.ids.end()) {
            EXPECT_FALSE(found.has_value()) << name;
          } else {
            EXPECT_EQ(found, known->second) << name;
          }
          break;
        }
        case 4: {  // count_bid, ids out of range included
          const auto id = static_cast<auction::WorkerId>(rng.uniform_int(
              -1, static_cast<std::int64_t>(model.names.size())));
          registry.count_bid(id);
          if (id >= 0 && static_cast<std::size_t>(id) < model.bids.size()) {
            ++model.bids[static_cast<std::size_t>(id)];
          }
          break;
        }
        default: {  // save -> load into a registry with other contents
          const std::string bytes = save_bytes(registry);
          SessionRegistry loaded(offset);
          loaded.intern("stale");
          binio::Reader in(bytes);
          loaded.load(in);
          EXPECT_EQ(in.remaining(), 0u);
          EXPECT_EQ(save_bytes(loaded), bytes);
          registry = std::move(loaded);
          break;
        }
      }
      ASSERT_FALSE(::testing::Test::HasFailure())
          << "seed " << seed << " step " << step;
    }
    expect_matches(registry, model);
  }
}

TEST(SessionRegistryProperty, BlobSavedUnderOneOffsetLoadsUnderAnother) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    util::Rng rng(seed);
    SessionRegistry registry(100);
    Model model;
    for (int id = 0; id < 30; ++id) {
      registry.bind("w" + std::to_string(100 + id), id);
      model.append("w" + std::to_string(100 + id));
    }
    for (int step = 0; step < 60; ++step) {
      const std::string name = draw_name(rng, 100, 0, model.names.size());
      if (model.ids.count(name) == 0) {
        registry.intern(name);
        model.append(name);
      }
      const auto last = static_cast<std::int64_t>(model.names.size()) - 1;
      const auto id = static_cast<auction::WorkerId>(rng.uniform_int(0, last));
      registry.count_bid(id);
      ++model.bids[static_cast<std::size_t>(id)];
    }
    const std::string bytes = save_bytes(registry);
    for (const int offset : {0, 7, 100, 120}) {
      SessionRegistry loaded(offset);
      binio::Reader in(bytes);
      loaded.load(in);
      expect_matches(loaded, model);
      EXPECT_EQ(save_bytes(loaded), bytes) << "offset " << offset;
      // Interning continues at the count whatever the offset.
      const auto next = static_cast<auction::WorkerId>(model.names.size());
      EXPECT_EQ(loaded.intern("newcomer-after-load"), next);
    }
  }
}

// Hand-made MLDYSESS bytes: (name, id) entries, then `next_id`.
std::string blob(const std::vector<std::pair<std::string, int>>& entries,
                 int next_id) {
  binio::Writer out;
  out.write_header("MLDYSESS", 1);
  out.write_u64(entries.size());
  for (const auto& [name, id] : entries) {
    out.write_bytes(name);
    out.write_i32(id);
    out.write_u64(0);
  }
  out.write_i32(next_id);
  return out.take();
}

void expect_refused(const std::string& bytes, int offset) {
  SessionRegistry victim(offset);
  victim.bind("w" + std::to_string(offset), 0);
  victim.intern("alice");
  victim.count_bid(1);
  const std::string before = save_bytes(victim);
  binio::Reader in(bytes);
  EXPECT_THROW(victim.load(in), std::runtime_error);
  EXPECT_EQ(save_bytes(victim), before);  // a refused load commits nothing
}

TEST(SessionRegistryProperty, LoadRefusesHandMadeBytesSavesNeverWrite) {
  // The well-formed control loads.
  {
    SessionRegistry registry;
    const std::string ok = blob({{"w0", 0}, {"a", 1}, {"w2", 2}}, 3);
    binio::Reader in(ok);
    registry.load(in);
    EXPECT_EQ(save_bytes(registry), ok);
  }
  // An id that is not its position.
  expect_refused(blob({{"w0", 0}, {"w1", 2}}, 2), 0);
  expect_refused(blob({{"a", 1}, {"b", 0}}, 2), 0);
  expect_refused(blob({{"a", -1}}, 1), 0);
  // A next id other than the count.
  expect_refused(blob({{"w0", 0}, {"w1", 1}}, 3), 0);
  expect_refused(blob({{"w0", 0}, {"w1", 1}}, 1), 0);
  expect_refused(blob({}, 1), 0);
  // Duplicate names: two free-form ones, a later entry repeating the name
  // an earlier one spells, and a newcomer holding the name that spells a
  // later entry's id (under the loading registry's offset).
  expect_refused(blob({{"a", 0}, {"a", 1}}, 2), 0);
  expect_refused(blob({{"w0", 0}, {"w1", 1}, {"w0", 2}}, 3), 0);
  expect_refused(blob({{"w10", 0}, {"w10", 1}}, 2), 10);
  expect_refused(blob({{"w0", 0}, {"w2", 1}, {"w2", 2}}, 3), 0);
  expect_refused(blob({{"w12", 0}, {"w10", 1}, {"w12", 2}}, 3), 10);
  expect_refused(blob({{"w05", 0}, {"w05", 1}}, 2), 0);
}

}  // namespace
}  // namespace melody::svc
