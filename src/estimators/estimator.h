// Interface for the long-term quality estimators compared in Section 7.7:
// STATIC, ML-CR, ML-AR, and MELODY's LDS tracker.
//
// Protocol: the platform calls observe() exactly once per registered worker
// per run — with an empty ScoreSet when the worker received no tasks — so
// estimators see the full timeline and can model time explicitly. estimate()
// returns the quality mu_i to use in the *next* run's auction.
#pragma once

#include <iosfwd>
#include <span>
#include <string>

#include "auction/types.h"
#include "lds/gaussian.h"

namespace melody::util::binio {
class Reader;
class Writer;
}  // namespace melody::util::binio

namespace melody::estimators {

class QualityEstimator {
 public:
  virtual ~QualityEstimator() = default;

  /// Introduce a new worker; estimate() must be valid immediately after
  /// (newcomers get the platform's initial estimate).
  virtual void register_worker(auction::WorkerId id) = 0;

  /// Record the scores the worker received in the run that just ended.
  virtual void observe(auction::WorkerId id, const lds::ScoreSet& scores) = 0;

  /// Digest one whole run at once: `ids` and `scores` are parallel arrays
  /// covering every registered worker exactly once. The default forwards
  /// to observe() in array order. Estimators whose per-worker updates are
  /// independent (MELODY's Kalman/EM chains) override this to shard the
  /// batch across util::shared_pool(); overrides must produce state
  /// bit-identical to the serial order for any thread count.
  virtual void observe_run(std::span<const auction::WorkerId> ids,
                           std::span<const lds::ScoreSet> scores) {
    for (std::size_t i = 0; i < ids.size(); ++i) observe(ids[i], scores[i]);
  }

  /// Estimated quality for the next run. Throws std::out_of_range for an
  /// unregistered worker.
  virtual double estimate(auction::WorkerId id) const = 0;

  virtual std::string name() const = 0;

  /// Persist all learned per-worker state as a versioned util/binio blob
  /// (each implementation writes its own magic + version header and one
  /// fixed little-endian record per worker, in id order), so a
  /// restarted platform resumes exactly where the old one stopped —
  /// estimates after load_from() are bit-identical to the saved instance's.
  /// Configuration is never part of a snapshot: construct the new estimator
  /// with the same config before loading. Loading replaces all existing
  /// state wholesale. All four throw std::runtime_error on I/O failure or
  /// malformed input. Callers hold these through the base class — no
  /// downcasting to a concrete estimator is needed for persistence.
  ///
  /// Implementations override save_to/load_from, which the platform calls
  /// on its own buffer. save/load are the stream boundary: by default each
  /// makes one bulk copy and forwards to save_to/load_from. A wrapper that
  /// overrides only save/load gets save_to/load_from forwarded to them
  /// through one copy. A class must override one of the two pairs; one
  /// that overrides neither throws std::logic_error on its first save or
  /// load.
  virtual void save_to(util::binio::Writer& out) const;
  virtual void load_from(util::binio::Reader& in);
  virtual void save(std::ostream& out) const;
  virtual void load(std::istream& in);
};

}  // namespace melody::estimators
