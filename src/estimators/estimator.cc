#include "estimators/estimator.h"

#include <sstream>
#include <stdexcept>
#include <string>

#include "util/binio.h"

namespace melody::estimators {

namespace binio = util::binio;

namespace {

// The estimator whose save_to/load_from forwards to its stream pair on
// this thread: reaching the same forwarding again means the class overrides
// neither pair, which would otherwise recurse until the stack overflows.
thread_local const QualityEstimator* forwarding = nullptr;

struct ForwardGuard {
  const QualityEstimator* previous = forwarding;
  explicit ForwardGuard(const QualityEstimator* self) {
    if (self == previous) {
      throw std::logic_error(
          "QualityEstimator: override save_to/load_from or save/load");
    }
    forwarding = self;
  }
  ~ForwardGuard() { forwarding = previous; }
  ForwardGuard(const ForwardGuard&) = delete;
  ForwardGuard& operator=(const ForwardGuard&) = delete;
};

}  // namespace

void QualityEstimator::save(std::ostream& out) const {
  binio::write_stream(out, "estimator blob",
                      [this](binio::Writer& blob) { save_to(blob); });
}

void QualityEstimator::load(std::istream& in) {
  binio::read_stream(in, "estimator blob",
                     [this](binio::Reader& blob) { load_from(blob); });
}

// The forwarding pair for a class that overrides only save/load: one copy
// of the blob through a string stream.
void QualityEstimator::save_to(binio::Writer& out) const {
  const ForwardGuard guard(this);
  std::ostringstream blob;
  save(blob);
  out.write_raw(blob.view());
}

void QualityEstimator::load_from(binio::Reader& in) {
  const ForwardGuard guard(this);
  std::istringstream blob(
      std::string(in.read_raw(in.remaining(), "estimator blob")));
  load(blob);
}

}  // namespace melody::estimators
