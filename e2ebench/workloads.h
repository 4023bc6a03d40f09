// The three workloads. Each returns its end-to-end metrics from an untraced
// run (Args::trace false) or its per-layer metrics and ledger from a traced
// run, and throws CheckFailure when an output check fails.
#pragma once

#include "common.h"

namespace e2ebench {

extern const Shape kLongtermSimShape;
extern const Shape kWireServeShape;
extern const Shape kStateMoveShape;

Outcome run_longterm_sim(const Args& args);
Outcome run_wire_serve(const Args& args);
Outcome run_state_move(const Args& args);

}  // namespace e2ebench
