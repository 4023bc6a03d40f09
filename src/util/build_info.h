// Build identification for the CLI tools: one shared --version line so
// chaos/migration logs (and bug reports) pin exactly which build and which
// on-disk/wire format versions produced an artifact.
#pragma once

#include <string>

namespace melody::util {

/// The format versions this build reads and writes, gathered in one place
/// from the constants their writers export.
struct FormatVersions {
  int proto;                 // svc wire protocol (svc/protocol.h)
  int platform_checkpoint;   // MLDYCKPT platform snapshot (sim/platform.h)
  int service_checkpoint;    // MLDYSVCK plain service body (svc/service.h)
  int composed_checkpoint;   // MLDYSVCK composed container (svc/router.h)
  int trace;                 // MLDYTRC wire trace (svc/trace_log.h)
  int migration;             // MLDYMIGR live-migration envelope (service.h)
};

FormatVersions format_versions() noexcept;

/// The git sha this binary was built from ("unknown" outside a checkout).
std::string build_git_sha();

/// The one-line --version output, e.g.
///   melody_serve 1a2b3c4 proto=5 platform=5 checkpoint=3 composed=2 trace=2
///   migration=1 (one line)
std::string build_info_line(const std::string& tool);

}  // namespace melody::util
