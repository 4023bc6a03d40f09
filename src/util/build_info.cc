#include "util/build_info.h"

#include "git_sha.h"  // generated at build time: MELODY_GIT_SHA

#include "sim/platform.h"
#include "svc/protocol.h"
#include "svc/router.h"
#include "svc/service.h"
#include "svc/trace_log.h"

namespace melody::util {

FormatVersions format_versions() noexcept {
  return FormatVersions{
      .proto = svc::kProtoVersion,
      .platform_checkpoint = static_cast<int>(sim::kCheckpointVersion),
      .service_checkpoint = static_cast<int>(svc::kServiceCheckpointVersion),
      .composed_checkpoint = static_cast<int>(svc::kComposedCheckpointVersion),
      .trace = static_cast<int>(svc::kTraceVersion),
      .migration = static_cast<int>(svc::kMigrationVersion),
  };
}

std::string build_git_sha() { return MELODY_GIT_SHA; }

std::string build_info_line(const std::string& tool) {
  const FormatVersions v = format_versions();
  return tool + " " + build_git_sha() + " proto=" + std::to_string(v.proto) +
         " platform=" + std::to_string(v.platform_checkpoint) +
         " checkpoint=" + std::to_string(v.service_checkpoint) +
         " composed=" + std::to_string(v.composed_checkpoint) +
         " trace=" + std::to_string(v.trace) +
         " migration=" + std::to_string(v.migration);
}

}  // namespace melody::util
