// Wire-trace replay: re-drive a recorded MLDYTRC session (svc/trace_log.h)
// against a fresh — or checkpoint-resumed — sharded service and assert the
// responses are byte-identical to what the live session sent. The
// deployment is rebuilt from the trace header alone: config_from_trace
// parses its flag keys with ServiceConfig::from_flags, the inverse of the
// to_flags() list the recorder wrote, so every flag-settable knob the live
// session ran with (payment rule, re-estimation period, exploration weight,
// batch triggers, ...) comes back.
//
// Why this works: the event loop is the single thread that submits frames,
// so each shard's apply order equals the submission order — the trace's
// in-frame file order filtered to that shard. Replaying the in-frames in
// file order through a single-threaded poll loop reproduces every shard's
// exact request sequence, and with a manual clock every response is then a
// pure function of the trace. Frames the live session answered without
// touching a shard are reproduced locally (parse errors) or skipped
// (overload rejections — queue pressure is an environment fact, and a
// rejected frame never mutated state).
//
// Comparison is byte-equality first; on mismatch both lines are parsed and
// diffed field by field against a volatile-field mask (timing-, queue- and
// tracing-scoped fields that legitimately differ across environments), so
// a divergence report names the frame and the exact field that changed.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "svc/config.h"
#include "svc/trace_log.h"

namespace melody::svc {

class ShardedService;

/// One field-level divergence between the recorded and replayed response
/// for a frame. `field` is the wire key ("ok", "error", "run", ...);
/// kWholeLine means the line did not parse as a wire object on one side.
struct FrameDiff {
  static constexpr const char* kWholeLine = "<line>";

  std::size_t frame_index = 0;  // index into TraceFile::frames
  std::uint64_t conn = 0;
  std::uint64_t seq = 0;
  std::string field;
  std::string recorded;  // formatted recorded value ("<absent>" if missing)
  std::string replayed;
};

/// Replay knobs. The default mask covers every field the serve path emits
/// that is a fact about the recording environment rather than the service
/// trajectory: backpressure hints, queue gauges, the event loop's own
/// tallies (a replay has no event loop), and tracing/latency introspection.
struct ReplayOptions {
  /// Mask patterns: exact keys, or one leading/trailing '*' wildcard
  /// ("loop_*", "*_ms"). Matched keys never produce diffs.
  std::vector<std::string> mask = default_mask();
  /// Stop after this many diffs (0: collect all).
  std::size_t max_diffs = 0;

  static std::vector<std::string> default_mask();
};

/// Outcome of one replay.
struct ReplayResult {
  std::size_t applied = 0;    // in-frames driven through the service
  std::size_t compared = 0;   // responses checked against recorded ones
  std::size_t skipped_rejections = 0;     // recorded overload rejections
  std::size_t skipped_after_shutdown = 0; // in-frames past the shutdown op
  std::size_t unmatched_out = 0;  // out-frames with no recorded in-frame
  std::vector<FrameDiff> diffs;

  bool clean() const noexcept { return diffs.empty(); }
};

/// True when `key` matches any mask pattern.
bool mask_matches(const std::vector<std::string>& mask, std::string_view key);

/// Structured failure for a resume checkpoint the trace references but the
/// filesystem no longer has: carries the offending path, and the what()
/// message names it plus the fix (restore the file, or point --resume at
/// its new location) instead of a generic open error deep in restore().
class CheckpointMissingError : public std::runtime_error {
 public:
  explicit CheckpointMissingError(std::string path)
      : std::runtime_error(
            "resume checkpoint not found: " + path +
            " (the trace was recorded against a restored checkpoint; put "
            "the file back or pass --resume with its current location)"),
        path_(std::move(path)) {}
  const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

/// The checkpoint the recorded session resumed from, pinned by the trace
/// header's "resume" field ("" when the session started fresh).
std::string resume_path_from_trace(const TraceFile& trace);

/// Throw CheckpointMissingError unless something exists at `path`. It does
/// not open the path, so a FIFO there cannot block it; restore() refuses
/// anything that is not a regular file.
void require_resume_checkpoint(const std::string& path);

/// The deployment config a trace header pins: every flag-settable
/// ServiceConfig field, parsed from the header's flag keys with
/// ServiceConfig::from_flags (a key the header lacks keeps its flag
/// default). Throws WireError on a non-string value or an unknown key,
/// std::invalid_argument on a value the flag refuses.
ServiceConfig config_from_trace(const TraceFile& trace);

/// Drive every in-frame of `trace` through `service` (fresh, or restore()d
/// from a mid-trace checkpoint by the caller) in file order, comparing each
/// response against the recorded out-frame. The service must not be
/// start()ed — replay is single-threaded by construction and polls the
/// shards itself. Returns the diff report; never throws for divergences.
ReplayResult replay_trace(const TraceFile& trace, ShardedService& service,
                          const ReplayOptions& options = {});

/// Render one diff as a human-readable line (the melody_replay report).
std::string format_diff(const FrameDiff& diff);

}  // namespace melody::svc
