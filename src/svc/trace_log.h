// MLDYTRC: the versioned wire-trace format behind `melody_serve
// --trace-out` and `melody_replay`. One JSON line per record, written with
// the same wire codec the protocol itself uses (svc/wire.h), so a trace is
// greppable, diffable, and parses with zero new escaping rules:
//
//   {"magic":"MLDYTRC","version":2,"proto":5,"workers":"1000",...}
//   {"dir":"in","conn":2,"seq":0,"shard":3,"span":17,"frame":"{\"op\":...}"}
//   {"dir":"out","conn":2,"seq":0,"frame":"{\"ok\":true,...}"}
//
// The header pins everything a replayer must reconstruct the deployment
// from: besides magic, version, protocol version and the optional resume
// checkpoint, one string per ServiceConfig::to_flags() entry, keyed by the
// flag name ("workers":"1000", "payment-rule":"paper"), so every
// flag-settable field is recorded and read back through from_flags.
// Frames carry the connection id, the per-connection sequence number (the
// event loop's response-ordering key), the shard routing decision for
// inbound frames (-1: broadcast fan-out, -2: never routed — parse errors
// answered inline), the root span id when tracing was enabled, and the raw
// frame bytes. Outbound frames are recorded in flush order, which is per-
// connection sequence order — exactly what the client saw.
//
// File writes are atomic: the recorder streams to "<path>.tmp" and
// finish() renames into place, so a crashed session never leaves a
// half-trace behind a valid name.
#pragma once

#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "svc/config.h"
#include "svc/wire.h"

namespace melody::svc {

/// The MLDYTRC header "version" this build writes and reads.
inline constexpr std::int64_t kTraceVersion = 2;

/// Routing decision markers for inbound frames.
inline constexpr int kShardBroadcast = -1;  // fanned out to every shard
inline constexpr int kShardNone = -2;       // answered inline, never routed

/// One recorded frame (no trailing newline in `line`).
struct TraceFrame {
  enum class Dir { kIn, kOut };

  Dir dir = Dir::kIn;
  std::uint64_t conn = 0;
  std::uint64_t seq = 0;
  int shard = kShardNone;    // in frames: the routing decision
  std::uint64_t span = 0;    // in frames: root span id (0: tracing off)
  std::string line;          // raw frame bytes
};

/// A parsed trace: the header object plus every frame in file order.
struct TraceFile {
  WireObject header;
  std::vector<TraceFrame> frames;

};

/// Streams a serve session to an MLDYTRC file. record_* calls are
/// serialized by an internal mutex (the event loop is the only writer, but
/// the stdio driver and tests share the class); begin_session must come
/// first and finish() publishes the file. The destructor calls finish().
class TraceRecorder {
 public:
  /// Records to `path` via "<path>.tmp" + rename-on-finish. Throws
  /// std::runtime_error if the temporary cannot be opened.
  explicit TraceRecorder(std::string path);
  /// Records to a borrowed stream (tests, benches); finish() only flushes.
  explicit TraceRecorder(std::ostream& out);
  ~TraceRecorder();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Write the header line describing the deployment. `resume_path` (when
  /// non-empty) records the checkpoint the session restored from, so a
  /// replayer can resume from the same file without being told out of band.
  /// Omitting it falls back to set_resume_path's stash — the front ends
  /// call begin_session themselves and only the tool knows the --resume
  /// flag, so the tool stashes it on the recorder up front.
  void begin_session(const ServiceConfig& config,
                     const std::string& resume_path = "");

  /// Stash the resume checkpoint for the next begin_session (see above).
  void set_resume_path(std::string path) { resume_path_ = std::move(path); }

  /// One inbound frame: `shard` is the routing decision (>= 0, or
  /// kShardBroadcast / kShardNone), `span` the root span id (0 when
  /// tracing is off).
  void record_in(std::uint64_t conn, std::uint64_t seq, std::string_view line,
                 int shard, std::uint64_t span);

  /// One outbound frame, in flush (per-connection sequence) order.
  void record_out(std::uint64_t conn, std::uint64_t seq,
                  std::string_view line);

  /// Flush and (for the path form) rename the temporary into place.
  /// Idempotent; further record_* calls are dropped. Throws
  /// std::runtime_error on a failed write or rename.
  void finish();

  /// Frames recorded so far (header excluded).
  std::size_t frames() const;

 private:
  void write_line(const WireObject& object);

  mutable std::mutex mutex_;
  std::string path_;       // empty for the borrowed-stream form
  std::string resume_path_;
  std::ofstream owned_;
  std::ostream* out_ = nullptr;
  std::size_t frames_ = 0;
  bool finished_ = false;
};

/// Parse a trace from a stream. Throws std::runtime_error on a missing or
/// wrong header magic or an unsupported version, WireError on a malformed
/// line.
TraceFile parse_trace(std::istream& in);

/// Read and parse the trace at `path`. Throws std::runtime_error.
TraceFile read_trace(const std::string& path);

}  // namespace melody::svc
