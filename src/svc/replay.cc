#include "svc/replay.h"

#include <chrono>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "svc/frame.h"
#include "util/flags.h"
#include "util/json.h"

namespace melody::svc {

namespace {

// One mask pattern against one key: exact, "prefix*", or "*suffix".
bool pattern_matches(std::string_view pattern, std::string_view key) {
  if (pattern.empty()) return false;
  if (pattern.front() == '*') {
    const std::string_view suffix = pattern.substr(1);
    return key.size() >= suffix.size() &&
           key.substr(key.size() - suffix.size()) == suffix;
  }
  if (pattern.back() == '*') {
    const std::string_view prefix = pattern.substr(0, pattern.size() - 1);
    return key.substr(0, prefix.size()) == prefix;
  }
  return key == pattern;
}

std::string value_repr(const WireValue* value) {
  return value == nullptr ? "<absent>" : util::json::write(*value);
}

// True when the recorded response is a front-end rejection: the live
// session answered it from queue state (overload backpressure, or the
// post-shutdown drain) without ever mutating a shard.
bool is_rejection(const std::string& line) {
  try {
    const Response response = parse_response(line);
    return !response.ok &&
           (response.error == "overloaded" || response.error == "shutting down");
  } catch (const WireError&) {
    return false;
  }
}

}  // namespace

std::vector<std::string> ReplayOptions::default_mask() {
  return {
      "retry_after_ms",     // backpressure hint scaled to queue capacity
      "*queue_depth",       // producer-timing dependent gauge
      "*overload_rejects",  // environment (load) dependent tally
      "loop_*",             // event-loop tallies; a replay has no loop
      "connections",        // live connection count (event loop only)
      "*tracing",           // whether tracing was on when recording
                            // (suffix form: covers shard<k>/tracing too)
      "*spans",             // span tallies follow the tracing switch
      "*_ms",               // latency percentiles (trace_status)
      "*_count",            // latency sample counts (trace_status)
  };
}

bool mask_matches(const std::vector<std::string>& mask, std::string_view key) {
  for (const std::string& pattern : mask) {
    if (pattern_matches(pattern, key)) return true;
  }
  return false;
}

std::string resume_path_from_trace(const TraceFile& trace) {
  return trace.header.text_or("resume", "");
}

void require_resume_checkpoint(const std::string& path) {
  // A presence check, not an open: opening a FIFO would block. What is
  // there but is no regular file, restore() refuses by name.
  std::error_code error;
  if (!std::filesystem::exists(path, error)) {
    throw CheckpointMissingError(path);
  }
}

ServiceConfig config_from_trace(const TraceFile& trace) {
  // Every key but the envelope is one ServiceConfig flag, as begin_session
  // wrote it: rebuild the argv and parse it like the command line.
  static const std::set<std::string> kEnvelope{"magic", "version", "proto",
                                               "resume"};
  std::vector<std::string> args{"trace"};
  for (const auto& [key, value] : trace.header.entries()) {
    if (kEnvelope.contains(key)) continue;
    if (!value.is_string()) {
      throw WireError("trace header: \"" + key + "\" must be a string");
    }
    args.push_back("--" + key + "=" + value.as_string());
  }
  std::vector<const char*> argv;
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  const util::Flags flags(static_cast<int>(argv.size()), argv.data());
  ServiceConfig config = ServiceConfig::from_flags(flags);
  if (const auto unknown = flags.unused(); !unknown.empty()) {
    throw WireError("trace header: unknown key \"" + unknown.front() + "\"");
  }
  return config;
}

ReplayResult replay_trace(const TraceFile& trace, ShardedService& service,
                          const ReplayOptions& options) {
  ReplayResult result;
  using Key = std::pair<std::uint64_t, std::uint64_t>;
  std::map<Key, const std::string*> recorded_out;
  std::set<Key> recorded_in;
  for (const TraceFrame& frame : trace.frames) {
    if (frame.dir == TraceFrame::Dir::kIn) {
      recorded_in.insert({frame.conn, frame.seq});
    } else {
      recorded_out.emplace(Key{frame.conn, frame.seq}, &frame.line);
    }
  }
  for (const auto& [key, line] : recorded_out) {
    if (!recorded_in.contains(key)) ++result.unmatched_out;
  }

  FrameTally tally;
  bool full = false;
  const auto compare = [&](std::size_t index, const TraceFrame& in,
                           const std::string& expected,
                           const std::string& actual) {
    ++result.compared;
    if (full || expected == actual) return;
    const auto push = [&](std::string field, std::string recorded,
                          std::string replayed) {
      if (full) return;
      result.diffs.push_back(FrameDiff{index, in.conn, in.seq,
                                       std::move(field), std::move(recorded),
                                       std::move(replayed)});
      full = options.max_diffs > 0 && result.diffs.size() >= options.max_diffs;
    };
    WireObject recorded, replayed;
    try {
      recorded = parse_wire(expected);
      replayed = parse_wire(actual);
    } catch (const WireError&) {
      push(FrameDiff::kWholeLine, expected, actual);
      return;
    }
    // Field-by-field over the union of keys, recorded order first.
    for (const auto& [key, value] : recorded.entries()) {
      if (mask_matches(options.mask, key)) continue;
      const WireValue* other = replayed.find(key);
      if (other == nullptr || !(*other == value)) {
        push(key, value_repr(&value), value_repr(other));
      }
    }
    for (const auto& [key, value] : replayed.entries()) {
      if (mask_matches(options.mask, key)) continue;
      if (!recorded.has(key)) {
        push(key, value_repr(nullptr), value_repr(&value));
      }
    }
  };

  for (std::size_t index = 0; index < trace.frames.size(); ++index) {
    const TraceFrame& frame = trace.frames[index];
    if (frame.dir != TraceFrame::Dir::kIn) continue;
    const auto out_it = recorded_out.find(Key{frame.conn, frame.seq});
    const std::string* expected =
        out_it == recorded_out.end() ? nullptr : out_it->second;
    // Front-end rejections never reached a shard; replaying them would
    // mutate state the live session did not. Skip, tallied.
    if (expected != nullptr && is_rejection(*expected)) {
      ++result.skipped_rejections;
      continue;
    }
    std::string actual;
    bool delivered = false;
    const FrameResult answered = answer_frame(
        service, nullptr, tally, frame.conn, frame.seq, frame.line,
        [&actual, &delivered](const Request&, const obs::TraceContext&) {
          return [&actual, &delivered](const Response& response) {
            actual = format_response(response);
            delivered = true;
          };
        });
    if (answered.kind == FrameResult::Kind::kSkipped ||
        answered.kind == FrameResult::Kind::kRejected) {
      continue;
    }
    if (answered.kind == FrameResult::Kind::kParseError) {
      actual = answered.reply;
    } else {
      // Single-threaded drain, the stdio-session pattern: poll every shard
      // until the (possibly merged) response lands.
      while (!delivered && service.poll_once(std::chrono::nanoseconds{0})) {
      }
      if (!delivered) continue;  // should not happen; nothing to compare
      ++result.applied;
    }
    if (expected != nullptr) compare(index, frame, *expected, actual);
  }
  result.skipped_after_shutdown = tally.rejected;
  return result;
}

std::string format_diff(const FrameDiff& diff) {
  return "frame " + std::to_string(diff.frame_index) + " (conn " +
         std::to_string(diff.conn) + ", seq " + std::to_string(diff.seq) +
         ") field " + diff.field + ": recorded " + diff.recorded +
         " != replayed " + diff.replayed;
}

}  // namespace melody::svc
