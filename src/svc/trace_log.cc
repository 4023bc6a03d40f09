#include "svc/trace_log.h"

#include <cstdio>
#include <fstream>
#include <istream>
#include <sstream>
#include <stdexcept>

#include "svc/protocol.h"

namespace melody::svc {

namespace {

WireValue of_int(std::int64_t v) { return WireValue::of(v); }

}  // namespace

TraceRecorder::TraceRecorder(std::string path) : path_(std::move(path)) {
  owned_.open(path_ + ".tmp", std::ios::out | std::ios::trunc);
  if (!owned_) {
    throw std::runtime_error("trace: cannot open " + path_ + ".tmp");
  }
  out_ = &owned_;
}

TraceRecorder::TraceRecorder(std::ostream& out) : out_(&out) {}

TraceRecorder::~TraceRecorder() {
  try {
    finish();
  } catch (...) {
    // Destruction must not throw; an unpublished .tmp is the failure mode.
  }
}

void TraceRecorder::begin_session(const ServiceConfig& config,
                                  const std::string& resume_path) {
  WireObject header;
  header.set("magic", WireValue::of("MLDYTRC"));
  header.set("version", of_int(kTraceVersion));
  header.set("proto", of_int(kProtoVersion));
  // One string per flag, keyed by flag name: config_from_trace feeds them
  // back through ServiceConfig::from_flags.
  for (const std::string& flag : config.to_flags()) {
    const std::size_t equals = flag.find('=');
    header.set(flag.substr(2, equals - 2),
               WireValue::of(flag.substr(equals + 1)));
  }
  const std::string& resume =
      resume_path.empty() ? resume_path_ : resume_path;
  if (!resume.empty()) {
    header.set("resume", WireValue::of(resume));
  }
  write_line(header);
}

void TraceRecorder::record_in(std::uint64_t conn, std::uint64_t seq,
                              std::string_view line, int shard,
                              std::uint64_t span) {
  WireObject frame;
  frame.set("dir", WireValue::of("in"));
  frame.set("conn", of_int(static_cast<std::int64_t>(conn)));
  frame.set("seq", of_int(static_cast<std::int64_t>(seq)));
  frame.set("shard", of_int(shard));
  if (span != 0) frame.set("span", of_int(static_cast<std::int64_t>(span)));
  frame.set("frame", WireValue::of(std::string(line)));
  write_line(frame);
}

void TraceRecorder::record_out(std::uint64_t conn, std::uint64_t seq,
                               std::string_view line) {
  WireObject frame;
  frame.set("dir", WireValue::of("out"));
  frame.set("conn", of_int(static_cast<std::int64_t>(conn)));
  frame.set("seq", of_int(static_cast<std::int64_t>(seq)));
  frame.set("frame", WireValue::of(std::string(line)));
  write_line(frame);
}

void TraceRecorder::write_line(const WireObject& object) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (finished_ || out_ == nullptr) return;
  *out_ << format_wire(object) << '\n';
  if (object.has("dir")) ++frames_;
}

void TraceRecorder::finish() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (finished_) return;
  finished_ = true;
  if (out_ != nullptr) out_->flush();
  if (path_.empty()) return;
  owned_.close();
  if (owned_.fail()) {
    throw std::runtime_error("trace: write failure on " + path_ + ".tmp");
  }
  if (std::rename((path_ + ".tmp").c_str(), path_.c_str()) != 0) {
    throw std::runtime_error("trace: cannot rename " + path_ + ".tmp to " +
                             path_);
  }
}

std::size_t TraceRecorder::frames() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return frames_;
}

TraceFile parse_trace(std::istream& in) {
  TraceFile trace;
  std::string line;
  bool have_header = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const WireObject object = parse_wire(line);
    if (!have_header) {
      if (object.text_or("magic", "") != "MLDYTRC") {
        throw std::runtime_error("trace: missing MLDYTRC header");
      }
      const auto version = static_cast<int>(object.number_or("version", 0));
      if (version != kTraceVersion) {
        throw std::runtime_error("MLDYTRC: unsupported version " +
                                 std::to_string(version) +
                                 " (this build reads " +
                                 std::to_string(kTraceVersion) + ")");
      }
      trace.header = object;
      have_header = true;
      continue;
    }
    TraceFrame frame;
    const std::string& dir = object.text("dir");
    if (dir == "in") {
      frame.dir = TraceFrame::Dir::kIn;
    } else if (dir == "out") {
      frame.dir = TraceFrame::Dir::kOut;
    } else {
      throw std::runtime_error("trace: bad frame direction '" + dir + "'");
    }
    frame.conn = static_cast<std::uint64_t>(object.number("conn"));
    frame.seq = static_cast<std::uint64_t>(object.number("seq"));
    frame.shard = static_cast<int>(object.number_or("shard", kShardNone));
    frame.span = static_cast<std::uint64_t>(object.number_or("span", 0));
    frame.line = object.text("frame");
    trace.frames.push_back(std::move(frame));
  }
  if (!have_header) {
    throw std::runtime_error("trace: empty file (no MLDYTRC header)");
  }
  return trace;
}

TraceFile read_trace(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("trace: cannot open " + path);
  return parse_trace(in);
}

}  // namespace melody::svc
