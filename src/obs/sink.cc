#include "obs/sink.h"

#include <atomic>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.h"
#include "util/json.h"

namespace melody::obs {

JsonLinesSink::JsonLinesSink(const std::string& path)
    : owned_(path, std::ios::out | std::ios::trunc), out_(&owned_) {
  if (!owned_) {
    throw std::runtime_error("JsonLinesSink: cannot open " + path);
  }
}

JsonLinesSink::JsonLinesSink(std::ostream& out) : out_(&out) {}

void JsonLinesSink::event(std::string_view name,
                          std::span<const Field> fields) {
  // Format into a local buffer first so one event is always one contiguous
  // line even under concurrent emitters.
  std::string line = "{\"type\":\"event\",\"name\":";
  util::json::write_string(line, name);
  for (const Field& f : fields) {
    line.push_back(',');
    util::json::write_string(line, f.key);
    line.push_back(':');
    switch (f.kind) {
      case Field::Kind::kDouble:
        util::json::write_number(line, f.num);
        break;
      case Field::Kind::kInt:
        line += std::to_string(f.integer);
        break;
      case Field::Kind::kString:
        util::json::write_string(line, f.text);
        break;
    }
  }
  line += "}\n";

  std::lock_guard<std::mutex> lock(mutex_);
  *out_ << line;
  ++lines_;
}

void JsonLinesSink::append_registry(const MetricsRegistry& registry) {
  std::ostringstream dump;
  registry.write_json(dump);
  const std::string text = dump.str();
  std::size_t lines = 0;
  for (char c : text) {
    if (c == '\n') ++lines;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  *out_ << text;
  out_->flush();
  lines_ += lines;
}

std::size_t JsonLinesSink::lines_written() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lines_;
}

namespace {
std::atomic<Sink*> g_sink{nullptr};
}  // namespace

Sink* sink() noexcept { return g_sink.load(std::memory_order_relaxed); }

void set_sink(Sink* s) noexcept {
  g_sink.store(s, std::memory_order_release);
}

void emit(std::string_view name, std::initializer_list<Field> fields) {
  Sink* s = g_sink.load(std::memory_order_acquire);
  if (s == nullptr) return;
  s->event(name, std::span<const Field>(fields.begin(), fields.size()));
}

void emit(std::string_view name, std::span<const Field> fields) {
  Sink* s = g_sink.load(std::memory_order_acquire);
  if (s == nullptr) return;
  s->event(name, fields);
}

MetricsFile::MetricsFile(const std::string& path)
    : sink_(std::make_unique<JsonLinesSink>(path)) {
  set_sink(sink_.get());
  set_enabled(true);
}

MetricsFile::~MetricsFile() { finish(); }

void MetricsFile::finish() {
  if (finished_) return;
  finished_ = true;
  sink_->append_registry(registry());
  set_sink(nullptr);
  set_enabled(false);
}

}  // namespace melody::obs
