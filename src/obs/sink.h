// Structured event stream for per-run tracing: a pluggable Sink interface
// (no sink by default — a null global sink pointer drops every event) and a
// JSON-lines sink for tools (`melody_sim --metrics-json`).
//
// Events are flat (name + typed key/value fields) and are emitted from the
// orchestration layer only — Platform::step's per-run record, auction-level
// summaries — never from sharded inner loops, so the emission order is the
// deterministic main-thread order regardless of thread count. Sinks must
// nevertheless be thread-safe: benches may drive several platforms at once.
#pragma once

#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <ostream>
#include <span>
#include <string>
#include <string_view>

namespace melody::obs {

class MetricsRegistry;

/// One key/value field of a structured event. The value is a double, an
/// integer, or a string; integers keep run indices and counts exact in the
/// JSON output. Fields hold views — they are only valid for the duration of
/// the emit() call that carries them.
struct Field {
  enum class Kind { kDouble, kInt, kString };

  std::string_view key;
  Kind kind = Kind::kDouble;
  double num = 0.0;
  std::int64_t integer = 0;
  std::string_view text{};

  /// Default: an empty-key double 0 — a placeholder slot for fixed-size
  /// field arrays (obs/trace.h builds span events this way).
  Field() = default;
  Field(std::string_view k, double v) : key(k), kind(Kind::kDouble), num(v) {}
  Field(std::string_view k, std::int64_t v)
      : key(k), kind(Kind::kInt), integer(v) {}
  Field(std::string_view k, int v)
      : key(k), kind(Kind::kInt), integer(v) {}
  Field(std::string_view k, std::size_t v)
      : key(k), kind(Kind::kInt), integer(static_cast<std::int64_t>(v)) {}
  Field(std::string_view k, std::string_view v)
      : key(k), kind(Kind::kString), text(v) {}
  Field(std::string_view k, const char* v)
      : key(k), kind(Kind::kString), text(v) {}
};

/// Receiver of structured events. Implementations must tolerate concurrent
/// event() calls.
class Sink {
 public:
  virtual ~Sink() = default;
  virtual void event(std::string_view name, std::span<const Field> fields) = 0;
};

/// Writes one JSON object per event line:
///   {"type":"event","name":"platform/run","run":3,"assignments":17,...}
/// plus, via append_registry(), the metric summary lines documented in
/// MetricsRegistry::write_json. Writes are serialized by an internal mutex.
class JsonLinesSink final : public Sink {
 public:
  /// Opens (truncates) `path`; throws std::runtime_error on failure.
  explicit JsonLinesSink(const std::string& path);
  /// Borrows an existing stream (tests); the stream must outlive the sink.
  explicit JsonLinesSink(std::ostream& out);

  void event(std::string_view name, std::span<const Field> fields) override;

  /// Append every metric of `registry` as JSON lines (the end-of-run dump).
  void append_registry(const MetricsRegistry& registry);

  /// Lines written so far (events + registry lines).
  std::size_t lines_written() const;

 private:
  mutable std::mutex mutex_;
  std::ofstream owned_;
  std::ostream* out_;
  std::size_t lines_ = 0;
};

/// Process-wide event sink. Null by default (events are dropped for free);
/// the pointer is borrowed and must outlive its installation. Reset to
/// nullptr before destroying the sink.
Sink* sink() noexcept;
void set_sink(Sink* sink) noexcept;

/// Emit through the global sink; no-op (one relaxed load) when none is set.
void emit(std::string_view name, std::initializer_list<Field> fields);

/// Same, for callers that build their field set dynamically (span events).
void emit(std::string_view name, std::span<const Field> fields);

/// Installs a sink for the current scope and restores the previous one on
/// destruction (tests, tools).
class ScopedSink {
 public:
  explicit ScopedSink(Sink* s) noexcept : previous_(sink()) { set_sink(s); }
  ~ScopedSink() { set_sink(previous_); }
  ScopedSink(const ScopedSink&) = delete;
  ScopedSink& operator=(const ScopedSink&) = delete;

 private:
  Sink* previous_;
};

/// A tool's metrics file (--metrics-json, bench metric sidecars): opens a
/// JsonLinesSink on `path` (throwing as the sink does), installs it and
/// enables obs. finish(), or else the destructor, appends the registry,
/// uninstalls the sink and disables obs, once.
class MetricsFile {
 public:
  explicit MetricsFile(const std::string& path);
  ~MetricsFile();
  MetricsFile(const MetricsFile&) = delete;
  MetricsFile& operator=(const MetricsFile&) = delete;

  void finish();
  std::size_t lines_written() const { return sink_->lines_written(); }

 private:
  std::unique_ptr<JsonLinesSink> sink_;
  bool finished_ = false;
};

}  // namespace melody::obs
