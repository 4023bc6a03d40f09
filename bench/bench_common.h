// Shared helpers for the bench harness binaries. Each bench prints the
// rows/series the paper's corresponding table or figure reports, and
// mirrors them into CSV files next to the working directory (best-effort;
// printing is the source of truth).
//
// Reporter is the one CSV front door: it owns the writer, locks the column
// count to the header, and rejects malformed rows loudly (std::logic_error)
// instead of silently emitting ragged CSV that plotting scripts misread.
// With Options::metrics_sidecar it also enables the obs layer for the
// bench's lifetime and writes the collected metric summaries to
// "<stem>.metrics.json" (JSON-lines, same format as
// `melody_sim --metrics-json`) when the Reporter is destroyed.
#pragma once

#include <cstdio>
#include <filesystem>
#include <initializer_list>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "obs/metrics.h"
#include "obs/sink.h"
#include "util/csv.h"

namespace melody::bench {

/// Where a bench artifact lands: bare file names resolve into the ignored
/// "out/" directory (created on demand, best-effort) so generated CSVs and
/// metric sidecars never litter the repo root; a name that already carries
/// a directory is used as given.
inline std::string artifact_path(const std::string& name) {
  if (name.find('/') != std::string::npos) return name;
  std::error_code ec;
  std::filesystem::create_directories("out", ec);  // failure -> CsvWriter
                                                   // reports, mirror off
  return "out/" + name;
}

/// CSV mirror for one figure/table. Construction opens the file and writes
/// the header; an unwritable working directory disables the mirror (a note
/// goes to stderr, the bench keeps printing) but row-shape validation still
/// runs so a bad bench fails the same way everywhere.
class Reporter {
 public:
  struct Options {
    /// Enable the obs layer and write "<stem>.metrics.json" next to the
    /// CSV when the Reporter goes out of scope.
    bool metrics_sidecar = false;
  };

  Reporter(const std::string& csv_name,
           std::initializer_list<std::string_view> header)
      : Reporter(csv_name, header, Options{}) {}

  Reporter(const std::string& csv_name,
           std::initializer_list<std::string_view> header, Options options)
      : columns_(header.size()) {
    if (columns_ == 0) {
      throw std::logic_error("bench::Reporter: empty header for " + csv_name);
    }
    const std::string resolved = artifact_path(csv_name);
    try {
      csv_ = std::make_unique<util::CsvWriter>(resolved);
      csv_->write_row(header);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "note: CSV mirror disabled (%s)\n", e.what());
      csv_ = nullptr;
    }
    if (options.metrics_sidecar) {
      const std::string stem = resolved.size() >= 4 &&
                                       resolved.ends_with(".csv")
                                   ? resolved.substr(0, resolved.size() - 4)
                                   : resolved;
      try {
        sink_ = std::make_unique<obs::JsonLinesSink>(stem + ".metrics.json");
        obs::set_sink(sink_.get());
        obs::set_enabled(true);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "note: metrics sidecar disabled (%s)\n",
                     e.what());
        sink_ = nullptr;
      }
    }
  }

  Reporter(const Reporter&) = delete;
  Reporter& operator=(const Reporter&) = delete;

  ~Reporter() {
    if (sink_ != nullptr) {
      sink_->append_registry(obs::registry());
      obs::set_sink(nullptr);
      obs::set_enabled(false);
    }
  }

  /// True when the CSV mirror is actually being written.
  bool active() const noexcept { return csv_ != nullptr; }

  const std::string& path() const {
    static const std::string kNone;
    return csv_ != nullptr ? csv_->path() : kNone;
  }

  void row(std::initializer_list<std::string_view> cells) {
    check_shape(cells.size());
    if (csv_ != nullptr) csv_->write_row(cells);
  }

  void row(const std::vector<std::string>& cells) {
    check_shape(cells.size());
    if (csv_ != nullptr) csv_->write_row(cells);
  }

  void numeric_row(std::initializer_list<double> cells) {
    check_shape(cells.size());
    if (csv_ != nullptr) csv_->write_numeric_row(cells);
  }

  void numeric_row(const std::vector<double>& cells) {
    check_shape(cells.size());
    if (csv_ != nullptr) csv_->write_numeric_row(cells);
  }

 private:
  void check_shape(std::size_t got) const {
    if (got != columns_) {
      throw std::logic_error("bench::Reporter: row has " +
                             std::to_string(got) + " cells, header has " +
                             std::to_string(columns_));
    }
  }

  std::size_t columns_;
  std::unique_ptr<util::CsvWriter> csv_;
  std::unique_ptr<obs::JsonLinesSink> sink_;
};

inline void banner(const char* title) {
  std::printf("\n######## %s ########\n\n", title);
}

}  // namespace melody::bench
