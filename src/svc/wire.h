// The service's line format: one flat JSON object per line, on top of the
// util/json codec. Values are strings, numbers, booleans, null, or arrays
// of numbers — exactly what the request/response schema needs, and
// nothing the protocol would have to guess about (no nested objects, no
// mixed arrays).
//
// A line outside that subset becomes a WireError carrying the reason (and
// the byte offset, for a JSON syntax error), so a malformed client line
// becomes a clean protocol error instead of a half-parsed request.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.h"

namespace melody::svc {

class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One value of the wire subset.
using WireValue = util::json::Value;

/// An ordered flat object: insertion order is preserved so formatted lines
/// are deterministic and human-diffable.
class WireObject {
 public:
  void set(std::string key, WireValue value);
  bool has(std::string_view key) const noexcept;
  /// The value under `key`, or nullptr when absent.
  const WireValue* find(std::string_view key) const noexcept;

  /// Typed getters throw WireError on a missing key or a kind mismatch;
  /// the *_or forms return the fallback on a missing key but still throw
  /// on a present key of the wrong kind (a typed client bug, not absence).
  double number(std::string_view key) const;
  double number_or(std::string_view key, double fallback) const;
  bool boolean_or(std::string_view key, bool fallback) const;
  const std::string& text(std::string_view key) const;
  std::string text_or(std::string_view key, std::string fallback) const;
  std::vector<double> number_list(std::string_view key) const;

  const WireValue::Members& entries() const noexcept;

  bool operator==(const WireObject&) const = default;

 private:
  friend WireObject parse_wire(std::string_view line);
  friend std::string format_wire(const WireObject& object);

  WireValue object_ = WireValue::object();
};

/// Parse one line holding exactly one flat JSON object (surrounding
/// whitespace allowed, trailing garbage rejected). Throws WireError.
WireObject parse_wire(std::string_view line);

/// Format as a single JSON line (no trailing newline) under the codec's
/// number rule: integral values print without a decimal point so ids and
/// counts stay exact and readable, and a non-finite value prints as null.
std::string format_wire(const WireObject& object);

}  // namespace melody::svc
