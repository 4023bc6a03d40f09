// The repository's one JSON codec: an insertion-ordered document model, a
// strict RFC 8259 parser, and the writers every text format goes through —
// wire lines (svc/wire.h), MLDYTRC traces, JSON-lines metric events
// (obs/sink.h) and the pretty-printed perf artifacts (perf/artifact.h).
//
// One number rule for every writer: an integral value with |v| < 2^53
// prints as integer digits, any other finite value as printf's %g at 17
// significant digits (so every finite double round-trips bit for bit, -0
// aside, which prints as 0), and a non-finite value prints as null. One
// string rule: raw UTF-8 passes through, '"', '\' and control bytes are
// escaped, and a \u escape must decode to ASCII.
//
// The parser is locale-free and rejects everything outside the grammar
// (hex, leading zeros, bare '.5'/'1.', '+1', NaN/Inf spellings, raw control
// bytes in strings, trailing garbage) and numbers that overflow a double,
// with one error type carrying the byte offset. Duplicate object keys keep
// the first key's position and the last value.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace melody::util::json {

/// The parser's only error: what went wrong, and where.
class ParseError : public std::runtime_error {
 public:
  ParseError(std::string_view what, std::size_t offset);
  std::size_t offset() const noexcept { return offset_; }

 private:
  std::size_t offset_;
};

class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  using Array = std::vector<Value>;
  using Members = std::vector<std::pair<std::string, Value>>;

  Value() = default;  // null
  static Value of(bool b);
  static Value of(double d);
  static Value of(std::int64_t i) { return of(static_cast<double>(i)); }
  static Value of(std::string s);
  /// Without this overload a string literal would convert to bool.
  static Value of(const char* s) { return of(std::string(s)); }
  /// An array of numbers.
  static Value of(const std::vector<double>& numbers);
  static Value array();
  static Value object();

  Kind kind() const noexcept { return kind_; }
  bool is_null() const noexcept { return kind_ == Kind::kNull; }
  bool is_bool() const noexcept { return kind_ == Kind::kBool; }
  bool is_number() const noexcept { return kind_ == Kind::kNumber; }
  bool is_string() const noexcept { return kind_ == Kind::kString; }
  bool is_array() const noexcept { return kind_ == Kind::kArray; }
  bool is_object() const noexcept { return kind_ == Kind::kObject; }

  /// Typed accessors; throw std::logic_error on a kind mismatch (callers
  /// check the kind first and report their own schema error).
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const Array& items() const;
  const Members& members() const;

  /// Object member by key, or nullptr when absent (or not an object).
  const Value* find(std::string_view key) const noexcept;

  /// Builders. set() replaces an existing key in place (order preserved).
  void push_back(Value v);
  void set(std::string key, Value v);

  bool operator==(const Value&) const = default;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array items_;
  Members members_;
};

/// Parse exactly one JSON document (surrounding whitespace allowed).
/// Throws ParseError.
Value parse(std::string_view text);

/// Append `s` as a quoted, escaped JSON string.
void write_string(std::string& out, std::string_view s);
/// Append `v` under the number rule above.
void write_number(std::string& out, double v);

/// Compact form: no whitespace, no trailing newline (one wire line).
std::string write(const Value& v);

/// The artifact layout: 2-space indent, one member per line, arrays of
/// scalars inline ("[1, 2]"), and a trailing newline.
std::string write_pretty(const Value& v);

}  // namespace melody::util::json
