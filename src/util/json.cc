#include "util/json.h"

#include <charconv>
#include <cmath>
#include <system_error>

namespace melody::util::json {

ParseError::ParseError(std::string_view what, std::size_t offset)
    : std::runtime_error(std::string(what) + " at offset " +
                         std::to_string(offset)),
      offset_(offset) {}

Value Value::of(bool b) {
  Value v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

Value Value::of(double d) {
  Value v;
  v.kind_ = Kind::kNumber;
  v.number_ = d;
  return v;
}

Value Value::of(std::string s) {
  Value v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

Value Value::of(const std::vector<double>& numbers) {
  Value v = array();
  v.items_.reserve(numbers.size());
  for (const double d : numbers) v.items_.push_back(of(d));
  return v;
}

Value Value::array() {
  Value v;
  v.kind_ = Kind::kArray;
  return v;
}

Value Value::object() {
  Value v;
  v.kind_ = Kind::kObject;
  return v;
}

namespace {

[[noreturn]] void kind_mismatch(const char* wanted) {
  throw std::logic_error(std::string("json: value is not ") + wanted);
}

}  // namespace

bool Value::as_bool() const {
  if (kind_ != Kind::kBool) kind_mismatch("a bool");
  return bool_;
}

double Value::as_number() const {
  if (kind_ != Kind::kNumber) kind_mismatch("a number");
  return number_;
}

const std::string& Value::as_string() const {
  if (kind_ != Kind::kString) kind_mismatch("a string");
  return string_;
}

const Value::Array& Value::items() const {
  if (kind_ != Kind::kArray) kind_mismatch("an array");
  return items_;
}

const Value::Members& Value::members() const {
  if (kind_ != Kind::kObject) kind_mismatch("an object");
  return members_;
}

const Value* Value::find(std::string_view key) const noexcept {
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

void Value::push_back(Value v) {
  if (kind_ != Kind::kArray) kind_mismatch("an array");
  items_.push_back(std::move(v));
}

void Value::set(std::string key, Value v) {
  if (kind_ != Kind::kObject) kind_mismatch("an object");
  for (auto& [k, existing] : members_) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  members_.emplace_back(std::move(key), std::move(v));
}

namespace {

// Nesting bound: the parser recurses per container, so hostile input like
// "[[[[..." must not be able to exhaust the stack. Every document the repo
// writes nests at most five deep.
constexpr int kMaxDepth = 64;

bool is_digit(char c) { return c >= '0' && c <= '9'; }

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value run() {
    skip_ws();
    Value value = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return value;
  }

 private:
  [[noreturn]] void fail(std::string_view what) const { fail_at(what, pos_); }
  [[noreturn]] static void fail_at(std::string_view what, std::size_t at) {
    throw ParseError(what, at);
  }

  bool at_end() const { return pos_ >= text_.size(); }
  char peek() const { return at_end() ? '\0' : text_[pos_]; }

  bool consume(char c) {
    if (at_end() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  void expect(char c) {
    if (!consume(c)) fail(std::string("expected '") + c + "'");
  }

  void skip_ws() {
    while (!at_end() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                         text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  void skip_digits() {
    while (is_digit(peek())) ++pos_;
  }

  void literal(std::string_view word) {
    if (text_.compare(pos_, word.size(), word) != 0) fail("bad literal");
    pos_ += word.size();
  }

  Value parse_value(int depth) {
    if (at_end()) fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        return parse_object(depth + 1);
      case '[':
        return parse_array(depth + 1);
      case '"':
        return Value::of(parse_string());
      case 't':
        literal("true");
        return Value::of(true);
      case 'f':
        literal("false");
        return Value::of(false);
      case 'n':
        literal("null");
        return Value();
      default:
        if (text_[pos_] == '-' || is_digit(text_[pos_])) {
          return Value::of(parse_number());
        }
        fail("unexpected character");
    }
  }

  Value parse_object(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    expect('{');
    Value object = Value::object();
    skip_ws();
    if (consume('}')) return object;
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      object.set(std::move(key), parse_value(depth));
      skip_ws();
      if (consume('}')) return object;
      if (!consume(',')) fail("expected ',' or '}'");
    }
  }

  Value parse_array(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    expect('[');
    Value array = Value::array();
    skip_ws();
    if (consume(']')) return array;
    for (;;) {
      skip_ws();
      array.push_back(parse_value(depth));
      skip_ws();
      if (consume(']')) return array;
      if (!consume(',')) fail("expected ',' or ']'");
    }
  }

  // RFC 8259: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, converted by
  // from_chars (locale-free, correctly rounded).
  double parse_number() {
    const std::size_t start = pos_;
    consume('-');
    if (!consume('0')) {
      if (!is_digit(peek())) fail_at("bad number", start);
      skip_digits();
    }
    if (consume('.')) {
      if (!is_digit(peek())) fail_at("bad number", start);
      skip_digits();
    }
    if (consume('e') || consume('E')) {
      if (!consume('+')) consume('-');
      if (!is_digit(peek())) fail_at("bad number", start);
      skip_digits();
    }
    double value = 0.0;
    const char* end = text_.data() + pos_;
    const auto [stop, ec] = std::from_chars(text_.data() + start, end, value);
    if (ec == std::errc::result_out_of_range) {
      fail_at("number out of range", start);
    }
    if (ec != std::errc{} || stop != end) fail_at("bad number", start);
    return value;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      const std::size_t run = pos_;
      while (!at_end() && text_[pos_] != '"' && text_[pos_] != '\\' &&
             static_cast<unsigned char>(text_[pos_]) >= 0x20) {
        ++pos_;
      }
      out.append(text_, run, pos_ - run);
      if (at_end()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') fail_at("control character in string", pos_ - 1);
      if (at_end()) fail("unterminated string");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': out.push_back(parse_ascii_escape()); break;
        default: fail_at("bad escape", pos_ - 1);
      }
    }
  }

  // The four hex digits after "\u". Writers only escape control bytes, so
  // an escape must decode to ASCII; anything above 0x7f is rejected rather
  // than transcoded.
  char parse_ascii_escape() {
    const std::size_t start = pos_ - 2;
    unsigned code = 0;
    for (int k = 0; k < 4; ++k) {
      const char h = peek();
      unsigned digit = 0;
      if (is_digit(h)) {
        digit = static_cast<unsigned>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        digit = static_cast<unsigned>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        digit = static_cast<unsigned>(h - 'A' + 10);
      } else {
        fail("bad \\u escape");
      }
      code = code * 16 + digit;
      ++pos_;
    }
    if (code > 0x7f) fail_at("non-ASCII \\u escape", start);
    return static_cast<char>(code);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

void write_compact(std::string& out, const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kNull:
      out += "null";
      break;
    case Value::Kind::kBool:
      out += v.as_bool() ? "true" : "false";
      break;
    case Value::Kind::kNumber:
      write_number(out, v.as_number());
      break;
    case Value::Kind::kString:
      write_string(out, v.as_string());
      break;
    case Value::Kind::kArray: {
      out.push_back('[');
      bool first = true;
      for (const Value& item : v.items()) {
        if (!first) out.push_back(',');
        first = false;
        write_compact(out, item);
      }
      out.push_back(']');
      break;
    }
    case Value::Kind::kObject: {
      out.push_back('{');
      bool first = true;
      for (const auto& [key, value] : v.members()) {
        if (!first) out.push_back(',');
        first = false;
        write_string(out, key);
        out.push_back(':');
        write_compact(out, value);
      }
      out.push_back('}');
      break;
    }
  }
}

void write_pretty(std::string& out, const Value& v, int indent) {
  const auto newline = [&out](int level) {
    out.push_back('\n');
    out.append(static_cast<std::size_t>(level) * 2, ' ');
  };
  if (v.is_array() && !v.items().empty()) {
    const Value::Array& items = v.items();
    bool flat = true;
    for (const Value& item : items) {
      if (item.is_array() || item.is_object()) flat = false;
    }
    out.push_back('[');
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (flat) {
        if (i > 0) out += ", ";
        write_compact(out, items[i]);
      } else {
        newline(indent + 1);
        write_pretty(out, items[i], indent + 1);
        if (i + 1 < items.size()) out.push_back(',');
      }
    }
    if (!flat) newline(indent);
    out.push_back(']');
  } else if (v.is_object() && !v.members().empty()) {
    const Value::Members& members = v.members();
    out.push_back('{');
    for (std::size_t i = 0; i < members.size(); ++i) {
      newline(indent + 1);
      write_string(out, members[i].first);
      out += ": ";
      write_pretty(out, members[i].second, indent + 1);
      if (i + 1 < members.size()) out.push_back(',');
    }
    newline(indent);
    out.push_back('}');
  } else {
    write_compact(out, v);
  }
}

}  // namespace

Value parse(std::string_view text) { return Parser(text).run(); }

void write_string(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += "\\u00";
          out.push_back(kHex[(c >> 4) & 0xF]);
          out.push_back(kHex[c & 0xF]);
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void write_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  // to_chars in general format at precision 17 is printf's %g at that
  // precision in the C locale, without the locale.
  char buf[32];
  const std::to_chars_result r =
      v == std::floor(v) && std::fabs(v) < 9007199254740992.0  // 2^53
          ? std::to_chars(buf, buf + sizeof buf, static_cast<long long>(v))
          : std::to_chars(buf, buf + sizeof buf, v,
                          std::chars_format::general, 17);
  out.append(buf, r.ptr);
}

std::string write(const Value& v) {
  std::string out;
  write_compact(out, v);
  return out;
}

std::string write_pretty(const Value& v) {
  std::string out;
  write_pretty(out, v, 0);
  out.push_back('\n');
  return out;
}

}  // namespace melody::util::json
