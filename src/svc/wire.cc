#include "svc/wire.h"

namespace melody::svc {

namespace {

[[noreturn]] void field_error(std::string_view key, std::string_view what) {
  throw WireError("wire: field " + std::string(key) + " " + std::string(what));
}

// The typed getters' shared lookup: the value of `kind` under `key`, or
// nullptr when absent; a present value of another kind is a client error.
const WireValue* typed(const WireObject& object, std::string_view key,
                       WireValue::Kind kind, std::string_view mismatch) {
  const WireValue* v = object.find(key);
  if (v != nullptr && v->kind() != kind) field_error(key, mismatch);
  return v;
}

const WireValue& required(const WireObject& object, std::string_view key,
                          WireValue::Kind kind, std::string_view mismatch) {
  const WireValue* v = typed(object, key, kind, mismatch);
  if (v == nullptr) throw WireError("wire: missing field " + std::string(key));
  return *v;
}

}  // namespace

void WireObject::set(std::string key, WireValue value) {
  object_.set(std::move(key), std::move(value));
}

const WireValue* WireObject::find(std::string_view key) const noexcept {
  return object_.find(key);
}

bool WireObject::has(std::string_view key) const noexcept {
  return find(key) != nullptr;
}

const WireValue::Members& WireObject::entries() const noexcept {
  return object_.members();
}

double WireObject::number(std::string_view key) const {
  return required(*this, key, WireValue::Kind::kNumber, "is not a number")
      .as_number();
}

double WireObject::number_or(std::string_view key, double fallback) const {
  const WireValue* v =
      typed(*this, key, WireValue::Kind::kNumber, "is not a number");
  return v == nullptr ? fallback : v->as_number();
}

bool WireObject::boolean_or(std::string_view key, bool fallback) const {
  const WireValue* v =
      typed(*this, key, WireValue::Kind::kBool, "is not a boolean");
  return v == nullptr ? fallback : v->as_bool();
}

const std::string& WireObject::text(std::string_view key) const {
  return required(*this, key, WireValue::Kind::kString, "is not a string")
      .as_string();
}

std::string WireObject::text_or(std::string_view key,
                                std::string fallback) const {
  const WireValue* v =
      typed(*this, key, WireValue::Kind::kString, "is not a string");
  return v == nullptr ? fallback : v->as_string();
}

std::vector<double> WireObject::number_list(std::string_view key) const {
  const WireValue& list = required(*this, key, WireValue::Kind::kArray,
                                   "is not a number array");
  std::vector<double> numbers;
  numbers.reserve(list.items().size());
  for (const WireValue& item : list.items()) {
    numbers.push_back(item.as_number());
  }
  return numbers;
}

WireObject parse_wire(std::string_view line) {
  WireObject object;
  try {
    object.object_ = util::json::parse(line);
  } catch (const util::json::ParseError& e) {
    throw WireError(std::string("wire: ") + e.what());
  }
  if (!object.object_.is_object()) {
    throw WireError("wire: expected a flat object");
  }
  for (const auto& [key, value] : object.object_.members()) {
    if (value.is_object()) field_error(key, "is a nested object");
    if (value.is_array()) {
      for (const WireValue& item : value.items()) {
        if (!item.is_number()) field_error(key, "is not a number array");
      }
    }
  }
  return object;
}

std::string format_wire(const WireObject& object) {
  return util::json::write(object.object_);
}

}  // namespace melody::svc
