#include "util/flags.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "util/build_info.h"

namespace melody::util {

namespace {

constexpr const char* kVersionDoc =
    "print the build sha and format versions, then exit";

std::string render_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%g", value);
  return buffer;
}

}  // namespace

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    if (body.empty() || body.front() == '-') {
      throw std::invalid_argument("Flags: malformed flag " + arg);
    }
    const auto equals = body.find('=');
    std::string name;
    std::string value;
    if (equals != std::string::npos) {
      name = body.substr(0, equals);
      value = body.substr(equals + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      // "--key value" when the next token is not itself a flag; otherwise a
      // bare switch.
      name = body;
      value = argv[++i];
    } else {
      name = body;
      value = "true";
    }
    if (!values_.emplace(name, std::move(value)).second) {
      throw std::invalid_argument("Flags: duplicate flag --" + name);
    }
  }
}

bool Flags::has(const std::string& name) const {
  queried_[name] = true;
  return values_.count(name) > 0;
}

std::string Flags::get_string(const std::string& name,
                              const std::string& fallback) const {
  queried_[name] = true;
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Flags::get_int(const std::string& name,
                            std::int64_t fallback) const {
  queried_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  try {
    std::size_t consumed = 0;
    const std::int64_t value = std::stoll(it->second, &consumed);
    if (consumed != it->second.size()) throw std::invalid_argument(it->second);
    return value;
  } catch (const std::exception&) {
    throw std::invalid_argument("Flags: --" + name + " expects an integer, got '" +
                                it->second + "'");
  }
}

double Flags::get_double(const std::string& name, double fallback) const {
  queried_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  try {
    std::size_t consumed = 0;
    const double value = std::stod(it->second, &consumed);
    if (consumed != it->second.size()) throw std::invalid_argument(it->second);
    return value;
  } catch (const std::exception&) {
    throw std::invalid_argument("Flags: --" + name + " expects a number, got '" +
                                it->second + "'");
  }
}

bool Flags::get_bool(const std::string& name, bool fallback) const {
  queried_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  if (it->second == "true" || it->second == "1" || it->second == "yes") {
    return true;
  }
  if (it->second == "false" || it->second == "0" || it->second == "no") {
    return false;
  }
  throw std::invalid_argument("Flags: --" + name + " expects a boolean, got '" +
                              it->second + "'");
}

std::string Flags::get_string(const std::string& name,
                              const std::string& fallback,
                              const std::string& hint,
                              const std::string& description) const {
  document(name, hint, description,
           fallback.empty() ? "" : "\"" + fallback + "\"");
  return get_string(name, fallback);
}

std::int64_t Flags::get_int(const std::string& name, std::int64_t fallback,
                            const std::string& hint,
                            const std::string& description) const {
  document(name, hint, description, std::to_string(fallback));
  return get_int(name, fallback);
}

double Flags::get_double(const std::string& name, double fallback,
                         const std::string& hint,
                         const std::string& description) const {
  document(name, hint, description, render_double(fallback));
  return get_double(name, fallback);
}

bool Flags::get_bool(const std::string& name, bool fallback,
                     const std::string& hint,
                     const std::string& description) const {
  document(name, hint, description, fallback ? "true" : "false");
  return get_bool(name, fallback);
}

bool Flags::has_switch(const std::string& name,
                       const std::string& description) const {
  document(name, "", description, "");
  return get_bool(name, false);
}

void Flags::document(const std::string& name, const std::string& hint,
                     const std::string& description,
                     const std::string& rendered_default) const {
  const bool known =
      std::any_of(docs_.begin(), docs_.end(),
                  [&name](const Doc& d) { return d.name == name; });
  if (!known) docs_.push_back(Doc{name, hint, description, rendered_default});
}

std::string Flags::help(const std::string& program,
                        const std::string& summary) const {
  std::vector<Doc> docs = docs_;
  docs.push_back(Doc{"help", "", "show this message and exit", ""});

  std::string text = "usage: " + program + " [flags]\n";
  if (!summary.empty()) text += "  " + summary + "\n";
  text += "\nflags:\n";
  std::size_t width = 0;
  const auto label = [](const Doc& d) {
    return "--" + d.name + (d.hint.empty() ? "" : " " + d.hint);
  };
  for (const Doc& d : docs) width = std::max(width, label(d).size());
  for (const Doc& d : docs) {
    std::string line = "  " + label(d);
    line.append(width + 4 - (line.size() - 2), ' ');
    line += d.description;
    if (!d.rendered_default.empty()) {
      line += " (default " + d.rendered_default + ")";
    }
    text += line + "\n";
  }
  return text;
}

std::vector<std::string> Flags::unused() const {
  std::vector<std::string> names;
  for (const auto& [name, value] : values_) {
    if (!queried_.count(name)) names.push_back(name);
  }
  return names;
}

std::optional<int> CommandLineBase::parse(int argc,
                                          const char* const* argv) {
  try {
    flags_ = Flags(argc, argv);
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  if (flags_.has("help")) {
    std::fputs(help().c_str(), stderr);
    return 0;
  }
  try {
    read(flags_);
    if (flags_.has_switch("version", kVersionDoc)) {
      std::printf("%s\n", build_info_line(program_).c_str());
      return 0;
    }
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  if (const auto unknown = flags_.unused(); !unknown.empty()) {
    return usage("unknown flag --" + unknown.front());
  }
  if (!flags_.positional().empty()) {
    return usage(program_ + " takes no positional arguments");
  }
  return std::nullopt;
}

int CommandLineBase::usage(const std::string& error) const {
  std::fputs(help().c_str(), stderr);
  std::fprintf(stderr, "\nerror: %s\n", error.c_str());
  return usage_code_;
}

std::string CommandLineBase::help() const {
  const Flags empty;
  document(empty);
  empty.has_switch("version", kVersionDoc);
  return empty.help(program_, summary_);
}

}  // namespace melody::util
