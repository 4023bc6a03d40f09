// Minimal command-line flag parser for the tools/ binaries.
// Supports --key=value, --key value, and bare --switch (value "true");
// positional arguments are collected in order. No registration step: the
// caller queries typed getters with defaults.
//
// Self-documenting variant: every getter has an overload taking a value
// hint and a description. Those calls register the flag (in call order)
// into the instance's documentation table, and help() renders a usage
// message from it. A tool that funnels all its getter calls through one
// read_options(Flags&) function can print help by running that function
// over an empty Flags instance — the help text is generated from the same
// calls that parse, so the two can never drift apart.
//
// CommandLine<Options> is the front door every tool shares: it parses argv,
// answers --help and --version, refuses unknown flags and positional
// arguments, and prints the one usage text for the tool's own checks.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace melody::util {

class Flags {
 public:
  /// Parse argv (argv[0] is skipped). Throws std::invalid_argument on a
  /// malformed flag (e.g. "---x" or empty flag name) or on a flag given
  /// more than once (in any mix of --k=v / --k v forms): a silently ignored
  /// repeat almost always means the caller edited the wrong occurrence.
  Flags(int argc, const char* const* argv);

  /// An empty instance (nothing set): run the tool's read_options over one
  /// to collect documentation for help().
  Flags() = default;

  bool has(const std::string& name) const;

  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  /// Documenting overloads: identical parse behavior, but also register
  /// --name under `hint` (e.g. "N", "PATH"; empty for switches) with the
  /// given description and the rendered default for help().
  std::string get_string(const std::string& name, const std::string& fallback,
                         const std::string& hint,
                         const std::string& description) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback,
                       const std::string& hint,
                       const std::string& description) const;
  double get_double(const std::string& name, double fallback,
                    const std::string& hint,
                    const std::string& description) const;
  bool get_bool(const std::string& name, bool fallback,
                const std::string& hint,
                const std::string& description) const;
  /// Documented switch (no default shown): a bare --name is true, and an
  /// explicit value parses as get_bool does (--name=false is off).
  bool has_switch(const std::string& name,
                  const std::string& description) const;

  /// Register documentation without querying (rarely needed directly; the
  /// documenting getters call this). First registration of a name wins.
  void document(const std::string& name, const std::string& hint,
                const std::string& description,
                const std::string& rendered_default) const;

  /// Usage text generated from every documented flag, in registration
  /// order, e.g. help("melody_serve", "Serve the auction runtime.").
  /// A trailing "--help" entry is appended automatically.
  std::string help(const std::string& program,
                   const std::string& summary) const;

  const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// Names of flags that were set but never queried — call after all
  /// getters to reject typos. (Queries are tracked per Flags instance.)
  std::vector<std::string> unused() const;

 private:
  struct Doc {
    std::string name;
    std::string hint;
    std::string description;
    std::string rendered_default;
  };

  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> queried_;
  mutable std::vector<Doc> docs_;  // registration order
  std::vector<std::string> positional_;
};

/// The command-line prologue of a tool, independent of its options type;
/// use it through CommandLine<Options>.
class CommandLineBase {
 public:
  /// Parse argv and answer what every tool answers alike, in this order:
  /// a malformed or repeated flag prints usage and returns the usage code;
  /// --help prints the help text and returns 0; an error thrown while
  /// reading the options prints usage and returns the usage code;
  /// --version prints util::build_info_line(program) and returns 0; an
  /// unknown flag or a positional argument prints usage and returns the
  /// usage code. nullopt: the command line is well formed and the tool
  /// goes on.
  std::optional<int> parse(int argc, const char* const* argv);

  /// Print the help text and "error: <error>" to stderr; returns the usage
  /// code (the exit status of a refused command line).
  int usage(const std::string& error) const;

  /// The parsed command line (after a parse() that returned nullopt).
  const Flags& flags() const noexcept { return flags_; }

 protected:
  CommandLineBase(std::string program, std::string summary, int usage_code)
      : program_(std::move(program)),
        summary_(std::move(summary)),
        usage_code_(usage_code) {}
  ~CommandLineBase() = default;

  /// Read the tool's options from `flags` and keep them.
  virtual void read(const Flags& flags) = 0;
  /// Run the tool's options reader over `flags` for its registrations only.
  virtual void document(const Flags& flags) const = 0;

 private:
  /// Help text: document() over an empty Flags, then the shared --version
  /// entry (and --help, which Flags::help appends).
  std::string help() const;

  std::string program_;
  std::string summary_;
  int usage_code_;
  Flags flags_;
};

/// A tool's front door: `read_options` makes the tool's Options from a Flags
/// through the documenting getters, so the help text comes from the calls
/// that parse. `usage_code` is the exit status of a refused command line.
template <class Options>
class CommandLine final : public CommandLineBase {
 public:
  using Reader = Options (*)(const Flags&);

  CommandLine(std::string program, std::string summary, int usage_code,
              Reader read_options)
      : CommandLineBase(std::move(program), std::move(summary), usage_code),
        read_options_(read_options) {}

  /// The options read by the last parse().
  Options& options() noexcept { return options_; }

 private:
  void read(const Flags& flags) override { options_ = read_options_(flags); }
  void document(const Flags& flags) const override { read_options_(flags); }

  Reader read_options_;
  Options options_{};
};

}  // namespace melody::util
