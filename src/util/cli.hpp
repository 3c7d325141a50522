// lumen_util: minimal declarative command-line flag parser.
//
// Bench binaries and examples share one flag grammar:
//   --flag                a switch: a flag registered with default "false";
//                         --flag=V takes V in true/1/yes/on or
//                         false/0/no/off, any other V is an error
//   --name value          every other flag takes a value, in either form;
//   --name=value          a value flag given no value is an error
// Unknown flags are an error (catches typos in sweep scripts); positional
// arguments are collected in order. parse_command is the front end every
// command shares: usage on --help, exit code 2 on any error.
//
// read() is the one place a flag's text becomes a value. It checks form
// only — a complete base-10 integer, its sign, a known enum name — and
// leaves range rules to the caller's validator.
#pragma once

#include <concepts>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace lumen::util {

class Cli {
 public:
  /// Registers a flag with a help string and a default rendered in --help.
  /// Default "false" makes the flag a switch.
  Cli& flag(std::string name, std::string help, std::string default_value = "");

  /// Parses argv. Returns false (and fills error()) on unknown flags or
  /// missing values. `--help` sets help_requested().
  bool parse(int argc, const char* const* argv);

  /// Parses a command's argv (argv[0] names the command and is skipped)
  /// and returns the exit code to stop with — 0 after printing usage for
  /// --help, 2 after printing "error: ..." for a parse error or for more
  /// than `max_positional` positional arguments — or nullopt to go on.
  [[nodiscard]] std::optional<int> parse_command(int argc, const char* const* argv,
                                                 std::string_view program,
                                                 std::string_view description,
                                                 std::size_t max_positional = 0);

  [[nodiscard]] bool help_requested() const noexcept { return help_; }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// Accessors fall back to the registered default when unset. The numeric
  /// ones use read()'s strict parser: empty text reads as 0, malformed text
  /// throws std::invalid_argument naming the flag.
  [[nodiscard]] std::string get(std::string_view name) const;
  [[nodiscard]] std::int64_t get_int(std::string_view name) const;
  [[nodiscard]] double get_double(std::string_view name) const;
  [[nodiscard]] bool get_bool(std::string_view name) const;
  [[nodiscard]] bool is_set(std::string_view name) const;

  /// Reads the flag's text — as given, else its registered default — into
  /// `out`; a flag with neither leaves `out` untouched, so a flag registered
  /// without a default is set-if-given. On malformed text returns false and
  /// error() names the flag.
  bool read(std::string_view name, std::string& out);
  /// A finite number.
  bool read(std::string_view name, double& out);
  /// A complete non-negative base-10 integer that fits T.
  template <std::unsigned_integral T>
  bool read(std::string_view name, T& out) {
    std::uint64_t value = out;
    if (!read_unsigned(name, value, std::numeric_limits<T>::max())) return false;
    out = static_cast<T>(value);
    return true;
  }
  /// Non-negative integers joined by `separator`, e.g. "8,16,32".
  bool read(std::string_view name, std::vector<std::size_t>& out,
            char separator = ',');
  /// A name through its module's parser, e.g. gen::family_from_string.
  template <typename E>
  bool read(std::string_view name, E& out,
            std::type_identity_t<std::optional<E> (*)(std::string_view)> from_string) {
    const std::string text = get(name);
    if (text.empty()) return true;
    std::optional<E> value = from_string(text);
    if (!value) return fail("unknown --" + std::string(name) + " \"" + text + "\"");
    out = std::move(*value);
    return true;
  }

  /// Renders usage text for --help.
  [[nodiscard]] std::string usage(std::string_view program,
                                  std::string_view description) const;

 private:
  struct Spec {
    std::string help;
    std::string default_value;
  };
  bool read_unsigned(std::string_view name, std::uint64_t& out, std::uint64_t max);
  bool fail(std::string message);

  std::map<std::string, Spec, std::less<>> specs_;
  std::map<std::string, std::string, std::less<>> values_;
  std::vector<std::string> positional_;
  std::string error_;
  bool help_ = false;
};

}  // namespace lumen::util
