#include "util/cli.hpp"

#include "util/strings.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <type_traits>

namespace lumen::util {

namespace {

/// The whole of `text` as a T, or nullopt: no sign for unsigned T, no
/// leading '+' or whitespace, no trailing junk, no overflow.
template <typename T>
std::optional<T> parse_number(std::string_view text) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || stop != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  return value;
}

std::string must_be(std::string_view name, std::string_view what,
                    std::string_view text) {
  return "--" + std::string(name) + " must be " + std::string(what) + " (got \"" +
         std::string(text) + "\")";
}

/// The values a switch takes.
constexpr auto kSwitchNames = std::to_array<Named<bool>>({
    {true, "true"},
    {true, "1"},
    {true, "yes"},
    {true, "on"},
    {false, "false"},
    {false, "0"},
    {false, "no"},
    {false, "off"},
});

}  // namespace

Cli& Cli::flag(std::string name, std::string help, std::string default_value) {
  specs_[std::move(name)] = Spec{std::move(help), std::move(default_value)};
  return *this;
}

bool Cli::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_ = true;
      continue;
    }
    if (!arg.starts_with("--")) {
      positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    const std::size_t eq = arg.find('=');
    const std::string name(arg.substr(0, eq));
    const auto it = specs_.find(name);
    if (it == specs_.end()) return fail("unknown flag --" + name);
    const bool is_switch = it->second.default_value == "false";
    std::string value;
    if (eq != std::string_view::npos) {
      value = arg.substr(eq + 1);
    } else if (is_switch) {
      value = "true";
    } else if (i + 1 < argc && !std::string_view(argv[i + 1]).starts_with("--")) {
      value = argv[++i];
    }
    if (value.empty()) return fail("--" + name + " needs a value");
    if (is_switch && !parse_name(kSwitchNames, value)) {
      return fail(must_be(name, "true|1|yes|on or false|0|no|off", value));
    }
    values_[name] = std::move(value);
  }
  return true;
}

std::optional<int> Cli::parse_command(int argc, const char* const* argv,
                                      std::string_view program,
                                      std::string_view description,
                                      std::size_t max_positional) {
  if (!parse(argc, argv)) {
    std::cerr << "error: " << error_ << "\n";
    return 2;
  }
  if (help_) {
    std::cout << usage(program, description);
    return 0;
  }
  if (positional_.size() > max_positional) {
    std::cerr << "error: " << program << " takes "
              << (max_positional == 0 ? std::string("no positional argument")
                                      : "at most " + std::to_string(max_positional) +
                                            " positional argument(s)")
              << " (got \"" << positional_[max_positional] << "\")\n";
    return 2;
  }
  return std::nullopt;
}

std::string Cli::get(std::string_view name) const {
  if (const auto it = values_.find(name); it != values_.end()) return it->second;
  if (const auto it = specs_.find(name); it != specs_.end()) return it->second.default_value;
  return {};
}

std::int64_t Cli::get_int(std::string_view name) const {
  const std::string text = get(name);
  if (text.empty()) return 0;
  if (const auto value = parse_number<std::int64_t>(text)) return *value;
  throw std::invalid_argument(must_be(name, "an integer", text));
}

double Cli::get_double(std::string_view name) const {
  const std::string text = get(name);
  if (text.empty()) return 0.0;
  if (const auto value = parse_number<double>(text)) return *value;
  throw std::invalid_argument(must_be(name, "a finite number", text));
}

bool Cli::get_bool(std::string_view name) const {
  return parse_name(kSwitchNames, get(name)).value_or(false);
}

bool Cli::is_set(std::string_view name) const {
  return values_.find(name) != values_.end();
}

bool Cli::read(std::string_view name, std::string& out) {
  if (std::string text = get(name); !text.empty()) out = std::move(text);
  return true;
}

bool Cli::read(std::string_view name, double& out) {
  const std::string text = get(name);
  if (text.empty()) return true;
  const auto value = parse_number<double>(text);
  if (!value) return fail(must_be(name, "a finite number", text));
  out = *value;
  return true;
}

bool Cli::read_unsigned(std::string_view name, std::uint64_t& out,
                        std::uint64_t max) {
  const std::string text = get(name);
  if (text.empty()) return true;
  if (text.front() == '-') return fail(must_be(name, "non-negative", text));
  const auto value = parse_number<std::uint64_t>(text);
  if (!value) return fail(must_be(name, "a non-negative integer", text));
  if (*value > max) return fail(must_be(name, "<= " + std::to_string(max), text));
  out = *value;
  return true;
}

bool Cli::read(std::string_view name, std::vector<std::size_t>& out,
               char separator) {
  const std::string text = get(name);
  if (text.empty()) return true;
  std::vector<std::size_t> values;
  for (std::size_t start = 0;;) {
    const std::size_t end = std::min(text.find(separator, start), text.size());
    const auto value =
        parse_number<std::size_t>(std::string_view(text).substr(start, end - start));
    if (!value) {
      return fail(must_be(name,
                          std::string("a '") + separator +
                              "'-separated list of non-negative integers",
                          text));
    }
    values.push_back(*value);
    if (end == text.size()) break;
    start = end + 1;
  }
  out = std::move(values);
  return true;
}

bool Cli::fail(std::string message) {
  error_ = std::move(message);
  return false;
}

std::string Cli::usage(std::string_view program, std::string_view description) const {
  std::ostringstream os;
  os << program << " — " << description << "\n\nFlags:\n";
  for (const auto& [name, spec] : specs_) {
    os << "  --" << name;
    if (!spec.default_value.empty()) os << " (default: " << spec.default_value << ")";
    os << "\n      " << spec.help << '\n';
  }
  return os.str();
}

}  // namespace lumen::util
