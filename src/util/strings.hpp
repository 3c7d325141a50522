// lumen_util: the names of closed sets.
//
// Every closed variant set in lumen — schedulers, adversaries, activation
// policies, outcomes, fault kinds, report formats, … — is a plain enum that
// lists its {value, name} pairs once, in a NameTable next to the enum. The
// enum's to_string is name_of over that table and its *_from_string is
// parse_name, the one parse loop: ASCII case-insensitive, so
// `--scheduler=async` finds "ASYNC" and `--adversary=Uniform` finds
// "uniform". Names print exactly as the table spells them.
#pragma once

#include <array>
#include <cstddef>
#include <optional>
#include <string_view>

namespace lumen::util {

/// One entry of a NameTable.
template <typename E>
struct Named {
  E value;
  std::string_view name;
};

/// An enum's names, declared as
///   inline constexpr auto kFooNames = std::to_array<util::Named<Foo>>({...});
template <typename E, std::size_t N>
using NameTable = std::array<Named<E>, N>;

/// ASCII case-insensitive equality.
[[nodiscard]] constexpr bool iequals(std::string_view a, std::string_view b) noexcept {
  constexpr auto lower = [](char c) {
    return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
  };
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (lower(a[i]) != lower(b[i])) return false;
  }
  return true;
}

/// `value`'s name in `table`; "?" for a value the table lacks.
template <typename E, std::size_t N>
[[nodiscard]] constexpr std::string_view name_of(const NameTable<E, N>& table,
                                                 E value) noexcept {
  for (const auto& entry : table) {
    if (entry.value == value) return entry.name;
  }
  return "?";
}

/// The value `name` names in `table`, compared with iequals; nullopt for an
/// unknown (or empty) name.
template <typename E, std::size_t N>
[[nodiscard]] constexpr std::optional<E> parse_name(const NameTable<E, N>& table,
                                                    std::string_view name) noexcept {
  for (const auto& entry : table) {
    if (iequals(entry.name, name)) return entry.value;
  }
  return std::nullopt;
}

/// The table's values, in table order.
template <typename E, std::size_t N>
[[nodiscard]] constexpr std::array<E, N> values_of(const NameTable<E, N>& table) noexcept {
  std::array<E, N> values{};
  for (std::size_t i = 0; i < N; ++i) values[i] = table[i].value;
  return values;
}

}  // namespace lumen::util
