#include "util/fields.hpp"

#include <fstream>
#include <sstream>

namespace lumen::util {

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return std::nullopt;
  std::ostringstream text;
  text << file.rdbuf();
  return std::move(text).str();
}

bool save_document(const std::string& path, std::string_view text) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return false;
  file << text;
  return static_cast<bool>(file.flush());
}

}  // namespace lumen::util
