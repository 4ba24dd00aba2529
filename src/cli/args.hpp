// Tiny flag parser for the bench/example binaries: --key=value and
// --key value forms, with typed getters and a usage dump.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rdp {

class Args {
 public:
  /// Parses argv. Unknown positional arguments are kept in positionals().
  /// Throws std::invalid_argument on a malformed flag ("--" alone).
  Args(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& key) const;

  /// Typed getters with defaults; throw std::invalid_argument when the
  /// value cannot be parsed. Numbers must use the whole value ("3e3" is
  /// not an integer, "0.2x" not a number), and doubles must be finite.
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const;
  [[nodiscard]] double get(const std::string& key, double fallback) const;
  [[nodiscard]] std::int64_t get(const std::string& key, std::int64_t fallback) const;
  [[nodiscard]] bool get(const std::string& key, bool fallback) const;

  [[nodiscard]] const std::vector<std::string>& positionals() const noexcept {
    return positionals_;
  }
  [[nodiscard]] const std::string& program() const noexcept { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positionals_;
};

}  // namespace rdp
