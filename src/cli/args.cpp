#include "cli/args.hpp"

#include <cmath>
#include <stdexcept>

namespace rdp {

Args::Args(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      positionals_.push_back(std::move(token));
      continue;
    }
    token.erase(0, 2);
    if (token.empty()) {
      throw std::invalid_argument("Args: bare '--' is not a flag");
    }
    const std::size_t eq = token.find('=');
    if (eq != std::string::npos) {
      flags_[token.substr(0, eq)] = token.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[token] = argv[++i];
    } else {
      flags_[token] = "true";  // boolean switch
    }
  }
}

bool Args::has(const std::string& key) const { return flags_.count(key) > 0; }

std::string Args::get(const std::string& key, const std::string& fallback) const {
  const auto it = flags_.find(key);
  return it == flags_.end() ? fallback : it->second;
}

double Args::get(const std::string& key, double fallback) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  double value = 0;
  std::size_t consumed = 0;
  try {
    value = std::stod(it->second, &consumed);
  } catch (const std::exception&) {
    consumed = 0;
  }
  if (consumed == 0 || consumed != it->second.size() || !std::isfinite(value)) {
    throw std::invalid_argument("Args: flag --" + key +
                                " expects a finite number, got '" + it->second +
                                "'");
  }
  return value;
}

std::int64_t Args::get(const std::string& key, std::int64_t fallback) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  long long value = 0;
  std::size_t consumed = 0;
  try {
    value = std::stoll(it->second, &consumed);
  } catch (const std::exception&) {
    consumed = 0;
  }
  if (consumed == 0 || consumed != it->second.size()) {
    throw std::invalid_argument("Args: flag --" + key + " expects an integer, got '" +
                                it->second + "'");
  }
  return value;
}

bool Args::get(const std::string& key, bool fallback) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw std::invalid_argument("Args: flag --" + key + " expects a boolean, got '" + v +
                              "'");
}

}  // namespace rdp
