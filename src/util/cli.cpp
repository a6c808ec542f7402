#include "util/cli.hpp"

#include <cstdio>
#include <cstdlib>
#include <limits>

namespace spbc::util {

Cli::Cli(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    arg = arg.substr(2);
    auto eq = arg.find('=');
    if (eq != std::string::npos) {
      kv_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      kv_[arg] = argv[++i];
    } else {
      kv_[arg] = "";
    }
  }
}

int64_t Cli::get_int(const std::string& key, int64_t def) const {
  read_.insert(key);
  auto it = kv_.find(key);
  if (it == kv_.end() || it->second.empty()) return def;
  return std::strtoll(it->second.c_str(), nullptr, 10);
}

int Cli::get_int32(const std::string& key, int def) const {
  const int64_t v = get_int(key, def);
  if (v < std::numeric_limits<int>::min() || v > std::numeric_limits<int>::max()) {
    std::fprintf(stderr, "--%s=%s does not fit in an int\n", key.c_str(),
                 kv_.at(key).c_str());
    std::exit(2);
  }
  return static_cast<int>(v);
}

double Cli::get_double(const std::string& key, double def) const {
  read_.insert(key);
  auto it = kv_.find(key);
  if (it == kv_.end() || it->second.empty()) return def;
  return std::strtod(it->second.c_str(), nullptr);
}

std::string Cli::get_string(const std::string& key, const std::string& def) const {
  read_.insert(key);
  auto it = kv_.find(key);
  if (it == kv_.end()) return def;
  return it->second;
}

bool Cli::get_flag(const std::string& key) const { return has(key); }

bool Cli::has(const std::string& key) const {
  read_.insert(key);
  return kv_.count(key) > 0;
}

void Cli::reject_unknown() const {
  bool unknown = false;
  for (const auto& [key, value] : kv_) {
    if (read_.count(key) != 0) continue;
    std::fprintf(stderr, "unknown flag --%s\n", key.c_str());
    unknown = true;
  }
  if (unknown) std::exit(2);
}

}  // namespace spbc::util
