#pragma once
// Minimal command-line flag parsing for bench/example binaries.
//
// All bench binaries must run with no arguments (the harness invokes them
// bare), so every flag has a default; flags exist to scale experiments up or
// down (--ranks, --iters, --seed, ...). A binary calls reject_unknown() once
// it has read every flag it takes, so a misspelt or stale flag stops the run
// instead of being silently ignored.

#include <cstdint>
#include <map>
#include <set>
#include <string>

namespace spbc::util {

class Cli {
 public:
  Cli(int argc, char** argv);

  /// --key=value or --key value. Returns default when absent.
  int64_t get_int(const std::string& key, int64_t def) const;
  /// get_int for an `int` setting: exits with status 2, naming the flag on
  /// stderr, when the value does not fit in an int.
  int get_int32(const std::string& key, int def) const;
  double get_double(const std::string& key, double def) const;
  std::string get_string(const std::string& key, const std::string& def) const;
  bool get_flag(const std::string& key) const;  // present => true

  bool has(const std::string& key) const;

  /// Exits with status 2, naming each flag on stderr, when the command line
  /// holds a flag that no get_* or has() call asked for.
  void reject_unknown() const;

 private:
  std::map<std::string, std::string> kv_;
  mutable std::set<std::string> read_;
};

}  // namespace spbc::util
