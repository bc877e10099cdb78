// Shared pieces of ulba_bench: order statistics and the JSON
// result object every subcommand prints as its last line.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Linear-interpolation quantile, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// One flat JSON object, printed on one line: {"metrics": {name: {"value",
/// "unit"}}, "checks": {name: count}, "info": {name: text}, "series": {name:
/// [values]}}. A nonzero check is a verification failure.
class Result {
 public:
  void metric(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  void check(std::string name, std::int64_t value) {
    checks_.emplace_back(std::move(name), value);
  }
  void info(std::string name, std::string text) {
    info_.emplace_back(std::move(name), std::move(text));
  }
  void series(std::string name, std::vector<double> values) {
    series_.emplace_back(std::move(name), std::move(values));
  }
  void print(std::ostream& out) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::int64_t>> checks_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::pair<std::string, std::vector<double>>> series_;
};

}  // namespace perfbench
