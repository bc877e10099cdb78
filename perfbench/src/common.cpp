#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

namespace {

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

void Result::print(std::ostream& out) const {
  std::ostringstream o;
  o << std::setprecision(17);
  const auto number = [&o](double v) {
    if (std::isfinite(v))
      o << v;
    else
      o << "null";
  };
  o << "{\"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    o << (i ? ", " : "") << quoted(metrics_[i].name) << ": {\"value\": ";
    number(metrics_[i].value);
    o << ", \"unit\": " << quoted(metrics_[i].unit) << "}";
  }
  o << "}, \"checks\": {";
  for (std::size_t i = 0; i < checks_.size(); ++i)
    o << (i ? ", " : "") << quoted(checks_[i].first) << ": "
      << checks_[i].second;
  o << "}, \"info\": {";
  for (std::size_t i = 0; i < info_.size(); ++i)
    o << (i ? ", " : "") << quoted(info_[i].first) << ": "
      << quoted(info_[i].second);
  o << "}, \"series\": {";
  for (std::size_t i = 0; i < series_.size(); ++i) {
    o << (i ? ", " : "") << quoted(series_[i].first) << ": [";
    for (std::size_t k = 0; k < series_[i].second.size(); ++k) {
      if (k) o << ", ";
      number(series_[i].second[k]);
    }
    o << "]";
  }
  o << "}}\n";
  out << o.str();
}

}  // namespace perfbench
