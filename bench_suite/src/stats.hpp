// stats.hpp — order statistics shared by the suite's reports.
//
// quartiles() reproduces Python's statistics.quantiles(data, n=4)
// (method 'exclusive'), so the medians and quartiles the suite prints
// are the ones compare.py and the benchmark protocol recompute.
#pragma once

#include <algorithm>
#include <array>
#include <vector>

namespace harmless::suite {

struct Quartiles {
  double q1 = 0;
  double median = 0;
  double q3 = 0;
};

inline Quartiles quartiles(std::vector<double> data) {
  Quartiles q;
  if (data.empty()) return q;
  std::sort(data.begin(), data.end());
  const long ld = static_cast<long>(data.size());
  if (ld == 1) return {data[0], data[0], data[0]};
  std::array<double, 3> cut{};
  const long m = ld + 1;
  for (long i = 1; i < 4; ++i) {
    long j = i * m / 4;
    j = j < 1 ? 1 : (j > ld - 1 ? ld - 1 : j);
    const long delta = i * m - j * 4;
    cut[static_cast<std::size_t>(i - 1)] =
        (data[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
         data[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        4.0;
  }
  return {cut[0], cut[1], cut[2]};
}

inline double median(std::vector<double> data) { return quartiles(std::move(data)).median; }

}  // namespace harmless::suite
