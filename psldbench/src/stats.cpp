#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace pb {

double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(index, v.size() - 1)];
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

std::vector<std::size_t> calm_rounds(const std::vector<double>& steal_share, double slack,
                                     std::size_t min_count) {
  std::vector<std::size_t> order(steal_share.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return steal_share[a] < steal_share[b]; });
  std::size_t n = 0;
  while (n < order.size() &&
         (n < min_count || steal_share[order[n]] <= steal_share[order[0]] + slack)) {
    ++n;
  }
  order.resize(n);
  std::sort(order.begin(), order.end());
  return order;
}

std::array<double, 3> quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const long n = static_cast<long>(v.size());
  const long m = n + 1;
  std::array<double, 3> out{};
  for (long i = 1; i <= 3; ++i) {
    // CPython computes delta after clamping j, so it may leave [0, 4).
    const long j = std::clamp(i * m / 4, 1L, n - 1);
    const double delta = static_cast<double>(i * m - j * 4);
    out[static_cast<std::size_t>(i - 1)] =
        (v[static_cast<std::size_t>(j - 1)] * (4.0 - delta) +
         v[static_cast<std::size_t>(j)] * delta) /
        4.0;
  }
  return out;
}

double relative_spread(const std::vector<double>& v) {
  const auto q = quartiles(v);
  const double mid = median(v);
  return mid == 0.0 ? 0.0 : (q[2] - q[0]) / mid;
}

}  // namespace pb
