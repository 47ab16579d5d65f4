// Order statistics for the benchmark's reports.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

namespace pb {

/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample: the
/// smallest value with at least p% of the sample at or below it. Used for
/// latency, where a reported p99 must be a latency some request really had.
/// Precondition: !v.empty().
double percentile(std::vector<double> v, double p);

/// Median with the midpoint rule for even sizes. Precondition: !v.empty().
double median(std::vector<double> v);

/// Indices, in order, of the rounds whose steal share is within `slack` of
/// the least, widened to the `min_count` least-steal rounds (ties by
/// index) when fewer qualify. Precondition: !steal_share.empty().
std::vector<std::size_t> calm_rounds(const std::vector<double>& steal_share, double slack,
                                     std::size_t min_count);

/// The three cut points of Python's statistics.quantiles(v, n=4) (the
/// default "exclusive" method), so the harness and the acceptance check
/// agree on what "spread" means. Precondition: v.size() >= 2.
std::array<double, 3> quartiles(std::vector<double> v);

/// Interquartile range as a share of the median: (q3 - q1) / median.
double relative_spread(const std::vector<double>& v);

}  // namespace pb
