//===- jinnbench/Stats.h - Order statistics for the Jinn benchmark -------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The arithmetic every reported number goes through: medians, nearest-rank
/// percentiles with the "at least ten samples beyond" rule, geometric means,
/// paired configuration differencing, and a log-bucketed latency histogram.
/// Kept header-only and free of Jinn types so the unit tests exercise
/// exactly the code the benchmark runs.
///
//===----------------------------------------------------------------------===//

#ifndef JINNBENCH_STATS_H
#define JINNBENCH_STATS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace jinnbench {

inline double median(std::vector<double> V) {
  if (V.empty())
    return std::numeric_limits<double>::quiet_NaN();
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// 1-based nearest rank of the \p P-th percentile among \p N samples:
/// ceil(P/100 * N), clamped to [1, N]. Computed on integers (P in units of
/// 1/1000 percent) so 99 * 1000 / 100 is exactly 990, not 990.0000001.
inline size_t percentileRank(size_t N, double P) {
  const uint64_t Milli = static_cast<uint64_t>(std::llround(P * 1000));
  const uint64_t Num = Milli * N;
  uint64_t Rank = (Num + 100000 - 1) / 100000;
  if (Rank < 1)
    Rank = 1;
  if (Rank > N)
    Rank = N;
  return static_cast<size_t>(Rank);
}

/// Samples strictly beyond the \p P-th percentile's nearest rank.
inline size_t samplesBeyond(size_t N, double P) {
  return N ? N - percentileRank(N, P) : 0;
}

/// The percentile rule: of \p Candidates, the highest one with at least
/// \p MinBeyond samples beyond it; 0 when even the lowest has too few.
inline double reportablePercentile(size_t N,
                                   const std::vector<double> &Candidates,
                                   size_t MinBeyond = 10) {
  double Best = 0;
  for (double P : Candidates)
    if (samplesBeyond(N, P) >= MinBeyond && P > Best)
      Best = P;
  return Best;
}

/// Nearest-rank percentile of \p V.
inline double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return std::numeric_limits<double>::quiet_NaN();
  std::sort(V.begin(), V.end());
  return V[percentileRank(V.size(), P) - 1];
}

/// Geometric mean of positive values (NaN when any is not positive).
inline double geomean(const std::vector<double> &V) {
  if (V.empty())
    return std::numeric_limits<double>::quiet_NaN();
  double LogSum = 0;
  for (double X : V) {
    if (!(X > 0))
      return std::numeric_limits<double>::quiet_NaN();
    LogSum += std::log(X);
  }
  return std::exp(LogSum / static_cast<double>(V.size()));
}

/// Paired configuration differencing: round r measured configuration A and
/// configuration B back to back (A_r, B_r). The cost A adds over B is the
/// median of the per-round differences, so a host slowdown that hits one
/// round hits both sides of its pair and cancels.
inline double pairedDelta(const std::vector<double> &A,
                          const std::vector<double> &B) {
  std::vector<double> D;
  for (size_t I = 0; I < A.size() && I < B.size(); ++I)
    D.push_back(A[I] - B[I]);
  return median(D);
}

/// Median of the per-round quotients A_r / B_r.
inline double pairedRatio(const std::vector<double> &A,
                          const std::vector<double> &B) {
  std::vector<double> Q;
  for (size_t I = 0; I < A.size() && I < B.size(); ++I)
    if (B[I] > 0)
      Q.push_back(A[I] / B[I]);
  return median(Q);
}

/// Latency histogram with logarithmic buckets 0.5% wide from 1 ns to about
/// 100 s: constant memory however many samples a run takes, and a reported
/// percentile moves only when the distribution moves by a bucket.
class LatencyHistogram {
public:
  static constexpr double Growth = 1.005;

  LatencyHistogram() : Counts(bucketOf(1e11) + 1, 0) {}

  void add(double Ns) {
    Counts[bucketOf(Ns)] += 1;
    ++Total;
  }
  void merge(const LatencyHistogram &Other) {
    for (size_t I = 0; I < Counts.size(); ++I)
      Counts[I] += Other.Counts[I];
    Total += Other.Total;
  }
  uint64_t count() const { return Total; }

  /// Nearest-rank percentile, reported as the bucket's geometric midpoint.
  double percentile(double P) const {
    if (!Total)
      return std::numeric_limits<double>::quiet_NaN();
    const uint64_t Rank = percentileRank(Total, P);
    uint64_t Seen = 0;
    for (size_t I = 0; I < Counts.size(); ++I) {
      Seen += Counts[I];
      if (Seen >= Rank)
        return std::pow(Growth, static_cast<double>(I) + 0.5);
    }
    return std::pow(Growth, static_cast<double>(Counts.size()));
  }

private:
  static size_t bucketOf(double Ns) {
    if (!(Ns > 1))
      return 0;
    double B = std::floor(std::log(Ns) / std::log(Growth));
    const double Max = std::floor(std::log(1e11) / std::log(Growth));
    return static_cast<size_t>(std::min(B, Max));
  }

  std::vector<uint64_t> Counts;
  uint64_t Total = 0;
};

} // namespace jinnbench

#endif // JINNBENCH_STATS_H
