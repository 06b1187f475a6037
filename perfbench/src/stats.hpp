// Statistics of the benchmark program: the median, the tail-percentile
// rule, seed derivation and the report digest. Self-tested by
// selftest.cpp; the comparison tool's quartiles are tested in
// test_compare.py.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace perfbench {

/// Median of `v` (mean of the two middle values for an even count);
/// 0 for an empty sample.
double median(std::vector<double> v);

/// Nearest-rank percentile: the ceil(p * n)-th smallest sample (p in
/// (0, 1]). 0 for an empty sample.
double percentile(std::vector<double> v, double p);

/// Samples strictly beyond the nearest-rank percentile p of n samples.
std::size_t samplesBeyond(std::size_t n, double p);

/// The highest percentile of {0.5, 0.9, 0.99, 0.999} that still has at
/// least ten samples beyond it, or 0 when even the median has fewer.
double tailPercentile(std::size_t n);

/// splitmix64 of seed ^ salt-derived constant: independent sub-seeds
/// for the benchmark's generators, all from one --seed.
std::uint64_t subSeed(std::uint64_t seed, std::uint64_t salt);

/// 64-bit FNV-1a, chainable through `h`.
std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t h = 0xcbf29ce484222325ULL);

}  // namespace perfbench
