#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * double(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

std::size_t samplesBeyond(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(std::ceil(p * double(n)));
  return rank >= n ? 0 : n - rank;
}

double tailPercentile(std::size_t n) {
  double best = 0.0;
  for (const double p : {0.5, 0.9, 0.99, 0.999})
    if (samplesBeyond(n, p) >= 10) best = p;
  return best;
}

std::uint64_t subSeed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z =
      seed ^ (salt * 0x9e3779b97f4a7c15ULL + 0x632be59bd9b4e019ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace perfbench
