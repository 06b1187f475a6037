// Four-directional string encoding of a core pattern's topology and the
// composite-string matching of Theorem 1 (Sec. III-B1).
//
// Each side (bottom/right/top/left) yields one string: the pattern is
// sliced along polygon edges perpendicular to that side; every slice
// encodes a boundary bit followed by the labels of the alternating
// block(1)/space(0) runs read *away from that side's boundary*. Slices are
// ordered along the counterclockwise traversal of the window, so rotating
// the pattern cyclically rotates the 4-tuple of side strings and mirroring
// reverses it — which is exactly what the composite-string search exploits.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/pattern.hpp"

namespace hsd::core {

/// One slice's binary run code (boundary bit + run labels) in one 64-bit
/// word: bit 0 is the boundary marker, bit i the i-th run label. Runs past
/// the 63rd are not recorded (see pushBit).
struct SliceCode {
  std::uint64_t bits = 0;
  std::uint8_t len = 0;

  friend constexpr auto operator<=>(const SliceCode&,
                                    const SliceCode&) = default;
};

/// The four side strings, each a sequence of slice codes in ccw traversal
/// order: bottom (left->right), right (bottom->top), top (right->left),
/// left (top->bottom).
struct DirectionalStrings {
  std::vector<SliceCode> bottom;
  std::vector<SliceCode> right;
  std::vector<SliceCode> top;
  std::vector<SliceCode> left;

  friend auto operator<=>(const DirectionalStrings&,
                          const DirectionalStrings&) = default;
};

/// Encode all four directional strings of `p`.
DirectionalStrings encodeStrings(const CorePattern& p);

/// Theorem-1 composite-string matching: true iff the two core patterns have
/// the same topology under some of the eight orientations. Chooses two
/// adjacent side strings of `a` and searches them in the counterclockwise
/// and clockwise composite strings of `b`.
bool sameTopology(const DirectionalStrings& a, const DirectionalStrings& b);
bool sameTopology(const CorePattern& a, const CorePattern& b);

/// Canonical topology key: the lexicographically smallest serialization of
/// encodeStrings over all eight orientations of `p`. Two patterns have the
/// same key iff they have the same topology (used for hash-based
/// clustering; property-tested against sameTopology). Computed from one
/// encoding of `p`: by Theorem 1 each orientation's strings are a rotation
/// of its side strings, forward or reversed.
std::string canonicalTopoKey(const CorePattern& p);

/// The orientation whose encoding attains the canonical key; ties go to
/// the smallest transformed rects, then to kAllOrients order. Feature
/// extraction aligns all cluster members by transforming them with this
/// orientation first.
Orient canonicalOrient(const CorePattern& p);

/// Serialize directional strings for hashing / debugging: per side, each
/// code as hex(bits) ':' dec(len) ',', then '|' — the key text.
std::string serializeStrings(const DirectionalStrings& s);

}  // namespace hsd::core
