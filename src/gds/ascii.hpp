// Human-readable text formats for layouts and clip sets. Used for test
// fixtures, example data, benchmark persistence and ASCII bodies of
// POST /detect; GDSII remains the interchange format for layouts.
//
// The readers parse through one text::TextCursor (text/text_cursor.hpp)
// and are strict, since their text comes from outside:
//  - tokens are separated by whitespace and every token ends in it, so a
//    text must end in a newline; one cut inside its last number fails
//    instead of loading a shorter value;
//  - every number fills its token (text::parseNumber: base 10, a '-' only
//    on signed fields, no '+'), layer ids fit 16 bits unsigned and
//    coordinates and clip sides 32 bits signed (the GDSII ranges);
//  - a token where a keyword belongs must be one (so trailing tokens on
//    a line fail as an unknown keyword), and a line whose first token
//    starts with '#' is a comment;
//  - a `poly` vertex count is checked against the bytes left before the
//    vertices are allocated.
// Every failure throws GdsError("<format>: <reason> at byte <k>").
#pragma once

#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "layout/clip.hpp"
#include "layout/layout.hpp"

namespace hsd::gds {

/// Write/read a layout as text:
///   layout <name>        (the name is the rest of the line)
///   layer <id>
///   rect x1 y1 x2 y2
///   poly <n> x1 y1 ... xn yn
void writeAsciiLayout(std::ostream& os, const Layout& layout);
Layout readAsciiLayout(std::istream& is);
void writeAsciiLayoutFile(const std::string& path, const Layout& layout);
Layout readAsciiLayoutFile(const std::string& path);

/// A labeled clip training/testing set plus its geometry parameters.
struct ClipSet {
  std::string name;
  ClipParams params;
  std::vector<Clip> clips;
};

/// Write/read a clip set as text:
///   clipset <name> <coreSide> <clipSide>
///   clip <label: 1|-1|0> <coreLoX> <coreLoY>
///   layer <id>
///   rect x1 y1 x2 y2   (absolute coordinates)
///   endclip
/// (layer, rect and endclip only between a clip and its endclip).
void writeClipSet(std::ostream& os, const ClipSet& set);
ClipSet readClipSet(std::istream& is);
void writeClipSetFile(const std::string& path, const ClipSet& set);
ClipSet readClipSetFile(const std::string& path);

/// Hotspot report / golden list: clip windows by core lower-left corner.
///   windows <coreSide> <clipSide>   (once, before any window)
///   at <coreLoX> <coreLoY>
void writeWindowList(std::ostream& os, const std::vector<ClipWindow>& wins,
                     const ClipParams& params);
std::pair<std::vector<ClipWindow>, ClipParams> readWindowList(
    std::istream& is);
void writeWindowListFile(const std::string& path,
                         const std::vector<ClipWindow>& wins,
                         const ClipParams& params);
std::pair<std::vector<ClipWindow>, ClipParams> readWindowListFile(
    const std::string& path);

}  // namespace hsd::gds
