// ASCII-format load tests: the layout, clip-set and window-list readers
// parse through the same text::TextCursor as the model loaders, so their
// text from outside (training sets, golden lists, POST /detect bodies)
// fails typed. Hostile bodies that used to allocate, wrap or load
// silently now throw GdsError, and a seed-deterministic corpus of damaged
// files built from the writers' own output checks the contract: every
// truncation that cuts a line and every digit->letter or space->digit
// mutation throws GdsError; no input ends in any other exception.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <sstream>
#include <string>
#include <typeinfo>
#include <vector>

#include "data/generator.hpp"
#include "gds/ascii.hpp"
#include "gds/gdsii.hpp"

namespace hsd::gds {
namespace {

/// what() of the GdsError `read` throws on `text`; "" when it loads.
/// Any other exception is a test failure.
std::string errorOf(const std::function<void(std::istream&)>& read,
                    const std::string& text, const std::string& label) {
  std::istringstream is(text);
  try {
    read(is);
  } catch (const GdsError& e) {
    return e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << label << ": " << typeid(e).name() << ": " << e.what();
    return typeid(e).name();
  } catch (...) {
    ADD_FAILURE() << label << ": non-std exception";
    return "non-std exception";
  }
  return "";
}

void readLayout(std::istream& is) { (void)readAsciiLayout(is); }
void readClips(std::istream& is) { (void)readClipSet(is); }
void readWindows(std::istream& is) { (void)readWindowList(is); }

// ---------------------------------------------------------------------------
// Hostile bodies

TEST(AsciiLayout, HostileBodiesThrowGdsError) {
  // Before the cursor: a 25-byte body asked for a 16 GB vertex array, a
  // 2^64 - 1 vertex count threw std::length_error, a negative or
  // oversized layer id wrapped to 65529 / saturated to 65535, and
  // trailing tokens on a rect or poly line were ignored.
  const char* bodies[] = {
      "layer 1\npoly 1000000000\n",     "poly 18446744073709551615",
      "layer -7",                       "layer 99999999999",
      "rect 0 0 10 10 junk",            "poly 3 0 0 10 0 10 10 99",
      "rect 0 0 10 2147483648",         "rect +1 0 10 10",
      "layer 0x1",
  };
  for (const std::string body : bodies)
    for (const std::string& text : {body, body + "\n"})
      EXPECT_NE(errorOf(readLayout, text, text), "") << text;
  // A text must end in a newline: one cut inside its last number fails
  // instead of loading a shorter coordinate.
  EXPECT_NE(errorOf(readLayout, "rect 0 0 10 10", "cut").find("truncated"),
            std::string::npos);
  // The error names the format and the byte offset of the bad token.
  EXPECT_EQ(errorOf(readLayout, "layer 1\nrect 0 0 10 10 junk\n", "junk"),
            "ascii layout: unknown keyword 'junk' at byte 23");
  EXPECT_NE(errorOf(readLayout, "layer 1\npoly 1000000000\n", "poly")
                .find("exceeds"),
            std::string::npos);
}

TEST(AsciiLayout, NameIsTheRestOfItsLine) {
  std::istringstream is("# a comment line\nlayout my top cell \r\n"
                        "layer 2\npoly 4 0 0 10 0 10 10 0 10\n");
  const Layout out = readAsciiLayout(is);
  EXPECT_EQ(out.name(), "my top cell");
  ASSERT_NE(out.findLayer(2), nullptr);
  EXPECT_EQ(out.findLayer(2)->polygonCount(), 1u);
}

TEST(ClipSet, LabelOutsideTheThreeClassesThrows) {
  for (const char* label : {"2", "-2", "127", "+1", "x"}) {
    const std::string text = std::string("clipset c 1200 4800\nclip ") +
                             label + " 0 0\nendclip\n";
    EXPECT_NE(errorOf(readClips, text, text), "") << label;
  }
  std::istringstream ok("clipset c 1200 4800\nclip 0 0 0\nendclip\n");
  EXPECT_EQ(readClipSet(ok).clips.at(0).label(), Label::kUnknown);
}

TEST(ClipSet, GeometryOutsideAClipThrows) {
  for (const char* text :
       {"clipset c 1200 4800\nrect 0 0 1 1\n", "clipset c 1200 4800\nendclip\n",
        "clipset c 1200 4800\nclip 1 0 0\nclip 1 0 0\nendclip\n"})
    EXPECT_NE(errorOf(readClips, text, text), "") << text;
}

TEST(WindowList, HeaderComesFirstAndOnce) {
  for (const char* text : {"at 0 0\nwindows 1200 4800\n",
                           "windows 1200 4800\nwindows 1200 4800\n",
                           "windows 1200 4800\nat 0 0 0\n"})
    EXPECT_NE(errorOf(readWindows, text, text), "") << text;
}

// ---------------------------------------------------------------------------
// Damaged-file corpus

struct Fixture {
  std::string layout, clips, windows;
};

/// The writers' output for a seeded generated clip set (one clip
/// relabelled unknown), a layout holding its rects plus a non-rect
/// polygon, and the clip windows as a window list. Names carry no digits,
/// so every digit belongs to a number.
const Fixture& fixture() {
  static const Fixture f = [] {
    data::GeneratorParams gp;
    gp.seed = 29;
    data::TrainingTargets t;
    t.hotspots = 3;
    t.nonHotspots = 4;
    ClipSet set = data::generateTrainingSet(gp, t, "clips");
    set.clips.back().setLabel(Label::kUnknown);
    Layout layout("corpus");
    std::vector<ClipWindow> wins;
    for (const Clip& c : set.clips) {
      wins.push_back(c.window());
      for (const LayerId id : c.layerIds())
        for (const Rect& r : c.rectsOn(id)) layout.addRect(id, r);
    }
    layout.addPolygon(3, Polygon({{-40, -40}, {60, -40}, {60, 10},
                                  {10, 10}, {10, 60}, {-40, 60}}));
    Fixture out;
    std::ostringstream l, c, w;
    writeAsciiLayout(l, layout);
    writeClipSet(c, set);
    writeWindowList(w, wins, set.params);
    out.layout = l.str();
    out.clips = c.str();
    out.windows = w.str();
    return out;
  }();
  return f;
}

struct Format {
  const char* name;
  const std::string& text;
  void (*read)(std::istream&);
};

std::vector<Format> formats() {
  return {{"layout", fixture().layout, readLayout},
          {"clipset", fixture().clips, readClips},
          {"windows", fixture().windows, readWindows}};
}

bool isDigit(char c) { return c >= '0' && c <= '9'; }

/// `count` positions of `text` (ascending, seeded) where `pick` holds.
template <class Pred>
std::vector<std::size_t> samplePositions(const std::string& text,
                                         std::size_t count, unsigned seed,
                                         Pred pick) {
  std::vector<std::size_t> all;
  for (std::size_t i = 0; i < text.size(); ++i)
    if (pick(i)) all.push_back(i);
  std::mt19937 rng(seed);
  std::shuffle(all.begin(), all.end(), rng);
  if (all.size() > count) all.resize(count);
  std::sort(all.begin(), all.end());
  return all;
}

TEST(AsciiLoadCorpus, IntactFilesRoundTrip) {
  EXPECT_GT(fixture().clips.size(), 1000u);
  std::istringstream l(fixture().layout), c(fixture().clips),
      w(fixture().windows);
  std::ostringstream l2, c2, w2;
  writeAsciiLayout(l2, readAsciiLayout(l));
  writeClipSet(c2, readClipSet(c));
  const auto [wins, params] = readWindowList(w);
  writeWindowList(w2, wins, params);
  EXPECT_EQ(l2.str(), fixture().layout);
  EXPECT_EQ(c2.str(), fixture().clips);
  EXPECT_EQ(w2.str(), fixture().windows);
}

TEST(AsciiLoadCorpus, EveryTruncationThatCutsALineThrows) {
  for (const Format& f : formats()) {
    const std::size_t stride = std::max<std::size_t>(1, f.text.size() / 1500);
    std::size_t cases = 0;
    for (std::size_t len = 0; len < f.text.size(); len += stride) {
      const std::string label =
          std::string(f.name) + " truncated at " + std::to_string(len);
      const std::string err = errorOf(f.read, f.text.substr(0, len), label);
      // A cut at a line boundary may load (a shorter layout or list).
      if (len > 0 && f.text[len - 1] != '\n') {
        EXPECT_NE(err, "") << label;
        ++cases;
      }
    }
    EXPECT_GT(cases, 20u) << f.name;
  }
}

TEST(AsciiLoadCorpus, DigitAndSpaceMutationsThrow) {
  // Letters that cannot complete a base-10 integer.
  const std::string letters = "gjkqwxz";
  std::mt19937 rng(31);
  for (const Format& f : formats()) {
    const std::string& text = f.text;
    std::size_t cases = 0;
    for (const std::size_t i : samplePositions(
             text, 600, 1, [&](std::size_t i) { return isDigit(text[i]); })) {
      std::string m = text;
      m[i] = letters[rng() % letters.size()];
      const std::string label =
          std::string(f.name) + " digit->letter at " + std::to_string(i);
      EXPECT_NE(errorOf(f.read, m, label), "") << label;
      ++cases;
    }
    // A space between two tokens becomes a digit: the tokens merge and
    // the line comes up one number short.
    for (const std::size_t i : samplePositions(text, 600, 2, [&](std::size_t i) {
           return text[i] == ' ' && i > 0 && isDigit(text[i - 1]) &&
                  i + 1 < text.size() && text[i + 1] != ' ';
         })) {
      std::string m = text;
      m[i] = char('0' + rng() % 10);
      const std::string label =
          std::string(f.name) + " space->digit at " + std::to_string(i);
      EXPECT_NE(errorOf(f.read, m, label), "") << label;
      ++cases;
    }
    EXPECT_GT(cases, 20u) << f.name;
  }
}

}  // namespace
}  // namespace hsd::gds
