// Model-load tests: the text::TextCursor tokenizer and its parseNumber
// grammar, which every reader of outside text shares, and a seed-deterministic corpus of damaged detector files. A
// damaged file must either throw std::runtime_error or load a model with
// the original fingerprint(); it must never throw std::bad_alloc or any
// other exception. Counts the remaining bytes cannot back are rejected
// before anything is sized from them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <typeinfo>
#include <vector>

#include "core/trainer.hpp"
#include "data/generator.hpp"
#include "text/text_cursor.hpp"

namespace hsd {
namespace {

using text::TextCursor;

std::uint64_t bitsOf(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// what() of the std::runtime_error `f` throws ("" when it throws none).
template <class F>
std::string runtimeErrorOf(F&& f) {
  try {
    f();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

// ---------------------------------------------------------------------------
// parseNumber: the number grammar of every input from outside

TEST(ParseNumber, ReadsExactlyOneNumberPerToken) {
  using text::parseNumber;
  EXPECT_EQ(parseNumber<int>("-7"), -7);
  EXPECT_EQ(parseNumber<std::uint64_t>("18446744073709551615"), UINT64_MAX);
  EXPECT_EQ(parseNumber<std::uint64_t>("0"), 0u);
  EXPECT_EQ(parseNumber<std::uint64_t>("fF", 16), 255u);
  EXPECT_EQ(parseNumber<double>("-0.25"), -0.25);
  EXPECT_EQ(parseNumber<double>("1e3"), 1000.0);
  EXPECT_EQ(parseNumber<double>(".5"), 0.5);
  for (const char* bad : {"", " 1", "1 ", "+1", "-1", "0x10", "1x", "1.0",
                          "1e3", "18446744073709551616"})
    EXPECT_EQ(parseNumber<std::uint64_t>(bad), std::nullopt) << bad;
  for (const char* bad : {"", "0x5", "+5", "-5", " 5", "5 ", "g"})
    EXPECT_EQ(parseNumber<std::uint64_t>(bad, 16), std::nullopt) << bad;
  for (const char* bad : {"", " 1", "+1", "0x1p3", "1.5x", "inf", "-inf",
                          "nan", "infinity", "1e400"})
    EXPECT_EQ(parseNumber<double>(bad), std::nullopt) << bad;
  EXPECT_EQ(parseNumber<std::uint16_t>("65536"), std::nullopt);
  EXPECT_EQ(parseNumber<std::int32_t>("2147483648"), std::nullopt);
  EXPECT_EQ(parseNumber<std::int32_t>("-2147483648"), INT32_MIN);
}

// ---------------------------------------------------------------------------
// TextCursor

/// A TextCursor over a string, with the stream it reads beside it.
class Cursor {
 public:
  explicit Cursor(const std::string& text, const char* what = "test")
      : is_(text), in_(is_, what) {}
  TextCursor* operator->() { return &in_; }

 private:
  std::istringstream is_;
  TextCursor in_;
};

/// A stream buffer that cannot seek: the cursor reads it whole up front.
class NoSeekBuf : public std::streambuf {
 public:
  explicit NoSeekBuf(std::string& s) {
    setg(s.data(), s.data(), s.data() + s.size());
  }
};

TEST(TextCursor, ReadsWordsIntegersAndLines) {
  const std::string text = "hsd 2 -7 18446744073709551615\nname with spaces\n";
  Cursor in(text, "test");
  EXPECT_EQ(in->word(), "hsd");
  EXPECT_EQ(in->integer<int>(), 2);
  EXPECT_EQ(in->integer<std::int64_t>(), -7);
  EXPECT_EQ(in->integer<std::uint64_t>(), UINT64_MAX);
  EXPECT_EQ(in->restOfLine(), "");
  EXPECT_EQ(in->restOfLine(), "name with spaces");
  EXPECT_TRUE(in->atEnd());
  EXPECT_EQ(in->remaining(), 0u);
}

TEST(TextCursor, DoublesKeepTheirBitsThroughThe17DigitWriter) {
  std::vector<double> values = {0.0,
                                -0.0,
                                1.0,
                                -1.0,
                                0.1,
                                1.0 / 3.0,
                                DBL_MAX,
                                -DBL_MAX,
                                DBL_MIN,
                                DBL_TRUE_MIN,
                                -DBL_TRUE_MIN,
                                std::nextafter(DBL_MIN, 0.0),
                                1e-310,
                                9007199254740993.0,
                                123456789012345678.0};
  std::mt19937_64 rng(17);
  for (int i = 0; i < 20000; ++i) {
    double v = 0;
    const std::uint64_t bits = rng();
    std::memcpy(&v, &bits, sizeof v);
    if (std::isfinite(v)) values.push_back(v);
  }
  std::ostringstream os;
  os.precision(17);
  for (const double v : values) os << v << ' ';
  os << '\n';
  const std::string text = os.str();  // ~480 KB: several read blocks
  Cursor in(text, "test");
  std::vector<double> back(values.size());
  in->reals(back);
  EXPECT_TRUE(in->atEnd());
  for (std::size_t i = 0; i < values.size(); ++i)
    ASSERT_EQ(bitsOf(back[i]), bitsOf(values[i])) << values[i];
}

TEST(TextCursor, RejectsPartialNonFiniteAndOutOfRangeNumbers) {
  for (const char* bad :
       {"1.5x ", "1.5.2 ", "inf ", "-inf ", "nan ", "1e400 ", "+1 ", "x "}) {
    Cursor in(bad, "test");
    EXPECT_NE(runtimeErrorOf([&] { in->real(); }), "") << bad;
  }
  for (const char* bad : {"-1 ", "1.0 ", "18446744073709551616 ", "+3 "}) {
    Cursor in(bad, "test");
    EXPECT_NE(runtimeErrorOf([&] { in->integer<std::size_t>(); }), "")
        << bad;
  }
  Cursor narrow("70000 ", "test");
  EXPECT_NE(runtimeErrorOf([&] { narrow->integer<std::uint16_t>(); }), "");
}

TEST(TextCursor, ATokenThatRunsIntoTheEndIsTruncated) {
  // The writers end every line with '\n': "0.2" at the very end may be
  // the first digits of "0.25".
  for (const char* cut : {"0.2", "12", "word", "", "  "}) {
    Cursor a(cut, "test");
    EXPECT_NE(runtimeErrorOf([&] { a->real(); }).find("truncated"),
              std::string::npos)
        << cut;
    Cursor b(cut, "test");
    EXPECT_NE(runtimeErrorOf([&] { b->word(); }).find("truncated"),
              std::string::npos)
        << cut;
  }
  Cursor line("no newline", "test");
  EXPECT_NE(runtimeErrorOf([&] { line->restOfLine(); }), "");
}

TEST(TextCursor, ErrorsNameTheLoaderAndTheByteOffset) {
  Cursor in("gamma 0.5 rho x \n", "SvmModel::load");
  in->expect("gamma");
  EXPECT_EQ(in->real(), 0.5);
  in->expect("rho");
  EXPECT_EQ(runtimeErrorOf([&] { in->real(); }),
            "SvmModel::load: bad number 'x' at byte 14");
  Cursor kw("gamma 1 \n", "L");
  EXPECT_EQ(runtimeErrorOf([&] { kw->expect("rho"); }),
            "L: expected 'rho', found 'gamma' at byte 0");
}

TEST(TextCursor, CountsAreCheckedAgainstTheRemainingBytes) {
  // Eight bytes follow the count: room for at most four tokens of two
  // bytes each.
  Cursor fits("3 a b c \n", "test");
  EXPECT_EQ(fits->count(1), 3u);
  Cursor over("5 a b c \n", "test");
  EXPECT_NE(runtimeErrorOf([&] { over->count(1); }).find("exceeds"),
            std::string::npos);
  // n * m is never formed: products that wrap are still rejected.
  Cursor wrap("x \n", "test");
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  EXPECT_NE(runtimeErrorOf([&] { wrap->requireTokens(kMax, kMax); }), "");
  EXPECT_NE(runtimeErrorOf([&] { wrap->requireTokens(2, kMax / 2 + 1); }),
            "");
  EXPECT_EQ(runtimeErrorOf([&] { wrap->requireTokens(0, kMax); }), "");
  EXPECT_EQ(runtimeErrorOf([&] { wrap->requireTokens(kMax, 0); }), "");
}

TEST(TextCursor, ReadsTokensAcrossBlocksAndUnseekableStreams) {
  // Tokens that straddle the 64 KB read blocks, one token longer than a
  // block, and byte offsets counted across refills.
  std::string text(65530, ' ');
  text += "0.125 ";
  text += std::string(100000, 'w') + "\n";
  text += "7 1.5x \n";
  const auto check = [&](std::istream& is) {
    TextCursor in(is, "test");
    EXPECT_EQ(in.real(), 0.125);
    EXPECT_EQ(in.word(), std::string(100000, 'w'));
    EXPECT_EQ(in.remaining(), 9u);
    EXPECT_EQ(in.integer<int>(), 7);
    EXPECT_EQ(runtimeErrorOf([&] { in.real(); }),
              "test: bad number '1.5x' at byte " +
                  std::to_string(text.size() - 6));
  };
  std::istringstream seekable(text);
  check(seekable);
  NoSeekBuf buf(text);
  std::istream unseekable(&buf);
  check(unseekable);
}

// ---------------------------------------------------------------------------
// Damaged-model corpus

struct SavedModel {
  std::string text;
  std::uint64_t fingerprint = 0;
};

/// A detector trained on a small generated set, with a feedback kernel,
/// a Platt model and a drift baseline, saved once. Only its first three
/// kernels (and their baseline clusters) are kept, so the corpus loads
/// stay cheap; every section of the format is still there.
const SavedModel& savedModel() {
  static const SavedModel saved = [] {
    data::GeneratorParams gp;
    gp.seed = 19;
    data::TrainingTargets t;
    t.hotspots = 25;
    t.nonHotspots = 30;
    const gds::ClipSet set = data::generateTrainingSet(gp, t);
    engine::RunContext ctx(1);
    core::Detector det = core::trainDetector(set.clips, {}, ctx);
    det.kernels.resize(3);
    det.baseline.clusters.resize(3);
    std::ostringstream os;
    det.save(os);
    SavedModel m;
    m.text = os.str();
    m.fingerprint = det.fingerprint();
    EXPECT_TRUE(det.hasFeedback);
    EXPECT_TRUE(det.hasPlatt);
    EXPECT_TRUE(det.hasBaseline);
    return m;
  }();
  return saved;
}

/// The corpus contract for one input.
void expectRejectedOrIntact(const std::string& text, const std::string& label) {
  std::istringstream is(text);
  try {
    const core::Detector det = core::Detector::load(is);
    EXPECT_EQ(det.fingerprint(), savedModel().fingerprint)
        << label << " loaded a different model";
  } catch (const std::runtime_error&) {
    // typed rejection
  } catch (const std::exception& e) {
    ADD_FAILURE() << label << ": " << typeid(e).name() << ": " << e.what();
  } catch (...) {
    ADD_FAILURE() << label << ": non-std exception";
  }
}

std::vector<std::string> splitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  return lines;
}

std::string joinLines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& l : lines) out += l + '\n';
  return out;
}

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

bool isDigit(char c) { return c >= '0' && c <= '9'; }
bool isBlank(char c) { return c == ' ' || c == '\n'; }

TEST(ModelLoadCorpus, IntactModelRoundTrips) {
  expectRejectedOrIntact(savedModel().text, "intact");
  std::istringstream is(savedModel().text);
  std::ostringstream again;
  core::Detector::load(is).save(again);
  EXPECT_EQ(again.str(), savedModel().text);
  // A stream that cannot seek is read whole first; same model.
  std::string text = savedModel().text;
  NoSeekBuf buf(text);
  std::istream unseekable(&buf);
  EXPECT_EQ(core::Detector::load(unseekable).fingerprint(),
            savedModel().fingerprint);
}

TEST(ModelLoadCorpus, EveryTruncationOnAStride) {
  const std::string& text = savedModel().text;
  const std::size_t stride = std::max<std::size_t>(1, text.size() / 1500);
  for (std::size_t len = 3; len < text.size(); len += stride)
    expectRejectedOrIntact(text.substr(0, len), "truncated at " +
                                                    std::to_string(len));
  // Every length around the end of the fingerprinted core, where a cut
  // leaves a baseline-free file whose last number may be shortened.
  const std::size_t core = text.find("baseline ");
  ASSERT_NE(core, std::string::npos);
  for (std::size_t len = core - 64; len < core + 64; ++len)
    expectRejectedOrIntact(text.substr(0, len), "truncated at " +
                                                    std::to_string(len));
}

TEST(ModelLoadCorpus, SingleByteMutations) {
  const std::string& text = savedModel().text;
  // Letters that cannot complete a number ('e' makes exponents, and
  // a/f/i/n/t/y spell inf, infinity and nan).
  const std::string letters = "gjkqwxz";
  std::mt19937 rng(23);
  std::size_t cases = 0;
  for (const std::size_t i : samplePositions(
           text, 800, 1, [&](std::size_t i) { return isDigit(text[i]); })) {
    std::string m = text;
    m[i] = letters[rng() % letters.size()];
    expectRejectedOrIntact(m, "digit->letter at " + std::to_string(i));
    ++cases;
  }
  // A space between two tokens becomes a digit: the tokens merge.
  for (const std::size_t i : samplePositions(text, 800, 2, [&](std::size_t i) {
         return text[i] == ' ' && i > 0 && i + 1 < text.size() &&
                !isBlank(text[i - 1]) && !isBlank(text[i + 1]);
       })) {
    std::string m = text;
    m[i] = char('0' + rng() % 10);
    expectRejectedOrIntact(m, "space->digit at " + std::to_string(i));
    ++cases;
  }
  // A leading minus sign flips to '+'.
  for (const std::size_t i : samplePositions(text, 800, 3, [&](std::size_t i) {
         return text[i] == '-' && (i == 0 || isBlank(text[i - 1]));
       })) {
    std::string m = text;
    m[i] = '+';
    expectRejectedOrIntact(m, "sign flip at " + std::to_string(i));
    ++cases;
  }
  EXPECT_GT(cases, 1500u);
}

TEST(ModelLoadCorpus, DuplicatedAndDeletedLines) {
  const std::vector<std::string> lines = splitLines(savedModel().text);
  const std::size_t stride = std::max<std::size_t>(1, lines.size() / 600);
  for (std::size_t i = 0; i < lines.size(); i += stride) {
    std::vector<std::string> dup = lines;
    dup.insert(dup.begin() + std::ptrdiff_t(i), lines[i]);
    expectRejectedOrIntact(joinLines(dup), "duplicated line " +
                                               std::to_string(i));
    std::vector<std::string> del = lines;
    del.erase(del.begin() + std::ptrdiff_t(i));
    expectRejectedOrIntact(joinLines(del), "deleted line " +
                                               std::to_string(i));
  }
}

// One case per count: a value just past what the remaining bytes can
// back is rejected by the byte-budget check (its "exceeds" message)
// before anything is sized from it, not by running out of text later.

/// The saved text with line `lineNo` (or the first line starting with
/// `prefix` when lineNo is npos) replaced by `replacement`.
std::string withLine(std::size_t lineNo, const std::string& prefix,
                     const std::string& replacement) {
  std::vector<std::string> lines = splitLines(savedModel().text);
  for (std::size_t i = 0; i < lines.size(); ++i)
    if (i == lineNo || (lineNo == std::string::npos &&
                        lines[i].starts_with(prefix))) {
      lines[i] = replacement;
      break;
    }
  return joinLines(lines);
}

void expectCountRejected(const std::string& text) {
  std::istringstream is(text);
  const std::string err =
      runtimeErrorOf([&] { (void)core::Detector::load(is); });
  EXPECT_NE(err.find("exceeds"), std::string::npos) << err;
}

TEST(ModelLoadCorpus, KernelCountBeyondTheRemainingBytes) {
  // Line 4 is the kernel count; each kernel is at least 17 tokens.
  const std::size_t bytes = savedModel().text.size();
  expectCountRejected(withLine(4, "", std::to_string(bytes / 34 + 1)));
}

TEST(ModelLoadCorpus, ScalerDimBeyondTheRemainingBytes) {
  // Line 6 is the first kernel's scaler dimension: 2d tokens follow.
  const std::size_t bytes = savedModel().text.size();
  expectCountRejected(withLine(6, "", std::to_string(bytes / 4 + 1)));
}

TEST(ModelLoadCorpus, SupportVectorRowsBeyondTheRemainingBytes) {
  const std::size_t bytes = savedModel().text.size();
  // nsv rows of (1 + dim) tokens: too many rows, too wide a row, a dim
  // whose + 1 would wrap, and a huge dim with no rows at all.
  expectCountRejected(withLine(std::string::npos, "nsv ",
                               "nsv " + std::to_string(bytes / 4 + 1) +
                                   " dim 1"));
  expectCountRejected(withLine(std::string::npos, "nsv ",
                               "nsv 1 dim " + std::to_string(bytes / 2)));
  expectCountRejected(withLine(std::string::npos, "nsv ",
                               "nsv 1 dim 18446744073709551615"));
  expectCountRejected(withLine(std::string::npos, "nsv ",
                               "nsv 0 dim 18446744073709551615"));
  expectCountRejected(withLine(std::string::npos, "nsv ",
                               "nsv 0 dim " + std::to_string(bytes / 2)));
}

TEST(ModelLoadCorpus, BaselineClusterCountBeyondTheRemainingBytes) {
  const std::size_t bytes = savedModel().text.size();
  constexpr std::size_t kTokens = 2 + obs::MarginSketch::kNumBuckets;
  expectCountRejected(withLine(
      std::string::npos, "baseline ",
      "baseline " + std::to_string(bytes / (2 * kTokens) + 1) + " " +
          std::to_string(obs::MarginSketch::kNumBuckets)));
}

}  // namespace
}  // namespace hsd
