// The tokenizer behind every model loader: one cursor over the text of a
// saved model (SvmModel, the detector's scaler and feature sections, the
// drift baseline). Tokens are separated by whitespace; numbers parse
// with std::from_chars, which rounds correctly like the strtod behind
// `istream >> double`, so a double written with 17 significant digits
// reads back to its exact bits.
//
// The stream is read in fixed-size blocks, so a load holds at most a
// block (or one overlong token) of text besides the model it builds. The
// length of the text is learned up front by seeking; a stream that
// cannot seek is read whole instead.
//
// Model files are outside input, so the cursor is strict:
//  - a number must fill its whole token ("1.5x" is an error, not 1.5
//    followed by "x"), and doubles must be finite;
//  - every token must end in whitespace. The writers end each line with
//    '\n', so a token that runs into the end of the text was cut short;
//  - a count is checked against the bytes that remain before anything is
//    sized from it: every token takes at least two bytes (a character and
//    a separator), so n items of m tokens each need 2 * n * m bytes.
// Every failure throws std::runtime_error("<what>: <reason> at byte <k>").
#pragma once

#include <charconv>
#include <cmath>
#include <cstddef>
#include <istream>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>

namespace hsd::svm {

class TextCursor {
 public:
  /// Parse the rest of `is`; `what` names the loader in error messages
  /// (e.g. "Detector::load"). The cursor reads ahead of what it parses.
  TextCursor(std::istream& is, const char* what);
  TextCursor(const TextCursor&) = delete;
  TextCursor& operator=(const TextCursor&) = delete;

  /// The next whitespace-separated token, whole (reading more of the
  /// stream as needed); throws "truncated" when the text ends first. The
  /// view is valid until the next call on the cursor.
  std::string_view word();
  /// Consume the next token, which must equal `keyword`.
  void expect(std::string_view keyword);
  /// The next token as a base-10 integer of type T (a leading '-' only
  /// where T is signed; the value must fit T).
  template <class T>
  T integer() {
    static_assert(std::is_integral_v<T>);
    return number<T>();
  }
  /// The next token as a finite double.
  double real() { return number<double>(); }
  /// The next out.size() tokens as doubles.
  void reals(std::span<double> out) {
    for (double& v : out) v = real();
  }
  /// An item count (a std::size_t token) whose items take at least
  /// `tokensEach` tokens each; throws unless the remaining text can hold
  /// them.
  std::size_t count(std::size_t tokensEach) {
    const std::size_t n = integer<std::size_t>();
    requireTokens(n, tokensEach);
    return n;
  }
  /// Throw unless the remaining text can hold `n` * `m` more tokens
  /// (overflow-free: the product is never formed).
  void requireTokens(std::size_t n, std::size_t m) const;
  /// The rest of the current line, without its '\n' (which is consumed);
  /// valid until the next call on the cursor.
  std::string_view restOfLine();
  /// True when nothing but whitespace remains.
  bool atEnd();
  /// Bytes of the text after the cursor.
  std::size_t remaining() const { return size_ - offset(pos_); }

  /// Throw "<what>: <reason> at byte <offset of the cursor>".
  [[noreturn]] void fail(const std::string& reason) const;

 private:
  /// The C locale's isspace: ' ' and '\t' '\n' '\v' '\f' '\r' (9-13).
  static bool isSpace(char c) {
    const auto u = static_cast<unsigned char>(c);
    return u <= ' ' && (u == ' ' || (u >= '\t' && u <= '\r'));
  }
  /// The next token as a T through std::from_chars (base 10 for
  /// integers, the general format for doubles, which must be finite).
  template <class T>
  T number() {
    skipSpace();
    T v{};
    // Fast path: the number ends at whitespace already in the buffer.
    auto r = std::from_chars(pos_, end_, v);
    if (r.ec == std::errc() && r.ptr != end_ && isSpace(*r.ptr) &&
        isFinite(v)) {
      pos_ = r.ptr;
      return v;
    }
    // Otherwise buffer the whole token (it may straddle a read block)
    // and parse exactly it.
    const std::string_view t = word();
    r = std::from_chars(t.data(), t.data() + t.size(), v);
    if (r.ec != std::errc() || r.ptr != t.data() + t.size() || !isFinite(v))
      badNumber(t);
    return v;
  }
  template <class T>
  static bool isFinite(T v) {
    if constexpr (std::is_floating_point_v<T>)
      return std::isfinite(v);
    else
      return true;
  }
  /// Skip whitespace, reading more of the stream as needed.
  void skipSpace();
  /// The first byte at or after pos_ where `stop` holds, reading more of
  /// the stream as needed (which may move pos_); throws "truncated" when
  /// the text ends first.
  template <class Stop>
  const char* find(Stop stop);
  /// Move the unparsed tail to the front of the buffer and read more of
  /// the stream after it; false when the stream has nothing left.
  bool refill();
  /// Read into the free space after end_, doubling the buffer when it is
  /// full; returns the number of bytes read.
  std::size_t readMore();
  [[noreturn]] void badNumber(std::string_view token);
  std::size_t offset(const char* p) const {
    return base_ + std::size_t(p - buf_.data());
  }

  std::istream& is_;
  const char* what_;
  std::string buf_;
  const char* pos_ = nullptr;  ///< next unparsed byte in buf_
  const char* end_ = nullptr;  ///< end of the bytes read into buf_
  std::size_t base_ = 0;       ///< text offset of buf_[0]
  std::size_t read_ = 0;       ///< bytes read from the stream so far
  std::size_t size_ = 0;       ///< length of the text
};

}  // namespace hsd::svm
