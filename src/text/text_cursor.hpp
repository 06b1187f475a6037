// The tokenizer behind every reader of text from outside: model files
// (SvmModel, the detector's scaler and feature sections, the drift
// baseline), the ASCII layout, clip-set and window-list formats, and the
// numbers in HTTP framing, query parameters, headers and CLI flags.
//
// parseNumber() is the one number grammar. A token is a number when
// std::from_chars reads all of it: integers in base 10 or 16, with a
// leading '-' only where the type is signed; doubles in the general
// format, finite only. So "", " 1", "+1", "0x10", "1x", "0x1p3", "inf",
// "nan" and a value outside the type's range are all rejected. from_chars
// rounds correctly, so a double written with 17 significant digits reads
// back to its exact bits.
//
// TextCursor walks a stream of whitespace-separated tokens. The stream is
// read in fixed-size blocks, so a load holds at most a block (or one
// overlong token) of text besides what it builds. The length of the text
// is learned up front by seeking; a stream that cannot seek is read whole
// instead.
//
// The cursor is strict:
//  - a number must fill its whole token ("1.5x" is an error, not 1.5
//    followed by "x"), per parseNumber();
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
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>

namespace hsd::text {

namespace detail {
template <class T>
bool isFinite(T v) {
  if constexpr (std::is_floating_point_v<T>)
    return std::isfinite(v);
  else
    return true;
}
}  // namespace detail

/// `token` as a T when std::from_chars reads all of it (integers in
/// `base`, 10 or 16; doubles in the general format, finite only);
/// otherwise nullopt.
template <class T>
std::optional<T> parseNumber(std::string_view token, int base = 10) {
  T v{};
  const char* const end = token.data() + token.size();
  std::from_chars_result r;
  if constexpr (std::is_floating_point_v<T>)
    r = std::from_chars(token.data(), end, v);
  else
    r = std::from_chars(token.data(), end, v, base);
  if (r.ec != std::errc() || r.ptr != end || !detail::isFinite(v))
    return std::nullopt;
  return v;
}

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
  /// fail() with the offset of `token`, a view word() returned.
  [[noreturn]] void failAt(std::string_view token, const std::string& reason);

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
    const auto r = std::from_chars(pos_, end_, v);
    if (r.ec == std::errc() && r.ptr != end_ && isSpace(*r.ptr) &&
        detail::isFinite(v)) {
      pos_ = r.ptr;
      return v;
    }
    // Otherwise buffer the whole token (it may straddle a read block)
    // and parse exactly it.
    const std::string_view t = word();
    const std::optional<T> parsed = parseNumber<T>(t);
    if (!parsed) badNumber(t);
    return *parsed;
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

}  // namespace hsd::text
