#include "text/text_cursor.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace hsd::text {

namespace {

constexpr std::size_t kBlockBytes = 64 << 10;

}  // namespace

TextCursor::TextCursor(std::istream& is, const char* what)
    : is_(is), what_(what), buf_(kBlockBytes, '\0') {
  pos_ = end_ = buf_.data();
  // The count checks need the length of the text: learned by seeking
  // when the stream can, else by reading all of it now.
  const std::istream::pos_type start = is.tellg();
  bool known = false;
  if (start != std::istream::pos_type(-1) && is.seekg(0, std::ios::end)) {
    const std::istream::pos_type stop = is.tellg();
    known = is.seekg(start) && stop != std::istream::pos_type(-1) &&
            stop >= start;
    if (known) size_ = std::size_t(stop - start);
  }
  is.clear();
  if (known) {
    readMore();
  } else {
    while (readMore() != 0) {
    }
  }
}

std::size_t TextCursor::readMore() {
  const std::size_t from = std::size_t(pos_ - buf_.data());
  const std::size_t to = std::size_t(end_ - buf_.data());
  if (to == buf_.size()) buf_.resize(buf_.size() * 2);
  is_.read(buf_.data() + to, std::streamsize(buf_.size() - to));
  const std::size_t got = std::size_t(is_.gcount());
  pos_ = buf_.data() + from;
  end_ = buf_.data() + to + got;
  read_ += got;
  // A stream longer than its seek length reported keeps remaining()
  // from wrapping.
  size_ = std::max(size_, read_);
  return got;
}

bool TextCursor::refill() {
  const std::size_t keep = std::size_t(end_ - pos_);
  base_ = offset(pos_);
  std::memmove(buf_.data(), pos_, keep);
  pos_ = buf_.data();
  end_ = pos_ + keep;
  return readMore() != 0;
}

void TextCursor::skipSpace() {
  do {
    const char* p = pos_;
    while (p != end_ && isSpace(*p)) ++p;
    pos_ = p;
  } while (pos_ == end_ && refill());
}

template <class Stop>
const char* TextCursor::find(Stop stop) {
  const char* p = pos_;
  for (const char* end = end_;; end = end_) {
    while (p != end && !stop(*p)) ++p;
    if (p != end) return p;
    const std::size_t n = std::size_t(p - pos_);
    if (!refill()) fail("truncated");
    p = pos_ + n;
  }
}

std::string_view TextCursor::word() {
  skipSpace();
  const char* const stop = find(isSpace);
  const std::string_view t(pos_, std::size_t(stop - pos_));
  pos_ = stop;
  return t;
}

void TextCursor::expect(std::string_view keyword) {
  const std::string_view got = word();
  if (got != keyword)
    failAt(got, "expected '" + std::string(keyword) + "', found '" +
                    std::string(got) + "'");
}

void TextCursor::badNumber(std::string_view token) {
  failAt(token, "bad number '" + std::string(token) + "'");
}

void TextCursor::requireTokens(std::size_t n, std::size_t m) const {
  const std::size_t maxTokens = remaining() / 2;
  if (n != 0 && m != 0 && (m > maxTokens || n > maxTokens / m))
    fail("count " + std::to_string(n) + " x " + std::to_string(m) +
         " tokens exceeds the " + std::to_string(remaining()) +
         " bytes left");
}

std::string_view TextCursor::restOfLine() {
  const char* const stop = find([](char c) { return c == '\n'; });
  const std::string_view line(pos_, std::size_t(stop - pos_));
  pos_ = stop + 1;
  return line;
}

bool TextCursor::atEnd() {
  skipSpace();
  return pos_ == end_;
}

void TextCursor::fail(const std::string& reason) const {
  throw std::runtime_error(std::string(what_) + ": " + reason + " at byte " +
                           std::to_string(offset(pos_)));
}

void TextCursor::failAt(std::string_view token, const std::string& reason) {
  pos_ = token.data();
  fail(reason);
}

}  // namespace hsd::text
