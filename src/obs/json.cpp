#include "obs/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "obs/trace.hpp"

namespace hsd::obs {

namespace {

void appendEscaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        // Escape every control byte — C0 (incl. embedded NUL, which must
        // not truncate the string) and DEL. Bytes >= 0x80 pass through
        // untouched: they are UTF-8 continuation/lead bytes and escaping
        // them would corrupt multi-byte sequences.
        const unsigned char u = static_cast<unsigned char>(c);
        if (u < 0x20 || u == 0x7f) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", u);
          out += buf;
        } else {
          out += c;
        }
      }
    }
  }
}

}  // namespace

std::string jsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  appendEscaped(out, s);
  return out;
}

void JsonWriter::separate() {
  if (afterKey_) {
    afterKey_ = false;
    return;
  }
  if (levels_.empty()) return;
  Level& l = levels_.back();
  if (!l.empty) out_ += l.perLine ? "," : ", ";
  if (l.perLine) out_ += '\n';
  l.empty = false;
}

JsonWriter& JsonWriter::open(char bracket, bool perLine) {
  separate();
  out_ += bracket;
  levels_.push_back({perLine});
  return *this;
}

JsonWriter& JsonWriter::close(char bracket) {
  if (levels_.back().perLine) out_ += '\n';
  out_ += bracket;
  levels_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  separate();
  out_ += '"';
  appendEscaped(out_, k);
  out_ += "\": ";
  afterKey_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  separate();
  out_ += '"';
  appendEscaped(out_, s);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::value(bool b) { return raw(b ? "true" : "false"); }

JsonWriter& JsonWriter::value(double d) {
  if (!std::isfinite(d)) return raw("null");
  char buf[32];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof buf, d);
  return raw(std::string_view(buf, r.ptr - buf));
}

JsonWriter& JsonWriter::number(std::int64_t bits, bool isSigned) {
  char buf[24];
  const std::to_chars_result r =
      isSigned ? std::to_chars(buf, buf + sizeof buf, bits)
               : std::to_chars(buf, buf + sizeof buf, std::uint64_t(bits));
  return raw(std::string_view(buf, r.ptr - buf));
}

JsonWriter& JsonWriter::raw(std::string_view json) {
  separate();
  out_ += json;
  return *this;
}

void appendArgsJson(JsonWriter& w, const TraceArg& a0, const TraceArg& a1,
                    const TraceStrArg& s0) {
  for (const TraceArg* a : {&a0, &a1})
    if (a->key != nullptr) w.field(a->key, a->value);
  if (s0.key != nullptr) w.field(s0.key, s0.value);
}

std::string hex64(std::uint64_t v) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(v));
  return hex;
}

}  // namespace hsd::obs
