#include "obs/json.hpp"

#include <cstdio>
#include <ostream>

#include "obs/trace.hpp"

namespace hsd::obs {

std::string jsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
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
  return out;
}

void appendArgsJson(std::ostream& os, const TraceArg& a0, const TraceArg& a1,
                    const TraceStrArg& s0, bool& first) {
  for (const TraceArg* a : {&a0, &a1}) {
    if (a->key == nullptr) continue;
    if (!first) os << ", ";
    first = false;
    os << '"' << jsonEscape(a->key) << "\": " << a->value;
  }
  if (s0.key != nullptr) {
    if (!first) os << ", ";
    first = false;
    os << '"' << jsonEscape(s0.key) << "\": \"" << jsonEscape(s0.value)
       << '"';
  }
}

std::string hex64(std::uint64_t v) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(v));
  return hex;
}

}  // namespace hsd::obs
