// The one JSON mechanism behind every JSON surface the repo emits
// (EngineStats, X-Profile, /statsz and the other admin bodies, the Chrome
// trace, log lines, SERVE_STATS/ENGINE_STATS, the BENCH_*.json files):
// a streaming JsonWriter plus the escaping and id helpers it shares.
//
// Output format, the same everywhere:
//   - separators `"key": value`, members and elements joined by ", ";
//     a per-line array puts each element on its own line instead
//     ("[\n{..},\n{..}\n]") — the Chrome trace, /tracez, BENCH files;
//   - integers exact, doubles in shortest round-trip form
//     (std::to_chars: any correctly rounding reader, such as
//     std::from_chars, gives back the same bits), non-finite
//     doubles as null. to_chars never consults a locale, so no emitter
//     imbues or restores one;
//   - keys and strings pass through jsonEscape, which escapes `"`, `\`
//     and every control byte (C0, embedded NUL, DEL). Everything else —
//     including multi-byte UTF-8 sequences — passes through untouched.
#pragma once

#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace hsd::obs {

struct TraceArg;
struct TraceStrArg;

/// `s` escaped for inclusion inside a double-quoted JSON string literal
/// (the quotes themselves are the caller's business).
std::string jsonEscape(std::string_view s);

/// Streaming JSON builder: appends to its own string and keeps the comma
/// state of every open object and array. Inside an object every value
/// follows a key().
class JsonWriter {
 public:
  JsonWriter& beginObject() { return open('{', false); }
  JsonWriter& endObject() { return close('}'); }
  /// `perLine` puts each element on its own line, closed by "\n]".
  JsonWriter& beginArray(bool perLine = false) { return open('[', perLine); }
  JsonWriter& endArray() { return close(']'); }
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(bool b);
  JsonWriter& value(double d);
  template <std::integral T>
  JsonWriter& value(T v) {
    return number(std::int64_t(v), std::is_signed_v<T>);
  }
  /// Splices already-rendered JSON (a provider's document, a cached
  /// profile, a fixed-point microsecond value) where the next value goes.
  /// At the top level, where no separator applies, it also appends text
  /// between documents: a body's trailing newline, the JSON-lines breaks.
  JsonWriter& raw(std::string_view json);

  template <class T>
  JsonWriter& field(std::string_view k, const T& v) {
    return key(k).value(v);
  }

  const std::string& str() const { return out_; }

 private:
  struct Level {
    bool perLine = false;
    bool empty = true;
  };
  void separate();
  JsonWriter& open(char bracket, bool perLine);
  JsonWriter& close(char bracket);
  /// Two's-complement bits of an integer and whether to read them signed.
  JsonWriter& number(std::int64_t bits, bool isSigned);

  std::string out_;
  std::vector<Level> levels_;
  bool afterKey_ = false;
};

/// The present args of a span or log record (numeric a0, a1, then the
/// string s0) as members of the object `w` has open.
void appendArgsJson(JsonWriter& w, const TraceArg& a0, const TraceArg& a1,
                    const TraceStrArg& s0);

/// `v` as 16 lowercase, zero-padded hex digits: how a model fingerprint
/// renders wherever it is stamped (X-Profile, /modelz, stats lines).
std::string hex64(std::uint64_t v);

}  // namespace hsd::obs
