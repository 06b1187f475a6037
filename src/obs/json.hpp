// Tiny JSON helpers shared by every serializer that emits hand-rolled
// JSON (EngineStats::toJson, the Chrome trace writer, /tracez, log lines,
// the SERVE_STATS dumps): string escaping, span/log arg members and
// fixed-width 64-bit ids. jsonEscape escapes the two structural
// characters (" and \) plus control characters, so a stage or metric
// name containing a quote or backslash can never produce syntactically
// invalid JSON. Everything else — including multi-byte UTF-8 sequences —
// passes through untouched.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

namespace hsd::obs {

struct TraceArg;
struct TraceStrArg;

/// `s` escaped for inclusion inside a double-quoted JSON string literal
/// (the quotes themselves are the caller's business).
std::string jsonEscape(std::string_view s);

/// The present args of a span or log record (numeric a0, a1, then the
/// string s0) as `"key": value` members, each preceded by ", " unless
/// `first` is set; `first` is cleared once a member is written.
void appendArgsJson(std::ostream& os, const TraceArg& a0, const TraceArg& a1,
                    const TraceStrArg& s0, bool& first);

/// `v` as 16 lowercase, zero-padded hex digits: how a model fingerprint
/// renders wherever it is stamped (X-Profile, /modelz, stats lines).
std::string hex64(std::uint64_t v);

}  // namespace hsd::obs
