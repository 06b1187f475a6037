// Tiny JSON string-escape helper shared by every serializer that emits
// hand-rolled JSON (EngineStats::toJson, the Chrome trace writer, the
// SERVE_STATS dumps). Escapes the two structural characters (" and \)
// plus control characters, so a stage or metric name containing a quote
// or backslash can never produce syntactically invalid JSON. Everything
// else — including multi-byte UTF-8 sequences — passes through untouched.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace hsd::obs {

/// `s` escaped for inclusion inside a double-quoted JSON string literal
/// (the quotes themselves are the caller's business).
std::string jsonEscape(std::string_view s);

/// `v` as 16 lowercase, zero-padded hex digits: how a model fingerprint
/// renders wherever it is stamped (X-Profile, /modelz, stats lines).
std::string hex64(std::uint64_t v);

}  // namespace hsd::obs
