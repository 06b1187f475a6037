// Flag lookup shared by the hsd_* tools: `--name value` pairs and bare
// `--name` switches anywhere after the positional arguments. Numbers go
// through text::parseNumber, the grammar every reader of outside text
// uses: text that is not exactly one finite number is a usage error
// naming its flag, never a silent zero.
#pragma once

#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>

#include "text/text_cursor.hpp"

namespace hsd::tools {

/// True when `flag` appears in argv.
inline bool hasFlag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], flag) == 0) return true;
  return false;
}

/// The argument after the first `flag`, or `def` when there is none.
inline const char* argString(int argc, char** argv, const char* flag,
                             const char* def) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  return def;
}

/// The argument after `flag` as a finite double, or `def` when absent;
/// anything else throws std::invalid_argument naming the flag without its
/// dashes ("'bias' must be a finite number"). Feed engine::wholeNumber()
/// with it where a count or a coordinate is due.
inline double argDouble(int argc, char** argv, const char* flag, double def) {
  const char* v = argString(argc, argv, flag, nullptr);
  if (v == nullptr) return def;
  if (const std::optional<double> d = text::parseNumber<double>(v)) return *d;
  throw std::invalid_argument(std::string("'") + (flag + 2) +
                              "' must be a finite number");
}

}  // namespace hsd::tools
