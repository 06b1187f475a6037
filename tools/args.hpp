// Flag lookup shared by the hsd_* tools: `--name value` pairs and bare
// `--name` switches anywhere after the positional arguments. Each tool
// declares its flags once, in its checkArgs call, and an undeclared
// `--flag` is a usage error naming it — a typo never runs silently with
// the default. Numbers go through text::parseNumber, the grammar every
// reader of outside text uses: text that is not exactly one finite
// number is a usage error naming its flag, never a silent zero.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <optional>
#include <stdexcept>
#include <string>

#include "text/text_cursor.hpp"

namespace hsd::tools {

/// One flag a tool declares: its name and, for a flag that takes a value,
/// the value's placeholder in the usage line (nullptr for a switch).
struct Flag {
  const char* name;
  const char* value = nullptr;
};

/// The first check of every tool's main(): argv must hold `positionals`
/// leading arguments, and every token starting with `--` must be one of
/// `flags` (a value flag consumes the token after it, which must exist).
/// Otherwise prints the problem and the usage line built from
/// `positionalUsage` and `flags` to stderr and returns false: the tool
/// exits 2 before reading any file.
inline bool checkArgs(int argc, char** argv, int positionals,
                      const char* positionalUsage,
                      std::initializer_list<Flag> flags) {
  const auto fail = [&](const char* problem, const char* arg) {
    if (problem != nullptr)
      std::fprintf(stderr, "error: %s '%s'\n", problem, arg);
    std::fprintf(stderr, "usage: %s %s", argv[0], positionalUsage);
    for (const Flag& f : flags)
      std::fprintf(stderr, f.value != nullptr ? " [%s %s]" : " [%s]", f.name,
                   f.value);
    std::fputc('\n', stderr);
    return false;
  };
  if (argc <= positionals) return fail(nullptr, nullptr);
  for (int i = 1; i < argc; ++i) {
    const Flag* f =
        std::find_if(flags.begin(), flags.end(), [&](const Flag& d) {
          return std::strcmp(d.name, argv[i]) == 0;
        });
    if (f == flags.end() && std::strncmp(argv[i], "--", 2) == 0)
      return fail("unknown flag", argv[i]);
    if (f != flags.end() && f->value != nullptr && ++i == argc)
      return fail("missing value for flag", f->name);
  }
  return true;
}

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
