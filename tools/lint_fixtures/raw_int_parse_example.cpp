// Seeded violation: an example transport parsing a typed session id with
// std::stoull, which takes a numeric prefix ("1abc" is 1) and wraps a
// minus sign ("-1" is 2^64 - 1) — ids the wire answers with a usage error.
// lint-expect: raw-int-parse
// lint-path: examples/fixture_repl.cpp
#include <cstdint>
#include <string>

std::uint64_t parse_session_id(const std::string& token) {
  return std::stoull(token);
}
