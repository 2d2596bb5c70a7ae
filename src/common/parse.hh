/**
 * @file
 * The one strict parser for counts typed by a user: command-line flags
 * (`--workers`, `--jobs`, ...), the STFM_INSTRUCTIONS / STFM_JOBS
 * environment variables and the STFM_FAULT shard index all go through
 * it, so "-1", " 7", "5000x" and 2^32 are refused the same way
 * everywhere instead of wrapping, truncating or reading a prefix.
 */

#ifndef STFM_COMMON_PARSE_HH
#define STFM_COMMON_PARSE_HH

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <optional>

namespace stfm
{

/**
 * Decimal digits and nothing else, valued in [@p min, @p max]; nullopt
 * otherwise. strtoull alone would accept leading blanks and a sign
 * ("-1" wraps to 2^64 - 1), so a digit must come first.
 */
inline std::optional<std::uint64_t>
parseDecimal(const char *text, std::uint64_t min, std::uint64_t max)
{
    if (text == nullptr ||
        !std::isdigit(static_cast<unsigned char>(text[0])))
        return std::nullopt;
    char *end = nullptr;
    errno = 0;
    const unsigned long long parsed = std::strtoull(text, &end, 10);
    if (*end != '\0' || errno == ERANGE || parsed < min || parsed > max)
        return std::nullopt;
    return parsed;
}

} // namespace stfm

#endif // STFM_COMMON_PARSE_HH
