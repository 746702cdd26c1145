/**
 * @file
 * Name tables for the enums a scenario names by string. Each enum has
 * one `Named<T>` table beside its declaration, one row per value with
 * its printed name: sim/system.h (systems, execution modes),
 * serving/scheduler.h, cluster/router.h, cluster/fleet.h (fleet mode),
 * serving/trace.h (arrivals, lengths), obs/observability.h (timeline
 * format) and config/scenario.h (step report, scenario kind). The
 * scenario parser and the report printers read the same table. Names
 * match in any ASCII case; lookups scan the rows and allocate nothing.
 */

#ifndef PIMBA_CORE_NAMES_H
#define PIMBA_CORE_NAMES_H

#include <algorithm>
#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

#include "core/logging.h"

namespace pimba {

/// One row of an enum's name table.
template <class T>
struct Named
{
    T value;
    std::string_view name; ///< as reports print it
};

/// Lower-case ASCII letters only: locale-free, and usable in constexpr.
constexpr char
asciiLower(char c)
{
    return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

/// The value @p text names in @p table, ignoring ASCII case.
template <class T, size_t N>
constexpr std::optional<T>
lookupName(const Named<T> (&table)[N], std::string_view text)
{
    for (const Named<T> &row : table)
        if (std::ranges::equal(row.name, text, {}, asciiLower, asciiLower))
            return row.value;
    return std::nullopt;
}

/// The printed name of @p value.
template <class T, size_t N>
constexpr std::string_view
nameOf(const Named<T> (&table)[N], T value)
{
    for (const Named<T> &row : table)
        if (row.value == value)
            return row.name;
    PIMBA_PANIC("enum value missing from its name table");
}

/// Every name of @p table, lower-case and ", "-joined (error messages).
template <class T, size_t N>
std::string
nameList(const Named<T> (&table)[N])
{
    std::string out;
    for (const Named<T> &row : table) {
        if (!out.empty())
            out += ", ";
        for (char c : row.name)
            out += asciiLower(c);
    }
    return out;
}

} // namespace pimba

#endif // PIMBA_CORE_NAMES_H
