/**
 * @file
 * Error-reporting helpers in the gem5 style: panic() for internal
 * invariant violations, fatal() for user/configuration errors, and
 * warn() for status messages that do not stop the run.
 */

#ifndef PIMBA_CORE_LOGGING_H
#define PIMBA_CORE_LOGGING_H

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

namespace pimba {

/** Print a message and abort; use for simulator bugs (impossible states). */
[[noreturn]] void panicImpl(const char *file, int line, const std::string &msg);

/** Print a message and exit(1); use for invalid user configuration. */
[[noreturn]] void fatalImpl(const char *file, int line, const std::string &msg);

/** Print a non-fatal warning to stderr. */
void warnImpl(const std::string &msg);

namespace detail {

/** Fold a list of streamable arguments into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    return oss.str();
}

} // namespace detail

} // namespace pimba

#define PIMBA_PANIC(...) \
    ::pimba::panicImpl(__FILE__, __LINE__, ::pimba::detail::concat(__VA_ARGS__))

#define PIMBA_FATAL(...) \
    ::pimba::fatalImpl(__FILE__, __LINE__, ::pimba::detail::concat(__VA_ARGS__))

#define PIMBA_WARN(...) \
    ::pimba::warnImpl(::pimba::detail::concat(__VA_ARGS__))

/** Assert a simulator invariant; active in all build types. */
#define PIMBA_ASSERT(cond, ...)                                              \
    do {                                                                     \
        if (!(cond)) {                                                       \
            PIMBA_PANIC("assertion failed: " #cond " ", ##__VA_ARGS__);      \
        }                                                                    \
    } while (0)

#endif // PIMBA_CORE_LOGGING_H
