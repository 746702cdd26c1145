#include "core/logging.h"

#include <mutex>

namespace pimba {

namespace {

/**
 * Serialize whole-line emission: warn() is called from the
 * sweep thread pool's workers, and separate stream insertions on the
 * shared std::cerr interleave mid-line under contention. Each message
 * is built into one string first and written with a single insertion
 * under this lock. panic()/fatal() route through the same lock so a
 * dying thread's last line stays intact too.
 */
std::mutex &
emitLock()
{
    static std::mutex m;
    return m;
}

void
emitLine(const char *prefix, const std::string &msg,
         const std::string &suffix = "")
{
    std::string line;
    line.reserve(std::char_traits<char>::length(prefix) + msg.size() +
                 suffix.size() + 1);
    line += prefix;
    line += msg;
    line += suffix;
    line += '\n';
    std::lock_guard<std::mutex> guard(emitLock());
    std::cerr << line;
}

} // namespace

void
panicImpl(const char *file, int line, const std::string &msg)
{
    emitLine("panic: ", msg,
             " (" + std::string(file) + ":" + std::to_string(line) + ")");
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    emitLine("fatal: ", msg,
             " (" + std::string(file) + ":" + std::to_string(line) + ")");
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    emitLine("warn: ", msg);
}

} // namespace pimba
