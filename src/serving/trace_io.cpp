#include "serving/trace_io.h"

#include <cerrno>
#include <cinttypes>
#include <cstdlib>
#include <cstring>

// The located-rejection type of the config layer. The trace loader is
// the config surface of trace files — a malformed file is a user
// configuration error, reported exactly like a malformed scenario.
#include "config/json.h"
#include "core/logging.h"

namespace pimba {

namespace {

/// 17 significant digits: the shortest precision that round-trips
/// every binary64 through decimal text.
void
appendDouble(std::string &out, double v)
{
    char buf[64];
    snprintf(buf, sizeof buf, "%.17g", v);
    out += buf;
}

void
appendU64(std::string &out, uint64_t v)
{
    char buf[32];
    snprintf(buf, sizeof buf, "%" PRIu64, v);
    out += buf;
}

/// Parse one full uint64 token; false on any trailing garbage.
bool
parseU64(const std::string &tok, uint64_t &out)
{
    if (tok.empty() || tok[0] == '-')
        return false;
    errno = 0;
    char *end = nullptr;
    unsigned long long v = strtoull(tok.c_str(), &end, 10);
    if (errno != 0 || end != tok.c_str() + tok.size())
        return false;
    out = v;
    return true;
}

/// Parse one full double token; false on any trailing garbage.
bool
parseDouble(const std::string &tok, double &out)
{
    if (tok.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    double v = strtod(tok.c_str(), &end);
    if (errno != 0 || end != tok.c_str() + tok.size())
        return false;
    out = v;
    return true;
}

/// Split @p line on commas into @p fields (no quoting in this format).
void
splitCsv(const std::string &line, std::vector<std::string> &fields)
{
    fields.clear();
    size_t start = 0;
    for (;;) {
        size_t comma = line.find(',', start);
        if (comma == std::string::npos) {
            fields.push_back(line.substr(start));
            return;
        }
        fields.push_back(line.substr(start, comma - start));
        start = comma + 1;
    }
}

} // namespace

std::string
renderTrace(const std::vector<Request> &trace)
{
    std::string out;
    // ~40 bytes per row in practice; the reserve keeps the append loop
    // from reallocating log(n) times on million-request traces.
    out.reserve(96 + trace.size() * 40);
    out += "# ";
    out += kTraceFormatV1;
    out += "\n# requests: ";
    appendU64(out, trace.size());
    out += "\n# columns: id,arrival_seconds,input_tokens,output_tokens,"
           "class\n";
    for (size_t i = 0; i < trace.size(); ++i) {
        const Request &r = trace[i];
        if (i > 0) {
            PIMBA_ASSERT(r.id > trace[i - 1].id,
                         "renderTrace: ids must be strictly increasing "
                         "(request ", i, " has id ", r.id, " after ",
                         trace[i - 1].id, ")");
            PIMBA_ASSERT(!(r.arrival < trace[i - 1].arrival),
                         "renderTrace: arrivals must be non-decreasing "
                         "(request ", i, " arrives at ",
                         r.arrival.value(), "s after ",
                         trace[i - 1].arrival.value(), "s)");
        }
        appendU64(out, r.id);
        out += ',';
        appendDouble(out, r.arrival.value());
        out += ',';
        appendU64(out, r.inputLen);
        out += ',';
        appendU64(out, r.outputLen);
        out += ',';
        appendU64(out, r.classId);
        out += '\n';
    }
    return out;
}

void
saveTrace(const std::string &path, const std::vector<Request> &trace)
{
    std::string body = renderTrace(trace);
    FILE *f = fopen(path.c_str(), "w");
    if (!f)
        throw ConfigError(path + ": cannot create trace file: " +
                          strerror(errno));
    size_t wrote = fwrite(body.data(), 1, body.size(), f);
    bool ok = wrote == body.size() && fclose(f) == 0;
    if (!ok)
        throw ConfigError(path + ": short write saving trace (" +
                          strerror(errno) + ")");
}

TraceFileReader::TraceFileReader(const std::string &path_, int limit_)
    : path(path_), limit(limit_ > 0 ? static_cast<uint64_t>(limit_) : 0)
{
    file = fopen(path.c_str(), "r");
    if (!file)
        throw ConfigError(path + ": cannot open trace file: " +
                          strerror(errno));
    if (!readLine())
        fail("empty file (expected the '# pimba-trace-v1' header)");
    if (lineBuf != std::string("# ") + kTraceFormatV1)
        fail("bad format header \"" + lineBuf + "\" (expected \"# " +
             std::string(kTraceFormatV1) +
             "\"; is this a trace from a newer pimba?)");
    if (!readLine())
        fail("file ends before the '# requests: N' count line");
    const std::string prefix = "# requests: ";
    if (lineBuf.rfind(prefix, 0) != 0 ||
        !parseU64(lineBuf.substr(prefix.size()), declared))
        fail("bad request-count line \"" + lineBuf +
             "\" (expected \"# requests: N\")");
}

TraceFileReader::~TraceFileReader()
{
    if (file)
        fclose(file);
}

void
TraceFileReader::fail(const std::string &msg) const
{
    throw ConfigError(path + ": " + msg, lineNo, 1);
}

bool
TraceFileReader::readLine()
{
    lineBuf.clear();
    char buf[512];
    bool any = false;
    while (fgets(buf, sizeof buf, file)) {
        any = true;
        lineBuf += buf;
        if (!lineBuf.empty() && lineBuf.back() == '\n') {
            lineBuf.pop_back();
            break;
        }
    }
    if (any)
        ++lineNo;
    return any;
}

bool
TraceFileReader::next(Request &out)
{
    if (limit > 0 && emitted >= limit)
        return false;
    std::vector<std::string> fields;
    for (;;) {
        if (!readLine()) {
            if (emitted < declared)
                fail("truncated: file ends after " +
                     std::to_string(emitted) + " of " +
                     std::to_string(declared) + " declared requests");
            return false;
        }
        if (lineBuf.empty() || lineBuf[0] == '#')
            continue; // blank lines and comments are fine anywhere
        if (emitted >= declared)
            fail("more data rows than the declared " +
                 std::to_string(declared) + " requests");
        splitCsv(lineBuf, fields);
        if (fields.size() != 5)
            fail("expected 5 comma-separated fields "
                 "(id,arrival,input,output,class), got " +
                 std::to_string(fields.size()));
        Request r;
        double arrival = 0.0;
        uint64_t classId = 0;
        if (!parseU64(fields[0], r.id))
            fail("bad request id \"" + fields[0] + "\"");
        if (!parseDouble(fields[1], arrival))
            fail("bad arrival time \"" + fields[1] + "\"");
        if (!parseU64(fields[2], r.inputLen))
            fail("bad input length \"" + fields[2] + "\"");
        if (!parseU64(fields[3], r.outputLen))
            fail("bad output length \"" + fields[3] + "\"");
        if (!parseU64(fields[4], classId) ||
            classId > 0xFFFFFFFFull)
            fail("bad class id \"" + fields[4] + "\"");
        if (!(arrival >= 0.0)) // also rejects NaN
            fail("arrival time must be a finite non-negative number, "
                 "got \"" + fields[1] + "\"");
        if (r.inputLen < 1)
            fail("input length must be >= 1 (requests need a "
                 "non-empty prompt)");
        if (r.outputLen < 1)
            fail("output length must be >= 1 (requests must generate "
                 "a token)");
        if (r.inputLen > kMaxRequestTokens ||
            r.outputLen > kMaxRequestTokens)
            fail("input and output lengths must each be <= " +
                 std::to_string(kMaxRequestTokens) + " tokens, got " +
                 fields[2] + " and " + fields[3]);
        r.arrival = Seconds(arrival);
        r.classId = static_cast<uint32_t>(classId);
        if (haveLast) {
            if (r.id <= lastId)
                fail("request ids must be strictly increasing, got " +
                     std::to_string(r.id) + " after " +
                     std::to_string(lastId));
            if (r.arrival < lastArrival)
                fail("arrival times must be non-decreasing, got " +
                     std::to_string(arrival) + "s after " +
                     std::to_string(lastArrival.value()) + "s");
        }
        haveLast = true;
        lastId = r.id;
        lastArrival = r.arrival;
        ++emitted;
        out = r;
        return true;
    }
}

std::vector<Request>
loadTrace(const std::string &path, int limit)
{
    TraceFileReader reader(path, limit);
    std::vector<Request> trace;
    if (reader.declaredRequests() > 0)
        trace.reserve(limit > 0
                          ? std::min<uint64_t>(
                                static_cast<uint64_t>(limit),
                                reader.declaredRequests())
                          : reader.declaredRequests());
    Request r;
    while (reader.next(r))
        trace.push_back(r);
    return trace;
}

std::unique_ptr<ArrivalSource>
openArrivalSource(const TraceConfig &cfg)
{
    if (!cfg.file.empty())
        return std::make_unique<TraceFileReader>(cfg.file,
                                                 cfg.numRequests);
    return std::make_unique<ArrivalStream>(cfg);
}

} // namespace pimba
