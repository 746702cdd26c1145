#include "obs/tracer.h"

#include <algorithm>
#include <cstdio>

namespace pimba {

namespace {

/** Minimal JSON string escaping (names are ASCII by construction). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
}

double
toUs(Seconds s)
{
    return s.value() * 1e6;
}

} // namespace

std::string
Tracer::renderArgs(const Args &args)
{
    if (args.empty())
        return "";
    std::string out = "{";
    for (size_t i = 0; i < args.size(); ++i) {
        if (i)
            out += ",";
        out += "\"" + jsonEscape(args[i].first) +
               "\":" + jsonNumber(args[i].second);
    }
    out += "}";
    return out;
}

void
Tracer::push(Event e)
{
    events.push_back(std::move(e));
}

void
Tracer::processName(int pid, const std::string &name)
{
    Event e;
    e.ph = 'M';
    e.pid = pid;
    e.tid = 0;
    e.name = "process_name";
    e.argsJson = "{\"name\":\"" + jsonEscape(name) + "\"}";
    metadata.push_back(std::move(e));
}

void
Tracer::threadName(int pid, int64_t tid, const std::string &name)
{
    Event e;
    e.ph = 'M';
    e.pid = pid;
    e.tid = tid;
    e.name = "thread_name";
    e.argsJson = "{\"name\":\"" + jsonEscape(name) + "\"}";
    metadata.push_back(std::move(e));
}

void
Tracer::complete(int pid, int64_t tid, Seconds ts, Seconds dur,
                 const std::string &name, const std::string &cat,
                 Args args)
{
    Event e;
    e.ph = 'X';
    e.pid = pid;
    e.tid = tid;
    e.tsUs = toUs(ts);
    e.durUs = toUs(dur);
    e.name = name;
    e.cat = cat;
    e.argsJson = renderArgs(args);
    push(std::move(e));
}

void
Tracer::begin(int pid, int64_t tid, Seconds ts, const std::string &name,
              const std::string &cat, Args args)
{
    Event e;
    e.ph = 'B';
    e.pid = pid;
    e.tid = tid;
    e.tsUs = toUs(ts);
    e.name = name;
    e.cat = cat;
    e.argsJson = renderArgs(args);
    push(std::move(e));
}

void
Tracer::end(int pid, int64_t tid, Seconds ts)
{
    Event e;
    e.ph = 'E';
    e.pid = pid;
    e.tid = tid;
    e.tsUs = toUs(ts);
    push(std::move(e));
}

void
Tracer::instant(int pid, int64_t tid, Seconds ts, const std::string &name,
                const std::string &cat, Args args)
{
    Event e;
    e.ph = 'i';
    e.pid = pid;
    e.tid = tid;
    e.tsUs = toUs(ts);
    e.name = name;
    e.cat = cat;
    e.argsJson = renderArgs(args);
    push(std::move(e));
}

void
Tracer::counter(int pid, Seconds ts, const std::string &name,
                double value)
{
    Event e;
    e.ph = 'C';
    e.pid = pid;
    e.tid = 0;
    e.tsUs = toUs(ts);
    e.name = name;
    e.argsJson = "{\"value\":" + jsonNumber(value) + "}";
    push(std::move(e));
}

std::string
Tracer::renderJson() const
{
    // Stable sort by timestamp: per-(pid, tid) insertion order is
    // preserved, so B/E nesting survives while the stream becomes
    // globally monotonic (what the CI validator checks).
    std::vector<const Event *> ordered;
    ordered.reserve(events.size());
    for (const Event &e : events)
        ordered.push_back(&e);
    std::stable_sort(ordered.begin(), ordered.end(),
                     [](const Event *a, const Event *b) {
                         return a->tsUs < b->tsUs;
                     });

    std::string out = "{\n\"displayTimeUnit\": \"ms\",\n"
                      "\"traceEvents\": [\n";
    bool first = true;
    auto emit = [&](const Event &e, bool meta) {
        if (!first)
            out += ",\n";
        first = false;
        out += "{\"ph\":\"";
        out.push_back(e.ph);
        out += "\",\"pid\":" + std::to_string(e.pid) +
               ",\"tid\":" + std::to_string(e.tid);
        if (!meta) {
            out += ",\"ts\":" + jsonNumber(e.tsUs);
            if (e.ph == 'X')
                out += ",\"dur\":" + jsonNumber(e.durUs);
        }
        if (!e.name.empty())
            out += ",\"name\":\"" + jsonEscape(e.name) + "\"";
        if (!e.cat.empty())
            out += ",\"cat\":\"" + jsonEscape(e.cat) + "\"";
        if (e.ph == 'i')
            out += ",\"s\":\"t\"";
        if (!e.argsJson.empty())
            out += ",\"args\":" + e.argsJson;
        out += "}";
    };
    for (const Event &e : metadata)
        emit(e, /*meta=*/true);
    for (const Event *e : ordered)
        emit(*e, /*meta=*/false);
    out += "\n]\n}\n";
    return out;
}

bool
Tracer::writeFile(const std::string &path) const
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::string json = renderJson();
    size_t written = std::fwrite(json.data(), 1, json.size(), f);
    int rc = std::fclose(f);
    return written == json.size() && rc == 0;
}

} // namespace pimba
