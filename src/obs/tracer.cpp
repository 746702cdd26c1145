#include "obs/tracer.h"

#include <algorithm>
#include <charconv>
#include <numeric>

#include "core/logging.h"
#include "obs/json_text.h"

namespace pimba {

namespace {

double
toUs(Seconds s)
{
    return s.value() * 1e6;
}

void
appendInt(std::string &out, int64_t v)
{
    char buf[24];
    auto res = std::to_chars(buf, buf + sizeof buf, v);
    out.append(buf, res.ptr);
}

} // namespace

uint32_t
Tracer::intern(std::string_view s)
{
    if (s.empty())
        return 0;
    auto it = ids.find(s);
    if (it != ids.end())
        return it->second;
    const auto id = static_cast<uint32_t>(texts.size());
    texts.emplace_back(s);
    ids.emplace(texts.back(), id);
    return id;
}

Tracer::Event &
Tracer::push(char ph, int pid, int64_t tid, Seconds ts,
             std::string_view name, std::string_view cat, Args args)
{
    PIMBA_ASSERT(args.size() <= kMaxArgs, "trace event \"", name,
                 "\" has ", args.size(), " args; an event holds at most ",
                 kMaxArgs);
    PIMBA_ASSERT(count < UINT32_MAX, "trace is full at ", count,
                 " events");
    if (count % kChunkEvents == 0)
        chunks.emplace_back(new Event[kChunkEvents]);
    Event &e = chunks.back()[count % kChunkEvents];
    ++count;
    e.ph = ph;
    e.pid = pid;
    e.tid = tid;
    e.tsUs = toUs(ts);
    e.name = intern(name);
    e.cat = intern(cat);
    for (const Arg &a : args) {
        e.argKey[e.argCount] = intern(a.key);
        e.argValue[e.argCount] = a.value;
        ++e.argCount;
    }
    return e;
}

void
Tracer::processName(int pid, std::string_view name)
{
    metadata.push_back({pid, 0, /*thread=*/false, intern(name)});
}

void
Tracer::threadName(int pid, int64_t tid, std::string_view name)
{
    metadata.push_back({pid, tid, /*thread=*/true, intern(name)});
}

void
Tracer::complete(int pid, int64_t tid, Seconds ts, Seconds dur,
                 std::string_view name, std::string_view cat, Args args)
{
    push('X', pid, tid, ts, name, cat, args).durUs = toUs(dur);
}

void
Tracer::begin(int pid, int64_t tid, Seconds ts, std::string_view name,
              std::string_view cat, Args args)
{
    push('B', pid, tid, ts, name, cat, args);
}

void
Tracer::end(int pid, int64_t tid, Seconds ts)
{
    push('E', pid, tid, ts, {}, {}, {});
}

void
Tracer::instant(int pid, int64_t tid, Seconds ts, std::string_view name,
                std::string_view cat, Args args)
{
    push('i', pid, tid, ts, name, cat, args);
}

void
Tracer::counter(int pid, Seconds ts, std::string_view name, double value)
{
    push('C', pid, 0, ts, name, {}, {{"value", value}});
}

bool
Tracer::emit(std::string &out, std::FILE *file) const
{
    // Stable sort by timestamp: per-(pid, tid) insertion order is
    // preserved, so B/E nesting survives while the stream becomes
    // globally monotonic (what the CI validator checks).
    std::vector<uint32_t> order(count);
    std::iota(order.begin(), order.end(), uint32_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [this](uint32_t a, uint32_t b) {
                         return at(a).tsUs < at(b).tsUs;
                     });

    bool ok = true;
    auto flush = [&] {
        if (file && out.size() >= kFlushBytes) {
            ok = std::fwrite(out.data(), 1, out.size(), file) ==
                     out.size() &&
                 ok;
            out.clear();
        }
    };
    // Every interned string as a quoted JSON literal, escaped once.
    std::vector<std::string> quoted(texts.size());
    for (size_t id = 0; id < texts.size(); ++id) {
        quoted[id].push_back('"');
        appendJsonEscaped(quoted[id], texts[id]);
        quoted[id].push_back('"');
    }
    auto head = [&](char ph, int pid, int64_t tid) {
        out += "{\"ph\":\"";
        out.push_back(ph);
        out += "\",\"pid\":";
        appendInt(out, pid);
        out += ",\"tid\":";
        appendInt(out, tid);
    };

    out += "{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n";
    bool first = true;
    for (const Metadata &m : metadata) {
        if (!first)
            out += ",\n";
        first = false;
        head('M', m.pid, m.tid);
        out += m.thread ? ",\"name\":\"thread_name\",\"args\":{\"name\":"
                        : ",\"name\":\"process_name\",\"args\":{\"name\":";
        out += quoted[m.name];
        out += "}}";
        flush();
    }
    for (uint32_t i : order) {
        const Event &e = at(i);
        if (!first)
            out += ",\n";
        first = false;
        head(e.ph, e.pid, e.tid);
        out += ",\"ts\":";
        appendNumber(out, e.tsUs);
        if (e.ph == 'X') {
            out += ",\"dur\":";
            appendNumber(out, e.durUs);
        }
        if (e.name) {
            out += ",\"name\":";
            out += quoted[e.name];
        }
        if (e.cat) {
            out += ",\"cat\":";
            out += quoted[e.cat];
        }
        if (e.ph == 'i')
            out += ",\"s\":\"t\"";
        for (uint8_t a = 0; a < e.argCount; ++a) {
            out += a ? "," : ",\"args\":{";
            out += quoted[e.argKey[a]];
            out.push_back(':');
            appendNumber(out, e.argValue[a]);
        }
        if (e.argCount)
            out.push_back('}');
        out.push_back('}');
        flush();
    }
    out += "\n]\n}\n";
    return ok;
}

std::string
Tracer::renderJson() const
{
    std::string out;
    emit(out, nullptr);
    return out;
}

bool
Tracer::writeFile(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::string buf;
    buf.reserve(kFlushBytes + 4096);
    bool ok = emit(buf, f);
    ok = std::fwrite(buf.data(), 1, buf.size(), f) == buf.size() && ok;
    return std::fclose(f) == 0 && ok;
}

} // namespace pimba
