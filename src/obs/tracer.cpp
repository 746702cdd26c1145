#include "obs/tracer.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>

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
    if (tailCount() == kRunEvents)
        spillRun();
    const size_t tail = tailCount();
    if (tail == chunks.size() * kChunkEvents)
        chunks.emplace_back(new Event[kChunkEvents]);
    Event &e = chunks[tail / kChunkEvents][tail % kChunkEvents];
    ++count;
    e = Event{}; // the chunk may hold a spilled run's record
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

void
Tracer::sortTail(std::vector<Key> &keys) const
{
    keys.resize(tailCount());
    for (size_t i = 0; i < keys.size(); ++i)
        keys[i] = {at(i).tsUs, static_cast<uint32_t>(i)};
    std::sort(keys.begin(), keys.end());
}

void
Tracer::spillRun()
{
    if (!spill) {
        spill.reset(std::tmpfile());
        if (!spill)
            PIMBA_FATAL("cannot create the trace spill file: ",
                        std::strerror(errno));
    }
    // The sorted records go out a block at a time.
    sortTail(spillKeys);
    spillBlock.resize(kChunkEvents);
    for (size_t i = 0; i < kRunEvents; i += kChunkEvents) {
        for (size_t j = 0; j < kChunkEvents; ++j)
            spillBlock[j] = at(spillKeys[i + j].index);
        if (std::fwrite(spillBlock.data(), sizeof(Event), kChunkEvents,
                        spill.get()) != kChunkEvents)
            PIMBA_FATAL("short write to the trace spill file (run ", runs,
                        "): ", std::strerror(errno));
    }
    if (std::fflush(spill.get()) != 0)
        PIMBA_FATAL("short write to the trace spill file (run ", runs,
                    "): ", std::strerror(errno));
    ++runs;
}

bool
Tracer::emit(std::string &out, std::FILE *file) const
{
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
    bool first = true;
    auto head = [&](char ph, int pid, int64_t tid) {
        if (!first)
            out += ",\n";
        first = false;
        out += "{\"ph\":\"";
        out.push_back(ph);
        out += "\",\"pid\":";
        appendInt(out, pid);
        out += ",\"tid\":";
        appendInt(out, tid);
    };

    out += "{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n";
    for (const Metadata &m : metadata) {
        head('M', m.pid, m.tid);
        out += m.thread ? ",\"name\":\"thread_name\",\"args\":{\"name\":"
                        : ",\"name\":\"process_name\",\"args\":{\"name\":";
        out += quoted[m.name];
        out += "}}";
        flush();
    }
    auto appendEvent = [&](const Event &e) {
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
    };

    // Sources: the spilled runs in order, then the in-memory tail
    // (source `runs`). Each is in (timestamp, insertion) order and a
    // tie goes to the lower source, which was recorded earlier, so the
    // merge is the stable sort of every record by timestamp.
    std::vector<Key> tail;
    sortTail(tail);
    size_t tailAt = 0;
    // Spilled runs are read back a block at a time.
    const size_t readEvents =
        std::max(kMinReadEvents, kMergeEvents / std::max<size_t>(runs, 1));
    std::vector<Event> blocks(runs * readEvents);
    struct Cursor
    {
        const Event *next = nullptr, *end = nullptr;
        size_t fileAt = 0, fileEnd = 0; ///< records of the spill file
    };
    std::vector<Cursor> cursors(runs);
    for (size_t r = 0; r < runs; ++r) {
        cursors[r].fileAt = r * kRunEvents;
        cursors[r].fileEnd = (r + 1) * kRunEvents;
    }
    const int fd = spill ? fileno(spill.get()) : -1;
    bool readOk = true;
    // The next record of source @p s; null once it is exhausted or
    // cannot be read (readOk turns false).
    auto next = [&](size_t s) -> const Event * {
        if (s == runs)
            return tailAt < tail.size() ? &at(tail[tailAt++].index)
                                        : nullptr;
        Cursor &c = cursors[s];
        if (c.next == c.end) {
            const size_t n = std::min(readEvents, c.fileEnd - c.fileAt);
            if (n == 0)
                return nullptr;
            Event *block = &blocks[s * readEvents];
            const size_t bytes = n * sizeof(Event);
            if (::pread(fd, block, bytes,
                        static_cast<off_t>(c.fileAt * sizeof(Event))) !=
                static_cast<ssize_t>(bytes)) {
                readOk = false;
                return nullptr;
            }
            c.fileAt += n;
            c.next = block;
            c.end = block + n;
        }
        return c.next++;
    };

    struct Head
    {
        double tsUs;
        size_t src;
        const Event *e;
    };
    auto before = [](const Head &a, const Head &b) {
        return a.tsUs < b.tsUs || (a.tsUs == b.tsUs && a.src < b.src);
    };
    // A min-heap of each source's next record; sorted is a heap too.
    std::vector<Head> heap;
    for (size_t s = 0; s <= runs; ++s)
        if (const Event *e = next(s))
            heap.push_back({e->tsUs, s, e});
    std::sort(heap.begin(), heap.end(), before);
    while (readOk && !heap.empty()) {
        appendEvent(*heap[0].e);
        const size_t s = heap[0].src;
        const Event *e = next(s);
        const Head top = e ? Head{e->tsUs, s, e} : heap.back();
        if (!e)
            heap.pop_back();
        if (heap.empty())
            break;
        // Sift the new top down: one pass where pop + push take two.
        size_t i = 0;
        for (size_t c = 1; c < heap.size(); i = c, c = 2 * c + 1) {
            if (c + 1 < heap.size() && before(heap[c + 1], heap[c]))
                ++c;
            if (!before(heap[c], top))
                break;
            heap[i] = heap[c];
        }
        heap[i] = top;
    }
    if (!readOk)
        return false;
    out += "\n]\n}\n";
    return ok;
}

std::string
Tracer::renderJson() const
{
    std::string out;
    if (!emit(out, nullptr))
        PIMBA_PANIC("cannot read back the trace spill file");
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
    const bool ok =
        emit(buf, f) &&
        std::fwrite(buf.data(), 1, buf.size(), f) == buf.size();
    return std::fclose(f) == 0 && ok;
}

} // namespace pimba
