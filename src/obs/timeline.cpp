#include "obs/timeline.h"

#include "core/logging.h"
#include "obs/json_text.h"

namespace pimba {

namespace {

/// @p s as one RFC 4180 field: quoted, with inner quotes doubled, when
/// it holds a comma, a quote, CR or LF; verbatim otherwise.
std::string
csvEscape(const std::string &s)
{
    if (s.find_first_of(",\"\r\n") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out.push_back('"');
        out.push_back(c);
    }
    out.push_back('"');
    return out;
}

} // namespace

int
TimelineSampler::registerTrack(const std::string &label)
{
    labels.push_back(label);
    nextDue.push_back(Seconds(0.0));
    return static_cast<int>(labels.size()) - 1;
}

Seconds
TimelineSampler::dueAt(int track) const
{
    PIMBA_ASSERT(track >= 0 &&
                     static_cast<size_t>(track) < labels.size(),
                 "timeline sample on unregistered track ", track);
    return nextDue[static_cast<size_t>(track)];
}

void
TimelineSampler::sample(int track, Seconds now, uint64_t queueDepth,
                        uint64_t outstandingTokens, uint64_t running,
                        double blockUtil)
{
    if (now < dueAt(track))
        return;
    record(track, now, queueDepth, outstandingTokens, running,
           blockUtil);
    nextDue[static_cast<size_t>(track)] =
        interval > Seconds(0.0) ? now + interval : now;
}

void
TimelineSampler::record(int track, Seconds now, uint64_t queueDepth,
                        uint64_t outstandingTokens, uint64_t running,
                        double blockUtil)
{
    PIMBA_ASSERT(track >= 0 &&
                     static_cast<size_t>(track) < labels.size(),
                 "timeline record on unregistered track ", track);
    TimelineRow row;
    row.track = track;
    row.time = now;
    row.queueDepth = queueDepth;
    row.outstandingTokens = outstandingTokens;
    row.running = running;
    row.blockUtil = blockUtil;
    samples.push_back(row);
}

std::string
TimelineSampler::renderCsv() const
{
    std::string out = "time_s,track,label,queue_depth,"
                      "outstanding_tokens,running,block_util\n";
    for (const TimelineRow &r : samples) {
        appendNumber(out, r.time.value());
        out += ",";
        out += std::to_string(r.track);
        out += ",";
        out += csvEscape(labels[static_cast<size_t>(r.track)]);
        out += ",";
        out += std::to_string(r.queueDepth);
        out += ",";
        out += std::to_string(r.outstandingTokens);
        out += ",";
        out += std::to_string(r.running);
        out += ",";
        appendNumber(out, r.blockUtil);
        out += "\n";
    }
    return out;
}

std::string
TimelineSampler::renderJson() const
{
    std::string out = "[\n";
    for (size_t i = 0; i < samples.size(); ++i) {
        const TimelineRow &r = samples[i];
        out += "{\"time_s\":";
        appendNumber(out, r.time.value());
        out += ",\"track\":" + std::to_string(r.track) + ",\"label\":\"";
        appendJsonEscaped(out, labels[static_cast<size_t>(r.track)]);
        out += "\",\"queue_depth\":" + std::to_string(r.queueDepth) +
               ",\"outstanding_tokens\":" +
               std::to_string(r.outstandingTokens) +
               ",\"running\":" + std::to_string(r.running) +
               ",\"block_util\":";
        appendNumber(out, r.blockUtil);
        out += "}";
        out += i + 1 < samples.size() ? ",\n" : "\n";
    }
    out += "]\n";
    return out;
}

} // namespace pimba
