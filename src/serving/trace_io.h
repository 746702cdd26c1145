/**
 * @file
 * Versioned on-disk trace format (`pimba-trace-v1`): a CSV body under a
 * comment header carrying the format id and the declared request count.
 *
 *     # pimba-trace-v1
 *     # requests: 3
 *     # columns: id,arrival_seconds,input_tokens,output_tokens,class
 *     0,0,512,128,0
 *     1,0.21808950821976997,512,128,1
 *     2,0.4247630545365003,256,64,0
 *
 * Arrival seconds print with 17 significant digits, so a save/load
 * round trip reproduces every binary64 arrival bit-for-bit — a replayed
 * trace runs byte-identically to the generated one. The declared count
 * makes truncation detectable: a file that ends early is a hard error,
 * not a silently shorter workload. The loader enforces strictly
 * increasing ids (uniqueness without O(n) memory) and non-decreasing
 * arrivals, and reports every rejection with the file name and
 * 1-based line in the config-layer ConfigError style.
 *
 * TraceFileReader streams one request at a time (the fleet replay
 * path's bounded-memory shape); loadTrace is the eager wrapper.
 */

#ifndef PIMBA_SERVING_TRACE_IO_H
#define PIMBA_SERVING_TRACE_IO_H

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "serving/trace.h"

namespace pimba {

/// Format id on the first line of every trace file this repo writes.
inline constexpr const char kTraceFormatV1[] = "pimba-trace-v1";

/// Render @p trace in the pimba-trace-v1 format. The trace must be in
/// non-decreasing arrival order with strictly increasing ids (what
/// generateTrace produces); anything else is a fatal error, because
/// the emitted file would be rejected by its own loader.
std::string renderTrace(const std::vector<Request> &trace);

/// renderTrace() to @p path. Throws ConfigError when the file cannot
/// be created or written.
void saveTrace(const std::string &path, const std::vector<Request> &trace);

/**
 * Streaming pimba-trace-v1 reader: one Request per next() call, O(1)
 * memory regardless of file length. The constructor validates the
 * header; each next() validates its row (field count, numeric fields,
 * strictly increasing ids, non-decreasing arrivals, lengths >= 1) and
 * throws a located ConfigError on the first malformed byte. Reaching
 * end-of-file before the declared request count is a truncation error.
 */
class TraceFileReader : public ArrivalSource
{
  public:
    /// Open @p path and parse the header. @p limit > 0 stops after
    /// that many requests (replay prefixes); 0 reads the whole file.
    explicit TraceFileReader(const std::string &path, int limit = 0);
    ~TraceFileReader() override;

    TraceFileReader(const TraceFileReader &) = delete;
    TraceFileReader &operator=(const TraceFileReader &) = delete;

    bool next(Request &out) override;

    /// Request count the header declares.
    uint64_t declaredRequests() const { return declared; }
    /// Requests produced so far.
    uint64_t produced() const { return emitted; }

  private:
    [[noreturn]] void fail(const std::string &msg) const;
    /// Read the next line into @c lineBuf; false on EOF.
    bool readLine();

    std::string path;
    FILE *file = nullptr;
    std::string lineBuf;
    int lineNo = 0;
    uint64_t declared = 0;
    uint64_t emitted = 0;
    uint64_t limit = 0; ///< 0: no cap
    bool haveLast = false;
    uint64_t lastId = 0;
    Seconds lastArrival{0.0};
};

/// Read a whole trace file eagerly. @p limit as in TraceFileReader.
std::vector<Request> loadTrace(const std::string &path, int limit = 0);

/// The ArrivalSource a TraceConfig denotes: a TraceFileReader when a
/// replay file is named (cfg.numRequests > 0 limits the prefix), else
/// an ArrivalStream generator. Throws ConfigError for replay-file
/// problems; generation-side validation stays fatal as in
/// generateTrace.
std::unique_ptr<ArrivalSource> openArrivalSource(const TraceConfig &cfg);

} // namespace pimba

#endif // PIMBA_SERVING_TRACE_IO_H
