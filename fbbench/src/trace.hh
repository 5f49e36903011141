/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * A span brackets one call from the benchmark into a layer of the
 * simulator (compiler, core, sim, snapshot, verify, exec). Spans are
 * kept in memory while the run goes on and written once, at exit, as
 * Chrome trace-event JSON. Per-layer self times are derived from them:
 * a span's duration minus the part of its interval that its child
 * spans cover, children on other threads included.
 *
 * Nothing inside the simulator is traced; the spans sit at the
 * benchmark's own call sites.
 */

#ifndef FBBENCH_TRACE_HH
#define FBBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace fbbench
{

using Clock = std::chrono::steady_clock;

/** Seconds between two steady-clock instants. */
inline double
seconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/** One recorded span. Times are nanoseconds since the tracer's epoch. */
struct SpanRecord
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::string layer;         ///< simulator layer the call enters
    std::string name;          ///< "<layer>.<call>"
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    int tid = 0;               ///< small per-thread number
};

class Tracer
{
  public:
    explicit Tracer(Clock::time_point epoch) : _epoch(epoch) {}

    /** Spans are recorded only while enabled. */
    void setEnabled(bool on) { _enabled = on; }
    bool enabled() const { return _enabled; }

    /** Open a span; returns its id (0 when disabled). */
    std::uint64_t open(const char *layer, const char *call,
                       std::uint64_t parent);

    /** Close span @p id opened by open(). */
    void close(std::uint64_t id);

    /** Innermost open span on the calling thread (0 = none). */
    static std::uint64_t current();

    /** Sum of durations of every span named @p name, in seconds. */
    double totalSeconds(const std::string &name) const;

    /** Self time per layer in seconds (see the file comment). */
    std::map<std::string, double> selfSecondsByLayer() const;

    /** Write every span as Chrome trace-event JSON; false on I/O error. */
    bool writeChromeJson(const std::string &path) const;

  private:
    Clock::time_point _epoch;
    bool _enabled = false;
    mutable std::mutex _mu;
    std::vector<SpanRecord> _spans;            ///< guarded by _mu
    std::map<std::uint64_t, std::size_t> _open; ///< guarded by _mu
    std::uint64_t _nextId = 1;                 ///< guarded by _mu
};

/**
 * RAII span. Always reads the clock, so callers can use elapsed() for
 * their own end-to-end accounting whether or not tracing is on; records
 * into the tracer only when it is enabled.
 */
class Span
{
  public:
    Span(Tracer &tracer, const char *layer, const char *call,
         std::uint64_t parent = Tracer::current());
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;
    Span(Span &&) = delete;
    Span &operator=(Span &&) = delete;

    /** Close the span now; returns its duration in seconds. */
    double stop();

    std::uint64_t id() const { return _id; }

  private:
    Tracer &_tracer;
    std::uint64_t _id;
    Clock::time_point _start;
    double _elapsed = -1;
};

} // namespace fbbench

#endif // FBBENCH_TRACE_HH
