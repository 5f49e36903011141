/**
 * @file
 * The benchmark's workloads. Each one runs whole rounds of the same
 * operations on inputs made from the workload seed, checks every
 * round's outputs, and reports per-layer numbers from the spans of its
 * traced rounds.
 */

#ifndef FBBENCH_WORKLOADS_HH
#define FBBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "trace.hh"

namespace fb::sim
{
struct RunResult;
} // namespace fb::sim

namespace fbbench
{

/** What one round did. Times are host seconds. */
struct RoundResult
{
    double setupS = 0;             ///< programs, machines, loading
    double runS = 0;               ///< everything after set-up
    std::uint64_t ops = 0;         ///< solves, machine runs, scenarios
    std::uint64_t failed = 0;      ///< ops whose output checks failed
    std::uint64_t refCycles = 0;   ///< simulated cycles, reference runs
    std::string failure;           ///< first failed output check, or ""
};

/** One named value with its unit. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/**
 * Every per-layer metric the benchmark prints, with its unit, in print
 * order. This is the only list of them in the program.
 */
const std::vector<std::pair<std::string, std::string>> &layerMetricTable();

/**
 * Per-layer values by name. set() takes only names of
 * layerMetricTable(); a name that is not there is a fault of the
 * benchmark itself, reported on stderr with exit status 2.
 */
class LayerValues
{
  public:
    void set(const std::string &name, double value);

    /** Every metric of the table; the ones never set are 0. */
    std::vector<Metric> metrics() const;

  private:
    std::map<std::string, double> _values;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Run one round. Set-up is timed from @p setupStart, which a cold
     * round sets to the start of its process. With @p setupOnly the
     * round returns once set-up is timed, with nothing run or checked.
     */
    virtual RoundResult round(Tracer &tracer, Clock::time_point setupStart,
                              bool setupOnly = false) = 0;

    /**
     * Set the per-layer metrics this workload measures, averaged over
     * @p tracedRounds traced rounds; layers it does not exercise stay
     * 0 so that every workload prints the same names.
     */
    virtual void layerMetrics(const Tracer &tracer, int tracedRounds,
                              LayerValues &out) const = 0;
};

std::unique_ptr<Workload> makePoisson(std::uint64_t seed);
std::unique_ptr<Workload> makeWideBarrier(std::uint64_t seed);
std::unique_ptr<Workload> makeFuzzCampaign(std::uint64_t seed);

/** Simulated counts summed over the reference runs of traced rounds. */
struct SimCounts
{
    std::uint64_t instructions = 0, cacheMisses = 0, busQueueDelay = 0,
                  invalidationsSent = 0, syncEvents = 0, waitCycles = 0,
                  stallCycles = 0, stalledEpisodes = 0;

    void add(const fb::sim::RunResult &r);

    /** Set the sim.* and barrier.* count metrics, per round. */
    void setPerRound(LayerValues &out, int rounds) const;
};

/** Per-round value of the span total for @p name. */
double perRound(const Tracer &tracer, const char *name, int rounds);

/** Deterministic 64-bit mixer for deriving inputs from the seed. */
std::uint64_t splitMix64(std::uint64_t &state);

} // namespace fbbench

#endif // FBBENCH_WORKLOADS_HH
