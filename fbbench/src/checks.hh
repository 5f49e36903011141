/**
 * @file
 * Output checks for the benchmark's workloads, computed apart from the
 * simulator. Every check is a pure function of the outputs it is
 * handed and returns "" when they pass or a description of the first
 * fault; selfTest() feeds each one a corrupted output and expects it
 * refused.
 */

#ifndef FBBENCH_CHECKS_HH
#define FBBENCH_CHECKS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace fb::sim
{
class Machine;
struct RunResult;
} // namespace fb::sim

namespace fbbench
{

/** Host-side integer Jacobi solution of the Fig. 3 Poisson grid. */
struct JacobiReference
{
    /** (m+2)x(m+2) row-major grid after the requested iterations. */
    std::vector<std::int64_t> iterate;
    /** The limit of the iteration from an all-zero interior. */
    std::vector<std::int64_t> fixedPoint;
    /** Iterations after which the iterate equals the fixed point. */
    int convergedAfter = 0;
};

/**
 * Iterate P[l][m] = (P[l][m+1] + P[l][m-1] + P[l+1][m] + P[l-1][m]) / 4
 * synchronously over the interior, all four edges held at @p boundary,
 * starting from zero.
 */
JacobiReference hostJacobi(int m, std::int64_t boundary, int iters);

/**
 * Every interior cell of @p grid lies between the Jacobi iterate and
 * the fixed point; once the reference has converged, every cell equals
 * the fixed point. Both bounds hold because the barrier orders each
 * iteration's loads after the previous iteration's stores, and the
 * update is monotone.
 */
std::string checkPoissonGrid(int m, const std::vector<std::int64_t> &grid,
                             const JacobiReference &ref, int iters);

/**
 * Everything that must repeat between two runs of one program: the
 * run's verdict and counters, every register and the watched memory.
 */
struct RunDigest
{
    std::uint64_t cycles = 0;
    std::uint64_t syncEvents = 0;
    bool deadlocked = false;
    bool timedOut = false;
    std::vector<std::uint64_t> episodes;      ///< per processor
    std::vector<std::uint64_t> instructions;  ///< per processor
    std::vector<std::uint64_t> waitCycles;    ///< per processor
    std::vector<std::int64_t> registers;      ///< all procs, all regs
    std::vector<std::int64_t> memory;         ///< watched words
    std::string safety;       ///< checkSafetyProperty() ("" = holds)
    std::string membership;   ///< membership oracle ("" = holds)
};

/** Digest @p machine after @p r, watching words [@p lo, @p hi). */
RunDigest digestRun(fb::sim::Machine &machine,
                    const fb::sim::RunResult &r, std::size_t lo,
                    std::size_t hi);

/** Same as digestRun but without the timing counters, which a
 * synchronization topology is allowed to move. */
RunDigest resultsOnly(RunDigest d);

/** "" when @p a and @p b are identical; names the first difference. */
std::string compareDigests(const RunDigest &a, const RunDigest &b);

/**
 * The run finished (no deadlock, no timeout), both oracles hold, every
 * processor completed @p episodes barrier episodes, and syncEvents
 * equals @p expectSyncs.
 */
std::string checkRun(const RunDigest &d, std::uint64_t episodes,
                     std::uint64_t expectSyncs);

/** The per-scenario verdict of the fuzz campaign. */
struct ScenarioOutcome
{
    bool diffOk = true;
    std::string diffFailure;
    bool resumeOk = true;
    std::string resumeFailure;
    bool hasFaults = false;
    int groups = 1;
    int episodes = 1;                      ///< Scenario::episodes
    std::uint64_t syncEvents = 0;          ///< baseline fingerprint
    std::vector<std::uint64_t> baselineEpisodes;
};

/**
 * The differential matrix and the resume oracle passed; for a
 * fault-free scenario, every processor's baseline episode count equals
 * Scenario::episodes, and syncEvents equals it for one group and lies
 * between it and episodes x groups for several.
 */
std::string checkScenario(const ScenarioOutcome &o);

/** Run every check on good and on corrupted outputs; "" = all good. */
std::string selfTest();

} // namespace fbbench

#endif // FBBENCH_CHECKS_HH
