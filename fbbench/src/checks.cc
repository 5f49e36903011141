#include "checks.hh"

#include <sstream>

#include "isa/instruction.hh"
#include "sim/machine.hh"

namespace fbbench
{

JacobiReference
hostJacobi(int m, std::int64_t boundary, int iters)
{
    const int n = m + 2;
    auto at = [n](int r, int c) { return static_cast<std::size_t>(r * n + c); };
    std::vector<std::int64_t> grid(static_cast<std::size_t>(n * n), 0);
    for (int k = 0; k < n; ++k) {
        grid[at(0, k)] = grid[at(n - 1, k)] = boundary;
        grid[at(k, 0)] = grid[at(k, n - 1)] = boundary;
    }
    JacobiReference ref;
    ref.convergedAfter = -1;
    for (int it = 0;; ++it) {
        if (it == iters)
            ref.iterate = grid;
        std::vector<std::int64_t> next = grid;
        for (int r = 1; r <= m; ++r)
            for (int c = 1; c <= m; ++c)
                next[at(r, c)] = (grid[at(r, c + 1)] + grid[at(r, c - 1)] +
                                  grid[at(r + 1, c)] + grid[at(r - 1, c)]) /
                                 4;
        if (next == grid && ref.convergedAfter < 0)
            ref.convergedAfter = it;
        if (ref.convergedAfter >= 0 && it >= iters)
            break;
        grid = std::move(next);
    }
    ref.fixedPoint = grid;
    return ref;
}

std::string
checkPoissonGrid(int m, const std::vector<std::int64_t> &grid,
                 const JacobiReference &ref, int iters)
{
    const int n = m + 2;
    if (grid.size() != static_cast<std::size_t>(n * n))
        return "grid has " + std::to_string(grid.size()) + " words, want " +
               std::to_string(n * n);
    for (int r = 1; r <= m; ++r)
        for (int c = 1; c <= m; ++c) {
            const auto i = static_cast<std::size_t>(r * n + c);
            std::ostringstream why;
            why << "cell (" << r << "," << c << ") = " << grid[i];
            if (grid[i] < ref.iterate[i])
                return why.str() + " below the Jacobi iterate " +
                       std::to_string(ref.iterate[i]);
            if (grid[i] > ref.fixedPoint[i])
                return why.str() + " above the fixed point " +
                       std::to_string(ref.fixedPoint[i]);
            if (iters >= ref.convergedAfter && grid[i] != ref.fixedPoint[i])
                return why.str() + " after convergence, want " +
                       std::to_string(ref.fixedPoint[i]);
        }
    return "";
}

RunDigest
digestRun(fb::sim::Machine &machine, const fb::sim::RunResult &r,
          std::size_t lo, std::size_t hi)
{
    RunDigest d;
    d.cycles = r.cycles;
    d.syncEvents = r.syncEvents;
    d.deadlocked = r.deadlocked;
    d.timedOut = r.timedOut;
    for (const auto &p : r.perProcessor) {
        d.episodes.push_back(p.barrierEpisodes);
        d.instructions.push_back(p.instructions);
        d.waitCycles.push_back(p.barrierWaitCycles);
    }
    for (int p = 0; p < machine.numProcessors(); ++p)
        for (int i = 0; i < fb::isa::numRegisters; ++i)
            d.registers.push_back(machine.processor(p).reg(i));
    for (std::size_t a = lo; a < hi; ++a)
        d.memory.push_back(machine.memory().peek(a));
    d.safety = machine.checkSafetyProperty();
    d.membership = r.membershipViolation;
    return d;
}

RunDigest
resultsOnly(RunDigest d)
{
    d.cycles = 0;
    d.waitCycles.clear();
    return d;
}

namespace
{

template <typename T>
std::string
firstDiff(const char *what, const std::vector<T> &a, const std::vector<T> &b)
{
    if (a.size() != b.size())
        return std::string(what) + " sizes differ: " +
               std::to_string(a.size()) + " vs " + std::to_string(b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i] != b[i]) {
            std::ostringstream oss;
            oss << what << "[" << i << "] differs: " << a[i] << " vs "
                << b[i];
            return oss.str();
        }
    return "";
}

} // namespace

std::string
compareDigests(const RunDigest &a, const RunDigest &b)
{
    if (a.cycles != b.cycles)
        return "cycles differ: " + std::to_string(a.cycles) + " vs " +
               std::to_string(b.cycles);
    if (a.syncEvents != b.syncEvents)
        return "syncEvents differ: " + std::to_string(a.syncEvents) +
               " vs " + std::to_string(b.syncEvents);
    if (a.deadlocked != b.deadlocked || a.timedOut != b.timedOut)
        return "run verdicts differ";
    if (a.safety != b.safety || a.membership != b.membership)
        return "oracle verdicts differ";
    for (const std::string &why :
         {firstDiff("episodes", a.episodes, b.episodes),
          firstDiff("instructions", a.instructions, b.instructions),
          firstDiff("waitCycles", a.waitCycles, b.waitCycles),
          firstDiff("registers", a.registers, b.registers),
          firstDiff("memory", a.memory, b.memory)})
        if (!why.empty())
            return why;
    return "";
}

std::string
checkRun(const RunDigest &d, std::uint64_t episodes,
         std::uint64_t expectSyncs)
{
    if (d.deadlocked)
        return "run deadlocked";
    if (d.timedOut)
        return "run timed out";
    if (!d.safety.empty())
        return "safety oracle: " + d.safety;
    if (!d.membership.empty())
        return "membership oracle: " + d.membership;
    if (d.episodes.empty())
        return "no processors";
    for (std::size_t p = 0; p < d.episodes.size(); ++p)
        if (d.episodes[p] != episodes)
            return "processor " + std::to_string(p) + " completed " +
                   std::to_string(d.episodes[p]) + " episodes, want " +
                   std::to_string(episodes);
    if (d.syncEvents != expectSyncs)
        return "syncEvents = " + std::to_string(d.syncEvents) + ", want " +
               std::to_string(expectSyncs);
    return "";
}

std::string
checkScenario(const ScenarioOutcome &o)
{
    if (!o.diffOk)
        return "differential matrix: " + o.diffFailure;
    if (!o.resumeOk)
        return "resume oracle: " + o.resumeFailure;
    if (o.hasFaults)
        return "";
    const auto want = static_cast<std::uint64_t>(o.episodes);
    for (std::size_t p = 0; p < o.baselineEpisodes.size(); ++p)
        if (o.baselineEpisodes[p] != want)
            return "processor " + std::to_string(p) + " completed " +
                   std::to_string(o.baselineEpisodes[p]) +
                   " episodes, want " + std::to_string(want);
    // The network counts one event per delivery cycle, so groups that
    // complete in the same cycle share one: with several groups the
    // count lies between one group's episodes and all of them.
    const auto most = want * static_cast<std::uint64_t>(o.groups);
    if (o.syncEvents > most || o.syncEvents < want ||
        (o.groups == 1 && o.syncEvents != want))
        return "syncEvents = " + std::to_string(o.syncEvents) + ", want " +
               (o.groups == 1 ? std::to_string(want)
                              : std::to_string(want) + ".." +
                                    std::to_string(most));
    return "";
}

namespace
{

/** "" when @p verdict is empty (good input) or non-empty (corrupted). */
std::string
expect(const char *what, const std::string &verdict, bool refuse)
{
    if (refuse && verdict.empty())
        return std::string(what) + ": corrupted output accepted";
    if (!refuse && !verdict.empty())
        return std::string(what) + ": good output refused: " + verdict;
    return "";
}

RunDigest
sampleDigest()
{
    RunDigest d;
    d.cycles = 1000;
    d.syncEvents = 3;
    d.episodes = {3, 3, 3};
    d.instructions = {50, 50, 51};
    d.waitCycles = {4, 0, 7};
    d.registers = {1, 2, 3, 4, 5, 6};
    d.memory = {10, 20};
    return d;
}

} // namespace

std::string
selfTest()
{
    std::vector<std::string> fails;
    auto note = [&fails](std::string why) {
        if (!why.empty())
            fails.push_back(std::move(why));
    };

    // Poisson grid: converged, mid-run, and three kinds of corruption.
    const int m = 3;
    const int conv = hostJacobi(m, 1000, 0).convergedAfter;
    const JacobiReference done = hostJacobi(m, 1000, conv + 5);
    note(expect("poisson converged", checkPoissonGrid(m, done.fixedPoint, done, conv + 5), false));
    const JacobiReference mid = hostJacobi(m, 1000, conv / 2);
    note(expect("poisson mid-run", checkPoissonGrid(m, mid.iterate, mid, conv / 2), false));
    auto grid = done.fixedPoint;
    grid[static_cast<std::size_t>(2 * (m + 2) + 2)] -= 1;
    note(expect("poisson cell off the fixed point", checkPoissonGrid(m, grid, done, conv + 5), true));
    grid = mid.iterate;
    grid[static_cast<std::size_t>(1 * (m + 2) + 1)] -= 1;
    note(expect("poisson cell below the iterate", checkPoissonGrid(m, grid, mid, conv / 2), true));
    grid = mid.fixedPoint;
    grid[static_cast<std::size_t>(1 * (m + 2) + 2)] += 1;
    note(expect("poisson cell above the fixed point", checkPoissonGrid(m, grid, mid, conv / 2), true));
    note(expect("poisson short grid", checkPoissonGrid(m, {1, 2}, mid, conv / 2), true));

    // Run checks and digest comparison.
    const RunDigest good = sampleDigest();
    note(expect("run", checkRun(good, 3, 3), false));
    RunDigest bad = good;
    bad.episodes[1] = 2;
    note(expect("run short episodes", checkRun(bad, 3, 3), true));
    note(expect("run episode count", checkRun(good, 4, 3), true));
    note(expect("run sync count", checkRun(good, 3, 4), true));
    bad = good;
    bad.deadlocked = true;
    note(expect("run deadlock", checkRun(bad, 3, 3), true));
    bad = good;
    bad.safety = "crossed early";
    note(expect("run safety", checkRun(bad, 3, 3), true));
    bad = good;
    bad.membership = "missing member";
    note(expect("run membership", checkRun(bad, 3, 3), true));

    note(expect("digest identity", compareDigests(good, good), false));
    bad = good;
    bad.registers[4] += 1;
    note(expect("digest register", compareDigests(good, bad), true));
    bad = good;
    bad.memory[1] = 0;
    note(expect("digest memory", compareDigests(good, bad), true));
    bad = good;
    bad.cycles += 1;
    note(expect("digest cycles", compareDigests(good, bad), true));
    note(expect("digest timing-free", compareDigests(resultsOnly(good), resultsOnly(bad)), false));
    bad = good;
    bad.episodes[2] = 4;
    note(expect("digest timing-free episodes", compareDigests(resultsOnly(good), resultsOnly(bad)), true));

    // Fuzz scenario verdicts.
    ScenarioOutcome so;
    so.groups = 2;
    so.episodes = 3;
    so.syncEvents = 6;
    so.baselineEpisodes = {3, 3, 3, 3};
    note(expect("scenario", checkScenario(so), false));
    ScenarioOutcome sbad = so;
    sbad.diffOk = false;
    sbad.diffFailure = "registers diverged";
    note(expect("scenario diff", checkScenario(sbad), true));
    sbad = so;
    sbad.resumeOk = false;
    sbad.resumeFailure = "chain restore failed";
    note(expect("scenario resume", checkScenario(sbad), true));
    sbad = so;
    sbad.baselineEpisodes[3] = 2;
    note(expect("scenario episodes", checkScenario(sbad), true));
    sbad = so;
    sbad.syncEvents = 4;
    note(expect("scenario merged syncs", checkScenario(sbad), false));
    sbad.syncEvents = 2;
    note(expect("scenario too few syncs", checkScenario(sbad), true));
    sbad.syncEvents = 7;
    note(expect("scenario too many syncs", checkScenario(sbad), true));
    sbad.groups = 1;
    sbad.baselineEpisodes = {3, 3};
    sbad.syncEvents = 3;
    note(expect("scenario one group", checkScenario(sbad), false));
    sbad.syncEvents = 4;
    note(expect("scenario one group syncs", checkScenario(sbad), true));
    sbad.hasFaults = true;
    note(expect("scenario faulted", checkScenario(sbad), false));

    std::string out;
    for (const auto &f : fails)
        out += (out.empty() ? "" : "; ") + f;
    return out;
}

} // namespace fbbench
