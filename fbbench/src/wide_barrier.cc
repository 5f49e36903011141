/**
 * @file
 * Workload `wide_barrier`: 1024 processors in one all-member fuzzy
 * barrier loop, run once under a flat network and once under tree:4.
 * The barrier network, the safety and membership oracles and the
 * sync-record bookkeeping do nearly all of the work; dispatch does
 * little.
 */

#include <cstdio>
#include <cstdlib>

#include "barrier/topology.hh"
#include "checks.hh"
#include "core/barrierprogs.hh"
#include "sim/machine.hh"
#include "workloads.hh"

namespace fbbench
{

namespace
{

using namespace fb;

constexpr int kProcs = 1024;
constexpr int kEpisodes = 3;
constexpr int kWork = 16;
constexpr int kRegion = 4;
constexpr double kJitterMean = 1.0;

class WideBarrier final : public Workload
{
  public:
    explicit WideBarrier(std::uint64_t seed)
    {
        std::uint64_t state = seed;
        _flat.numProcessors = kProcs;
        _flat.memWords = 1 << 12;
        _flat.maxCycles = 50'000'000;
        _flat.jitterMean = kJitterMean;
        _flat.seed = splitMix64(state) | 1;
        _tree = _flat;
        // The flat network pays a size-scaled broadcast delay, the
        // tree a unit local latency plus its per-level cost.
        _flat.syncLatency = kProcs / 16;
        _tree.syncLatency = 1;
        if (!barrier::Topology::parse("tree:4", _tree.topology)) {
            std::fprintf(stderr, "fbbench: bad topology spec\n");
            std::exit(2);
        }
    }

    RoundResult round(Tracer &tr, Clock::time_point setupStart,
                      bool setupOnly) override;
    void layerMetrics(const Tracer &tr, int rounds,
                      LayerValues &out) const override;

  private:
    sim::MachineConfig _flat, _tree;
    SimCounts _counts;  ///< both runs of the traced rounds
    std::uint64_t _cycles = 0;
};

RoundResult
WideBarrier::round(Tracer &tr, Clock::time_point setupStart, bool setupOnly)
{
    RoundResult out;
    std::vector<isa::Program> programs;
    {
        Span s(tr, "core", "build_programs");
        for (int p = 0; p < kProcs; ++p)
            programs.push_back(core::buildBarrierLoop(
                core::SimBarrierKind::HardwareFuzzy, kProcs, p, kEpisodes,
                kWork, kRegion));
    }
    std::unique_ptr<sim::Machine> machines[2];
    const sim::MachineConfig *cfgs[2] = {&_flat, &_tree};
    for (int t = 0; t < 2; ++t) {
        {
            Span s(tr, "sim", "build");
            machines[t] = std::make_unique<sim::Machine>(*cfgs[t]);
        }
        Span s(tr, "sim", "load");
        for (int p = 0; p < kProcs; ++p)
            machines[t]->loadProgram(p, programs[static_cast<std::size_t>(p)]);
    }
    const auto runStart = Clock::now();
    out.setupS = seconds(setupStart, runStart);
    if (setupOnly)
        return out;

    sim::RunResult results[2];
    for (int t = 0; t < 2; ++t) {
        Span s(tr, "sim", "run");
        results[t] = machines[t]->run();
    }
    out.runS = seconds(runStart, Clock::now());
    out.ops = 2;
    out.refCycles = results[0].cycles + results[1].cycles;

    if (tr.enabled())
        for (const auto &r : results) {
            _counts.add(r);
            _cycles += r.cycles;
        }
    const RunDigest flat = digestRun(*machines[0], results[0], 0, 0);
    const RunDigest tree = digestRun(*machines[1], results[1], 0, 0);
    // One verdict per run; the tree run is also held to the flat one.
    auto verdict = [&out](const char *run, const std::string &why) {
        if (why.empty())
            return;
        ++out.failed;
        if (out.failure.empty())
            out.failure = std::string("wide_barrier ") + run + ": " + why;
    };
    verdict("flat run", checkRun(flat, kEpisodes, kEpisodes));
    std::string treeWhy = checkRun(tree, kEpisodes, kEpisodes);
    if (treeWhy.empty())
        if (std::string why = compareDigests(resultsOnly(flat), resultsOnly(tree));
            !why.empty())
            treeWhy = "differs from flat: " + why;
    verdict("tree:4 run", treeWhy);
    return out;
}

void
WideBarrier::layerMetrics(const Tracer &tr, int rounds, LayerValues &out) const
{
    const double n = rounds;
    const double runS = perRound(tr, "sim.run", rounds);
    out.set("core.build_programs_s", perRound(tr, "core.build_programs", rounds));
    out.set("sim.build_s", perRound(tr, "sim.build", rounds));
    out.set("sim.load_s", perRound(tr, "sim.load", rounds));
    out.set("sim.run_s", runS);
    out.set("sim.run_ns_per_cycle", runS * 1e9 / (static_cast<double>(_cycles) / n));
    out.set("sim.run_ms_per_sync",
            runS * 1e3 / (static_cast<double>(_counts.syncEvents) / n));
    _counts.setPerRound(out, rounds);
}

} // namespace

std::unique_ptr<Workload>
makeWideBarrier(std::uint64_t seed)
{
    return std::make_unique<WideBarrier>(seed);
}

} // namespace fbbench
