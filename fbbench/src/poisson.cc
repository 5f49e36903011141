/**
 * @file
 * Workload `poisson`: the paper's Fig. 3/4 solver at M=7 (49
 * processors), naive and three-phase-reordered bodies, with jitter on,
 * plus a checkpointed re-run of the reordered body and a fresh machine
 * restored from a mid-run delta chain.
 *
 * M=7 is the widest grid the compiler can mask: CodegenOptions::mask
 * is one 64-bit word.
 */

#include <algorithm>
#include <initializer_list>
#include <map>

#include "checks.hh"
#include "compiler/codegen.hh"
#include "compiler/region.hh"
#include "compiler/reorder.hh"
#include "core/workloads.hh"
#include "sim/machine.hh"
#include "snapshot/format.hh"
#include "workloads.hh"

namespace fbbench
{

namespace
{

using namespace fb;

constexpr int kM = 7;
constexpr int kProcs = kM * kM;
/** Enough outer iterations for every boundary drawn below to converge
 * (at most 139 for boundaries under 100000 at M=7). */
constexpr int kIters = 200;
constexpr double kJitterMean = 2.0;
/** About 18 captures per run at ~145k simulated cycles. */
constexpr std::uint64_t kCheckpointEvery = 8192;

class Poisson final : public Workload
{
  public:
    explicit Poisson(std::uint64_t seed) : _wl(kM)
    {
        std::uint64_t state = seed;
        _boundary = 1000 + static_cast<std::int64_t>(splitMix64(state) % 99000);
        _cfg.numProcessors = kProcs;
        _cfg.jitterMean = kJitterMean;
        _cfg.seed = splitMix64(state) | 1;
        _opts.baseAddresses = {{"P", _wl.baseAddr}};
        _opts.tag = 1;
        _opts.mask = (1ull << kProcs) - 1;
    }

    RoundResult round(Tracer &tr, Clock::time_point setupStart,
                      bool setupOnly) override;
    void layerMetrics(const Tracer &tr, int rounds,
                      LayerValues &out) const override;

  private:
    std::vector<isa::Program> compileAll(Tracer &tr, const ir::Block &body);
    std::unique_ptr<sim::Machine> buildMachine(Tracer &tr,
                                               const sim::MachineConfig &cfg);
    void load(Tracer &tr, sim::Machine &m,
              const std::vector<isa::Program> &programs);
    std::vector<std::int64_t> grid(sim::Machine &m) const;

    core::PoissonWorkload _wl;
    std::int64_t _boundary = 0;
    sim::MachineConfig _cfg;
    compiler::CodegenOptions _opts;
    JacobiReference _ref;

    SimCounts _counts;  ///< reference runs of the traced rounds
    std::uint64_t _refCycles = 0;  ///< reference runs of the traced rounds
    std::uint64_t _captures = 0, _captureBytes = 0;
    double _regionShare = 0;
};

std::vector<isa::Program>
Poisson::compileAll(Tracer &tr, const ir::Block &body)
{
    std::vector<compiler::LoopSpec> specs;
    {
        Span s(tr, "core", "build_programs");
        for (int l = 1; l <= kM; ++l)
            for (int c = 1; c <= kM; ++c)
                specs.push_back(_wl.loopSpec(l, c, kIters, body));
    }
    Span s(tr, "compiler", "codegen");
    std::vector<isa::Program> programs;
    for (const auto &spec : specs)
        programs.push_back(compiler::compileLoop(spec, _opts));
    return programs;
}

std::unique_ptr<sim::Machine>
Poisson::buildMachine(Tracer &tr, const sim::MachineConfig &cfg)
{
    Span s(tr, "sim", "build");
    auto m = std::make_unique<sim::Machine>(cfg);
    _wl.initBoundary(m->memory(), _boundary);
    return m;
}

void
Poisson::load(Tracer &tr, sim::Machine &m,
              const std::vector<isa::Program> &programs)
{
    Span s(tr, "sim", "load");
    for (int p = 0; p < kProcs; ++p)
        m.loadProgram(p, programs[static_cast<std::size_t>(p)]);
}

std::vector<std::int64_t>
Poisson::grid(sim::Machine &m) const
{
    std::vector<std::int64_t> g;
    for (int r = 0; r <= kM + 1; ++r)
        for (int c = 0; c <= kM + 1; ++c)
            g.push_back(m.memory().peek(_wl.addrOf(r, c)));
    return g;
}

RoundResult
Poisson::round(Tracer &tr, Clock::time_point setupStart, bool setupOnly)
{
    RoundResult out;
    const bool traced = tr.enabled();

    // Set-up: both bodies, 2 x 49 programs, four machines loaded.
    ir::Block naive;
    {
        Span s(tr, "core", "build_programs");
        naive = _wl.naiveBody();
    }
    ir::Block reordered;
    {
        Span s(tr, "compiler", "regions");
        reordered = compiler::threePhaseReorder(naive).block;
        compiler::assignRegions(naive);
    }
    const auto naivePrograms = compileAll(tr, naive);
    const auto reorderedPrograms = compileAll(tr, reordered);

    sim::MachineConfig cpCfg = _cfg;
    cpCfg.checkpointEveryCycles = kCheckpointEvery;
    auto naiveM = buildMachine(tr, _cfg);
    load(tr, *naiveM, naivePrograms);
    auto reorderedM = buildMachine(tr, _cfg);
    load(tr, *reorderedM, reorderedPrograms);
    auto checkpointedM = buildMachine(tr, cpCfg);
    load(tr, *checkpointedM, reorderedPrograms);
    auto resumedM = buildMachine(tr, _cfg);
    load(tr, *resumedM, reorderedPrograms);
    const auto runStart = Clock::now();
    out.setupS = seconds(setupStart, runStart);
    if (setupOnly)
        return out;

    // Simulation.
    sim::RunResult rn, rr, rc, rs;
    {
        Span s(tr, "sim", "run_naive");
        rn = naiveM->run();
    }
    {
        Span s(tr, "sim", "run_reordered");
        rr = reorderedM->run();
    }
    std::map<std::uint64_t, snapshot::SnapshotHeader> headers;
    std::map<std::uint64_t, std::vector<std::uint8_t>> captures;
    checkpointedM->setStagedCheckpointSink(
        [&](snapshot::SnapshotHeader header,
            std::vector<snapshot::Section> sections) {
            Span s(tr, "snapshot", "capture");
            captures[header.generation] = snapshot::assemble(header, sections);
            headers[header.generation] = header;
            return sim::Machine::CheckpointAck{};
        });
    {
        Span s(tr, "sim", "run_checkpointed");
        rc = checkpointedM->run();
    }
    std::string restoreError;
    bool restored = false;
    {
        Span s(tr, "snapshot", "restore");
        if (!captures.empty()) {
            // Walk a mid-run head back to its full base.
            std::vector<std::uint64_t> gens;
            for (const auto &e : captures)
                gens.push_back(e.first);
            std::vector<std::vector<std::uint8_t>> chain;
            for (std::uint64_t at = gens[gens.size() / 2];;) {
                chain.push_back(captures[at]);
                const auto &h = headers[at];
                if (!h.isDelta() || h.prev >= at)
                    break;
                at = h.prev;
            }
            std::reverse(chain.begin(), chain.end());
            restored = resumedM->restoreChainState(chain, restoreError);
        }
    }
    if (restored) {
        Span s(tr, "sim", "run_resumed");
        rs = resumedM->run();
    }
    out.runS = seconds(runStart, Clock::now());
    out.ops = 4;
    out.refCycles = rn.cycles + rr.cycles;

    // Output checks (untimed).
    if (traced) {
        _counts.add(rn);
        _counts.add(rr);
        _refCycles += rn.cycles + rr.cycles;
        _captures += captures.size();
        for (const auto &c : captures)
            _captureBytes += c.second.size();
        _regionShare = static_cast<double>(reordered.regionCount()) /
                       static_cast<double>(reordered.size());
    }
    if (_ref.iterate.empty())
        _ref = hostJacobi(kM, _boundary, kIters);
    const std::size_t lo = _wl.addrOf(0, 0);
    const std::size_t hi = lo + _wl.gridWords();
    const RunDigest dn = digestRun(*naiveM, rn, lo, hi);
    const RunDigest dr = digestRun(*reorderedM, rr, lo, hi);
    const RunDigest dc = digestRun(*checkpointedM, rc, lo, hi);
    // One verdict per run: it fails on the first of its checks that does.
    auto verdict = [&out](const char *run,
                          std::initializer_list<std::string> whys) {
        for (const std::string &why : whys)
            if (!why.empty()) {
                ++out.failed;
                if (out.failure.empty())
                    out.failure = std::string("poisson ") + run + ": " + why;
                return;
            }
    };
    // The leading region and one per iteration: kIters + 1 episodes.
    verdict("naive run",
            {checkRun(dn, kIters + 1, kIters + 1),
             checkPoissonGrid(kM, grid(*naiveM), _ref, kIters)});
    verdict("reordered run",
            {checkRun(dr, kIters + 1, kIters + 1),
             checkPoissonGrid(kM, grid(*reorderedM), _ref, kIters)});
    verdict("checkpointed run",
            {compareDigests(dr, dc), captures.empty() ? "took no captures" : ""});
    verdict("resumed run",
            {restored ? compareDigests(dr, digestRun(*resumedM, rs, lo, hi))
                      : "not restored: " + restoreError});
    return out;
}

void
Poisson::layerMetrics(const Tracer &tr, int rounds, LayerValues &out) const
{
    const double n = rounds;
    const double refRunS = perRound(tr, "sim.run_naive", rounds) +
                           perRound(tr, "sim.run_reordered", rounds);
    out.set("compiler.regions_s", perRound(tr, "compiler.regions", rounds));
    out.set("compiler.codegen_s", perRound(tr, "compiler.codegen", rounds));
    out.set("compiler.region_share", _regionShare);
    out.set("core.build_programs_s", perRound(tr, "core.build_programs", rounds));
    out.set("sim.build_s", perRound(tr, "sim.build", rounds));
    out.set("sim.load_s", perRound(tr, "sim.load", rounds));
    // sim.run_s is every run of a round; the per-cycle and per-sync
    // costs take the reference runs on both sides of the ratio, since
    // the resumed run reports the cycles and syncs of the whole run.
    out.set("sim.run_s", refRunS + perRound(tr, "sim.run_checkpointed", rounds) +
                             perRound(tr, "sim.run_resumed", rounds));
    out.set("sim.run_ns_per_cycle",
            refRunS * 1e9 / (static_cast<double>(_refCycles) / n));
    out.set("sim.run_ms_per_sync",
            refRunS * 1e3 / (static_cast<double>(_counts.syncEvents) / n));
    out.set("snapshot.capture_overhead_s",
            perRound(tr, "sim.run_checkpointed", rounds) -
                perRound(tr, "sim.run_reordered", rounds));
    out.set("snapshot.captures", _captures / n);
    out.set("snapshot.bytes_per_capture",
            _captures == 0 ? 0.0
                           : static_cast<double>(_captureBytes) /
                                 static_cast<double>(_captures));
    out.set("snapshot.restore_s", perRound(tr, "snapshot.restore", rounds));
    _counts.setPerRound(out, rounds);
}

} // namespace

std::unique_ptr<Workload>
makePoisson(std::uint64_t seed)
{
    return std::make_unique<Poisson>(seed);
}

} // namespace fbbench
