/**
 * @file
 * Workload `fuzz_campaign`: seeded generated scenarios (2-7
 * processors, 1-2 tag groups) through exec::runCampaign. Each scenario
 * runs the differential matrix without the software-barrier thread
 * reference and without its built-in checkpoint variant, then the
 * delta-chain resume oracle with the arguments the matrix would pass,
 * so that the snapshot oracle is timed on its own. Every fourth
 * scenario carries a seeded fault plan, less its tag-bit flips.
 */

#include <algorithm>
#include <thread>

#include "checks.hh"
#include "exec/campaign.hh"
#include "fault/plan.hh"
#include "verify/differ.hh"
#include "verify/generator.hh"
#include "verify/resume.hh"
#include "workloads.hh"

namespace fbbench
{

namespace
{

using namespace fb;

/** A round of about 1.5 s on four workers. The rounds' simulated-cycle
 * totals differ between seeds by about 8% (Q3-Q1 over the median);
 * 8000 scenarios did not narrow that. */
constexpr std::uint64_t kScenarios = 4000;
constexpr std::uint64_t kFaultEvery = 4;

/**
 * @p plan without its tag-bit flips. About one scenario in 4000 with
 * a random plan fails the fault-safety oracle, each with a tag flip in
 * its plan (the watchdog declares a live processor dead), so which
 * runs fail would depend on the seed.
 */
fault::FaultPlan
withoutTagFlips(fault::FaultPlan plan)
{
    std::erase_if(plan.events, [](const fault::FaultEvent &ev) {
        return ev.kind == fault::FaultKind::FlipTagBit;
    });
    return plan;
}

/** What one scenario did; written only by the worker that ran it. */
struct ItemRecord
{
    ScenarioOutcome outcome;
    double diffS = 0;
    double resumeS = 0;
    int variants = 0;
    std::uint64_t chainLinks = 0;
    std::uint64_t refCycles = 0;
};

class FuzzCampaign final : public Workload
{
  public:
    explicit FuzzCampaign(std::uint64_t seed)
    {
        std::uint64_t state = seed;
        _baseSeed = splitMix64(state) >> 16;
        _jobs = static_cast<int>(
            std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
    }

    RoundResult round(Tracer &tr, Clock::time_point setupStart,
                      bool setupOnly) override;
    void layerMetrics(const Tracer &tr, int rounds,
                      LayerValues &out) const override;

  private:
    std::uint64_t _baseSeed = 0;
    int _jobs = 1;

    // Totals over the traced rounds.
    double _diffS = 0, _resumeS = 0, _campaignS = 0;
    std::uint64_t _variants = 0, _chainLinks = 0;
    exec::CampaignStats _stats;
};

RoundResult
FuzzCampaign::round(Tracer &tr, Clock::time_point setupStart, bool setupOnly)
{
    RoundResult out;
    std::vector<verify::Scenario> scenarios;
    {
        Span s(tr, "verify", "generate");
        scenarios.reserve(kScenarios);
        for (std::uint64_t i = 0; i < kScenarios; ++i) {
            const std::uint64_t specSeed = _baseSeed + i;
            auto spec = verify::randomSpec(specSeed);
            if (i % kFaultEvery == kFaultEvery - 1)
                spec.faults = withoutTagFlips(fault::randomFaultPlan(
                    specSeed, spec.procs(), spec.groupSizes));
            if (!spec.faults.empty()) {
                spec.faultSeed = specSeed;
                spec.watchdog.enabled = true;
                spec.watchdog.timeoutCycles = 2000;
                spec.watchdog.maxAttempts = 3;
            }
            scenarios.push_back(verify::render(spec));
        }
    }
    const auto runStart = Clock::now();
    out.setupS = seconds(setupStart, runStart);
    if (setupOnly)
        return out;

    std::vector<ItemRecord> items(kScenarios);
    std::vector<std::string> itemFailures(kScenarios);
    exec::CampaignOptions copt;
    copt.jobs = _jobs;
    exec::CampaignStats stats;
    double campaignS = 0;
    {
        Span campaign(tr, "exec", "campaign");
        const std::uint64_t parent = campaign.id();
        stats = exec::runCampaign(
            kScenarios, copt,
            [&](std::uint64_t i, exec::WorkerContext &ctx) {
                const verify::Scenario &sc = scenarios[i];
                ItemRecord &rec = items[i];
                verify::DiffOptions d;
                d.swBarrierReference = false;
                d.checkpointing = false;
                d.machinePool = &ctx.machines;
                d.programCache = &ctx.programs;
                verify::DiffReport rep;
                {
                    Span s(tr, "verify", "diff", parent);
                    rep = verify::runDifferential(sc, d);
                    rec.diffS = s.stop();
                }
                verify::ResumeReport rr;
                if (rep.ok) {
                    Span s(tr, "snapshot", "resume_oracle", parent);
                    rr = verify::checkChainResumeEquivalence(
                        sc, rep.baseline.hash(), true, 4, d.maxCycles,
                        d.machinePool, d.programCache);
                    rec.resumeS = s.stop();
                }
                rec.variants = rep.variantsRun;
                rec.chainLinks = rr.chainLength;
                rec.refCycles = rr.referenceCycles;
                ScenarioOutcome &o = rec.outcome;
                o.diffOk = rep.ok;
                o.diffFailure = rep.variant + ": " + rep.failure;
                o.resumeOk = rr.ok;
                o.resumeFailure = rr.failure;
                o.hasFaults = sc.hasFaults();
                o.groups = sc.groups();
                o.episodes = sc.episodes;
                o.syncEvents = rep.baseline.syncEvents;
                o.baselineEpisodes = rep.baseline.episodes;
                return exec::ItemResult{};
            },
            [&](std::uint64_t i, const exec::ItemResult &r) {
                if (r.failed)
                    itemFailures[i] = r.payload;
            });
        campaignS = campaign.stop();
    }
    out.runS = seconds(runStart, Clock::now());
    out.ops = kScenarios;

    // A scenario fails when its item threw or its outputs fail a check.
    for (std::uint64_t i = 0; i < kScenarios; ++i) {
        std::string why = itemFailures[i].empty()
                              ? checkScenario(items[i].outcome)
                              : "item failed: " + itemFailures[i];
        if (why.empty())
            continue;
        ++out.failed;
        if (out.failure.empty())
            out.failure = "fuzz_campaign seed " +
                          std::to_string(_baseSeed + i) + ": " + why;
    }
    for (const auto &rec : items)
        out.refCycles += rec.refCycles;

    if (tr.enabled()) {
        for (const auto &rec : items) {
            _diffS += rec.diffS;
            _resumeS += rec.resumeS;
            _variants += static_cast<std::uint64_t>(rec.variants);
            _chainLinks += rec.chainLinks;
        }
        _campaignS += campaignS;
        _stats.machinesBuilt += stats.machinesBuilt;
        _stats.machinesReused += stats.machinesReused;
        _stats.programsInterned += stats.programsInterned;
        _stats.tasksStolen += stats.tasksStolen;
    }
    return out;
}

void
FuzzCampaign::layerMetrics(const Tracer &tr, int rounds, LayerValues &out) const
{
    const double n = rounds;
    out.set("snapshot.resume_oracle_s", _resumeS / n);
    out.set("snapshot.chain_links", _chainLinks / n);
    out.set("verify.generate_s", perRound(tr, "verify.generate", rounds));
    out.set("verify.diff_s", _diffS / n);
    out.set("verify.variants_run", _variants / n);
    out.set("verify.ms_per_variant",
            _variants == 0 ? 0.0
                           : _diffS * 1e3 / static_cast<double>(_variants));
    out.set("exec.machines_built", _stats.machinesBuilt / n);
    out.set("exec.machines_reused", _stats.machinesReused / n);
    out.set("exec.programs_interned", _stats.programsInterned / n);
    out.set("exec.tasks_stolen", _stats.tasksStolen / n);
    out.set("exec.busy_share",
            _campaignS <= 0 ? 0.0 : (_diffS + _resumeS) / (_jobs * _campaignS));
}

} // namespace

std::unique_ptr<Workload>
makeFuzzCampaign(std::uint64_t seed)
{
    return std::make_unique<FuzzCampaign>(seed);
}

} // namespace fbbench
