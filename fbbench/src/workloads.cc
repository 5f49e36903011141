#include "workloads.hh"

#include <cstdio>
#include <cstdlib>

#include "sim/machine.hh"

namespace fbbench
{

const std::vector<std::pair<std::string, std::string>> &
layerMetricTable()
{
    static const std::vector<std::pair<std::string, std::string>> table = {
        {"compiler.regions_s", "s"},
        {"compiler.codegen_s", "s"},
        {"compiler.region_share", "share"},
        {"core.build_programs_s", "s"},
        {"sim.build_s", "s"},
        {"sim.load_s", "s"},
        {"sim.run_s", "s"},
        {"sim.run_ns_per_cycle", "ns/cycle"},
        {"sim.run_ms_per_sync", "ms/sync"},
        {"sim.instructions", "count"},
        {"sim.cache_misses", "count"},
        {"sim.bus_queue_delay_cycles", "cycles"},
        {"sim.invalidations_sent", "count"},
        {"barrier.sync_events", "count"},
        {"barrier.wait_cycles", "cycles"},
        {"barrier.stall_cycles", "cycles"},
        {"barrier.stalled_episodes", "count"},
        {"snapshot.capture_overhead_s", "s"},
        {"snapshot.captures", "count"},
        {"snapshot.bytes_per_capture", "bytes"},
        {"snapshot.restore_s", "s"},
        {"snapshot.resume_oracle_s", "s"},
        {"snapshot.chain_links", "count"},
        {"verify.generate_s", "s"},
        {"verify.diff_s", "s"},
        {"verify.variants_run", "count"},
        {"verify.ms_per_variant", "ms"},
        {"exec.machines_built", "count"},
        {"exec.machines_reused", "count"},
        {"exec.programs_interned", "count"},
        {"exec.tasks_stolen", "count"},
        {"exec.busy_share", "share"},
        {"self.compiler_s", "s"},
        {"self.core_s", "s"},
        {"self.sim_s", "s"},
        {"self.snapshot_s", "s"},
        {"self.verify_s", "s"},
        {"self.exec_s", "s"},
        {"trace.wall_s", "s"},
        {"trace.untraced_wall_s", "s"},
        {"trace.overhead_share", "share"},
    };
    return table;
}

void
LayerValues::set(const std::string &name, double value)
{
    for (const auto &entry : layerMetricTable())
        if (entry.first == name) {
            _values[name] = value;
            return;
        }
    std::fprintf(stderr, "fbbench: per-layer metric %s is not in the table\n",
                 name.c_str());
    std::exit(2);
}

std::vector<Metric>
LayerValues::metrics() const
{
    std::vector<Metric> out;
    for (const auto &[name, unit] : layerMetricTable()) {
        auto it = _values.find(name);
        out.push_back({name, it == _values.end() ? 0.0 : it->second, unit});
    }
    return out;
}

void
SimCounts::add(const fb::sim::RunResult &r)
{
    for (const auto &p : r.perProcessor) {
        instructions += p.instructions;
        cacheMisses += p.cacheMisses;
        stallCycles += p.stallCycles;
        stalledEpisodes += p.stalledEpisodes;
    }
    busQueueDelay += r.busQueueDelay;
    invalidationsSent += r.invalidationsSent;
    syncEvents += r.syncEvents;
    waitCycles += r.totalBarrierWait();
}

void
SimCounts::setPerRound(LayerValues &out, int rounds) const
{
    const double n = rounds;
    out.set("sim.instructions", instructions / n);
    out.set("sim.cache_misses", cacheMisses / n);
    out.set("sim.bus_queue_delay_cycles", busQueueDelay / n);
    out.set("sim.invalidations_sent", invalidationsSent / n);
    out.set("barrier.sync_events", syncEvents / n);
    out.set("barrier.wait_cycles", waitCycles / n);
    out.set("barrier.stall_cycles", stallCycles / n);
    out.set("barrier.stalled_episodes", stalledEpisodes / n);
}

double
perRound(const Tracer &tracer, const char *name, int rounds)
{
    return rounds <= 0 ? 0.0 : tracer.totalSeconds(name) / rounds;
}

std::uint64_t
splitMix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace fbbench
