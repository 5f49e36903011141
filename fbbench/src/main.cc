/**
 * @file
 * Benchmark entry point: runs one workload for a fixed time in whole rounds
 * and prints, as the last line of standard output, one JSON object
 * with the keys correct, attempted, failed and metrics.
 *
 *   fbbench --workload poisson|wide_barrier|fuzz_campaign --seed N
 *           --seconds S --trace 0|1 [--trace-out FILE]
 *
 * With --trace 0 the metrics are the end-to-end ones; with --trace 1
 * every other round records spans and the metrics are the per-layer
 * ones, plus the tracing overhead against the untraced rounds. Each
 * round's times go to stderr.
 * Exit status: 0 when every output check passed, 1 when one failed,
 * 2 on a usage or internal error.
 */

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "checks.hh"
#include "support/logging.hh"
#include "trace.hh"
#include "workloads.hh"

namespace fbbench
{

namespace
{

/** Rounds run at the least, whatever --seconds says: the traced run
 * needs untraced rounds after the cold first one to compare against. */
constexpr int kMinRounds = 3;

/** Cold set-ups timed in child processes, besides the first round's:
 * enough that the host's fast mode, which comes and goes within a
 * second, shows in most runs. */
constexpr int kColdChildren = 20;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string traceOut;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "fbbench: %s\nusage: fbbench --workload "
                 "poisson|wide_barrier|fuzz_campaign --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE]\n",
                 why);
    std::exit(2);
}

bool
parseUnsigned(const char *text, std::uint64_t &out)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (errno != 0 || end == text || *end != '\0' || text[0] == '-')
        return false;
    out = v;
    return true;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        std::uint64_t n = 0;
        if (flag == "--workload") {
            a.workload = value;
            haveWorkload = true;
        } else if (flag == "--seed") {
            if (!parseUnsigned(value, a.seed))
                usage("--seed takes a whole number");
        } else if (flag == "--seconds") {
            if (!parseUnsigned(value, n) || n < 1 || n > 3600)
                usage("--seconds takes a whole number from 1 to 3600");
            a.seconds = static_cast<double>(n);
        } else if (flag == "--trace") {
            if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
                usage("--trace takes 0 or 1");
            a.trace = value[0] == '1';
        } else if (flag == "--trace-out") {
            a.traceOut = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!haveWorkload)
        usage("--workload is required");
    return a;
}

double
mean(const std::vector<double> &v)
{
    double sum = 0;
    for (double x : v)
        sum += x;
    return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/**
 * Time one cold set-up of @p workload in a child process. Called before
 * this process has set anything up, so the child starts as cold as the
 * first round does. Returns a negative value when the child could not
 * be run.
 */
double
coldSetupInChild(Workload &workload)
{
    int fds[2];
    if (pipe(fds) != 0)
        return -1;
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = fork();
    if (pid < 0) {
        close(fds[0]);
        close(fds[1]);
        return -1;
    }
    if (pid == 0) {
        close(fds[0]);
        const Clock::time_point start = Clock::now();
        Tracer tracer(start);
        const double s = workload.round(tracer, start, true).setupS;
        _exit(write(fds[1], &s, sizeof s) == sizeof s ? 0 : 1);
    }
    close(fds[1]);
    double s = -1;
    if (read(fds[0], &s, sizeof s) != sizeof s)
        s = -1;
    close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        return -1;
    return s;
}

/** The 10th percentile of @p v by nearest rank, rounding down. */
double
lowDecile(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v[v.size() / 10];
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                    metrics[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

struct RoundRecord
{
    RoundResult r;
    bool traced = false;
    double wall() const { return r.setupS + r.runS; }
};

/**
 * Host times are the low decile of their samples: the rounds after the
 * first (which pays the cold set-up), and for setup_s the cold set-ups
 * of the first round and the child processes (@p coldSetups). Every
 * round does the same work, and the host's slow modes, which last from
 * a fraction of a second to minutes, only ever add time; the low
 * decile tracks the program's own cost, where a mean or median follows
 * the share of the run the host spends slow. A change that slows every
 * round moves it all the same. Every round runs the same operations
 * and simulated cycles, so the rates divide them by the low-decile
 * run time.
 */
std::vector<Metric>
endToEnd(const std::vector<RoundRecord> &rounds,
         const std::vector<double> &coldSetups)
{
    std::vector<double> wall, run;
    for (std::size_t i = 1; i < rounds.size(); ++i) {
        wall.push_back(rounds[i].wall());
        run.push_back(rounds[i].r.runS);
    }
    const RoundResult &first = rounds.front().r;
    const double fastRun = lowDecile(run);
    return {
        {"wall_s", lowDecile(wall), "s"},
        {"setup_s", lowDecile(coldSetups), "s"},
        {"ops_per_s", static_cast<double>(first.ops) / fastRun, "ops/s"},
        {"sim_cycles_per_s", static_cast<double>(first.refCycles) / fastRun,
         "cycles/s"},
        {"sim_cycles", static_cast<double>(first.refCycles), "cycles"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
}

std::vector<Metric>
perLayer(const Workload &workload, const Tracer &tracer,
         const std::vector<RoundRecord> &rounds)
{
    int traced = 0;
    std::vector<double> tracedWall, untracedWall;
    for (std::size_t i = 0; i < rounds.size(); ++i) {
        if (rounds[i].traced) {
            ++traced;
            tracedWall.push_back(rounds[i].wall());
        } else if (i > 0) {  // round 0 pays the cold set-up
            untracedWall.push_back(rounds[i].wall());
        }
    }
    LayerValues values;
    workload.layerMetrics(tracer, traced, values);
    for (const auto &[layer, s] : tracer.selfSecondsByLayer())
        values.set("self." + layer + "_s", s / traced);
    const double tw = mean(tracedWall);
    const double uw = mean(untracedWall);
    values.set("trace.wall_s", tw);
    values.set("trace.untraced_wall_s", uw);
    values.set("trace.overhead_share", uw > 0 ? tw / uw - 1 : 0);
    return values.metrics();
}

} // namespace

} // namespace fbbench

int
main(int argc, char **argv)
{
    using namespace fbbench;
    const Clock::time_point processStart = Clock::now();
    const Args args = parseArgs(argc, argv);
    // Injected faults log a warning each; the benchmark times the
    // simulator, not the writes to stderr.
    fb::Logger::get().setLevel(fb::LogLevel::Quiet);

    std::unique_ptr<Workload> workload;
    if (args.workload == "poisson")
        workload = makePoisson(args.seed);
    else if (args.workload == "wide_barrier")
        workload = makeWideBarrier(args.seed);
    else if (args.workload == "fuzz_campaign")
        workload = makeFuzzCampaign(args.seed);
    else
        usage(("unknown workload " + args.workload).c_str());

    // Cold set-ups first, each in a process of its own, while this one
    // is still cold for its first round.
    std::vector<double> coldSetups;
    if (!args.trace)
        for (int i = 0; i < kColdChildren; ++i) {
            const double s = coldSetupInChild(*workload);
            if (s < 0)
                std::fprintf(stderr, "fbbench: cold set-up child %d did not "
                                     "run\n", i);
            else
                coldSetups.push_back(s);
        }

    Tracer tracer(processStart);
    std::vector<RoundRecord> rounds;
    std::string failure;
    std::uint64_t attempted = 0, failed = 0;
    while (static_cast<int>(rounds.size()) < kMinRounds ||
           seconds(processStart, Clock::now()) < args.seconds) {
        RoundRecord rec;
        rec.traced = args.trace && rounds.size() % 2 == 1;
        tracer.setEnabled(rec.traced);
        rec.r = workload->round(tracer, Clock::now());
        tracer.setEnabled(false);
        attempted += rec.r.ops;
        failed += rec.r.failed;
        if (rounds.empty())
            coldSetups.push_back(rec.r.setupS);
        if (!rec.r.failure.empty()) {
            failure = rec.r.failure;
            break;
        }
        if (!rounds.empty() && rec.r.refCycles != rounds[0].r.refCycles) {
            // None of the round's outputs can be trusted to repeat.
            failed += rec.r.ops;
            failure = "simulated cycles differ between rounds of the same "
                      "inputs: " + std::to_string(rounds[0].r.refCycles) +
                      " vs " + std::to_string(rec.r.refCycles);
            break;
        }
        std::fprintf(stderr, "fbbench: round %zu%s setup %.6f s run %.6f s\n",
                     rounds.size(), rec.traced ? " traced" : "", rec.r.setupS,
                     rec.r.runS);
        rounds.push_back(rec);
    }
    if (failure.empty())
        failure = selfTest();

    if (!args.trace) {
        std::fprintf(stderr, "fbbench: cold set-ups");
        for (double s : coldSetups)
            std::fprintf(stderr, " %.6f", s);
        std::fprintf(stderr, " s\n");
    }
    std::vector<Metric> metrics;
    if (failure.empty())
        metrics = args.trace ? perLayer(*workload, tracer, rounds)
                             : endToEnd(rounds, coldSetups);
    if (args.trace && !args.traceOut.empty() &&
        !tracer.writeChromeJson(args.traceOut))
        std::fprintf(stderr, "fbbench: could not write %s\n",
                     args.traceOut.c_str());
    std::fprintf(stderr, "fbbench: %s seed=%llu rounds=%zu %s\n",
                 args.workload.c_str(),
                 static_cast<unsigned long long>(args.seed), rounds.size(),
                 failure.empty() ? "all output checks passed"
                                 : ("CHECK FAILED: " + failure).c_str());
    printResult(failure.empty(), attempted, failed, metrics);
    return failure.empty() ? 0 : 1;
}
