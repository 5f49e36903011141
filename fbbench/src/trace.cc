#include "trace.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>

namespace fbbench
{

namespace
{

thread_local std::vector<std::uint64_t> tlsStack;

int
threadNumber()
{
    static std::atomic<int> next{0};
    thread_local int mine = next.fetch_add(1);
    return mine;
}

std::int64_t
sinceNs(Clock::time_point epoch, Clock::time_point t)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch)
        .count();
}

} // namespace

std::uint64_t
Tracer::current()
{
    return tlsStack.empty() ? 0 : tlsStack.back();
}

std::uint64_t
Tracer::open(const char *layer, const char *call, std::uint64_t parent)
{
    if (!_enabled)
        return 0;
    SpanRecord rec;
    rec.parent = parent;
    rec.layer = layer;
    rec.name = std::string(layer) + "." + call;
    rec.tid = threadNumber();
    rec.startNs = sinceNs(_epoch, Clock::now());
    std::uint64_t id = 0;
    {
        std::lock_guard<std::mutex> lock(_mu);
        id = _nextId++;
        rec.id = id;
        _open[id] = _spans.size();
        _spans.push_back(std::move(rec));
    }
    tlsStack.push_back(id);
    return id;
}

void
Tracer::close(std::uint64_t id)
{
    if (id == 0)
        return;
    const std::int64_t end = sinceNs(_epoch, Clock::now());
    if (!tlsStack.empty() && tlsStack.back() == id)
        tlsStack.pop_back();
    std::lock_guard<std::mutex> lock(_mu);
    auto it = _open.find(id);
    if (it == _open.end())
        return;
    _spans[it->second].endNs = end;
    _open.erase(it);
}

double
Tracer::totalSeconds(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(_mu);
    std::int64_t ns = 0;
    for (const auto &s : _spans)
        if (s.name == name)
            ns += s.endNs - s.startNs;
    return static_cast<double>(ns) * 1e-9;
}

std::map<std::string, double>
Tracer::selfSecondsByLayer() const
{
    std::lock_guard<std::mutex> lock(_mu);
    std::map<std::uint64_t, std::vector<const SpanRecord *>> children;
    for (const auto &s : _spans)
        if (s.parent != 0)
            children[s.parent].push_back(&s);

    std::map<std::string, double> self;
    for (const auto &s : _spans) {
        std::vector<std::pair<std::int64_t, std::int64_t>> cover;
        if (auto it = children.find(s.id); it != children.end())
            for (const SpanRecord *c : it->second) {
                const std::int64_t lo = std::max(c->startNs, s.startNs);
                const std::int64_t hi = std::min(c->endNs, s.endNs);
                if (lo < hi)
                    cover.emplace_back(lo, hi);
            }
        std::sort(cover.begin(), cover.end());
        std::int64_t covered = 0;
        std::int64_t reach = s.startNs;
        for (const auto &[lo, hi] : cover) {
            const std::int64_t from = std::max(lo, reach);
            if (hi > from) {
                covered += hi - from;
                reach = hi;
            }
        }
        self[s.layer] +=
            static_cast<double>(s.endNs - s.startNs - covered) * 1e-9;
    }
    return self;
}

bool
Tracer::writeChromeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::lock_guard<std::mutex> lock(_mu);
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    bool first = true;
    for (const auto &s : _spans) {
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                     "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%llu,\"parent\":%llu}}",
                     first ? "" : ",", s.name.c_str(), s.layer.c_str(),
                     s.tid, static_cast<double>(s.startNs) * 1e-3,
                     static_cast<double>(s.endNs - s.startNs) * 1e-3,
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent));
        first = false;
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

Span::Span(Tracer &tracer, const char *layer, const char *call,
           std::uint64_t parent)
    : _tracer(tracer), _id(tracer.open(layer, call, parent)),
      _start(Clock::now())
{
}

Span::~Span()
{
    stop();
}

double
Span::stop()
{
    if (_elapsed < 0) {
        _elapsed = seconds(_start, Clock::now());
        _tracer.close(_id);
    }
    return _elapsed;
}

} // namespace fbbench
