#include "trace.hh"

#include <atomic>
#include <cstdio>
#include <fstream>

#include "bench_common.hh"

namespace casqbench {

namespace {

const auto kEpoch = std::chrono::steady_clock::now();

/** Innermost open span on this thread (-1 when none). */
thread_local std::int64_t t_openSpan = -1;

std::uint32_t
threadIndex()
{
    static std::atomic<std::uint32_t> next{0};
    thread_local const std::uint32_t index = next++;
    return index;
}

} // namespace

double
steadyMicros()
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - kEpoch)
        .count();
}

std::int64_t
Tracer::newId()
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _nextId++;
}

void
Tracer::close(Span span)
{
    std::lock_guard<std::mutex> lock(_mutex);
    _spans.push_back(std::move(span));
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _spans;
}

Tracer::Scope::Scope(Tracer &tracer, const char *layer,
                     const char *name, std::string request)
{
    if (!tracer.enabled())
        return;
    _tracer = &tracer;
    _span.layer = layer;
    _span.name = name;
    _span.request = std::move(request);
    _span.id = tracer.newId();
    _span.parent = t_openSpan;
    _span.thread = threadIndex();
    _savedParent = t_openSpan;
    t_openSpan = _span.id;
    _span.startUs = steadyMicros();
}

Tracer::Scope::~Scope()
{
    if (!_tracer)
        return;
    _span.endUs = steadyMicros();
    t_openSpan = _savedParent;
    _tracer->close(std::move(_span));
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    char buf[64];
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    const std::vector<Span> all = spans();
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        out << "{\"ph\": \"X\", \"pid\": 1, \"tid\": " << s.thread
            << ", \"cat\": " << casq::bench::jsonQuote(s.layer)
            << ", \"name\": " << casq::bench::jsonQuote(s.name);
        std::snprintf(buf, sizeof(buf), ", \"ts\": %.3f", s.startUs);
        out << buf;
        std::snprintf(buf, sizeof(buf), ", \"dur\": %.3f",
                      s.endUs - s.startUs);
        out << buf << ", \"args\": {\"id\": " << s.id
            << ", \"parent\": " << s.parent << ", \"request\": "
            << casq::bench::jsonQuote(s.request) << "}}"
            << (i + 1 < all.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    out.flush();
    return bool(out);
}

} // namespace casqbench
