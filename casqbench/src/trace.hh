/**
 * @file
 * In-memory span recorder of the benchmark's traced runs.
 *
 * Spans are recorded by the benchmark around its calls into each
 * layer's public functions (the library itself is not
 * instrumented).  Each span keeps its layer, name, start and end,
 * the span that was open on the same thread when it began (its
 * parent) and a request id that ties the spans of one instance or
 * job together.  Nothing is written until writeChromeTrace() at the
 * end of the run, which emits Chrome trace-event JSON that opens
 * offline in Perfetto (ui.perfetto.dev) or chrome://tracing.
 *
 * A disabled tracer records nothing and reads no clock, so the
 * untraced runs pay one branch per span site.
 */

#ifndef CASQBENCH_TRACE_HH
#define CASQBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace casqbench {

/** Microseconds on the steady clock since the tracer's epoch. */
double steadyMicros();

/** One closed span. */
struct Span
{
    std::string layer;   //!< passes | circuit | sim | shard | service
    std::string name;    //!< the public call the span wraps
    double startUs = 0.0;
    double endUs = 0.0;
    std::int64_t id = 0;
    std::int64_t parent = -1; //!< -1 for a root span
    std::string request;      //!< instance index or job id
    std::uint32_t thread = 0; //!< small per-thread index
};

class Tracer
{
  public:
    explicit Tracer(bool enabled) : _enabled(enabled) {}

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    bool enabled() const { return _enabled; }

    /** Snapshot of every span closed so far. */
    std::vector<Span> spans() const;

    /**
     * Write the spans as a Chrome trace-event JSON object
     * ({"traceEvents": [...]}) with one complete ("X") event per
     * span; the parent and request ids travel in each event's args.
     * Returns false when the file cannot be written.
     */
    bool writeChromeTrace(const std::string &path) const;

    /** RAII span: opens on construction, closes on destruction. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, const char *layer, const char *name,
              std::string request = {});
        ~Scope();

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *_tracer = nullptr; //!< null when tracing is off
        Span _span;
        std::int64_t _savedParent = -1;
    };

  private:
    bool _enabled;
    mutable std::mutex _mutex;
    std::vector<Span> _spans; //!< guarded by _mutex
    std::int64_t _nextId = 0; //!< guarded by _mutex

    std::int64_t newId();
    void close(Span span);
};

} // namespace casqbench

#endif // CASQBENCH_TRACE_HH
