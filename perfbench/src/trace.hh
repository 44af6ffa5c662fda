/**
 * @file
 * Benchmark-side tracing: spans recorded around the calls the
 * benchmark makes into the library's public functions. Spans live in
 * memory (name, start, end, parent span, study id) and are written
 * out once, at the end of a run, as Chrome trace-event JSON. A
 * disabled tracer records nothing, so untraced runs pay one branch
 * per call site.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <ctime>
#include <string>
#include <vector>

namespace perfbench {

/** Host seconds on the steady clock (arbitrary epoch). */
inline double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * CPU seconds of the whole process, every thread together. The gated
 * timings use this clock: unlike the steady clock it stands still
 * while the hypervisor runs other guests on this one's cores (steal
 * time) and while a thread waits for a core.
 */
inline double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

class Tracer
{
  public:
    struct Span
    {
        std::string name;
        double start = 0.0;
        double end = 0.0;
        int parent = -1; ///< index of the enclosing span, or -1.
        int study = -1;  ///< study id, or -1 outside any study.
    };

    /** Per-name totals: the rows of the self-time table. */
    struct Layer
    {
        std::string name;
        std::size_t count = 0;
        double total = 0.0; ///< summed span durations.
        double self = 0.0;  ///< total minus child-span coverage.
    };

    explicit Tracer(bool enabled) : enabled_(enabled) {}

    /** Spans opened while disabled are not recorded. */
    void
    setEnabled(bool enabled)
    {
        enabled_ = enabled;
    }

    /** Open a span under the innermost open one; -1 when disabled. */
    int open(const std::string &name, int study);

    void close(int span);

    const std::vector<Span> &
    spans() const
    {
        return spans_;
    }

    /** Durations of every closed span named @p name, in order. */
    std::vector<double> durations(const std::string &name) const;

    /** Summed duration of the spans named @p name. */
    double total(const std::string &name) const;

    /** Per-name count, total and self time, by descending self time. */
    std::vector<Layer> layers() const;

    /** Write the spans as Chrome trace-event JSON; false on IO error. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span: opened on construction, closed on destruction. */
class Scope
{
  public:
    Scope(Tracer &tracer, const std::string &name, int study = -1)
        : tracer_(tracer), span_(tracer.open(name, study))
    {
    }
    ~Scope() { tracer_.close(span_); }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &tracer_;
    int span_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
