/**
 * @file
 * In-memory span recorder for the traced pass: one span per run and
 * per phase (name, start, end, parent, run id), written out as
 * Chrome-trace JSON when the benchmark ends. Per-cycle calls are not
 * recorded one span each: the driver sums them and records one
 * aggregate child span per run (Span::calls > 1), laid out back to
 * back inside the loop span so self times still add up.
 */

#ifndef FTBENCH_SPANS_HPP
#define FTBENCH_SPANS_HPP

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace ftb {

struct Span
{
    /** Static phase name ("run", "build", "step", ...). */
    const char *name = "";
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    /** Index of the enclosing span, -1 for a root. */
    std::int64_t parent = -1;
    /** Run the span belongs to (RunSpec order within the pass). */
    std::uint64_t run = 0;
    /** Small per-thread index (Chrome-trace tid). */
    std::uint32_t thread = 0;
    /** Calls the span aggregates (1 for a plain interval). */
    std::uint64_t calls = 1;

    std::uint64_t durationNs() const { return endNs - startNs; }
};

class SpanRecorder
{
  public:
    /** Record a finished span; returns its index. */
    std::int64_t add(const char *name, std::int64_t parent,
                     std::uint64_t run, std::uint64_t start_ns,
                     std::uint64_t end_ns, std::uint64_t calls = 1);
    /** Open a span starting now; close it with close(). */
    std::int64_t open(const char *name, std::int64_t parent,
                      std::uint64_t run);
    void close(std::int64_t index);

    std::vector<Span> spans() const;
    /** Write every span as Chrome-trace JSON ("X" events). */
    bool writeChromeTrace(const std::string &path) const;

  private:
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** Scoped open/close of one span. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &recorder, const char *name,
               std::int64_t parent, std::uint64_t run)
        : recorder_(recorder),
          index_(recorder.open(name, parent, run))
    {
    }
    ~ScopedSpan() { recorder_.close(index_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::int64_t index() const { return index_; }

  private:
    SpanRecorder &recorder_;
    std::int64_t index_;
};

/** Time and count of one span name. */
struct NameTotals
{
    std::uint64_t totalNs = 0;
    /** Duration minus the part covered by child spans. */
    std::uint64_t selfNs = 0;
    std::uint64_t spans = 0;
};

/** Totals per span name over the spans whose run @p keep accepts
 *  (all spans when @p keep is empty). */
std::map<std::string, NameTotals>
totalsByName(const std::vector<Span> &spans,
             const std::function<bool(std::uint64_t run)> &keep = {});

} // namespace ftb

#endif // FTBENCH_SPANS_HPP
