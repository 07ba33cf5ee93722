/**
 * @file
 * In-memory span recorder for the benchmark's traced mode.
 *
 * Spans are placed from the benchmark's own files around calls into the
 * simulator's public functions; nothing inside the program is
 * instrumented. A span's module is the part of its name before the
 * first '.', e.g. "sim.run_measure" belongs to module "sim". Spans of
 * one job or request share an id (0 = not tied to one).
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

struct Span
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    int parent = -1;      ///< index into the recorder's spans, -1 = root
    std::uint64_t id = 0; ///< job / request id shared by related spans

    double seconds() const { return (endNs - startNs) * 1e-9; }
};

class SpanRecorder
{
  public:
    SpanRecorder();

    int open(const std::string &name, std::uint64_t id);
    void close(int index);

    const std::vector<Span> &spans() const { return spans_; }

    /** Total seconds of every span named `name` under root `root`
     *  (-1 = anywhere). */
    double totalSeconds(const std::string &name, int root) const;
    /** Durations (seconds) of every span named `name` under `root`. */
    std::vector<double> durations(const std::string &name, int root) const;

    /**
     * Self time per module of the tree under `root`: each span's
     * duration minus the part its children cover. The root's own self
     * time is reported as "unattributed", so the values sum to the
     * root's duration.
     */
    std::map<std::string, double> selfTimeByModule(int root) const;

    /** Chrome trace_event JSON (loads in Perfetto / chrome://tracing). */
    void writeChromeJson(std::ostream &os) const;

  private:
    bool under(int span, int root) const;

    std::chrono::steady_clock::time_point t0_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span; a null recorder makes it a no-op (untraced runs). */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *rec, const std::string &name,
               std::uint64_t id = 0)
        : rec_(rec), index_(rec ? rec->open(name, id) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (rec_)
            rec_->close(index_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int index() const { return index_; }

  private:
    SpanRecorder *rec_;
    int index_;
};

/** Print the self-time table of `root`, one row per module. */
void printSelfTimeTable(std::ostream &os, const SpanRecorder &rec,
                        int root, const std::string &title);

} // namespace perfbench
