/**
 * @file
 * In-memory span log of the traced benchmark run.
 *
 * A span records a name, start and end (host seconds since the log was
 * created), the span that caused it and the run (one cell or sweep
 * round) it belongs to, plus optional numeric arguments. Spans are
 * kept in memory and written once, when the benchmark ends, as Chrome
 * trace-event JSON ({"traceEvents":[...]}) — the format bf_trace
 * --chrome writes, so Perfetto opens both.
 *
 * A null SpanLog pointer is the untraced run: Span objects built on it
 * record nothing.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/stats_export.hh"

namespace perfbench
{

class SpanLog
{
  public:
    struct Record
    {
        std::string name;
        double start = 0;
        double end = -1; //!< < 0 while open.
        int parent = -1;
        int run = -1;
        std::vector<std::pair<std::string, double>> args;
    };

    /** Open a span; returns its id. */
    int
    open(std::string name, int parent, int run)
    {
        Record r;
        r.name = std::move(name);
        r.start = now();
        r.parent = parent;
        r.run = run;
        spans_.push_back(std::move(r));
        return static_cast<int>(spans_.size()) - 1;
    }

    void close(int id) { spans_[static_cast<std::size_t>(id)].end = now(); }

    void
    arg(int id, std::string key, double value)
    {
        spans_[static_cast<std::size_t>(id)].args.emplace_back(
            std::move(key), value);
    }

    const std::vector<Record> &spans() const { return spans_; }

    /** Write every closed span as Chrome trace-event JSON. */
    bool
    writeChrome(const std::string &path) const
    {
        std::FILE *out = std::fopen(path.c_str(), "w");
        if (!out)
            return false;
        std::fputs("{\"traceEvents\":[", out);
        bool first = true;
        for (std::size_t id = 0; id < spans_.size(); ++id) {
            const Record &r = spans_[id];
            if (r.end < 0)
                continue;
            std::fprintf(out,
                         "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                         "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                         "\"id\":%zu,\"parent\":%d,\"run\":%d",
                         first ? "" : ",",
                         bf::stats::jsonEscape(r.name).c_str(),
                         r.start * 1e6, (r.end - r.start) * 1e6, id,
                         r.parent, r.run);
            for (const auto &[key, value] : r.args)
                std::fprintf(out, ",\"%s\":%s",
                             bf::stats::jsonEscape(key).c_str(),
                             bf::stats::jsonNumber(value).c_str());
            std::fputs("}}", out);
            first = false;
        }
        std::fputs("\n],\"displayTimeUnit\":\"ns\"}\n", out);
        return std::fclose(out) == 0;
    }

  private:
    using Clock = std::chrono::steady_clock;

    double
    now() const
    {
        return std::chrono::duration<double>(Clock::now() - origin_)
            .count();
    }

    Clock::time_point origin_ = Clock::now();
    std::vector<Record> spans_;
};

/** RAII span on an optional log (null log = untraced, records nothing). */
class Span
{
  public:
    Span(SpanLog *log, std::string name, int parent, int run)
        : log_(log),
          id_(log ? log->open(std::move(name), parent, run) : -1)
    {}

    ~Span()
    {
        if (log_)
            log_->close(id_);
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    int id() const { return id_; }

    void
    arg(std::string key, double value)
    {
        if (log_)
            log_->arg(id_, std::move(key), value);
    }

  private:
    SpanLog *log_;
    int id_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
