/**
 * @file
 * Generator-time probe for the traced benchmark run.
 *
 * TimedThread wraps a workload generator (a core::Thread) and forwards
 * every call unchanged, accumulating the host time spent inside
 * nextBatch() / next() / completed() and the number of references the
 * generator handed out. It is a counter, not a span per call: a cell
 * makes millions of those calls.
 *
 * The wrapper must be transparent: the core sees exactly the stream,
 * completions and finished() transitions of the wrapped generator, so
 * the simulated stats of a wrapped run are byte-identical to an
 * unwrapped one (selftest.cc and every traced cell check this).
 *
 * Each wrapper is driven by one simulated core, and a core runs on one
 * host thread at a time with a barrier between phases, so the plain
 * counters need no atomics.
 *
 * The wrapped calls are short and there are millions of them, so the
 * clock is the x86 time-stamp counter where there is one (a few ns per
 * read, against ~20 ns for steady_clock). The caller converts ticks to
 * seconds with a rate it measures against steady_clock over the run.
 */

#ifndef PERFBENCH_TIMED_THREAD_HH
#define PERFBENCH_TIMED_THREAD_HH

#include <chrono>
#include <cstdint>
#include <string>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "core/thread.hh"

namespace perfbench
{

/** Cheap monotonic tick counter (TSC on x86, steady_clock ns elsewhere). */
inline std::uint64_t
ticks()
{
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#else
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
#endif
}

class TimedThread final : public bf::core::Thread
{
  public:
    explicit TimedThread(bf::core::Thread &inner) : inner_(inner) {}

    TimedThread(const TimedThread &) = delete;
    TimedThread &operator=(const TimedThread &) = delete;

    bf::vm::Process *process() override { return inner_.process(); }

    bool
    next(bf::core::MemRef &ref) override
    {
        const std::uint64_t t0 = ticks();
        const bool ok = inner_.next(ref);
        ticks_ += ticks() - t0;
        refs_ += ok ? 1 : 0;
        return ok;
    }

    unsigned
    nextBatch(bf::core::MemRef *out, unsigned max) override
    {
        const std::uint64_t t0 = ticks();
        const unsigned n = inner_.nextBatch(out, max);
        ticks_ += ticks() - t0;
        refs_ += n;
        return n;
    }

    void
    completed(const bf::core::MemRef &ref, bf::Cycles now) override
    {
        const std::uint64_t t0 = ticks();
        inner_.completed(ref, now);
        ticks_ += ticks() - t0;
    }

    bool finished() const override { return inner_.finished(); }
    const std::string &name() const override { return inner_.name(); }

    void
    saveState(bf::snap::ArchiveWriter &ar) const override
    {
        inner_.saveState(ar);
    }

    void
    restoreState(bf::snap::ArchiveReader &ar) override
    {
        inner_.restoreState(ar);
    }

    /** ticks() spent inside the wrapped generator. */
    std::uint64_t genTicks() const { return ticks_; }
    /** References the generator produced. */
    std::uint64_t refs() const { return refs_; }

  private:
    bf::core::Thread &inner_;
    std::uint64_t ticks_ = 0;
    std::uint64_t refs_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_TIMED_THREAD_HH
