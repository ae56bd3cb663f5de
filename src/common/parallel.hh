/**
 * @file
 * A minimal fork/join helper for running independent simulations
 * concurrently.
 *
 * Each `System` is fully self-contained (its own kernel, frame
 * allocator, caches, RNG streams and stat tree), so independent
 * configurations can run on separate OS threads with no synchronization
 * beyond join. The thread-safety contract callers must keep: one System
 * per job, jobs write only to their own result slot, and nothing
 * touches shared mutable state (the only process-global is the logging
 * verbosity flag, which benches set once before spawning workers).
 *
 * Results are deterministic and identical to a serial run: parallelism
 * only changes wall-clock order, never simulated behaviour. That holds
 * for errors too: a job that throws does not stop the others, and the
 * caller sees the exception of the lowest-indexed failing job whatever
 * the thread count.
 */

#ifndef BF_COMMON_PARALLEL_HH
#define BF_COMMON_PARALLEL_HH

#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

namespace bf
{

/**
 * Run fn(0), fn(1), ... fn(n-1) on up to @p workers threads.
 *
 * Jobs are handed out dynamically (an atomic ticket counter), so a mix
 * of long and short jobs still load-balances. With workers <= 1 the
 * jobs run inline on the calling thread, in index order. An exception
 * escaping @p fn is caught per job; every job still runs, and once all
 * have finished the exception of the lowest failing index is rethrown
 * on the calling thread — the same one at any @p workers.
 */
inline void
runParallel(std::size_t n, unsigned workers,
            const std::function<void(std::size_t)> &fn)
{
    if (workers > n)
        workers = static_cast<unsigned>(n);

    std::atomic<std::size_t> next{0};
    std::mutex error_mutex;
    std::size_t error_index = n;
    std::exception_ptr error;
    auto drain = [&] {
        for (std::size_t i = next.fetch_add(1); i < n;
             i = next.fetch_add(1)) {
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (i < error_index) {
                    error_index = i;
                    error = std::current_exception();
                }
            }
        }
    };
    std::vector<std::thread> pool;
    if (workers > 1)
        pool.reserve(workers - 1);
    for (unsigned w = 1; w < workers; ++w)
        pool.emplace_back(drain);
    drain();
    for (auto &t : pool)
        t.join();
    if (error)
        std::rethrow_exception(error);
}

/**
 * Default worker count: the CPUs this process may run on (its affinity
 * mask, so `taskset` and cgroup CPU sets are honoured), falling back to
 * the hardware concurrency; at least 1.
 */
inline unsigned
defaultWorkers()
{
#ifdef __linux__
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        const int allowed = CPU_COUNT(&set);
        if (allowed > 0)
            return static_cast<unsigned>(allowed);
    }
#endif
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

} // namespace bf

#endif // BF_COMMON_PARALLEL_HH
