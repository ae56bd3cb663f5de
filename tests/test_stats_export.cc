/**
 * @file
 * Observability-layer tests: the JSON/flat-text stats serializers
 * (stats_export), the StatVisitor walk, the periodic StatSampler, the
 * runParallel fork/join helper, and their wiring into core::System
 * (enableSampling, run_capped, phase boundaries at resetStats).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/parallel.hh"
#include "common/stats_export.hh"
#include "core/system.hh"

using namespace bf;
using namespace bf::stats;

// ---------------------------------------------------------------------
// JSON primitives
// ---------------------------------------------------------------------

TEST(JsonEscape, PassesPlainTextThrough)
{
    EXPECT_EQ(jsonEscape("core0.l2_tlb4k"), "core0.l2_tlb4k");
}

TEST(JsonEscape, EscapesQuotesAndBackslashes)
{
    EXPECT_EQ(jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
}

TEST(JsonEscape, EscapesControlCharacters)
{
    EXPECT_EQ(jsonEscape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
    EXPECT_EQ(jsonEscape(std::string("x\x01y")), "x\\u0001y");
    EXPECT_EQ(jsonEscape(std::string("\b\f")), "\\b\\f");
}

TEST(JsonNumber, FormatsFiniteValues)
{
    EXPECT_EQ(jsonNumber(3), "3");
    EXPECT_EQ(jsonNumber(2.5), "2.5");
    EXPECT_EQ(jsonNumber(-0.25), "-0.25");
}

TEST(JsonNumber, NonFiniteBecomesNull)
{
    EXPECT_EQ(jsonNumber(std::nan("")), "null");
    EXPECT_EQ(jsonNumber(1.0 / 0.0), "null");
    EXPECT_EQ(jsonNumber(-1.0 / 0.0), "null");
}

// ---------------------------------------------------------------------
// StatGroup serialization
// ---------------------------------------------------------------------

namespace
{

/** root { hits; child "sub" { misses; lat } } with an Average at root. */
struct SmallTree
{
    StatGroup root{ "root" };
    StatGroup sub{ "sub", &root };
    Scalar hits;
    Scalar misses;
    Average occupancy;
    LatencyTracker lat;

    SmallTree()
    {
        root.addStat("hits", &hits);
        root.addStat("occupancy", &occupancy);
        sub.addStat("misses", &misses);
        sub.addStat("lat", &lat);
    }
};

} // namespace

TEST(StatsJson, SerializesNestedGroupsExactly)
{
    SmallTree t;
    t.hits += 7;
    t.misses += 3;
    t.occupancy.sample(2.0);
    t.occupancy.sample(4.0);
    t.lat.sample(10.0);

    EXPECT_EQ(toJsonString(t.root),
              "{\"scalars\":{\"hits\":7},"
              "\"averages\":{\"occupancy\":{\"mean\":3,\"sum\":6,"
              "\"count\":2}},"
              "\"latencies\":{},"
              "\"distributions\":{},"
              "\"children\":{\"sub\":{"
              "\"scalars\":{\"misses\":3},"
              "\"averages\":{},"
              "\"latencies\":{\"lat\":{\"mean\":10,\"p50\":10,"
              "\"p95\":10,\"p99\":10,\"count\":1}},"
              "\"distributions\":{},"
              "\"children\":{}}}}");
}

TEST(StatsJson, ChildNamedLikeAStatCannotCollide)
{
    // The fixed scalars/averages/latencies/children sections keep a
    // child group named "hits" apart from the scalar "hits".
    StatGroup root("root");
    Scalar hits;
    root.addStat("hits", &hits);
    StatGroup child("hits", &root);
    Scalar inner;
    child.addStat("hits", &inner);
    ++inner;

    EXPECT_EQ(toJsonString(root),
              "{\"scalars\":{\"hits\":0},\"averages\":{},"
              "\"latencies\":{},\"distributions\":{},"
              "\"children\":{\"hits\":{"
              "\"scalars\":{\"hits\":1},\"averages\":{},"
              "\"latencies\":{},\"distributions\":{},"
              "\"children\":{}}}}");
}

TEST(StatsJson, ResetBetweenPhasesReflectsInOutput)
{
    SmallTree t;
    t.hits += 42;
    EXPECT_NE(toJsonString(t.root).find("\"hits\":42"), std::string::npos);
    t.hits.reset();
    t.misses += 5;
    const std::string after = toJsonString(t.root);
    EXPECT_NE(after.find("\"hits\":0"), std::string::npos);
    EXPECT_NE(after.find("\"misses\":5"), std::string::npos);
}

TEST(StatsFlatText, EmitsFullyQualifiedLines)
{
    SmallTree t;
    t.hits += 7;
    t.misses += 3;
    t.lat.sample(8.0);
    std::ostringstream os;
    toFlatText(t.root, os);
    const std::string text = os.str();
    EXPECT_NE(text.find("root.hits=7\n"), std::string::npos);
    EXPECT_NE(text.find("root.sub.misses=3\n"), std::string::npos);
    EXPECT_NE(text.find("root.sub.lat.p95=8\n"), std::string::npos);
    EXPECT_NE(text.find("root.occupancy.count=0\n"), std::string::npos);
}

TEST(StatsVisitor, WalksDepthFirstInOrder)
{
    SmallTree t;

    struct Recorder : StatVisitor
    {
        std::vector<std::string> events;
        void beginGroup(const StatGroup &g) override
        {
            events.push_back("begin:" + g.name());
        }
        void endGroup(const StatGroup &g) override
        {
            events.push_back("end:" + g.name());
        }
        void visitScalar(const StatGroup &, const std::string &n,
                         const Scalar &) override
        {
            events.push_back("scalar:" + n);
        }
        void visitAverage(const StatGroup &, const std::string &n,
                          const Average &) override
        {
            events.push_back("avg:" + n);
        }
        void visitLatency(const StatGroup &, const std::string &n,
                          const LatencyTracker &) override
        {
            events.push_back("lat:" + n);
        }
    } rec;

    t.root.accept(rec);
    const std::vector<std::string> expect = {
        "begin:root", "scalar:hits",   "avg:occupancy", "begin:sub",
        "scalar:misses", "lat:lat",    "end:sub",       "end:root",
    };
    EXPECT_EQ(rec.events, expect);
}

// ---------------------------------------------------------------------
// StatSampler
// ---------------------------------------------------------------------

TEST(Sampler, SampleCountIsDurationOverInterval)
{
    core::StatSampler sampler;
    std::uint64_t counter = 0;
    sampler.addProbe("c", [&] { return counter; });
    sampler.setInterval(100);

    // Driver advances in chunks of 250 cycles up to 1000.
    for (Cycles now = 250; now <= 1000; now += 250) {
        counter = now; // cumulative counter tracking time
        sampler.observe(now);
    }
    ASSERT_EQ(sampler.points().size(), 10u); // 1000 / 100
    for (std::size_t i = 0; i < sampler.points().size(); ++i)
        EXPECT_EQ(sampler.points()[i].cycle, 100 * (i + 1));
}

TEST(Sampler, ValuesAreMonotoneWithinAPhase)
{
    core::StatSampler sampler;
    std::uint64_t counter = 0;
    sampler.addProbe("c", [&] { return counter; });
    sampler.setInterval(10);
    for (Cycles now = 10; now <= 200; now += 10) {
        counter += now % 7; // arbitrary non-decreasing growth
        sampler.observe(now);
    }
    for (std::size_t i = 1; i < sampler.points().size(); ++i)
        EXPECT_GE(sampler.points()[i].values[0],
                  sampler.points()[i - 1].values[0]);
}

TEST(Sampler, PhaseBoundaryTagsLaterSamples)
{
    core::StatSampler sampler;
    std::uint64_t counter = 0;
    sampler.addProbe("c", [&] { return counter; });
    sampler.setInterval(50);
    counter = 5;
    sampler.observe(100); // two warm-up samples, phase 0
    sampler.beginPhase(); // resetStats()
    counter = 1;          // counters went backwards at the reset
    sampler.observe(200); // two measurement samples, phase 1

    ASSERT_EQ(sampler.points().size(), 4u);
    EXPECT_EQ(sampler.points()[1].phase, 0u);
    EXPECT_EQ(sampler.points()[2].phase, 1u);
    // The post-reset drop is explained by the phase tag, not wraparound.
    EXPECT_LT(sampler.points()[2].values[0], sampler.points()[1].values[0]);
}

TEST(Sampler, DisabledUntilIntervalAndProbesPresent)
{
    core::StatSampler sampler;
    EXPECT_FALSE(sampler.enabled());
    sampler.setInterval(100);
    EXPECT_FALSE(sampler.enabled()); // no probes yet
    sampler.addProbe("c", [] { return 0ull; });
    EXPECT_TRUE(sampler.enabled());
    sampler.observe(1000);
    EXPECT_EQ(sampler.points().size(), 10u);
    sampler.setInterval(0);
    EXPECT_FALSE(sampler.enabled());
}

TEST(Sampler, ClearDropsSamplesAndRestartsGrid)
{
    core::StatSampler sampler;
    sampler.addProbe("c", [] { return 1ull; });
    sampler.setInterval(100);
    sampler.observe(300);
    sampler.beginPhase();
    EXPECT_EQ(sampler.points().size(), 3u);
    sampler.clear();
    EXPECT_TRUE(sampler.points().empty());
    EXPECT_EQ(sampler.phase(), 0u);
    sampler.observe(100);
    ASSERT_EQ(sampler.points().size(), 1u);
    EXPECT_EQ(sampler.points()[0].cycle, 100u);
}

TEST(Sampler, JsonShape)
{
    core::StatSampler sampler;
    std::uint64_t a = 1, b = 2;
    sampler.addProbe("alpha", [&] { return a; });
    sampler.addProbe("beta", [&] { return b; });
    sampler.setInterval(10);
    sampler.observe(10);
    EXPECT_EQ(sampler.toJsonString(),
              "{\"interval_cycles\":10,"
              "\"probes\":[\"alpha\",\"beta\"],"
              "\"samples\":[{\"cycle\":10,\"phase\":0,"
              "\"values\":[1,2]}]}");
}

// ---------------------------------------------------------------------
// runParallel
// ---------------------------------------------------------------------

TEST(Parallel, RunsEveryIndexExactlyOnce)
{
    constexpr std::size_t n = 100;
    std::vector<std::atomic<unsigned>> hits(n);
    runParallel(n, 4, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1u) << "index " << i;
}

TEST(Parallel, SingleWorkerRunsInlineInOrder)
{
    std::vector<std::size_t> order;
    runParallel(5, 1, [&](std::size_t i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<std::size_t>{ 0, 1, 2, 3, 4 }));
}

TEST(Parallel, ResultsMatchSerialExecution)
{
    constexpr std::size_t n = 64;
    std::vector<std::uint64_t> serial(n), threaded(n);
    auto work = [](std::size_t i) {
        std::uint64_t x = i + 1;
        for (int k = 0; k < 1000; ++k)
            x = x * 6364136223846793005ull + 1442695040888963407ull;
        return x;
    };
    runParallel(n, 1, [&](std::size_t i) { serial[i] = work(i); });
    runParallel(n, 8, [&](std::size_t i) { threaded[i] = work(i); });
    EXPECT_EQ(serial, threaded);
}

TEST(Parallel, ZeroTasksIsANoOp)
{
    bool ran = false;
    runParallel(0, 4, [&](std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(Parallel, MoreWorkersThanTasks)
{
    std::vector<std::atomic<unsigned>> hits(3);
    runParallel(3, 16, [&](std::size_t i) { ++hits[i]; });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1u);
}

// A throwing job neither aborts the process nor stops the other jobs:
// every job runs, and the caller gets the exception of the lowest
// failing index — the same one at any worker count.
TEST(Parallel, RethrowsLowestIndexExceptionAfterAllJobsFinish)
{
    constexpr std::size_t n = 32;
    for (unsigned workers : { 1u, 4u, 16u }) {
        std::vector<std::atomic<unsigned>> hits(n);
        try {
            runParallel(n, workers, [&](std::size_t i) {
                ++hits[i];
                if (i % 10 == 7) // Jobs 7, 17 and 27 fail.
                    throw std::runtime_error("job " + std::to_string(i));
            });
            FAIL() << "no exception at " << workers << " workers";
        } catch (const std::runtime_error &err) {
            EXPECT_STREQ(err.what(), "job 7") << workers << " workers";
        }
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(hits[i].load(), 1u)
                << "index " << i << " at " << workers << " workers";
    }
}

#ifdef __linux__
// defaultWorkers() counts the CPUs in the affinity mask, so a process
// pinned with taskset (or confined by a cgroup CPU set) never spawns
// more workers than it may run on.
TEST(Parallel, DefaultWorkersFollowsAffinityMask)
{
    cpu_set_t original;
    ASSERT_EQ(sched_getaffinity(0, sizeof(original), &original), 0);
    EXPECT_EQ(defaultWorkers(),
              static_cast<unsigned>(CPU_COUNT(&original)));

    // Pin this thread to one of its CPUs: the default drops to 1.
    cpu_set_t one;
    CPU_ZERO(&one);
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &original)) {
            CPU_SET(cpu, &one);
            break;
        }
    }
    ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
    const unsigned pinned = defaultWorkers();
    ASSERT_EQ(sched_setaffinity(0, sizeof(original), &original), 0);
    EXPECT_EQ(pinned, 1u);
}
#endif

// ---------------------------------------------------------------------
// System integration: sampling + run_capped
// ---------------------------------------------------------------------

namespace
{

constexpr Addr kVa = 0x7f00'0000'0000ull;

/** Touches one page per ref forever (or until a fixed issue limit). */
class LoopThread : public core::Thread
{
  public:
    LoopThread(vm::Process *proc, std::uint64_t limit = 0)
        : proc_(proc), limit_(limit)
    {}

    vm::Process *process() override { return proc_; }
    const std::string &name() const override { return name_; }

    bool
    next(core::MemRef &ref) override
    {
        if (finished())
            return false;
        ref.va = kVa + (issued_ % 64) * 4096;
        ref.type = AccessType::Read;
        ref.instrs = 100;
        ++issued_;
        return true;
    }

    void completed(const core::MemRef &, Cycles) override {}

    bool
    finished() const override
    {
        return limit_ && issued_ >= limit_;
    }

  private:
    vm::Process *proc_;
    std::uint64_t limit_;
    std::uint64_t issued_ = 0;
    std::string name_ = "loop";
};

struct SysFixture
{
    core::System sys;
    vm::Process *proc;

    SysFixture()
        : sys([] {
              core::SystemParams p = core::SystemParams::babelfish();
              p.num_cores = 1;
              p.kernel.mem_frames = 1 << 20;
              return p;
          }())
    {
        const Ccid g = sys.kernel().createGroup("g", 1);
        proc = sys.kernel().createProcess(g, "p");
        auto *file = sys.kernel().createFile("f", 1 << 20);
        file->preload(sys.kernel().frames());
        sys.kernel().mmapObject(*proc, file, kVa, 1 << 20, 0, false,
                                false, false);
    }
};

} // namespace

TEST(SystemSampling, RecordsDurationOverIntervalSamples)
{
    SysFixture f;
    LoopThread t(f.proc);
    f.sys.addThread(0, &t);
    f.sys.enableSampling(msToCycles(1)); // 2M cycles
    f.sys.run(msToCycles(10));
    ASSERT_EQ(f.sys.sampler().points().size(), 10u);
    const auto &names = f.sys.sampler().names();
    // Probes include the headline counters the benches chart.
    EXPECT_NE(std::find(names.begin(), names.end(), "instructions"),
              names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "minor_faults"),
              names.end());
    // Instructions accumulate monotonically within the phase.
    const auto idx = static_cast<std::size_t>(
        std::find(names.begin(), names.end(), "instructions") -
        names.begin());
    const auto &pts = f.sys.sampler().points();
    for (std::size_t i = 1; i < pts.size(); ++i)
        EXPECT_GE(pts[i].values[idx], pts[i - 1].values[idx]);
    EXPECT_GT(pts.back().values[idx], 0u);
}

TEST(SystemSampling, ResetStatsStartsANewPhase)
{
    SysFixture f;
    LoopThread t(f.proc);
    f.sys.addThread(0, &t);
    f.sys.enableSampling(msToCycles(1));
    f.sys.run(msToCycles(2)); // warm-up
    f.sys.resetStats();
    f.sys.run(msToCycles(3)); // measurement
    const auto &pts = f.sys.sampler().points();
    ASSERT_EQ(pts.size(), 5u);
    EXPECT_EQ(pts[1].phase, 0u);
    EXPECT_EQ(pts[2].phase, 1u);
    EXPECT_EQ(pts.back().phase, 1u);
}

TEST(SystemRunCapped, CapIsAStatNotJustAWarning)
{
    SysFixture f;
    LoopThread t(f.proc); // never finishes
    f.sys.addThread(0, &t);
    EXPECT_EQ(f.sys.run_capped.value(), 0u);
    f.sys.runUntilFinished(msToCycles(1));
    EXPECT_EQ(f.sys.run_capped.value(), 1u);
    EXPECT_EQ(f.sys.stats().scalar("run_capped"), 1u);
    // A JSON dump of the tree carries the flag out to the benches.
    EXPECT_NE(toJsonString(f.sys.stats()).find("\"run_capped\":1"),
              std::string::npos);
}

TEST(SystemRunCapped, FinishedRunDoesNotCap)
{
    SysFixture f;
    LoopThread t(f.proc, /*limit=*/100);
    f.sys.addThread(0, &t);
    f.sys.runUntilFinished(msToCycles(100));
    EXPECT_EQ(f.sys.run_capped.value(), 0u);
}
