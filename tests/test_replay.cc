/**
 * @file
 * Tests for the trace-driven replay engine (src/replay, DESIGN.md §13):
 *
 *  - the headline fidelity property: replaying a trace at the recording
 *    configuration reproduces the full simulation's per-core L1/L2 TLB
 *    and PWC hit/miss counters (and the miss-latency count and sum)
 *    EXACTLY — for traces recorded at BF_WORKERS 1, 2 and 4, across a
 *    mid-run resetStats boundary;
 *  - schedule sharing: a ReplaySchedule owns its decoded records and
 *    backs concurrent ReplayEngines from multiple threads;
 *  - per-core threading: an engine's result is byte-identical at any
 *    replay thread count (recording config, a swept geometry and the
 *    competitor backends), and a core job's ReplayError reaches the
 *    caller of run() instead of aborting the process;
 *  - sweep sanity: growing the L2 TLB associativity at a fixed set
 *    count never increases misses on a fixed trace (LRU stack
 *    inclusion);
 *  - rejection: traces that cannot be replayed faithfully — truncated
 *    files, limit-clipped recordings, wrong format versions, event
 *    masks missing required kinds — fail with clear errors instead of
 *    producing silently wrong counters.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/trace/trace.hh"
#include "core/system.hh"
#include "replay/replay.hh"
#include "workloads/apps.hh"
#include "workloads/trace.hh"

using namespace bf;
using namespace bf::core;

namespace
{

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + name;
}

std::vector<std::uint8_t>
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
spit(const std::string &path, const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

const workloads::AppProfile &
mongodbProfile()
{
    static const workloads::AppProfile profile =
        workloads::AppProfile::mongodb();
    return profile;
}

/** Per-core ground truth pulled from a live full simulation. */
std::vector<replay::Counters>
liveCounters(System &sys)
{
    std::vector<replay::Counters> out;
    for (unsigned c = 0; c < sys.numCores(); ++c) {
        auto &mmu = sys.core(c).mmu();
        replay::Counters k;
        k.l1_hits = mmu.l1_hits.value();
        k.l1_misses = mmu.l1_misses.value();
        k.l2_data_hits = mmu.l2_data_hits.value();
        k.l2_data_misses = mmu.l2_data_misses.value();
        k.l2_instr_hits = mmu.l2_instr_hits.value();
        k.l2_instr_misses = mmu.l2_instr_misses.value();
        k.l2_data_shared_hits = mmu.l2_data_shared_hits.value();
        k.l2_instr_shared_hits = mmu.l2_instr_shared_hits.value();
        k.l2_long_accesses = mmu.l2_long_accesses.value();
        k.walks = mmu.walker().walks.value();
        k.pwc_hits = mmu.pwc().hits.value();
        k.pwc_misses = mmu.pwc().misses.value();
        k.miss_latency_count = mmu.miss_latency.count();
        k.miss_latency_sum = mmu.miss_latency.sum();
        out.push_back(k);
    }
    return out;
}

/**
 * The test_trace.cc workload shape: two mongodb containers per core on
 * a 4-core BabelFish system, traced, with a resetStats between warm-up
 * and measurement (so replay must honor the StatsReset marker). Returns
 * the live per-core counters after the measured phase.
 */
std::vector<replay::Counters>
runTracedMix(unsigned workers, const std::string &trace_path,
             std::uint32_t mask = trace::allEvents,
             std::uint64_t limit = 0)
{
    SystemParams params = SystemParams::babelfish();
    params.num_cores = 4;
    params.workers = workers;
    params.sync_chunk = 20000;
    params.kernel.mem_frames = 1 << 22;
    params.core.quantum = msToCycles(0.25);
    params.trace_path = trace_path;
    params.trace_events = mask;
    params.trace_limit = limit;

    System sys(params);
    const unsigned n = params.num_cores * 2;
    auto app = workloads::buildApp(sys.kernel(), mongodbProfile(), n, 29);
    auto threads = workloads::makeAppThreads(app, 29);
    for (unsigned i = 0; i < n; ++i)
        sys.addThread(i % params.num_cores, threads[i].get());

    sys.run(msToCycles(0.5));
    sys.resetStats();
    sys.run(msToCycles(1));
    return liveCounters(sys);
}

/**
 * Two processes of one CCID group on two cores, both mapping the same
 * file MAP_PRIVATE: core 1 keeps re-reading 64 pages while core 0 reads
 * them, then writes each one. Every CoW write shoots down the group's
 * shared entry on both cores, so core 1's next read of that page
 * misses — replay reproduces that only if the shootdown reaches core
 * 1's job (the mongodb mix above produces no shootdowns at all).
 */
void
runTracedCrossCoreCow(const std::string &trace_path)
{
    constexpr Addr va = 0x7f00'0000'0000ull;
    constexpr int pages = 64;
    SystemParams params = SystemParams::babelfish();
    params.num_cores = 2;
    params.sync_chunk = 2000;
    params.kernel.mem_frames = 1 << 22;
    params.trace_path = trace_path;
    params.trace_events = trace::allEvents;
    System sys(params);
    vm::Kernel &kernel = sys.kernel();
    const Ccid group = kernel.createGroup("g", 1);
    vm::MappedObject *file = kernel.createFile("f", pages * 0x1000);
    file->preload(kernel.frames());

    std::vector<MemRef> reads, writer;
    for (int i = 0; i < pages; ++i) {
        MemRef ref;
        ref.va = va + i * 0x1000;
        ref.instrs = 50;
        reads.push_back(ref);
    }
    for (int k = 0; k < 5; ++k)
        writer.insert(writer.end(), reads.begin(), reads.end());
    for (MemRef ref : reads) {
        ref.type = AccessType::Write;
        writer.push_back(ref);
    }
    writer.insert(writer.end(), reads.begin(), reads.end());

    std::vector<std::unique_ptr<workloads::TraceThread>> threads;
    for (unsigned c = 0; c < 2; ++c) {
        vm::Process *proc = kernel.createProcess(group, "t");
        kernel.mmapObject(*proc, file, va, pages * 0x1000, 0,
                          /*writable=*/true, /*exec=*/false,
                          /*shared=*/false);
        threads.push_back(std::make_unique<workloads::TraceThread>(
            "t", proc, c == 0 ? writer : reads, c == 0 ? 1 : 40));
        sys.addThread(c, threads.back().get());
    }
    sys.runUntilFinished(msToCycles(100));
}

/** Compare one reconstructed counter set against the live ground truth. */
void
expectEqualCounters(const replay::Counters &live,
                    const replay::Counters &rep, unsigned core,
                    const char *what)
{
    SCOPED_TRACE(std::string(what) + " core " + std::to_string(core));
    EXPECT_EQ(live.l1_hits, rep.l1_hits);
    EXPECT_EQ(live.l1_misses, rep.l1_misses);
    EXPECT_EQ(live.l2_data_hits, rep.l2_data_hits);
    EXPECT_EQ(live.l2_data_misses, rep.l2_data_misses);
    EXPECT_EQ(live.l2_instr_hits, rep.l2_instr_hits);
    EXPECT_EQ(live.l2_instr_misses, rep.l2_instr_misses);
    EXPECT_EQ(live.l2_data_shared_hits, rep.l2_data_shared_hits);
    EXPECT_EQ(live.l2_instr_shared_hits, rep.l2_instr_shared_hits);
    EXPECT_EQ(live.l2_long_accesses, rep.l2_long_accesses);
    EXPECT_EQ(live.walks, rep.walks);
    EXPECT_EQ(live.pwc_hits, rep.pwc_hits);
    EXPECT_EQ(live.pwc_misses, rep.pwc_misses);
    EXPECT_EQ(live.miss_latency_count, rep.miss_latency_count);
    EXPECT_EQ(live.miss_latency_sum, rep.miss_latency_sum);
}

/** Replay a trace at its recording config (with optional overrides). */
std::unique_ptr<replay::ReplayEngine>
replayTrace(const std::string &path,
            const std::function<void(replay::ReplayParams &)> &tweak = {})
{
    trace::TraceReader reader(path);
    replay::ReplayParams params =
        replay::paramsFromTrace(reader.header().config);
    if (tweak)
        tweak(params);
    auto engine =
        std::make_unique<replay::ReplayEngine>(params, reader.header());
    engine->run(reader);
    return engine;
}

} // namespace

// ---------------------------------------------------------------------
// Fidelity: replay at the recording config is exact
// ---------------------------------------------------------------------

// Replaying a trace at the configuration embedded in its header
// reproduces the live simulation's post-reset per-core TLB/PWC counters
// exactly — for traces recorded at 1, 2 and 4 bound-phase workers (the
// trace bytes are worker-independent, and so is the replay).
TEST(Replay, MatchesFullSimAtRecordingConfig)
{
    for (unsigned workers : {1u, 2u, 4u}) {
        const std::string path =
            tmpPath("replay-w" + std::to_string(workers) + ".trace");
        const auto live = runTracedMix(workers, path);

        auto engine = replayTrace(path);
        ASSERT_EQ(engine->numCores(), live.size());

        // Internal consistency: replayed == tallied-from-events.
        const auto diffs = engine->validate();
        EXPECT_TRUE(diffs.empty())
            << diffs.size() << " counter(s) diverge, first: "
            << (diffs.empty() ? "" : diffs[0].name);

        // External ground truth: replayed == live full-sim counters.
        for (unsigned c = 0; c < live.size(); ++c) {
            expectEqualCounters(live[c], engine->replayed(c), c,
                                "replayed");
            expectEqualCounters(live[c], engine->recorded(c), c,
                                "recorded-tally");
        }
    }
}

// The replayed stats tree exports the familiar per-core mmu sections.
TEST(Replay, StatsJsonHasMmuSections)
{
    const std::string path = tmpPath("replay-json.trace");
    runTracedMix(1, path);
    auto engine = replayTrace(path);
    const std::string json = engine->statsJson();
    EXPECT_NE(json.find("\"core0\""), std::string::npos);
    EXPECT_NE(json.find("\"mmu\""), std::string::npos);
    EXPECT_NE(json.find("\"l2_4k\""), std::string::npos);
    EXPECT_NE(json.find("\"pwc\""), std::string::npos);
    EXPECT_NE(json.find("\"miss_latency\""), std::string::npos);
}

// A ReplaySchedule owns its records and is immutable after
// construction, so one schedule backs concurrent engines (the BF_JOBS
// sweep pattern): two engines replaying the same shared schedule from
// two threads — with the decoded blocks freed before either runs —
// both reproduce the live counters exactly.
TEST(Replay, ScheduleSharedAcrossThreads)
{
    const std::string path = tmpPath("replay-mt.trace");
    const auto live = runTracedMix(1, path);

    trace::TraceReader reader(path);
    const trace::TraceHeader header = reader.header();
    std::unique_ptr<replay::ReplaySchedule> schedule;
    {
        std::vector<std::vector<trace::Record>> blocks;
        std::vector<trace::Record> block;
        while (reader.nextBlock(block))
            blocks.push_back(std::move(block));
        schedule = std::make_unique<replay::ReplaySchedule>(
            header, std::move(blocks));
        // blocks dies here: the schedule must not reference it.
    }

    const replay::ReplayParams params =
        replay::paramsFromTrace(header.config);
    replay::ReplayEngine a(params, header);
    replay::ReplayEngine b(params, header);
    std::thread ta([&] { a.run(*schedule); });
    std::thread tb([&] { b.run(*schedule); });
    ta.join();
    tb.join();

    for (replay::ReplayEngine *engine : {&a, &b}) {
        EXPECT_TRUE(engine->validate().empty());
        ASSERT_EQ(engine->numCores(), live.size());
        for (unsigned c = 0; c < live.size(); ++c)
            expectEqualCounters(live[c], engine->replayed(c), c,
                                "concurrent replay");
    }
}

// ---------------------------------------------------------------------
// Per-core replay threads
// ---------------------------------------------------------------------

// Each core's history replays as its own job, so the thread count must
// not show in the result: threads=1 and threads=4 give byte-identical
// stats trees and per-core counters at the recording config (where the
// replay must also validate), at a swept point (smaller L2, PWC and
// O-PC width, so the mix synthesizes walks) and under both competitor
// backends — on the mongodb mix and on a cross-core CoW trace whose
// shootdowns must reach the other core's job.
TEST(Replay, ThreadCountDoesNotChangeResults)
{
    const std::string mix_path = tmpPath("replay-threads.trace");
    const std::string cow_path = tmpPath("replay-threads-cow.trace");
    runTracedMix(1, mix_path);
    runTracedCrossCoreCow(cow_path);

    for (const std::string &path : {mix_path, cow_path}) {
        SCOPED_TRACE(path);
        trace::TraceReader reader(path);
        const trace::TraceHeader header = reader.header();
        std::vector<std::vector<trace::Record>> blocks;
        std::vector<trace::Record> block;
        std::uint64_t shootdowns = 0;
        while (reader.nextBlock(block)) {
            for (const trace::Record &r : block)
                shootdowns +=
                    r.type == static_cast<std::uint8_t>(
                                  trace::EventType::Shootdown);
            blocks.push_back(std::move(block));
        }
        if (path == cow_path) {
            EXPECT_GT(shootdowns, 0u) << "the CoW trace must shoot down";
        }
        const replay::ReplaySchedule schedule(header, std::move(blocks));

        const replay::ReplayParams recording =
            replay::paramsFromTrace(header.config);
        replay::ReplayParams swept = recording;
        for (tlb::TlbParams *tp :
             {&swept.l2_4k, &swept.l2_2m, &swept.l2_1g}) {
            tp->entries = 768;
            tp->assoc = 6;
        }
        swept.pwc.entries_per_level = 16;
        swept.opc_width = 8;
        replay::ReplayParams victima = recording;
        victima.backend = translate::BackendKind::Victima;
        replay::ReplayParams coalesced = recording;
        coalesced.backend = translate::BackendKind::Coalesced;

        const std::pair<const char *, replay::ReplayParams> points[] = {
            {"recording", recording},
            {"swept", swept},
            {"victima", victima},
            {"coalesced", coalesced},
        };
        for (const auto &[name, params] : points) {
            SCOPED_TRACE(name);
            replay::ReplayEngine one(params, header);
            replay::ReplayEngine four(params, header);
            one.run(schedule, 1);
            four.run(schedule, 4);
            EXPECT_EQ(one.statsJson(), four.statsJson());
            for (unsigned c = 0; c < one.numCores(); ++c) {
                EXPECT_EQ(one.replayed(c).accesses,
                          four.replayed(c).accesses);
                expectEqualCounters(one.replayed(c), four.replayed(c), c,
                                    "replayed");
                EXPECT_EQ(one.recorded(c).accesses,
                          four.recorded(c).accesses);
                expectEqualCounters(one.recorded(c), four.recorded(c), c,
                                    "recorded");
            }
            if (std::string(name) == "recording") {
                EXPECT_TRUE(one.validate().empty());
                EXPECT_TRUE(four.validate().empty());
            } else if (std::string(name) == "swept" && path == mix_path) {
                EXPECT_EQ(one.statsJson().find("\"synth_walks\":0,"),
                          std::string::npos)
                    << "the swept point should synthesize walks";
            }
        }
    }
}

// A core job that fails mid-replay (here: the recording hit a
// translation the trace never filled) throws ReplayError out of run()
// on the calling thread, even when the failing core ran on a worker.
TEST(Replay, CoreJobErrorSurfacesFromRun)
{
    trace::TraceHeader header;
    header.num_cores = 2;
    header.event_mask = trace::allEvents;
    for (trace::TraceTlbConfig &t : header.config.tlb) {
        t.entries = 64;
        t.assoc = 4;
    }
    header.config.pwc_entries_per_level = 16;
    header.config.pwc_assoc = 4;
    header.config.pwc_levels = 3;
    header.config.pwc_access_cycles = 1;

    trace::Record hit;
    hit.core = 1;
    hit.pid = 1;
    hit.vpage = 0x1234;
    hit.type = static_cast<std::uint8_t>(trace::EventType::TlbL1Hit);
    const replay::ReplaySchedule schedule(
        header, std::vector<std::vector<trace::Record>>{{hit}});

    replay::ReplayEngine engine(replay::paramsFromTrace(header.config),
                                header);
    EXPECT_THROW(engine.run(schedule, 2), replay::ReplayError);
}

// ---------------------------------------------------------------------
// Sweep sanity
// ---------------------------------------------------------------------

// Growing L2 associativity with the set count fixed can only keep or
// shrink the miss counts on a fixed trace (LRU stack inclusion per
// set). Also the sweep never throws: synthesized walks cover accesses
// the recording resolved in its (smaller) TLBs.
TEST(Replay, LargerL2TlbIsMonotonicallyBetter)
{
    const std::string path = tmpPath("replay-mono.trace");
    runTracedMix(1, path);

    std::uint64_t prev_misses = ~std::uint64_t{0};
    for (unsigned assoc : {6u, 12u, 24u}) {
        auto engine = replayTrace(path, [&](replay::ReplayParams &p) {
            // 128 sets at every point: entries scale with assoc.
            for (tlb::TlbParams *tp : {&p.l2_4k, &p.l2_2m, &p.l2_1g}) {
                tp->assoc = assoc;
                tp->entries = 128 * assoc;
            }
        });
        const auto total = engine->replayedTotal();
        const std::uint64_t misses =
            total.l2_data_misses + total.l2_instr_misses;
        EXPECT_LE(misses, prev_misses) << "assoc " << assoc;
        prev_misses = misses;
    }
}

// ---------------------------------------------------------------------
// Rejection of unreplayable traces
// ---------------------------------------------------------------------

// A limit-clipped trace (records dropped by BF_TRACE_LIMIT) is rejected
// at engine construction with a message naming the cause.
TEST(Replay, RejectsLimitClippedTrace)
{
    const std::string path = tmpPath("replay-clipped.trace");
    runTracedMix(1, path, trace::allEvents, /*limit=*/5000);
    trace::TraceReader reader(path);
    ASSERT_GT(reader.header().dropped_count, 0u);
    const replay::ReplayParams params =
        replay::paramsFromTrace(reader.header().config);
    try {
        replay::ReplayEngine engine(params, reader.header());
        FAIL() << "clipped trace accepted";
    } catch (const replay::ReplayError &err) {
        EXPECT_NE(std::string(err.what()).find("limit-clipped"),
                  std::string::npos);
    }
}

// A trace recorded without a replay-required event kind is rejected,
// naming the missing kinds.
TEST(Replay, RejectsInsufficientEventMask)
{
    const std::string path = tmpPath("replay-masked.trace");
    const std::uint32_t no_fill =
        trace::allEvents &
        ~(1u << static_cast<unsigned>(trace::EventType::TlbFill));
    runTracedMix(1, path, no_fill);
    trace::TraceReader reader(path);
    const replay::ReplayParams params =
        replay::paramsFromTrace(reader.header().config);
    try {
        replay::ReplayEngine engine(params, reader.header());
        FAIL() << "insufficient event mask accepted";
    } catch (const replay::ReplayError &err) {
        EXPECT_NE(std::string(err.what()).find("tlb_fill"),
                  std::string::npos);
    }
}

// Truncated files die in the reader with a TraceError, and a patched
// format version (a v1 file masquerading) is rejected up front — the
// strict side of the trace-format compatibility contract.
TEST(Replay, RejectsTruncatedAndWrongVersionTraces)
{
    const std::string path = tmpPath("replay-broken.trace");
    runTracedMix(1, path);
    const auto good = slurp(path);

    // Truncated mid-block: the reader throws while replaying.
    spit(path, {good.begin(), good.end() - 7});
    {
        trace::TraceReader reader(path);
        replay::ReplayEngine engine(
            replay::paramsFromTrace(reader.header().config),
            reader.header());
        EXPECT_THROW(engine.run(reader), trace::TraceError);
    }

    // Version byte patched to 1: rejected at open, telling the user to
    // re-record rather than guessing at an old layout.
    auto bad = good;
    bad[8] = 1;
    spit(path, bad);
    try {
        trace::TraceReader reader(path);
        FAIL() << "wrong version accepted";
    } catch (const trace::TraceError &err) {
        EXPECT_NE(std::string(err.what()).find("re-record"),
                  std::string::npos);
    }
}
