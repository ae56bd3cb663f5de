#include "common/trace/trace.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/logging.hh"

namespace bf::trace
{

namespace
{

const char traceMagic[8] = {'B', 'F', 'T', 'R', 'A', 'C', 'E', '\0'};

/** Byte offsets of the header fields patched by Tracer::finish(). */
constexpr long recordCountOffset = 24;
constexpr long droppedCountOffset = 32;

void
putU16(std::vector<std::uint8_t> &buf, std::uint16_t v)
{
    buf.push_back(static_cast<std::uint8_t>(v));
    buf.push_back(static_cast<std::uint8_t>(v >> 8));
}

void
putU32(std::vector<std::uint8_t> &buf, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
putU64(std::vector<std::uint8_t> &buf, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

/** Read a little-endian @p T at @p p (one plain load on LE hosts). */
template <typename T>
T
loadLE(const std::uint8_t *p)
{
    T v = 0;
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(&v, p, sizeof(T));
    } else {
        for (std::size_t i = 0; i < sizeof(T); ++i)
            v |= static_cast<T>(T{p[i]} << (8 * i));
    }
    return v;
}

/** Write @p v little-endian at @p p (one plain store on LE hosts). */
template <typename T>
void
storeLE(std::uint8_t *p, T v)
{
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(p, &v, sizeof(T));
    } else {
        for (std::size_t i = 0; i < sizeof(T); ++i)
            p[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
}

std::uint16_t
getU16(const std::uint8_t *p)
{
    return loadLE<std::uint16_t>(p);
}

std::uint32_t
getU32(const std::uint8_t *p)
{
    return loadLE<std::uint32_t>(p);
}

std::uint64_t
getU64(const std::uint8_t *p)
{
    return loadLE<std::uint64_t>(p);
}

/** Encode @p rec into the recordBytes bytes at @p p (getRecord's inverse). */
void
encodeRecord(std::uint8_t *p, const Record &rec)
{
    storeLE(p, rec.ts);
    storeLE(p + 8, rec.vpage);
    storeLE(p + 16, rec.arg);
    storeLE(p + 24, rec.pid);
    storeLE(p + 28, rec.seq);
    storeLE(p + 32, rec.core);
    storeLE(p + 34, rec.ccid);
    p[36] = rec.type;
    p[37] = rec.flags;
    storeLE(p + 38, rec.cslot); // v2's zero pad; 40 bytes total
}

Record
getRecord(const std::uint8_t *p)
{
    Record rec;
    rec.ts = getU64(p);
    rec.vpage = getU64(p + 8);
    rec.arg = getU64(p + 16);
    rec.pid = getU32(p + 24);
    rec.seq = getU32(p + 28);
    rec.core = getU16(p + 32);
    rec.ccid = getU16(p + 34);
    rec.type = p[36];
    rec.flags = p[37];
    rec.cslot = getU16(p + 38);
    return rec;
}

/** Serialize the v2 header config block (configBytes bytes). */
void
putConfig(std::vector<std::uint8_t> &buf, const TraceConfig &cfg)
{
    const std::size_t start = buf.size();
    for (unsigned i = 0; i < traceNumTlbs; ++i) {
        const TraceTlbConfig &t = cfg.tlb[i];
        putU32(buf, t.entries);
        putU16(buf, t.assoc);
        putU16(buf, t.access_cycles);
        putU16(buf, t.bitmask_extra_cycles);
        buf.push_back(t.policy);
        buf.push_back(0); // pad to 12 bytes per TLB
    }
    putU32(buf, cfg.pwc_entries_per_level);
    putU16(buf, cfg.pwc_assoc);
    putU16(buf, cfg.pwc_levels);
    putU16(buf, cfg.pwc_access_cycles);
    putU16(buf, cfg.aslr_transform_cycles);
    std::uint8_t flags = 0;
    flags |= cfg.babelfish ? 1u << 0 : 0;
    flags |= cfg.l1_sharing ? 1u << 1 : 0;
    flags |= cfg.force_long_l2 ? 1u << 2 : 0;
    flags |= cfg.aslr_hw ? 1u << 3 : 0;
    buf.push_back(flags);
    buf.push_back(cfg.opc_width);
    buf.push_back(cfg.backend);
    while (buf.size() - start < configBytes)
        buf.push_back(0);
    bf_assert(buf.size() - start == configBytes,
              "trace config block is ", buf.size() - start, " bytes");
}

TraceConfig
getConfig(const std::uint8_t *p)
{
    TraceConfig cfg;
    for (unsigned i = 0; i < traceNumTlbs; ++i) {
        TraceTlbConfig &t = cfg.tlb[i];
        t.entries = getU32(p);
        t.assoc = getU16(p + 4);
        t.access_cycles = getU16(p + 6);
        t.bitmask_extra_cycles = getU16(p + 8);
        t.policy = p[10];
        p += 12;
    }
    cfg.pwc_entries_per_level = getU32(p);
    cfg.pwc_assoc = getU16(p + 4);
    cfg.pwc_levels = getU16(p + 6);
    cfg.pwc_access_cycles = getU16(p + 8);
    cfg.aslr_transform_cycles = getU16(p + 10);
    const std::uint8_t flags = p[12];
    cfg.babelfish = flags & (1u << 0);
    cfg.l1_sharing = flags & (1u << 1);
    cfg.force_long_l2 = flags & (1u << 2);
    cfg.aslr_hw = flags & (1u << 3);
    cfg.opc_width = p[13];
    cfg.backend = p[14]; // zero (BabelFish) in pre-zoo traces
    return cfg;
}

/** Canonical merge order; (ts, core, seq) is unique by construction. */
bool
recordLess(const Record &a, const Record &b)
{
    if (a.ts != b.ts)
        return a.ts < b.ts;
    if (a.core != b.core)
        return a.core < b.core;
    return a.seq < b.seq;
}

} // namespace

const char *
eventTypeName(EventType type)
{
    switch (type) {
      case EventType::TlbL1Hit: return "tlb_l1_hit";
      case EventType::TlbL2Hit: return "tlb_l2_hit";
      case EventType::TlbMiss: return "tlb_miss";
      case EventType::PwcHit: return "pwc_hit";
      case EventType::WalkStart: return "walk_start";
      case EventType::WalkStep: return "walk_step";
      case EventType::WalkEnd: return "walk_end";
      case EventType::FaultService: return "fault_service";
      case EventType::CowPrivatize: return "cow_privatize";
      case EventType::MaskFallback: return "mask_fallback";
      case EventType::Shootdown: return "shootdown";
      case EventType::TlbFill: return "tlb_fill";
      case EventType::StatsReset: return "stats_reset";
    }
    return "?";
}

Tracer::Tracer(std::string path, unsigned num_cores,
               std::uint32_t event_mask, std::uint64_t limit,
               const TraceConfig &config)
    : path_(std::move(path)), mask_(event_mask & allEvents), limit_(limit),
      bufs_(num_cores), next_seq_(num_cores, 0)
{
    file_ = std::fopen(path_.c_str(), "wb");
    if (!file_) {
        warn("trace: cannot open ", path_, " for writing; tracing off");
        return;
    }
    std::vector<std::uint8_t> header;
    header.insert(header.end(), traceMagic, traceMagic + sizeof(traceMagic));
    putU32(header, traceFormatVersion);
    putU32(header, recordBytes);
    putU32(header, num_cores);
    putU32(header, mask_);
    putU64(header, 0); // record count, patched by finish()
    putU64(header, 0); // dropped count, patched by finish()
    putU64(header, 0); // reserved
    putConfig(header, config);
    bf_assert(header.size() == headerBytes,
              "trace header is ", header.size(), " bytes");
    if (std::fwrite(header.data(), 1, header.size(), file_) !=
        header.size()) {
        warn("trace: short write of header to ", path_, "; tracing off");
        std::fclose(file_);
        file_ = nullptr;
    }
}

Tracer::~Tracer()
{
    finish();
}

void
Tracer::flushBarrier()
{
    if (!file_)
        return;

    // One merge head per non-empty core buffer, kept in core order.
    struct Head
    {
        Cycles ts;
        const Record *next;
        const Record *end;
    };
    std::vector<Head> heads;
    heads.reserve(bufs_.size());
    std::size_t total = 0;
    for (auto &buf : bufs_) {
        if (buf.empty())
            continue;
        // Guard for the ladder's precondition (see trace.hh): append
        // order is seq order, so a buffer is (ts, seq)-sorted exactly
        // when its timestamps never decrease.
        const auto by_ts = [](const Record &a, const Record &b) {
            return a.ts < b.ts;
        };
        if (!std::is_sorted(buf.begin(), buf.end(), by_ts))
            std::sort(buf.begin(), buf.end(),
                      [](const Record &a, const Record &b) {
                          return a.ts != b.ts ? a.ts < b.ts : a.seq < b.seq;
                      });
        heads.push_back(
            {buf.front().ts, buf.data(), buf.data() + buf.size()});
        total += buf.size();
    }

    // The limit is applied here, in canonical order, so the records that
    // survive truncation are the same at every worker count.
    std::size_t keep = total;
    if (limit_ != 0) {
        const std::uint64_t room = limit_ > written_ ? limit_ - written_ : 0;
        keep = std::min<std::uint64_t>(keep, room);
    }
    dropped_ += total - keep;

    if (keep != 0) {
        io_buf_.resize(8 + keep * std::size_t{recordBytes});
        std::uint8_t *p = io_buf_.data();
        storeLE(p, blockMagic);
        storeLE(p + 4, static_cast<std::uint32_t>(keep));
        p += 8;

        // k-way ladder (as mergeEpochLogs): repeatedly encode the
        // ts-minimal head. The strict `<` scan over core-ordered heads
        // resolves ties toward the lower core, and each head advances in
        // seq order, so the output is the unique (ts, core, seq) order.
        std::size_t left = keep;
        while (left != 0 && heads.size() > 1) {
            std::size_t min = 0;
            for (std::size_t h = 1; h < heads.size(); ++h) {
                if (heads[h].ts < heads[min].ts)
                    min = h;
            }
            Head &head = heads[min];
            encodeRecord(p, *head.next);
            p += recordBytes;
            --left;
            if (++head.next != head.end)
                head.ts = head.next->ts;
            else
                heads.erase(heads.begin() + min); // keeps core order
        }
        // One buffer left (or only ever one): copy it through.
        if (left != 0) {
            for (const Record *rec = heads[0].next; left != 0; --left) {
                encodeRecord(p, *rec++);
                p += recordBytes;
            }
        }
    }
    for (auto &buf : bufs_)
        buf.clear();
    if (keep == 0)
        return;

    if (std::fwrite(io_buf_.data(), 1, io_buf_.size(), file_) !=
        io_buf_.size()) {
        warn("trace: short write to ", path_, "; tracing off");
        std::fclose(file_);
        file_ = nullptr;
        return;
    }
    written_ += keep;
}

void
Tracer::finish()
{
    if (!file_)
        return;
    flushBarrier();
    if (!file_) // flush may have failed and closed the file
        return;
    std::vector<std::uint8_t> patch;
    putU64(patch, written_);
    bool ok = std::fseek(file_, recordCountOffset, SEEK_SET) == 0 &&
              std::fwrite(patch.data(), 1, 8, file_) == 8;
    patch.clear();
    putU64(patch, dropped_);
    ok = ok && std::fseek(file_, droppedCountOffset, SEEK_SET) == 0 &&
         std::fwrite(patch.data(), 1, 8, file_) == 8;
    if (std::fclose(file_) != 0 || !ok)
        warn("trace: failed to finalize ", path_);
    file_ = nullptr;
}

TraceReader::TraceReader(const std::string &path)
{
    file_ = std::fopen(path.c_str(), "rb");
    if (!file_)
        throw TraceError("trace: cannot open " + path);
    // The file size bounds every block's claimed record count, so a
    // corrupted count fails before it can size an allocation.
    long size = -1;
    if (std::fseek(file_, 0, SEEK_END) == 0)
        size = std::ftell(file_);
    if (size < 0 || std::fseek(file_, 0, SEEK_SET) != 0) {
        std::fclose(file_);
        file_ = nullptr;
        throw TraceError("trace: " + path + ": cannot size file");
    }
    remaining_ = static_cast<std::uint64_t>(size);
    std::uint8_t raw[headerBytes];
    if (std::fread(raw, 1, sizeof(raw), file_) != sizeof(raw)) {
        std::fclose(file_);
        file_ = nullptr;
        throw TraceError("trace: " + path + ": truncated header");
    }
    remaining_ -= sizeof(raw);
    if (std::memcmp(raw, traceMagic, sizeof(traceMagic)) != 0) {
        std::fclose(file_);
        file_ = nullptr;
        throw TraceError("trace: " + path + ": bad magic");
    }
    header_.version = getU32(raw + 8);
    header_.record_bytes = getU32(raw + 12);
    header_.num_cores = getU32(raw + 16);
    header_.event_mask = getU32(raw + 20);
    header_.record_count = getU64(raw + 24);
    header_.dropped_count = getU64(raw + 32);
    header_.config = getConfig(raw + 48);
    std::string problem;
    if (header_.version < traceMinReadVersion ||
        header_.version > traceFormatVersion)
        problem = "unsupported version " + std::to_string(header_.version) +
                  " (format v" + std::to_string(traceFormatVersion) +
                  " required; re-record the trace)";
    else if (header_.record_bytes != recordBytes)
        problem = "record size " + std::to_string(header_.record_bytes);
    else if (header_.num_cores == 0)
        problem = "zero cores";
    else if (header_.num_cores > 0x10000)
        // Records carry a u16 core id; a larger count is a lying field
        // that would otherwise size per-core tables in the readers.
        problem = "core count " + std::to_string(header_.num_cores);
    if (!problem.empty()) {
        std::fclose(file_);
        file_ = nullptr;
        throw TraceError("trace: " + path + ": " + problem);
    }
}

TraceReader::~TraceReader()
{
    if (file_)
        std::fclose(file_);
}

bool
TraceReader::nextBlock(std::vector<Record> &out)
{
    out.clear();
    std::uint8_t frame[8];
    const std::size_t got = std::fread(frame, 1, sizeof(frame), file_);
    if (got == 0 && std::feof(file_))
        return false;
    if (got != sizeof(frame))
        throw TraceError("trace: truncated block frame");
    remaining_ -= sizeof(frame);
    if (getU32(frame) != blockMagic)
        throw TraceError("trace: bad block magic");
    const std::uint32_t count = getU32(frame + 4);
    if (count == 0)
        throw TraceError("trace: empty block");
    const std::uint64_t bytes = std::uint64_t{count} * recordBytes;
    if (bytes > remaining_)
        throw TraceError("trace: block count exceeds file");
    raw_.resize(bytes);
    if (std::fread(raw_.data(), 1, raw_.size(), file_) != raw_.size())
        throw TraceError("trace: truncated block body");
    remaining_ -= bytes;
    out.resize(count);
    const std::uint8_t *p = raw_.data();
    for (Record &rec : out) {
        rec = getRecord(p);
        p += recordBytes;
    }
    // v2 wrote a zero pad where v3 keeps the attribution slot; force it
    // to "none" so slot 0 is never fabricated from old files.
    if (header_.version < 3)
        for (Record &rec : out)
            rec.cslot = noCslot;
    return true;
}

ValidateResult
validateTrace(const std::string &path)
{
    TraceReader reader(path);
    const TraceHeader &header = reader.header();
    ValidateResult result;
    // Per-core seq must increase strictly across the whole file; -1
    // (as u64) means "none seen yet".
    std::vector<std::uint64_t> last_seq(header.num_cores, ~std::uint64_t{0});
    std::vector<Record> block;
    while (reader.nextBlock(block)) {
        ++result.blocks;
        for (std::size_t i = 0; i < block.size(); ++i) {
            const Record &rec = block[i];
            if (rec.type >= numEventTypes)
                throw TraceError("trace: unknown event type " +
                                 std::to_string(rec.type));
            if (((header.event_mask >> rec.type) & 1) == 0)
                throw TraceError(std::string("trace: masked-out event ") +
                                 eventTypeName(EventType{rec.type}));
            if (rec.core >= header.num_cores)
                throw TraceError("trace: core " + std::to_string(rec.core) +
                                 " out of range");
            if (i > 0 && !recordLess(block[i - 1], rec))
                throw TraceError("trace: block not (ts, core, seq)-sorted "
                                 "at record " + std::to_string(result.records));
            std::uint64_t &last = last_seq[rec.core];
            if (last != ~std::uint64_t{0} && rec.seq <= last)
                throw TraceError("trace: core " + std::to_string(rec.core) +
                                 " seq not strictly increasing");
            last = rec.seq;
            ++result.records;
        }
    }
    if (result.records != header.record_count)
        throw TraceError("trace: header claims " +
                         std::to_string(header.record_count) +
                         " records, file has " +
                         std::to_string(result.records));
    return result;
}

} // namespace bf::trace
