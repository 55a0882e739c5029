/**
 * @file
 * Kill-and-recover differential harness for the crash-consistency
 * subsystem.
 *
 * Every scheme replays the mixed-duplication trace of the PR 3
 * differential harness with the PersistenceManager attached, a
 * deterministic crash injected at a sampled write index, and recovery
 * run offline on the captured image. The recovered state must be
 * equivalent to a golden shadow model within the window the configured
 * persistence domain is allowed to lose:
 *
 *   - with E = epoch_writes and a crash at write W, the recovered
 *     state reflects at least everything up to the journal floor F
 *     (ADR: the last epoch commit, floor((W-1)/E)*E; eADR: W-1, since
 *     the metadata write-back buffer survives) and at most the crash
 *     write U (pre-barrier crashes: W-1);
 *   - every recovered AMT mapping must decrypt — via the recovered
 *     counter — to a value the shadow model held current at some write
 *     index in [F, U]; every address first written at or before F must
 *     be recovered at all;
 *   - refcounts re-derived by recovery must sum to the recovered
 *     mapping count (conservation);
 *   - the pad-safety audit against the image's ground-truth counter
 *     oracle must report zero violations: no recovered counter floor
 *     may ever let a future write reuse a pad.
 *
 * The trace keeps running after the crash snapshot (the image is a
 * capture, not a stop), so scheme-level stats conservation is also
 * checked over the full run.
 */

#include <gtest/gtest.h>

#include <map>
#include <unordered_map>
#include <vector>

#include "common/random.hh"
#include "core/simulator.hh"
#include "dedup/mapped_scheme.hh"
#include "persist/recovery.hh"

namespace esd
{
namespace
{

struct Op
{
    bool write = false;
    Addr addr = 0;
    CacheLine data;
};

/** One address pool line, 128 lines wide. */
Addr
lineAddr(std::uint64_t i)
{
    return (i % 128) * kLineSize;
}

/** The deterministic mixed-duplication trace of the differential
 * harness: zero floods, a shared duplicate pool, unique fills, rewrite
 * toggles, and frees — every journal record type fires. */
std::vector<Op>
buildTrace()
{
    std::vector<Op> ops;
    auto write = [&](Addr a, const CacheLine &d) {
        ops.push_back(Op{true, a, d});
    };

    for (std::uint64_t i = 0; i < 64; ++i)
        write(lineAddr(i), CacheLine{});

    for (std::uint64_t i = 0; i < 128; ++i) {
        CacheLine d;
        d.setWord(0, 0xD00D + (i % 4));
        d.setWord(5, 42);
        write(lineAddr(64 + i), d);
    }

    for (std::uint64_t i = 0; i < 96; ++i) {
        CacheLine d;
        d.setWord(0, 0x1000 + i);
        d.setWord(7, ~i);
        write(lineAddr(3 * i), d);
    }

    for (int round = 0; round < 6; ++round) {
        for (std::uint64_t i = 0; i < 64; ++i) {
            CacheLine d;
            d.setWord(0, round & 1 ? 0xAAAA : 0x5555);
            d.setWord(2, i % 2);
            write(lineAddr(i), d);
        }
    }

    for (std::uint64_t i = 0; i < 128; i += 2)
        write(lineAddr(64 + i), CacheLine{});

    return ops;
}

/** Per-address write history: (1-based write index, value) pairs. */
using History = std::map<Addr, std::vector<std::pair<std::uint64_t,
                                                     CacheLine>>>;

/** Whether @p plain was the current value of the history @p h at some
 * write index in [lo, hi] — the equivalence window the persistence
 * domain allows. */
bool
currentSomewhereIn(const std::vector<std::pair<std::uint64_t,
                                               CacheLine>> &h,
                   const CacheLine &plain, std::uint64_t lo,
                   std::uint64_t hi)
{
    for (std::size_t k = 0; k < h.size(); ++k) {
        std::uint64_t start = h[k].first;
        std::uint64_t end =
            k + 1 < h.size() ? h[k + 1].first - 1 : ~0ull;
        if (start <= hi && end >= lo && h[k].second == plain)
            return true;
    }
    return false;
}

using CrashParam = std::tuple<SchemeKind, PersistDomain, CrashPhase>;

class CrashRecoveryTest : public ::testing::TestWithParam<CrashParam>
{
};

TEST_P(CrashRecoveryTest, RecoveredStateMatchesGoldenWindow)
{
    auto [kind, domain, phase] = GetParam();

    const std::vector<Op> ops = buildTrace();
    std::uint64_t total_writes = 0;
    for (const Op &op : ops)
        if (op.write)
            ++total_writes;

    // Sampled crash indices: one at an epoch boundary, two PCG-drawn
    // from the body of the trace, all deterministic per combination.
    constexpr std::uint64_t kEpoch = 8;
    Pcg32 pick(0xC0FFEEull,
               (static_cast<std::uint64_t>(kind) << 8) |
                   (static_cast<std::uint64_t>(domain) << 4) |
                   static_cast<std::uint64_t>(phase));
    std::vector<std::uint64_t> crash_writes = {2 * kEpoch};
    for (int i = 0; i < 2; ++i)
        crash_writes.push_back(
            kEpoch + 2 + pick.below(total_writes - kEpoch - 4));

    for (std::uint64_t crash_w : crash_writes) {
        SimConfig c;
        c.pcm.banksPerChannel = 8;
        c.metadata.efitCacheBytes = 64 * 16;
        c.metadata.amtCacheBytes = 64 * kLineSize;
        c.metadata.referHMax = 7;
        c.metadata.decayPeriod = 32;
        c.persist.enabled = true;
        c.persist.domain = domain;
        c.persist.epochWrites = kEpoch;
        c.persist.checkpointEpochs = 4;
        // Large enough that no early (buffer-full) commit moves the
        // journal floor off the epoch boundary the window assumes.
        c.persist.metadataBufferRecords = 4096;
        c.persist.crashAtWrite = crash_w;
        c.persist.crashPhase = phase;

        PcmDevice dev(c.pcm, c.channels);
        NvmStore store(c.pcm.capacityBytes);
        auto scheme = makeScheme(kind, c, dev, store);
        PersistenceManager pm(c.persist, dev, store, c.seed);
        scheme->setPersistence(&pm);

        History shadow;
        Tick now = 0;
        std::uint64_t widx = 0;
        for (const Op &op : ops) {
            now += 97;
            if (!op.write)
                continue;
            ++widx;
            pm.onWriteBegin(now);
            AccessResult r = scheme->write(op.addr, op.data, now);
            pm.onWriteEnd(now + r.latency);
            shadow[op.addr].emplace_back(widx, op.data);
        }

        ASSERT_TRUE(pm.crashed())
            << scheme->name() << " crash at " << crash_w
            << " never fired";
        const CrashImage &img = pm.image();
        EXPECT_EQ(img.crashWriteIndex, crash_w);
        EXPECT_EQ(img.domain, domain);
        EXPECT_EQ(img.phase, phase);

        RecoveredState rec =
            recoverFromImage(img, c.persist, scheme->crypto());
        const std::string ctx = std::string(scheme->name()) + " " +
                                (domain == PersistDomain::Adr ? "adr"
                                                              : "eadr") +
                                " W=" + std::to_string(crash_w);

        EXPECT_TRUE(rec.summary.ok)
            << ctx << ": " << rec.summary.countersUnresolved
            << " counters unresolved, "
            << rec.summary.mappingsInvalidated
            << " mappings invalidated";
        EXPECT_EQ(rec.summary.tornRecords, img.tornRecords);

        // Pad safety: the recovered counter floors must clear the
        // ground-truth oracle — a violation means pad reuse.
        PadSafetyReport audit = auditPadSafety(rec, img);
        EXPECT_EQ(audit.violations, 0u)
            << ctx << ": " << audit.violations << " of "
            << audit.countersChecked << " floors below the true counter";

        // Equivalence window: the domain floor F and crash-point
        // upper bound U on the write index the recovered state may
        // reflect.
        std::uint64_t F = domain == PersistDomain::Adr
                              ? ((crash_w - 1) / kEpoch) * kEpoch
                              : crash_w - 1;
        std::uint64_t U =
            phase == CrashPhase::PreBarrier ? crash_w - 1 : crash_w;

        std::unordered_map<Addr, const StoredLine *> content;
        for (const auto &[addr, line] : img.content)
            content[addr] = &line;

        if (img.inPlace) {
            // In-place scheme: surviving content sits at the logical
            // address; every line must decrypt to a window value.
            EXPECT_EQ(rec.summary.liveMappings, 0u) << ctx;
            for (const auto &[addr, line] : img.content) {
                auto it = rec.ctrDecrypt.find(addr);
                ASSERT_NE(it, rec.ctrDecrypt.end())
                    << ctx << ": no recovered counter for addr " << addr;
                CacheLine plain = scheme->crypto().applyPad(
                    addr, it->second, line.data);
                auto hit = shadow.find(addr);
                ASSERT_NE(hit, shadow.end()) << ctx;
                EXPECT_TRUE(
                    currentSomewhereIn(hit->second, plain, F, U))
                    << ctx << ": addr " << addr
                    << " decrypts outside window [" << F << ", " << U
                    << "]";
            }
            // Completeness: everything journal-durable must survive.
            for (const auto &[addr, h] : shadow) {
                if (h.front().first <= F) {
                    EXPECT_TRUE(content.count(addr))
                        << ctx << ": addr " << addr << " written at "
                        << h.front().first << " lost";
                }
            }
        } else {
            // Mapped scheme: walk the recovered AMT, decrypt each
            // target line with the recovered counter, and match the
            // shadow window of the logical address.
            std::uint64_t mappings = 0;
            for (const auto &[addr, phys] : rec.amt) {
                ++mappings;
                auto cit = content.find(phys);
                ASSERT_NE(cit, content.end())
                    << ctx << ": mapping " << addr << " -> " << phys
                    << " targets no surviving line";
                auto kit = rec.ctrDecrypt.find(phys);
                ASSERT_NE(kit, rec.ctrDecrypt.end())
                    << ctx << ": no recovered counter for phys "
                    << phys;
                CacheLine plain = scheme->crypto().applyPad(
                    phys, kit->second, cit->second->data);
                auto hit = shadow.find(addr);
                ASSERT_NE(hit, shadow.end()) << ctx;
                EXPECT_TRUE(
                    currentSomewhereIn(hit->second, plain, F, U))
                    << ctx << ": addr " << addr
                    << " decrypts outside window [" << F << ", " << U
                    << "]";
            }
            EXPECT_EQ(mappings, rec.summary.liveMappings) << ctx;

            // Completeness: every address mapped at or before the
            // journal floor must be recovered.
            for (const auto &[addr, h] : shadow) {
                if (h.front().first <= F) {
                    EXPECT_TRUE(rec.amt.count(addr))
                        << ctx << ": addr " << addr << " mapped at "
                        << h.front().first << " lost";
                }
            }

            // Conservation: re-derived refcounts sum to the recovered
            // mapping count.
            std::uint64_t refs = 0;
            for (const auto &[phys, n] : rec.refs)
                refs += n;
            EXPECT_EQ(refs, mappings) << ctx;
        }

        // The run continued past the snapshot; accounting still
        // closes over the whole trace.
        const SchemeStats &ss = scheme->stats();
        EXPECT_EQ(ss.nvmDataWrites.value() + ss.dedupHits.value(),
                  ss.logicalWrites.value())
            << ctx;
    }
}

INSTANTIATE_TEST_SUITE_P(
    KillAndRecover, CrashRecoveryTest,
    ::testing::Combine(::testing::Values(SchemeKind::Baseline,
                                         SchemeKind::DedupSha1,
                                         SchemeKind::DeWrite,
                                         SchemeKind::Esd,
                                         SchemeKind::EsdFull,
                                         SchemeKind::EsdPlus),
                       ::testing::Values(PersistDomain::Adr,
                                         PersistDomain::Eadr),
                       ::testing::Values(CrashPhase::PreBarrier,
                                         CrashPhase::MidJournal,
                                         CrashPhase::PostData)),
    [](const auto &info) {
        std::string n = schemeName(std::get<0>(info.param));
        for (char &ch : n)
            if (!std::isalnum(static_cast<unsigned char>(ch)))
                ch = '_';
        n += std::get<1>(info.param) == PersistDomain::Adr ? "_adr"
                                                           : "_eadr";
        switch (std::get<2>(info.param)) {
          case CrashPhase::PreBarrier:
            n += "_pre_barrier";
            break;
          case CrashPhase::MidJournal:
            n += "_mid_journal";
            break;
          case CrashPhase::PostData:
            n += "_post_data";
            break;
        }
        return n;
    });

} // namespace
} // namespace esd
