/**
 * @file
 * LineTable differential and footprint tests.
 *
 * The table is checked against a FlatMap oracle through random
 * at/get sequences on the three key shapes it must serve: dense lines
 * (regions promote to plain arrays), every fourth line (what a
 * pipeline shard of a 4-channel run owns: regions promote to strided
 * arrays) and lines scattered over [0, 2^40) (nothing promotes). The
 * footprint checks pin what the promotion rule buys on each shape.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <vector>

#include "common/flat_map.hh"
#include "common/line_table.hh"

namespace esd
{
namespace
{

using Table = LineTable<std::uint64_t>;
using Oracle = FlatMap<std::uint64_t, std::uint64_t>;

constexpr std::uint64_t kRegion = Table::kRegionLines;

/** Heap bytes of the oracle: its slots and its probe distances. */
std::uint64_t
oracleBytes(const Oracle &m)
{
    return m.capacity() * (sizeof(Oracle::value_type) + 1);
}

/** Every entry of @p t equals the oracle's, and forEach visits each
 * oracle key exactly once. */
void
expectSameContents(const Table &t, const Oracle &o)
{
    ASSERT_EQ(t.size(), o.size());
    std::set<std::uint64_t> seen;
    t.forEach([&](std::uint64_t line, std::uint64_t v) {
        EXPECT_TRUE(seen.insert(line).second) << "line " << line << " twice";
        auto it = o.find(line);
        ASSERT_TRUE(it != o.end()) << "line " << line << " not in oracle";
        EXPECT_EQ(v, it->second) << "line " << line;
    });
    EXPECT_EQ(seen.size(), o.size());
    for (const auto &[line, v] : o) {
        const std::uint64_t *got = t.find(line);
        ASSERT_NE(got, nullptr) << "line " << line;
        EXPECT_EQ(*got, v) << "line " << line;
    }
}

/** Random at/get sequence over keys drawn by @p key. at() bumps the
 * value (as the counter and wear tables do); get() reads. */
template <typename KeyFn>
void
fuzzAgainstOracle(Table &t, Oracle &o, std::mt19937_64 &rng, KeyFn key,
                  int ops)
{
    for (int i = 0; i < ops; ++i) {
        std::uint64_t k = key(rng);
        if (rng() % 4 == 0) {
            auto it = o.find(k);
            std::uint64_t want = it == o.end() ? 0 : it->second;
            ASSERT_EQ(t.get(k), want) << "op " << i << " line " << k;
            ASSERT_EQ(t.find(k) != nullptr, it != o.end());
        } else {
            auto [v, fresh] = t.emplace(k);
            ASSERT_EQ(fresh, !o.contains(k)) << "op " << i << " line " << k;
            *v += k % 7 + 1;
            o[k] += k % 7 + 1;
            ASSERT_EQ(*v, o[k]);
        }
    }
}

TEST(LineTable, EmptyTableBehaves)
{
    Table t;
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.find(7), nullptr);
    EXPECT_EQ(t.get(7), 0u);
    int visits = 0;
    t.forEach([&](std::uint64_t, std::uint64_t) { ++visits; });
    EXPECT_EQ(visits, 0);
    t.at(7) = 3;
    EXPECT_EQ(t.size(), 1u);
    EXPECT_EQ(t.get(7), 3u);
    t.clear();
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.find(7), nullptr);
}

TEST(LineTable, MatchesOracleOnDenseKeys)
{
    Table t;
    Oracle o;
    std::mt19937_64 rng(1);
    fuzzAgainstOracle(t, o, rng,
                      [](std::mt19937_64 &r) { return r() % (3 * kRegion); },
                      60000);
    EXPECT_EQ(t.denseRegions(), 3u);
    expectSameContents(t, o);
}

TEST(LineTable, MatchesOracleOnStride4Keys)
{
    Table t;
    Oracle o;
    std::mt19937_64 rng(2);
    fuzzAgainstOracle(
        t, o, rng,
        [](std::mt19937_64 &r) { return 4 * (r() % (3 * kRegion / 4)) + 1; },
        30000);
    EXPECT_EQ(t.denseRegions(), 3u);
    expectSameContents(t, o);
}

TEST(LineTable, MatchesOracleOnScatteredKeys)
{
    Table t;
    Oracle o;
    std::mt19937_64 rng(3);
    std::vector<std::uint64_t> keys(4000);
    for (auto &k : keys)
        k = rng() & ((1ull << 40) - 1);
    fuzzAgainstOracle(
        t, o, rng,
        [&](std::mt19937_64 &r) { return keys[r() % keys.size()]; }, 30000);
    EXPECT_EQ(t.denseRegions(), 0u);
    expectSameContents(t, o);
}

/** A region promotes on exactly the insert that makes its array pay,
 * and every value survives the move. */
TEST(LineTable, PromotionStepKeepsValues)
{
    const std::uint64_t need = Table::promoteThreshold(0);
    ASSERT_GT(need, 1u);
    ASSERT_LE(need, kRegion);
    Table t;
    const std::uint64_t base = 5 * kRegion;
    for (std::uint64_t i = 0; i + 1 < need; ++i)
        t.at(base + i) = i * 3 + 1;
    EXPECT_EQ(t.denseRegions(), 0u);
    t.at(base + need - 1) = (need - 1) * 3 + 1;
    EXPECT_EQ(t.denseRegions(), 1u);
    EXPECT_EQ(t.size(), need);
    for (std::uint64_t i = 0; i < need; ++i)
        ASSERT_EQ(t.get(base + i), i * 3 + 1) << "offset " << i;
    EXPECT_EQ(t.find(base + need), nullptr);
    EXPECT_EQ(t.find(base - 1), nullptr);
}

/** The same step at stride 4: the region promotes into a quarter-size
 * array, well before a plain array would pay. */
TEST(LineTable, StridedPromotionStep)
{
    const std::uint64_t need = Table::promoteThreshold(2);
    ASSERT_LT(need, Table::promoteThreshold(0));
    Table t;
    for (std::uint64_t i = 0; i + 1 < need; ++i)
        t.at(4 * i + 2) = i;
    EXPECT_EQ(t.denseRegions(), 0u);
    t.at(4 * (need - 1) + 2) = need - 1;
    EXPECT_EQ(t.denseRegions(), 1u);
    for (std::uint64_t i = 0; i < need; ++i)
        ASSERT_EQ(t.get(4 * i + 2), i);
    EXPECT_EQ(t.find(4 * need + 2), nullptr);
    EXPECT_EQ(t.find(3), nullptr);
}

/** A key off a strided region's stride widens the array when the
 * region still pays at the finer stride, and sends the region back to
 * the hash when it does not. */
TEST(LineTable, OffStrideKeyWidensOrDemotes)
{
    const std::uint64_t at8 = Table::promoteThreshold(3);
    const std::uint64_t at4 = Table::promoteThreshold(2);
    ASSERT_LT(at8, at4);

    Oracle o;
    Table t;
    // Region 0: just enough stride-8 keys to promote, then one key at
    // stride 4 -> too few keys for a stride-4 array: demoted.
    for (std::uint64_t i = 0; i < at8; ++i) {
        t.at(8 * i + 3) = i + 1;
        o[8 * i + 3] = i + 1;
    }
    EXPECT_EQ(t.denseRegions(), 1u);
    t.at(7) = 99;
    o[7] = 99;
    EXPECT_EQ(t.denseRegions(), 0u);
    expectSameContents(t, o);

    // Region 1: enough stride-8 keys to pay at stride 4 too -> widened.
    const std::uint64_t base = kRegion;
    for (std::uint64_t i = 0; i < at4 && 8 * i < kRegion; ++i) {
        t.at(base + 8 * i + 1) = i + 5;
        o[base + 8 * i + 1] = i + 5;
    }
    EXPECT_EQ(t.denseRegions(), 1u);
    t.at(base + 5) = 77;
    o[base + 5] = 77;
    EXPECT_EQ(t.denseRegions(), 1u);
    // And a key at odd distance: stride 1 needs far more keys.
    t.at(base + 2) = 11;
    o[base + 2] = 11;
    EXPECT_EQ(t.denseRegions(), 0u);
    expectSameContents(t, o);
}

// ------------------------------------------------------------ footprint

TEST(LineTableFootprint, ScatteredKeysCostAtMostAQuarterMore)
{
    std::mt19937_64 rng(4);
    for (std::uint64_t n : {1000u, 50000u, 200000u}) {
        Table t;
        Oracle o;
        for (std::uint64_t i = 0; i < n; ++i) {
            std::uint64_t k = rng() & ((1ull << 40) - 1);
            t.at(k) = i;
            o[k] = i;
        }
        EXPECT_EQ(t.denseRegions(), 0u);
        EXPECT_LE(t.bytes(), oracleBytes(o) * 5 / 4) << n << " keys";
    }
}

TEST(LineTableFootprint, DenseAndStride4KeysCostAtMostHalf)
{
    for (std::uint64_t stride : {1u, 4u}) {
        for (std::uint64_t n : {20000u, 100000u}) {
            // Sequential and shuffled insertion orders.
            std::vector<std::uint64_t> keys(n);
            for (std::uint64_t i = 0; i < n; ++i)
                keys[i] = stride * i + 1;
            for (bool shuffled : {false, true}) {
                if (shuffled)
                    std::shuffle(keys.begin(), keys.end(),
                                 std::mt19937_64(5));
                Table t;
                Oracle o;
                for (std::uint64_t k : keys) {
                    t.at(k) = k;
                    o[k] = k;
                }
                EXPECT_GT(t.denseRegions(), 0u);
                EXPECT_LE(t.bytes() * 2, oracleBytes(o))
                    << "stride " << stride << ", " << n << " keys"
                    << (shuffled ? ", shuffled" : "");
                expectSameContents(t, o);
            }
        }
    }
}

} // namespace
} // namespace esd
