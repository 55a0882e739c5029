/**
 * @file
 * FlatMap / FlatSet / BumpArena unit and differential tests.
 *
 * The map is fuzzed against a `std::unordered_map` oracle through long
 * interleaved insert/overwrite/erase/lookup sequences, including the
 * regimes where open addressing goes wrong if it is going to: rehash
 * boundaries (load crossing 3/4), erase-heavy churn exercising
 * backward-shift deletion, and adversarial keys that all land in one
 * home bucket.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/flat_map.hh"
#include "common/random.hh"

namespace esd
{
namespace
{

TEST(FlatMapCapacity, PowerOfTwoFloorEight)
{
    EXPECT_EQ(flatMapCapacityFor(0), 8u);
    EXPECT_EQ(flatMapCapacityFor(1), 8u);
    EXPECT_EQ(flatMapCapacityFor(8), 8u);
    EXPECT_EQ(flatMapCapacityFor(9), 16u);
    EXPECT_EQ(flatMapCapacityFor(16), 16u);
    EXPECT_EQ(flatMapCapacityFor(17), 32u);
    EXPECT_EQ(flatMapCapacityFor(1u << 20), 1u << 20);
    EXPECT_EQ(flatMapCapacityFor((1u << 20) + 1), 1u << 21);
}

TEST(FlatMap, EmptyMapBehaves)
{
    FlatMap<std::uint64_t, int> m;
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.size(), 0u);
    EXPECT_FALSE(m.contains(42));
    EXPECT_EQ(m.count(42), 0u);
    EXPECT_EQ(m.erase(42), 0u);
    EXPECT_TRUE(m.find(42) == m.end());
    EXPECT_TRUE(m.begin() == m.end());
}

TEST(FlatMap, InsertFindEraseBasics)
{
    FlatMap<std::uint64_t, std::uint64_t> m;
    for (std::uint64_t k = 0; k < 100; ++k)
        m[k * 64] = k;  // line-aligned keys: low bits all zero
    EXPECT_EQ(m.size(), 100u);
    for (std::uint64_t k = 0; k < 100; ++k) {
        auto it = m.find(k * 64);
        ASSERT_TRUE(it != m.end());
        EXPECT_EQ(it->second, k);
    }
    EXPECT_FALSE(m.contains(1));  // unaligned key never inserted

    for (std::uint64_t k = 0; k < 100; k += 2)
        EXPECT_EQ(m.erase(k * 64), 1u);
    EXPECT_EQ(m.size(), 50u);
    for (std::uint64_t k = 0; k < 100; ++k)
        EXPECT_EQ(m.contains(k * 64), k % 2 == 1);
}

TEST(FlatMap, EmplaceReportsFreshness)
{
    FlatMap<std::uint64_t, int> m;
    auto [it1, fresh1] = m.emplace(7, 1);
    EXPECT_TRUE(fresh1);
    EXPECT_EQ(it1->second, 1);
    auto [it2, fresh2] = m.emplace(7, 2);
    EXPECT_FALSE(fresh2);
    EXPECT_EQ(it2->second, 1);  // emplace does not overwrite
    m.assign(7, 3);
    EXPECT_EQ(m.find(7)->second, 3);  // assign does
    EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap, OperatorBracketDefaultInserts)
{
    FlatMap<std::uint64_t, std::uint64_t> m;
    EXPECT_EQ(m[5], 0u);
    m[5] += 3;
    m[5] += 4;
    EXPECT_EQ(m[5], 7u);
    EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap, ClearKeepsCapacityDropsEntries)
{
    FlatMap<std::uint64_t, int> m;
    for (std::uint64_t k = 0; k < 1000; ++k)
        m[k] = 1;
    std::uint64_t cap = m.capacity();
    m.clear();
    EXPECT_EQ(m.size(), 0u);
    EXPECT_EQ(m.capacity(), cap);
    EXPECT_FALSE(m.contains(0));
    m[3] = 9;
    EXPECT_EQ(m.find(3)->second, 9);
}

TEST(FlatMap, ReserveAvoidsRehash)
{
    FlatMap<std::uint64_t, int> m;
    m.reserve(1000);
    std::uint64_t cap = m.capacity();
    EXPECT_GE(cap, 1024u);
    for (std::uint64_t k = 0; k < 1000; ++k)
        m[k] = static_cast<int>(k);
    EXPECT_EQ(m.capacity(), cap);
}

TEST(FlatMap, IterationVisitsEveryEntryOnce)
{
    FlatMap<std::uint64_t, std::uint64_t> m;
    for (std::uint64_t k = 1; k <= 500; ++k)
        m[k * 4096] = k;
    std::set<std::uint64_t> seen;
    std::uint64_t value_sum = 0;
    for (const auto &[key, value] : m) {
        EXPECT_TRUE(seen.insert(key).second);
        value_sum += value;
    }
    EXPECT_EQ(seen.size(), 500u);
    EXPECT_EQ(value_sum, 500u * 501u / 2);
}

TEST(FlatMap, EraseByIteratorThenRescan)
{
    FlatMap<std::uint64_t, int> m;
    for (std::uint64_t k = 0; k < 64; ++k)
        m[k] = static_cast<int>(k);
    auto it = m.find(13);
    ASSERT_TRUE(it != m.end());
    m.erase(it);
    EXPECT_FALSE(m.contains(13));
    EXPECT_EQ(m.size(), 63u);
    // Every other key must have survived the backward shift.
    for (std::uint64_t k = 0; k < 64; ++k) {
        if (k == 13)
            continue;
        ASSERT_TRUE(m.contains(k)) << "lost key " << k;
        EXPECT_EQ(m.find(k)->second, static_cast<int>(k));
    }
}

/** All keys share one home bucket: probe chains stay correct through
 * displacement, wraparound, and backward-shift erase. */
TEST(FlatMap, AdversarialSingleBucketCluster)
{
    struct CollidingHash
    {
        std::uint64_t operator()(const std::uint64_t &) const
        {
            return 5;  // everything homes to slot 5 & mask
        }
    };
    FlatMap<std::uint64_t, std::uint64_t, CollidingHash> m;
    // Stay below the load limit for the smallest capacities while
    // still forcing long linear runs (incl. wraparound at cap 64).
    for (std::uint64_t k = 0; k < 48; ++k)
        m[k] = k * 3;
    EXPECT_EQ(m.size(), 48u);
    for (std::uint64_t k = 0; k < 48; ++k) {
        ASSERT_TRUE(m.contains(k));
        EXPECT_EQ(m.find(k)->second, k * 3);
    }
    // Erase from the middle of the one long run, repeatedly.
    for (std::uint64_t k = 0; k < 48; k += 3)
        EXPECT_EQ(m.erase(k), 1u);
    for (std::uint64_t k = 0; k < 48; ++k) {
        if (k % 3 == 0) {
            EXPECT_FALSE(m.contains(k));
        } else {
            ASSERT_TRUE(m.contains(k));
            EXPECT_EQ(m.find(k)->second, k * 3);
        }
    }
}

/** Fill exactly to the growth threshold and one past it: the table
 * must rehash exactly when load crosses 3/4 and lose nothing. */
TEST(FlatMap, RehashBoundary)
{
    FlatMap<std::uint64_t, std::uint64_t> m;
    m.reserve(64);
    std::uint64_t cap = m.capacity();
    std::uint64_t limit = cap * 3 / 4;
    for (std::uint64_t k = 0; k < limit; ++k)
        m[k * 64] = k;
    EXPECT_EQ(m.capacity(), cap) << "grew before the load limit";
    m[limit * 64] = limit;
    EXPECT_GT(m.capacity(), cap) << "failed to grow at the load limit";
    for (std::uint64_t k = 0; k <= limit; ++k) {
        ASSERT_TRUE(m.contains(k * 64)) << "lost key across rehash";
        EXPECT_EQ(m.find(k * 64)->second, k);
    }
}

/** Long interleaved op sequence vs a std::unordered_map oracle. */
void
fuzzAgainstOracle(std::uint64_t seed, std::uint64_t ops,
                  std::uint32_t key_space, bool line_aligned)
{
    Pcg32 rng(seed);
    FlatMap<std::uint64_t, std::uint64_t> m;
    std::unordered_map<std::uint64_t, std::uint64_t> oracle;

    for (std::uint64_t op = 0; op < ops; ++op) {
        std::uint64_t key = rng.below(key_space);
        if (line_aligned)
            key <<= 6;
        switch (rng.below(5)) {
          case 0:  // insert-if-absent
          {
            std::uint64_t v = rng.next();
            bool fresh = m.emplace(key, v).second;
            bool ofresh = oracle.emplace(key, v).second;
            ASSERT_EQ(fresh, ofresh);
            break;
          }
          case 1:  // overwrite
          {
            std::uint64_t v = rng.next();
            m.assign(key, v);
            oracle[key] = v;
            break;
          }
          case 2:  // accumulate through operator[]
          {
            m[key] += 1;
            oracle[key] += 1;
            break;
          }
          case 3:  // erase
            ASSERT_EQ(m.erase(key), oracle.erase(key));
            break;
          default:  // lookup
          {
            auto it = m.find(key);
            auto oit = oracle.find(key);
            ASSERT_EQ(it != m.end(), oit != oracle.end());
            if (oit != oracle.end()) {
                ASSERT_EQ(it->second, oit->second);
            }
            break;
          }
        }
        ASSERT_EQ(m.size(), oracle.size());
    }

    // Full post-fuzz audit in both directions.
    std::uint64_t walked = 0;
    for (const auto &[key, value] : m) {
        auto oit = oracle.find(key);
        ASSERT_TRUE(oit != oracle.end());
        ASSERT_EQ(value, oit->second);
        ++walked;
    }
    ASSERT_EQ(walked, oracle.size());
    for (const auto &[key, value] : oracle) {
        auto it = m.find(key);
        ASSERT_TRUE(it != m.end());
        ASSERT_EQ(it->second, value);
    }
}

TEST(FlatMapFuzz, DenseSmallKeySpace)
{
    // Heavy churn in a tiny key space: constant insert/erase of the
    // same slots, maximum backward-shift traffic.
    fuzzAgainstOracle(/*seed=*/1, /*ops=*/60000, /*key_space=*/256,
                      /*line_aligned=*/false);
}

TEST(FlatMapFuzz, LineAlignedAddresses)
{
    // The production key shape: 64-byte-aligned addresses.
    fuzzAgainstOracle(/*seed=*/2, /*ops=*/60000, /*key_space=*/4096,
                      /*line_aligned=*/true);
}

TEST(FlatMapFuzz, GrowthDominated)
{
    // Wide key space: mostly inserts, many rehash crossings.
    fuzzAgainstOracle(/*seed=*/3, /*ops=*/60000,
                      /*key_space=*/1u << 20, /*line_aligned=*/true);
}

TEST(FlatMapFuzz, MultipleSeeds)
{
    for (std::uint64_t seed = 10; seed < 16; ++seed)
        fuzzAgainstOracle(seed, 12000, 1024, seed % 2 == 0);
}

/** Iteration order must be a pure function of the operation sequence
 * (the determinism contract std::unordered_map does not give). */
TEST(FlatMap, IterationOrderIsReproducible)
{
    auto build = [] {
        FlatMap<std::uint64_t, std::uint64_t> m;
        Pcg32 rng(99);
        for (int i = 0; i < 5000; ++i) {
            std::uint64_t k = rng.below(2048) * 64;
            if (rng.chance(0.3))
                m.erase(k);
            else
                m[k] = static_cast<std::uint64_t>(i);
        }
        return m;
    };
    FlatMap<std::uint64_t, std::uint64_t> a = build();
    FlatMap<std::uint64_t, std::uint64_t> b = build();
    auto ia = a.begin(), ib = b.begin();
    for (; ia != a.end() && ib != b.end(); ++ia, ++ib) {
        EXPECT_EQ(ia->first, ib->first);
        EXPECT_EQ(ia->second, ib->second);
    }
    EXPECT_TRUE(ia == a.end());
    EXPECT_TRUE(ib == b.end());
}

TEST(FlatSet, InsertContainsErase)
{
    FlatSet<std::uint64_t> s;
    EXPECT_TRUE(s.insert(10));
    EXPECT_FALSE(s.insert(10));
    EXPECT_TRUE(s.insert(20));
    EXPECT_TRUE(s.contains(10));
    EXPECT_EQ(s.count(20), 1u);
    EXPECT_FALSE(s.contains(30));
    EXPECT_EQ(s.size(), 2u);
    EXPECT_EQ(s.erase(10), 1u);
    EXPECT_EQ(s.erase(10), 0u);
    EXPECT_FALSE(s.contains(10));
    s.clear();
    EXPECT_TRUE(s.empty());
}

TEST(BumpArena, CreatesAlignedClusteredNodes)
{
    BumpArena arena;
    struct Node
    {
        std::uint32_t bit;
        bool value;
        Node *next;
    };
    Node *head = nullptr;
    for (std::uint32_t i = 0; i < 1000; ++i) {
        Node *n = arena.create<Node>(i, i % 2 == 0, head);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(n) % alignof(Node),
                  0u);
        head = n;
    }
    std::uint32_t expect = 999;
    for (Node *n = head; n; n = n->next, --expect) {
        EXPECT_EQ(n->bit, expect);
        EXPECT_EQ(n->value, expect % 2 == 0);
    }
    EXPECT_GE(arena.bytesAllocated(), 1000 * sizeof(Node));
    arena.release();
    EXPECT_EQ(arena.bytesAllocated(), 0u);
}

TEST(BumpArena, MixedSizesAndAlignments)
{
    BumpArena arena;
    std::vector<void *> ptrs;
    Pcg32 rng(7);
    for (int i = 0; i < 500; ++i) {
        std::size_t align = std::size_t{1} << rng.below(5);  // 1..16
        std::size_t bytes = 1 + rng.below(200);
        void *p = arena.allocate(bytes, align);
        ASSERT_NE(p, nullptr);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u);
        std::memset(p, 0xab, bytes);  // must be writable
        ptrs.push_back(p);
    }
    // All distinct.
    std::sort(ptrs.begin(), ptrs.end());
    EXPECT_TRUE(std::adjacent_find(ptrs.begin(), ptrs.end()) ==
                ptrs.end());
}

} // namespace
} // namespace esd
