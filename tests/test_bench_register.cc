/**
 * @file
 * The deviation register's rule (bench/bench_common.hh): a band that
 * holds must not be registered, and a band that misses must be.
 */

#include <gtest/gtest.h>

#include "bench_common.hh"

namespace esd::bench
{
namespace
{

TEST(DeviationRegister, PassUnregisteredHolds)
{
    EXPECT_EQ(bandStatus(true, false), BandStatus::Holds);
    EXPECT_FALSE(breaksWall(bandStatus(true, false)));
}

TEST(DeviationRegister, FailRegisteredDeviates)
{
    EXPECT_EQ(bandStatus(false, true), BandStatus::Deviates);
    EXPECT_FALSE(breaksWall(bandStatus(false, true)));
}

TEST(DeviationRegister, FailUnregisteredBreaksTheWall)
{
    EXPECT_EQ(bandStatus(false, false), BandStatus::Fails);
    EXPECT_TRUE(breaksWall(bandStatus(false, false)));
}

TEST(DeviationRegister, PassRegisteredIsStaleAndBreaksTheWall)
{
    EXPECT_EQ(bandStatus(true, true), BandStatus::Stale);
    EXPECT_TRUE(breaksWall(bandStatus(true, true)));
}

} // namespace
} // namespace esd::bench
