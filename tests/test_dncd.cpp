/**
 * @file
 * Tests for the distributed DNC-D model (Sec. 5.1): sharding, read-vector
 * merge, learned write-gating, and the accuracy relationship to the
 * monolithic DNC.
 */

#include <gtest/gtest.h>

#include "dnc/dncd.h"
#include "golden_util.h"
#include "workload/retrieval.h"
#include "workload/task_suite.h"

namespace hima {
namespace {

DncConfig
testConfig()
{
    DncConfig cfg;
    cfg.memoryRows = 64;
    cfg.memoryWidth = 16;
    cfg.readHeads = 2;
    return cfg;
}

TEST(DncD, ShardShapes)
{
    DncD model(testConfig(), 4);
    EXPECT_EQ(model.tiles(), 4u);
    EXPECT_EQ(model.shardConfig().memoryRows, 16u);
    EXPECT_EQ(model.shard(0).memory().rows(), 16u);
    EXPECT_EQ(model.globalConfig().memoryRows, 64u);
}

TEST(DncD, RejectsIndivisibleTiles)
{
    EXPECT_DEATH(DncD(testConfig(), 5), "divisible");
}

TEST(DncD, MergeWeightsAreDistribution)
{
    const DncConfig cfg = testConfig();
    DncD model(cfg, 4);
    TokenCodebook keys(16, cfg.memoryWidth / 2, 1);
    TokenCodebook values(16, cfg.memoryWidth / 2, 2);
    InterfaceScripter scripter(cfg, keys, values);

    model.stepInterface(scripter.writeInterface(3, 7));
    model.stepInterface(scripter.queryInterface(3));

    ASSERT_EQ(model.lastAlphas().size(), cfg.readHeads);
    for (const auto &alphas : model.lastAlphas()) {
        Real sum = 0.0;
        for (Real a : alphas) {
            EXPECT_GE(a, 0.0);
            EXPECT_LE(a, 1.0);
            sum += a;
        }
        EXPECT_NEAR(sum, 1.0, 1e-9);
    }
}

TEST(DncD, UniformPolicyGivesEqualAlphas)
{
    const DncConfig cfg = testConfig();
    DncD model(cfg, 4, MergePolicy::Uniform);
    TokenCodebook keys(16, cfg.memoryWidth / 2, 1);
    TokenCodebook values(16, cfg.memoryWidth / 2, 2);
    InterfaceScripter scripter(cfg, keys, values);
    model.stepInterface(scripter.queryInterface(0));
    for (const auto &alphas : model.lastAlphas())
        for (Real a : alphas)
            EXPECT_NEAR(a, 0.25, 1e-12);
}

TEST(DncD, ConfidenceMergeFindsTheOwningTile)
{
    const DncConfig cfg = testConfig();
    DncD model(cfg, 4);
    TokenCodebook keys(16, cfg.memoryWidth / 2, 1);
    TokenCodebook values(16, cfg.memoryWidth / 2, 2);
    InterfaceScripter scripter(cfg, keys, values);

    // Write token 5's pair into tile 1 only (learned sharding).
    model.stepInterface(scripter.writeInterface(5, 9), /*writeTile=*/1);

    model.stepInterface(scripter.queryInterface(5));
    const auto &alphas = model.lastAlphas()[0];
    Index best = 0;
    for (Index t = 1; t < 4; ++t)
        if (alphas[t] > alphas[best])
            best = t;
    EXPECT_EQ(best, 1u);
}

// The write-tile argument is shorthand for one hand-built interface per
// tile with every other tile's write gate closed: stepping standalone
// tiles that way and merging them through the same gate reproduces
// DncD bit for bit — readouts, alphas and the tile state itself.
TEST(DncD, WriteTileEqualsHandBuiltPerTileInterfaces)
{
    const DncConfig cfg = testConfig();
    const Index tiles = 4;
    DncD model(cfg, tiles);
    const DncConfig shard = shardConfigFor(cfg, tiles);
    std::vector<std::unique_ptr<MemoryUnit>> units;
    for (Index t = 0; t < tiles; ++t)
        units.push_back(std::make_unique<MemoryUnit>(shard));
    ConfidenceGate gate;
    std::vector<MemoryReadout> locals(tiles);
    std::vector<const MemoryReadout *> localPtrs;
    for (const MemoryReadout &local : locals)
        localPtrs.push_back(&local);

    Rng rng(41);
    for (int step = 0; step < 12; ++step) {
        SCOPED_TRACE(::testing::Message() << "step " << step);
        const InterfaceVector iface = golden::randomIface(cfg, rng);
        const Index writeTile =
            step % 3 == 2 ? static_cast<Index>(step) % tiles : kAllTiles;
        const MemoryReadout got = model.stepInterface(iface, writeTile);

        std::vector<InterfaceVector> perTile(tiles, iface);
        for (Index t = 0; t < tiles; ++t) {
            if (writeTile != kAllTiles && t != writeTile)
                perTile[t].writeGate = 0.0;
            units[t]->stepInto(perTile[t], locals[t]);
        }
        const std::vector<Index> &scored = gate.selectHeads(
            perTile[0], MergePolicy::Confidence, cfg.readHeads, tiles);
        if (!scored.empty()) {
            std::vector<Real> scores(scored.size() * tiles);
            for (Index k = 0; k < scored.size(); ++k)
                for (Index t = 0; t < tiles; ++t)
                    scores[k * tiles + t] = tileConfidenceScore(
                        *units[t], perTile[0].readKeys[scored[k]],
                        perTile[0].readStrengths[scored[k]]);
            gate.applyScores(scores, tiles);
        }
        MemoryReadout want;
        mergeTileReadouts(localPtrs, gate.alphas(), cfg, shard.memoryRows,
                          want);

        for (Index h = 0; h < cfg.readHeads; ++h) {
            EXPECT_TRUE(want.readVectors[h] == got.readVectors[h]);
            EXPECT_TRUE(want.readWeightings[h] == got.readWeightings[h]);
        }
        EXPECT_TRUE(want.writeWeighting == got.writeWeighting);
        EXPECT_EQ(gate.alphas(), model.lastAlphas());
        for (Index t = 0; t < tiles; ++t) {
            EXPECT_TRUE(units[t]->memory() == model.shard(t).memory());
            EXPECT_TRUE(units[t]->usage() == model.shard(t).usage());
        }
    }
}

TEST(DncD, RetrievalWorksThroughTheMerge)
{
    const DncConfig cfg = testConfig();
    DncD model(cfg, 4);
    TokenCodebook keys(32, cfg.memoryWidth / 2, 1);
    TokenCodebook values(32, cfg.memoryWidth / 2, 2);
    InterfaceScripter scripter(cfg, keys, values);

    Episode ep;
    for (Index i = 0; i < 6; ++i) {
        ep.steps.push_back({StepKind::Write, i, i + 10});
        ++ep.writes;
    }
    for (Index i = 0; i < 6; ++i) {
        ep.steps.push_back({StepKind::Query, i, i + 10});
        ++ep.scoredQueries;
    }
    const EpisodeResult res = runEpisodeDistributed(model, scripter, ep);
    EXPECT_EQ(res.scored, 6u);
    EXPECT_GE(res.correct, 5u) << "DNC-D content retrieval mostly works";
}

TEST(DncD, ErrorNotBetterThanMonolithicDnc)
{
    // Fig. 10's premise: DNC-D trades accuracy for locality. Across the
    // task suite the distributed model must not beat monolithic DNC.
    DncConfig cfg = testConfig();
    cfg.memoryRows = 128;
    Dnc mono(cfg, 3);
    DncD dist(cfg, 8);

    TokenCodebook keys(128, cfg.memoryWidth / 2, 1);
    TokenCodebook values(128, cfg.memoryWidth / 2, 2);
    InterfaceScripter scripter(cfg, keys, values);

    Rng rng(11);
    Real monoErr = 0.0, distErr = 0.0;
    const auto suite = taskSuite();
    for (Index t = 0; t < 6; ++t) { // first six tasks keep the test fast
        const Episode ep = makeEpisode(suite[t], 128, rng);
        monoErr += runEpisode(mono, scripter, ep).errorRate();
        distErr += runEpisodeDistributed(dist, scripter, ep).errorRate();
    }
    EXPECT_LE(monoErr, distErr + 1e-9);
}

TEST(DncD, AggregateProfileSumsShards)
{
    const DncConfig cfg = testConfig();
    DncD model(cfg, 4);
    TokenCodebook keys(16, cfg.memoryWidth / 2, 1);
    TokenCodebook values(16, cfg.memoryWidth / 2, 2);
    InterfaceScripter scripter(cfg, keys, values);
    model.stepInterface(scripter.writeInterface(1, 2));

    const KernelProfiler total = model.aggregateProfile();
    // Every shard ran the linkage kernel once.
    EXPECT_EQ(total.at(Kernel::Linkage).invocations, 4u);
    // Aggregate linkage work equals 4 shards of (N/Nt)^2 cells * 4 ops.
    EXPECT_EQ(total.at(Kernel::Linkage).elementOps, 4ull * 4 * 16 * 16);
}

TEST(DncD, ResetClearsAllShards)
{
    const DncConfig cfg = testConfig();
    DncD model(cfg, 4);
    TokenCodebook keys(16, cfg.memoryWidth / 2, 1);
    TokenCodebook values(16, cfg.memoryWidth / 2, 2);
    InterfaceScripter scripter(cfg, keys, values);
    model.stepInterface(scripter.writeInterface(0, 1));
    model.reset();
    for (Index t = 0; t < 4; ++t)
        EXPECT_DOUBLE_EQ(model.shard(t).usage().sum(), 0.0);
}

} // namespace
} // namespace hima
