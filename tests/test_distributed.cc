/**
 * @file
 * Tests for the partition-parallel (BNS-GCN-style) deployment model:
 * replica accounting, exchange-volume formulas, and MaxK's communication
 * reduction.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/cbsr.hh"
#include "graph/generators.hh"
#include "nn/distributed.hh"

namespace maxk::nn
{
namespace
{

ModelConfig
baseModel(Nonlinearity nonlin, std::uint32_t k = 32)
{
    ModelConfig cfg;
    cfg.kind = GnnKind::Sage;
    cfg.nonlin = nonlin;
    cfg.maxkK = k;
    cfg.numLayers = 3;
    cfg.inDim = 64;
    cfg.hiddenDim = 256;
    cfg.outDim = 16;
    return cfg;
}

TEST(Boundary, SinglePartHasNoBoundary)
{
    Rng rng(1);
    const CsrGraph g = erdosRenyi(200, 1000, rng);
    const Partition p = bfsPartition(g, 1, rng);
    EXPECT_EQ(boundaryReplicaCount(g, p), 0u);

    ClusterConfig cluster;
    cluster.numGpus = 1;
    SimOptions opt;
    opt.device = gpusim::DeviceConfig::a100().scaledForWorkingSet(0.01);
    const auto t = profileDistributedEpoch(
        baseModel(Nonlinearity::Relu), g, p, cluster, opt);
    EXPECT_EQ(t.exchangedBytes, 0u);
    EXPECT_EQ(t.exchangeSeconds, 0.0);
}

TEST(Boundary, FullyConnectedGraphAllBoundary)
{
    // K4 split in two: every vertex has one remote reader part.
    std::vector<std::pair<NodeId, NodeId>> edges;
    for (NodeId a = 0; a < 4; ++a)
        for (NodeId b = a + 1; b < 4; ++b)
            edges.emplace_back(a, b);
    const CsrGraph g = CsrGraph::fromEdges(4, edges, true, false);
    Partition p;
    p.numParts = 2;
    p.assignment = {0, 0, 1, 1};
    EXPECT_EQ(boundaryReplicaCount(g, p), 4u);
}

TEST(Boundary, BfsPartitionBeatsRandomOnBoundaries)
{
    Rng rng(2);
    auto sbm = stochasticBlockModel(2000, 4, 4.0, 0.95, rng);
    const Partition bfs = bfsPartition(sbm.graph, 4, rng);

    Partition random;
    random.numParts = 4;
    random.assignment.resize(2000);
    for (auto &a : random.assignment)
        a = static_cast<std::uint32_t>(rng.nextBounded(4));

    // Locality-aware partitioning keeps more nodes internal than a
    // random split — the property BNS-GCN's communication depends on.
    EXPECT_LT(boundaryReplicaCount(sbm.graph, bfs),
              boundaryReplicaCount(sbm.graph, random));
}

TEST(Distributed, ComputeAndExchangeBothPositive)
{
    Rng rng(3);
    CsrGraph g = rmat(10, 60000, rng);
    g.setAggregatorWeights(Aggregator::SageMean);
    const Partition p = bfsPartition(g, 4, rng);
    SimOptions opt;
    opt.device = gpusim::DeviceConfig::a100().scaledForWorkingSet(0.01);
    ClusterConfig cluster;
    cluster.numGpus = 4;
    const auto t = profileDistributedEpoch(
        baseModel(Nonlinearity::Relu), g, p, cluster, opt);
    EXPECT_GT(t.computeSeconds, 0.0);
    EXPECT_GT(t.exchangeSeconds, 0.0);
    EXPECT_GT(t.boundaryReplicas, 0u);
    EXPECT_GE(t.imbalance, 1.0);
}

TEST(Distributed, MaxkShrinksExchangeVolume)
{
    Rng rng(4);
    CsrGraph g = rmat(10, 60000, rng);
    g.setAggregatorWeights(Aggregator::SageMean);
    const Partition p = bfsPartition(g, 4, rng);
    SimOptions opt;
    opt.device = gpusim::DeviceConfig::a100().scaledForWorkingSet(0.01);
    ClusterConfig cluster;
    cluster.numGpus = 4;

    const ModelConfig relu_cfg = baseModel(Nonlinearity::Relu);
    const ModelConfig maxk_cfg = baseModel(Nonlinearity::MaxK, 32);
    const auto relu = profileDistributedEpoch(relu_cfg, g, p, cluster,
                                              opt);
    const auto maxk = profileDistributedEpoch(maxk_cfg, g, p, cluster,
                                              opt);
    // Per-layer accounting: the two hidden layers ship CBSR rows
    // (5*32 = 160 B vs dense 4*256 = 1024 B); the final layer ships
    // dense logits (4*16 B) in both variants.
    Bytes relu_row = 0, maxk_row = 0;
    for (std::uint32_t l = 0; l < relu_cfg.numLayers; ++l) {
        relu_row += activationRowBytes(relu_cfg, l);
        maxk_row += activationRowBytes(maxk_cfg, l);
    }
    EXPECT_EQ(relu_row, Bytes(2 * 1024 + 64));
    EXPECT_EQ(maxk_row, Bytes(2 * 160 + 64));
    EXPECT_NEAR(static_cast<double>(relu.exchangedBytes) /
                    maxk.exchangedBytes,
                static_cast<double>(relu_row) / maxk_row, 1e-12);
    EXPECT_LT(maxk.total(), relu.total());
}

TEST(Distributed, ActivationRowBytesMatchCbsrAcrossIndexWidths)
{
    // 256 is the last width with uint8 indices; the model's wire row
    // must match what a CbsrMatrix of that width actually stores.
    for (const std::uint32_t hidden : {255u, 256u, 257u}) {
        ModelConfig cfg = baseModel(Nonlinearity::MaxK, 32);
        cfg.hiddenDim = hidden;
        const CbsrMatrix cbsr(1, 32, hidden);
        for (std::uint32_t l = 0; l + 1 < cfg.numLayers; ++l)
            EXPECT_EQ(activationRowBytes(cfg, l),
                      cbsr.dataRowBytes() + cbsr.indexRowBytes())
                << "hidden " << hidden << " layer " << l;
        EXPECT_EQ(activationRowBytes(cfg, cfg.numLayers - 1),
                  Bytes(4) * cfg.outDim)
            << "hidden " << hidden;
    }
}

TEST(Distributed, ReplicaExactExchangeAccounting)
{
    // Path A - B - C with three singleton parts: B is one boundary
    // node but has TWO remote readers (parts 0 and 2), so it ships
    // twice per layer direction; A and C ship once each: 4 replicas
    // from 3 distinct boundary nodes.
    const CsrGraph g = CsrGraph::fromEdges(
        3, {{0, 1}, {1, 2}}, true, false);
    Partition p;
    p.numParts = 3;
    p.assignment = {0, 1, 2};
    EXPECT_EQ(boundaryReplicaCount(g, p), 4u);

    const ModelConfig cfg = baseModel(Nonlinearity::Relu);
    ClusterConfig cluster;
    cluster.numGpus = 3;
    SimOptions opt;
    opt.device = gpusim::DeviceConfig::a100().scaledForWorkingSet(0.01);
    const auto t = profileDistributedEpoch(cfg, g, p, cluster, opt);
    EXPECT_EQ(t.boundaryReplicas, 4u);
    Bytes per_replica = 0;
    for (std::uint32_t l = 0; l < cfg.numLayers; ++l)
        per_replica += activationRowBytes(cfg, l);
    EXPECT_EQ(t.exchangedBytes, Bytes(4) * per_replica * 2);
    // Charged at 300 GB/s of NVLink bandwidth.
    EXPECT_EQ(t.exchangeSeconds,
              static_cast<double>(t.exchangedBytes) / 300e9);
}

TEST(Distributed, ImbalanceIgnoresEmptyParts)
{
    // Two equal halves plus an empty third part: the mean must be over
    // the two non-empty parts, so a balanced split reports ~1.0, not
    // the 1.5 the old |parts| denominator produced.
    Rng rng(8);
    CsrGraph g = erdosRenyi(400, 2400, rng);
    g.setAggregatorWeights(Aggregator::SageMean);
    Partition p;
    p.numParts = 3;
    p.assignment.resize(400);
    for (NodeId v = 0; v < 400; ++v)
        p.assignment[v] = v < 200 ? 0 : 1;
    ClusterConfig cluster;
    cluster.numGpus = 3;
    SimOptions opt;
    opt.device = gpusim::DeviceConfig::a100().scaledForWorkingSet(0.01);
    const auto t = profileDistributedEpoch(
        baseModel(Nonlinearity::Relu), g, p, cluster, opt);
    EXPECT_GE(t.imbalance, 1.0);
    EXPECT_LT(t.imbalance, 1.3);
}

TEST(Distributed, MorePartitionsLessComputePerGpu)
{
    Rng rng(6);
    CsrGraph g = rmat(11, 120000, rng);
    g.setAggregatorWeights(Aggregator::SageMean);
    SimOptions opt;
    opt.device = gpusim::DeviceConfig::a100().scaledForWorkingSet(0.01);

    ClusterConfig two;
    two.numGpus = 2;
    ClusterConfig eight;
    eight.numGpus = 8;
    const auto t2 = profileDistributedEpoch(
        baseModel(Nonlinearity::Relu), g, bfsPartition(g, 2, rng), two,
        opt);
    const auto t8 = profileDistributedEpoch(
        baseModel(Nonlinearity::Relu), g, bfsPartition(g, 8, rng), eight,
        opt);
    EXPECT_LT(t8.computeSeconds, t2.computeSeconds);
}

TEST(DistributedDeathTest, PartsMustMatchGpus)
{
    Rng rng(7);
    CsrGraph g = erdosRenyi(100, 400, rng);
    const Partition p = bfsPartition(g, 2, rng);
    ClusterConfig cluster;
    cluster.numGpus = 4;
    SimOptions opt;
    EXPECT_DEATH(profileDistributedEpoch(baseModel(Nonlinearity::Relu),
                                         g, p, cluster, opt),
                 "parts != GPUs");
}

} // namespace
} // namespace maxk::nn
