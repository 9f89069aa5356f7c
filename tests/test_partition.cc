/**
 * @file
 * Tests for the partitioning/sampling substrates and their composition
 * with MaxK-GNN training (the Sec. 1 compatibility claim).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "common/rng.hh"
#include "graph/generators.hh"
#include "support/fixtures.hh"
#include "graph/partition.hh"
#include "graph/registry.hh"
#include "nn/distributed.hh"
#include "nn/trainer.hh"

namespace maxk
{
namespace
{

TEST(Partition, AssignsEveryNode)
{
    Rng rng(1);
    const CsrGraph g = test::makeGraph(test::GraphShape::ErdosRenyi, 500, 3000, rng);
    const Partition p = bfsPartition(g, 4, rng);
    ASSERT_EQ(p.assignment.size(), 500u);
    for (std::uint32_t a : p.assignment)
        ASSERT_LT(a, 4u);
}

TEST(Partition, BalanceNearOne)
{
    Rng rng(2);
    const CsrGraph g = test::makeGraph(test::GraphShape::ErdosRenyi, 1000, 8000, rng);
    const Partition p = bfsPartition(g, 8, rng);
    EXPECT_LE(p.balance(1000), 1.15);
}

TEST(Partition, SinglePartHasNoCut)
{
    Rng rng(3);
    const CsrGraph g = test::makeGraph(test::GraphShape::ErdosRenyi, 100, 500, rng);
    const Partition p = bfsPartition(g, 1, rng);
    EXPECT_DOUBLE_EQ(p.edgeCutFraction(g), 0.0);
    EXPECT_DOUBLE_EQ(p.balance(100), 1.0);
}

TEST(Partition, BfsCutBeatsRandomAssignmentOnCommunityGraph)
{
    Rng rng(4);
    auto sbm = stochasticBlockModel(2000, 4, 16.0, 0.9, rng);
    const Partition bfs = bfsPartition(sbm.graph, 4, rng);

    Partition random;
    random.numParts = 4;
    random.assignment.resize(2000);
    for (auto &a : random.assignment)
        a = static_cast<std::uint32_t>(rng.nextBounded(4));

    // BFS growth follows edges, so it keeps communities together far
    // better than chance (random 4-way cut ~ 75%).
    EXPECT_LT(bfs.edgeCutFraction(sbm.graph),
              random.edgeCutFraction(sbm.graph) * 0.8);
}

TEST(Partition, MembersMatchAssignment)
{
    Rng rng(5);
    const CsrGraph g = test::makeGraph(test::GraphShape::ErdosRenyi, 200, 800, rng);
    const Partition p = bfsPartition(g, 3, rng);
    std::size_t total = 0;
    for (std::uint32_t part = 0; part < 3; ++part) {
        for (NodeId v : p.members(part))
            ASSERT_EQ(p.assignment[v], part);
        total += p.members(part).size();
    }
    EXPECT_EQ(total, 200u);
}

TEST(Partition, MembersAllMatchesPerPartScans)
{
    // The single-pass bucket build must agree with the O(V*P) per-part
    // scan it replaces, including ascending order within each bucket.
    Rng rng(12);
    const CsrGraph g =
        test::makeGraph(test::GraphShape::PowerLaw, 500, 4000, rng);
    const Partition p = bfsPartition(g, 5, rng);
    const auto buckets = p.membersAll();
    ASSERT_EQ(buckets.size(), 5u);
    for (std::uint32_t part = 0; part < 5; ++part) {
        EXPECT_EQ(buckets[part], p.members(part));
        EXPECT_TRUE(std::is_sorted(buckets[part].begin(),
                                   buckets[part].end()));
    }
}

TEST(Partition, EverySeedablePartIsNonEmpty)
{
    // Seed-collision regression: the bounded retry loop can fail on
    // tiny graphs, which used to leave a part frontier-less — and
    // empty whenever the seeded parts' BFS growth covered every vertex
    // (no leftovers to back-fill it). The first-unassigned-vertex
    // fallback guarantees every part is seeded while unassigned
    // vertices exist, so with n >= parts no part may be empty. Sweep
    // many streams on the small shapes where collisions concentrate.
    for (const NodeId n : {2u, 3u, 4u, 8u}) {
        std::vector<std::pair<NodeId, NodeId>> edges;
        for (NodeId v = 0; v + 1 < n; ++v)
            edges.emplace_back(v, v + 1);
        const CsrGraph g = CsrGraph::fromEdges(n, edges, true, false);
        for (std::uint64_t seed = 0; seed < 2048; ++seed) {
            Rng rng(seed * 2654435761u + n);
            const Partition p = bfsPartition(g, n, rng);
            std::vector<NodeId> sizes(n, 0);
            for (std::uint32_t a : p.assignment)
                ++sizes[a];
            for (NodeId part = 0; part < n; ++part)
                ASSERT_GT(sizes[part], 0u)
                    << "empty part " << part << " at n=" << n
                    << " seed=" << seed;
        }
    }
}

TEST(Subgraph, ExtractInducedEdgesOnly)
{
    // Path 0-1-2-3; extract {0, 1, 3}: only edge 0-1 survives.
    const CsrGraph g = CsrGraph::fromEdges(
        4, {{0, 1}, {1, 2}, {2, 3}}, true, false);
    std::vector<NodeId> ids;
    const CsrGraph sub = extractSubgraph(g, {0, 1, 3}, &ids);
    EXPECT_EQ(sub.numNodes(), 3u);
    EXPECT_EQ(sub.numEdges(), 2u); // 0->1 and 1->0
    EXPECT_TRUE(sub.validate());
    EXPECT_EQ(ids, (std::vector<NodeId>{0, 1, 3}));
}

TEST(Subgraph, PreservesEdgeValues)
{
    CsrGraph g = CsrGraph::fromEdges(3, {{0, 1}, {1, 2}}, true, false);
    g.setAggregatorWeights(Aggregator::Gcn);
    const CsrGraph sub = extractSubgraph(g, {0, 1});
    ASSERT_EQ(sub.numEdges(), 2u);
    // Edge 0-1 in g has weight 1/sqrt(d0*d1) = 1/sqrt(1*2).
    EXPECT_NEAR(sub.values()[0], 1.0f / std::sqrt(2.0f), 1e-6f);
}

TEST(Subgraph, DeduplicatesRequestedNodes)
{
    const CsrGraph g = CsrGraph::fromEdges(3, {{0, 1}}, true, false);
    const CsrGraph sub = extractSubgraph(g, {1, 1, 0, 0});
    EXPECT_EQ(sub.numNodes(), 2u);
}

TEST(Subgraph, RowsStaySorted)
{
    Rng rng(6);
    const CsrGraph g = test::makeGraph(test::GraphShape::ErdosRenyi, 300, 2500, rng);
    std::vector<NodeId> picks;
    for (NodeId v = 0; v < 300; v += 2)
        picks.push_back(299 - v); // descending order on purpose
    const CsrGraph sub = extractSubgraph(g, picks);
    EXPECT_TRUE(sub.validate());
}

TEST(Subgraph, GlobalIdRoundTrip)
{
    // Every subgraph edge must map back — through global_ids — to an
    // edge of the original graph with the same value, and the count
    // must equal the induced-edge count computed directly.
    Rng rng(13);
    CsrGraph g =
        test::makeGraph(test::GraphShape::PowerLaw, 300, 2600, rng);
    g.setAggregatorWeights(Aggregator::Gcn);
    const Partition p = bfsPartition(g, 4, rng);
    for (std::uint32_t part = 0; part < 4; ++part) {
        std::vector<NodeId> ids;
        const CsrGraph sub = extractSubgraph(g, p.members(part), &ids);
        ASSERT_TRUE(sub.validate());
        ASSERT_EQ(ids, p.members(part));
        EdgeId checked = 0;
        for (NodeId v = 0; v < sub.numNodes(); ++v) {
            for (EdgeId e = sub.rowPtr()[v]; e < sub.rowPtr()[v + 1];
                 ++e) {
                const NodeId gs = ids[v];
                const NodeId gd = ids[sub.colIdx()[e]];
                bool found = false;
                for (EdgeId ge = g.rowPtr()[gs];
                     ge < g.rowPtr()[gs + 1] && !found; ++ge) {
                    if (g.colIdx()[ge] == gd) {
                        found = true;
                        ASSERT_EQ(sub.values()[e], g.values()[ge]);
                    }
                }
                ASSERT_TRUE(found);
                ++checked;
            }
        }
        EdgeId expected = 0;
        for (NodeId v : ids)
            for (EdgeId e = g.rowPtr()[v]; e < g.rowPtr()[v + 1]; ++e)
                expected += p.assignment[g.colIdx()[e]] == part ? 1 : 0;
        EXPECT_EQ(checked, expected);
    }
}

TEST(Partition, ReplicaCountMatchesNaiveReference)
{
    // boundaryReplicaCount (stamp-based, one pass) against a per-node
    // set-based reference: Σ_v |{remote parts adjacent to v}|.
    Rng rng(14);
    const CsrGraph g =
        test::makeGraph(test::GraphShape::ErdosRenyi, 400, 3200, rng);
    const Partition p = bfsPartition(g, 5, rng);
    std::uint64_t expected = 0;
    for (NodeId v = 0; v < g.numNodes(); ++v) {
        std::set<std::uint32_t> readers;
        for (EdgeId e = g.rowPtr()[v]; e < g.rowPtr()[v + 1]; ++e) {
            const std::uint32_t q = p.assignment[g.colIdx()[e]];
            if (q != p.assignment[v])
                readers.insert(q);
        }
        expected += readers.size();
    }
    EXPECT_EQ(nn::boundaryReplicaCount(g, p), expected);
}

TEST(Sampling, FractionRoughlyHonoured)
{
    Rng rng(7);
    const CsrGraph g = test::makeGraph(test::GraphShape::ErdosRenyi, 4000, 20000, rng);
    const SampledSubgraph s = sampleNodes(g, 0.25, rng);
    EXPECT_NEAR(static_cast<double>(s.graph.numNodes()) / 4000.0, 0.25,
                0.04);
    EXPECT_EQ(s.graph.numNodes(), s.globalIds.size());
    EXPECT_TRUE(s.graph.validate());
}

TEST(Sampling, FullFractionKeepsEverything)
{
    Rng rng(8);
    const CsrGraph g = test::makeGraph(test::GraphShape::ErdosRenyi, 100, 400, rng);
    const SampledSubgraph s = sampleNodes(g, 1.0, rng);
    EXPECT_EQ(s.graph.numNodes(), g.numNodes());
    EXPECT_EQ(s.graph.numEdges(), g.numEdges());
}

TEST(SamplingDeathTest, RejectsZeroFraction)
{
    Rng rng(9);
    const CsrGraph g = test::makeGraph(test::GraphShape::ErdosRenyi, 10, 20, rng);
    EXPECT_DEATH(sampleNodes(g, 0.0, rng), "fraction");
}

TEST(Compatibility, MaxkTrainsOnPartitionedSubgraph)
{
    // The paper's Sec. 1 claim: MaxK composes with partition-parallel
    // training. Train on one BFS partition of an SBM task and check it
    // still learns.
    TrainingTask task = *findTrainingTask("Flickr");
    task.accuracyNodes = 1200;
    task.accuracyAvgDegree = 14.0;
    Rng rng(10);
    TrainingData full = materializeTrainingData(task, rng);

    const Partition p = bfsPartition(full.graph, 3, rng);
    std::vector<NodeId> ids;
    TrainingData part_data;
    part_data.graph = extractSubgraph(full.graph, p.members(0), &ids);
    const NodeId n = part_data.graph.numNodes();
    ASSERT_GT(n, 100u);
    part_data.features.resize(n, full.features.cols());
    for (NodeId v = 0; v < n; ++v) {
        std::copy(full.features.row(ids[v]),
                  full.features.row(ids[v]) + full.features.cols(),
                  part_data.features.row(v));
        part_data.labels.push_back(full.labels[ids[v]]);
        part_data.trainMask.push_back(full.trainMask[ids[v]]);
        part_data.valMask.push_back(full.valMask[ids[v]]);
        part_data.testMask.push_back(full.testMask[ids[v]]);
    }

    nn::ModelConfig cfg;
    cfg.kind = nn::GnnKind::Sage;
    cfg.nonlin = nn::Nonlinearity::MaxK;
    cfg.maxkK = 8;
    cfg.numLayers = 2;
    cfg.inDim = task.featureDim;
    cfg.hiddenDim = 32;
    cfg.outDim = task.numClasses;
    nn::GnnModel model(cfg);
    nn::Trainer trainer(model, part_data, task);
    nn::TrainConfig tc;
    tc.epochs = 50;
    tc.evalEvery = 10;
    const auto r = trainer.run(tc);
    EXPECT_GT(r.finalTestMetric, 0.45); // far above 1/7 chance
}

TEST(Compatibility, MaxkTrainsOnSampledSubgraph)
{
    TrainingTask task = *findTrainingTask("Flickr");
    task.accuracyNodes = 1500;
    task.accuracyAvgDegree = 14.0;
    Rng rng(11);
    TrainingData full = materializeTrainingData(task, rng);

    const SampledSubgraph s = sampleNodes(full.graph, 0.5, rng);
    TrainingData sub;
    sub.graph = s.graph;
    const NodeId n = sub.graph.numNodes();
    sub.features.resize(n, full.features.cols());
    for (NodeId v = 0; v < n; ++v) {
        const NodeId gid = s.globalIds[v];
        std::copy(full.features.row(gid),
                  full.features.row(gid) + full.features.cols(),
                  sub.features.row(v));
        sub.labels.push_back(full.labels[gid]);
        sub.trainMask.push_back(full.trainMask[gid]);
        sub.valMask.push_back(full.valMask[gid]);
        sub.testMask.push_back(full.testMask[gid]);
    }

    nn::ModelConfig cfg;
    cfg.kind = nn::GnnKind::Gcn;
    cfg.nonlin = nn::Nonlinearity::MaxK;
    cfg.maxkK = 8;
    cfg.numLayers = 2;
    cfg.inDim = task.featureDim;
    cfg.hiddenDim = 32;
    cfg.outDim = task.numClasses;
    nn::GnnModel model(cfg);
    nn::Trainer trainer(model, sub, task);
    nn::TrainConfig tc;
    tc.epochs = 50;
    tc.evalEvery = 10;
    EXPECT_GT(trainer.run(tc).finalTestMetric, 0.4);
}

} // namespace
} // namespace maxk
