#include "nn/distributed.hh"

#include <algorithm>

#include "common/logging.hh"
#include "graph/edge_groups.hh"

namespace maxk::nn
{

namespace
{

/** Per-GPU NVLink all-to-all bandwidth the exchange is charged at. */
constexpr double kNvlinkBytesPerSecond = 300.0e9;

} // namespace

std::uint64_t
boundaryReplicaCount(const CsrGraph &g, const Partition &p)
{
    checkInvariant(p.assignment.size() == g.numNodes(),
                   "boundaryReplicaCount: partition size mismatch");
    // Count distinct (reader part, read vertex) pairs: part r reads
    // vertex u when any row owned by r has u among its columns. This
    // is exactly the halo-row count dist::HaloPlan materialises, for
    // directed structure too (a row reads its out-neighbours, so the
    // readers of u are determined by u's in-edges — walking the rows
    // one part at a time gets that right without a transpose: within
    // part r's contiguous pass, stamp[u] == r+1 dedupes repeat reads,
    // and no part is visited twice; 0 is the never-stamped sentinel).
    const auto buckets = p.membersAll();
    std::vector<std::uint32_t> stamp(g.numNodes(), 0);
    std::uint64_t replicas = 0;
    for (std::uint32_t r = 0; r < p.numParts; ++r) {
        for (NodeId v : buckets[r]) {
            for (EdgeId e = g.rowPtr()[v]; e < g.rowPtr()[v + 1];
                 ++e) {
                const NodeId u = g.colIdx()[e];
                if (p.assignment[u] != r && stamp[u] != r + 1) {
                    stamp[u] = r + 1;
                    ++replicas;
                }
            }
        }
    }
    return replicas;
}

Bytes
activationRowBytes(const ModelConfig &cfg, std::uint32_t layer)
{
    const bool last = layer + 1 == cfg.numLayers;
    const std::size_t out_dim = last ? cfg.outDim : cfg.hiddenDim;
    if (cfg.nonlin != Nonlinearity::MaxK || last)
        return Bytes(4) * out_dim;
    const std::uint32_t k = std::min<std::uint32_t>(
        cfg.maxkK, static_cast<std::uint32_t>(out_dim));
    // CBSR wire format: k fp32 values + k indices.
    return Bytes(k) *
           (4 + CbsrMatrix::indexBytesFor(
                    static_cast<std::uint32_t>(out_dim)));
}

DistributedEpochTiming
profileDistributedEpoch(const ModelConfig &cfg, const CsrGraph &g,
                        const Partition &part,
                        const ClusterConfig &cluster,
                        const SimOptions &opt)
{
    checkInvariant(part.numParts == cluster.numGpus,
                   "profileDistributedEpoch: parts != GPUs");
    DistributedEpochTiming result;

    // Per-partition compute: profile each induced subgraph. Empty parts
    // contribute no compute and must not deflate the imbalance mean.
    const auto buckets = part.membersAll();
    double worst = 0.0, total = 0.0;
    std::uint32_t non_empty = 0;
    for (std::uint32_t p = 0; p < part.numParts; ++p) {
        if (buckets[p].empty())
            continue;
        ++non_empty;
        CsrGraph sub = extractSubgraph(g, buckets[p]);
        sub.setAggregatorWeights(aggregatorFor(cfg.kind));
        const auto eg = EdgeGroupPartition::build(
            sub, std::max<std::uint32_t>(opt.workloadCap, 1));
        const double t = profileEpoch(cfg, sub, eg, opt).total();
        worst = std::max(worst, t);
        total += t;
    }
    result.computeSeconds = worst;
    result.imbalance =
        total > 0.0 && non_empty > 0 ? worst / (total / non_empty) : 1.0;

    // Boundary exchange, replica-exact: a boundary node adjacent to
    // multiple remote parts is shipped once per remote reader, every
    // layer, forward and backward — which is what the sharded executor
    // (dist::HaloExchange) actually sends. MaxK layers ship CBSR rows,
    // the final layer and ReLU models ship dense rows.
    result.boundaryReplicas = boundaryReplicaCount(g, part);

    Bytes per_replica = 0;
    for (std::uint32_t l = 0; l < cfg.numLayers; ++l)
        per_replica += activationRowBytes(cfg, l);
    result.exchangedBytes =
        Bytes(result.boundaryReplicas) * per_replica * 2; // fwd+bwd
    result.exchangeSeconds = static_cast<double>(result.exchangedBytes) /
                             kNvlinkBytesPerSecond;
    return result;
}

} // namespace maxk::nn
