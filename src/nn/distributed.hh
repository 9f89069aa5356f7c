/**
 * @file
 * Analytical cost of one partition-parallel training epoch: the oracle
 * the executed dist::ShardedTrainer is checked against.
 *
 * The paper argues (Sec. 1) that MaxK-GNN composes with
 * partition-parallel (BNS-GCN-style) training: each GPU holds one graph
 * partition, boundary-node features are exchanged every layer, and the
 * aggregation kernels run unchanged within each partition. This module
 * prices that deployment: per-partition simulated compute (from
 * profileEpoch on the partition subgraph) plus a replica-exact boundary
 * exchange charged against NVLink bandwidth. MaxK shrinks the exchanged
 * features too (CBSR: (4+idx)*k bytes vs 4*dim bytes per boundary
 * replica per layer), compounding its win. The measured Halo-channel
 * traffic of a sharded run equals exchangedBytes * epochs exactly.
 */

#ifndef MAXK_NN_DISTRIBUTED_HH
#define MAXK_NN_DISTRIBUTED_HH

#include <cstdint>

#include "graph/csr.hh"
#include "graph/partition.hh"
#include "kernels/sim_options.hh"
#include "nn/model.hh"
#include "nn/trainer.hh"

namespace maxk::nn
{

/** Deployment parameters. */
struct ClusterConfig
{
    std::uint32_t numGpus = 4;
};

/** Per-epoch decomposition of a partition-parallel run. */
struct DistributedEpochTiming
{
    double computeSeconds = 0.0;   //!< slowest partition's kernel time
    double exchangeSeconds = 0.0;  //!< boundary feature all-to-all
    double imbalance = 1.0;        //!< max/mean over non-empty partitions
    std::uint64_t boundaryReplicas = 0; //!< per-destination send copies
    Bytes exchangedBytes = 0;

    double total() const { return computeSeconds + exchangeSeconds; }
};

/**
 * Replica-exact exchange count: every (vertex, remote reader part) pair
 * is one shipped row — a boundary node adjacent to three remote parts
 * is sent three times per layer direction, once per reader. This is
 * exactly the number of halo rows the sharded executor materialises
 * (dist::HaloPlan::totalReplicas()).
 */
std::uint64_t boundaryReplicaCount(const CsrGraph &g, const Partition &p);

/**
 * Wire bytes of one exchanged activation row of layer `layer` under
 * `cfg`: CBSR rows (k values + k narrow indices) for MaxK layers, dense
 * fp32 rows otherwise. The final layer produces dense logits in both
 * variants, and its width is outDim, not hiddenDim. Shared between the
 * analytical model below and the tests that reconcile it with the
 * measured dist::Communicator traffic.
 */
Bytes activationRowBytes(const ModelConfig &cfg, std::uint32_t layer);

/**
 * Model one partition-parallel training epoch of `cfg` on graph g
 * split by `part` across `cluster.numGpus` devices.
 *
 * Compute: profileEpoch on each partition's induced subgraph; the
 * epoch waits for the slowest. Exchange: every layer moves each
 * boundary replica's row forward and its partial gradient back —
 * dense rows for ReLU models, CBSR rows for MaxK models — at 300 GB/s
 * of NVLink bandwidth per GPU.
 */
DistributedEpochTiming profileDistributedEpoch(
    const ModelConfig &cfg, const CsrGraph &g, const Partition &part,
    const ClusterConfig &cluster, const SimOptions &opt);

} // namespace maxk::nn

#endif // MAXK_NN_DISTRIBUTED_HH
