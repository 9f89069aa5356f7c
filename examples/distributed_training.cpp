/**
 * @file
 * Partition-parallel training demo (the BNS-GCN deployment the paper
 * cites as compatible with MaxK-GNN, Sec. 1):
 *
 *  1. partition a community graph across simulated GPUs,
 *  2. profile the per-epoch compute + boundary-exchange costs for the
 *     ReLU baseline and MaxK-GNN,
 *  3. train a MaxK-GNN across the same partition with
 *     dist::ShardedTrainer (one rank per part, CBSR halo exchange) and
 *     check its measured halo traffic against the model's bytes.
 *
 * Usage: distributed_training [num_gpus]   (default 4)
 */

#include <cstdio>
#include <cstdlib>

#include "common/rng.hh"
#include "common/table.hh"
#include "dist/sharded_trainer.hh"
#include "graph/partition.hh"
#include "graph/registry.hh"
#include "nn/distributed.hh"

using namespace maxk;

int
main(int argc, char **argv)
{
    const std::uint32_t gpus =
        argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 4;
    if (gpus < 1 || gpus > 64) {
        std::fprintf(stderr, "num_gpus must be in [1, 64]\n");
        return 1;
    }

    // A products-like community graph.
    TrainingTask task = *findTrainingTask("ogbn-products");
    task.accuracyNodes = 2048;
    task.accuracyAvgDegree = 20.0;
    Rng rng(77);
    TrainingData data = materializeTrainingData(task, rng);
    std::printf("graph: %u nodes, %u edges, %u classes\n",
                data.graph.numNodes(), data.graph.numEdges(),
                task.numClasses);

    // 1. Partition.
    const Partition part = bfsPartition(data.graph, gpus, rng);
    std::printf("partitioned across %u GPUs: balance %.3f, edge cut "
                "%.1f%%\n",
                gpus, part.balance(data.graph.numNodes()),
                part.edgeCutFraction(data.graph) * 100.0);

    // 2. Deployment profile: baseline vs MaxK.
    nn::ModelConfig relu;
    relu.kind = nn::GnnKind::Sage;
    relu.nonlin = nn::Nonlinearity::Relu;
    relu.numLayers = 3;
    relu.inDim = task.featureDim;
    relu.hiddenDim = 256;
    relu.outDim = task.numClasses;
    nn::ModelConfig maxk = relu;
    maxk.nonlin = nn::Nonlinearity::MaxK;
    maxk.maxkK = 32;

    SimOptions opt;
    opt.device = gpusim::DeviceConfig::a100().scaledForWorkingSet(0.05);
    nn::ClusterConfig cluster;
    cluster.numGpus = gpus;

    const auto t_relu = nn::profileDistributedEpoch(relu, data.graph,
                                                    part, cluster, opt);
    const auto t_maxk = nn::profileDistributedEpoch(maxk, data.graph,
                                                    part, cluster, opt);

    TextTable t({"method", "compute ms", "exchange ms", "exchanged MB",
                 "epoch ms"});
    t.addRow({"ReLU baseline",
              formatFloat(t_relu.computeSeconds * 1e3, 3),
              formatFloat(t_relu.exchangeSeconds * 1e3, 3),
              formatFloat(t_relu.exchangedBytes / 1e6, 2),
              formatFloat(t_relu.total() * 1e3, 3)});
    t.addRow({"MaxK-GNN k=32",
              formatFloat(t_maxk.computeSeconds * 1e3, 3),
              formatFloat(t_maxk.exchangeSeconds * 1e3, 3),
              formatFloat(t_maxk.exchangedBytes / 1e6, 2),
              formatFloat(t_maxk.total() * 1e3, 3)});
    std::printf("\n%s\n", t.render().c_str());

    // 3. Train across the partition, one rank per part.
    nn::ModelConfig train_cfg = maxk;
    train_cfg.hiddenDim = 64;
    train_cfg.maxkK = 8; // density-scaled
    std::printf("training MaxK-GNN on %u ranks...\n", gpus);
    dist::ShardedTrainer trainer(train_cfg, data, task, part);
    nn::TrainConfig tc;
    tc.epochs = 60;
    tc.evalEvery = 20;
    const dist::ShardedTrainResult r = trainer.run(tc);

    const nn::DistributedEpochTiming model = nn::profileDistributedEpoch(
        train_cfg, data.graph, part, cluster, opt);
    const std::uint64_t model_bytes = model.exchangedBytes * tc.epochs;
    std::printf("halo bytes over %u epochs: measured %llu, model %llu\n",
                tc.epochs,
                static_cast<unsigned long long>(r.trainHaloBytes),
                static_cast<unsigned long long>(model_bytes));
    if (r.trainHaloBytes != model_bytes) {
        std::fprintf(stderr, "measured halo bytes != model\n");
        return 1;
    }
    return 0;
}
