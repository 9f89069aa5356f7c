/**
 * @file
 * The benchmark's workloads. Each one generates its inputs from the run
 * seed, builds its engine, measures it, checks its outputs, and fills
 * the sheet with every end-to-end metric; with tracing on it also
 * replays one epoch phase by phase under spans and fills every
 * per-layer metric.
 */

#ifndef HOSTBENCH_WORKLOADS_HH
#define HOSTBENCH_WORKLOADS_HH

#include <cstdint>

#include "bench.hh"
#include "nn/gnn_layer.hh"

namespace hostbench
{

/**
 * Worker threads of every workload (per rank on sharded-2). On a few
 * shared vCPUs a parallel region waits for its slowest worker, so
 * multi-threaded epochs measure the host's scheduler more than the
 * engine; thread scaling is probed in isolation (nn.agg_*_scaling).
 */
constexpr std::uint32_t kWorkloadThreads = 1;

/** The full-batch model: SAGE, 3 layers, 128 -> 256 -> 256 -> 41,
 *  k = 32, dropout 0 (full-maxk, full-relu, sharded-2). */
nn::ModelConfig fullModelConfig(nn::Nonlinearity nonlin, std::uint64_t seed);

/** The sparse power-law inputs of sampled-serve and sharded-2:
 *  rmat(scale, edges), 128 features, 41 classes, `train_fraction` of
 *  the nodes in the training split. */
Inputs rmatInputs(std::uint64_t seed, std::uint32_t scale,
                  maxk::EdgeId edges, double train_fraction);

/** nn::Trainer, full-batch MaxK-SAGE or ReLU-SAGE on a zipf graph. */
void runFullBatch(const RunOptions &opt, nn::Nonlinearity nonlin,
                  Sheet &sheet, Tracer &tracer);

/** sample::SampledTrainer, then serve::ServeSession on an rmat graph. */
void runSampledServe(const RunOptions &opt, Sheet &sheet, Tracer &tracer);

/** dist::ShardedTrainer with 2 ranks on an rmat graph. */
void runSharded(const RunOptions &opt, Sheet &sheet, Tracer &tracer);

} // namespace hostbench

#endif // HOSTBENCH_WORKLOADS_HH
