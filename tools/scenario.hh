/**
 * @file
 * Shared scenario pieces of the maxk-faults and maxk-trace tools: the
 * Flickr accuracy twin scaled down to CLI size, the small MaxK-SAGE
 * model both train, the pipelined mini-batch run and steady request
 * trace behind their serving scenarios, and the "ok:/FAILED:" line.
 */

#ifndef MAXK_TOOLS_SCENARIO_HH
#define MAXK_TOOLS_SCENARIO_HH

#include <cstdio>
#include <vector>

#include "common/rng.hh"
#include "graph/registry.hh"
#include "nn/model.hh"
#include "sample/sampled_trainer.hh"
#include "serve/session.hh"

namespace maxk::tools
{

/** Flickr accuracy twin with `nodes` nodes of average degree 8. */
inline TrainingTask
smallTask(NodeId nodes)
{
    TrainingTask task = *findTrainingTask("Flickr");
    task.accuracyNodes = nodes;
    task.accuracyAvgDegree = 8.0;
    return task;
}

/** 2-layer MaxK-SAGE (k 8, hidden 32) with dropout, so checkpoints
 *  must carry the dropout stream positions. */
inline nn::ModelConfig
smallModel(const TrainingTask &task)
{
    nn::ModelConfig cfg;
    cfg.kind = nn::GnnKind::Sage;
    cfg.nonlin = nn::Nonlinearity::MaxK;
    cfg.maxkK = 8;
    cfg.numLayers = 2;
    cfg.inDim = task.featureDim;
    cfg.hiddenDim = 32;
    cfg.outDim = task.numClasses;
    cfg.dropout = 0.2f;
    return cfg;
}

/** Train `model` for `epochs` pipelined mini-batch epochs (fanouts
 *  6,6; batch 64), evaluating at the first and last epoch. */
inline void
trainSampled(nn::GnnModel &model, TrainingData &data,
             const TrainingTask &task, std::uint64_t sampler_seed,
             std::uint32_t epochs, bool telemetry = false)
{
    sample::SamplerConfig scfg;
    scfg.fanouts = {6, 6};
    scfg.batchSize = 64;
    scfg.seed = sampler_seed;
    sample::SampledTrainer trainer(model, data, task, scfg);
    sample::SampledTrainConfig tc;
    tc.epochs = epochs;
    tc.evalEvery = epochs;
    tc.telemetry = telemetry;
    trainer.run(tc);
}

/** `n` requests arriving every 0.2 ms for keyed-random vertices. */
inline std::vector<serve::ServeRequest>
steadyTrace(std::size_t n, std::uint64_t seed, NodeId nodes)
{
    std::vector<serve::ServeRequest> trace(n);
    Rng traffic(seed);
    double t = 0.0;
    for (serve::ServeRequest &req : trace) {
        t += 2e-4;
        req.arrivalSimSeconds = t;
        req.vertex = traffic.nextBounded(nodes);
    }
    return trace;
}

/** Print one "ok:" / "FAILED:" verdict line; returns `ok`. */
inline bool
check(bool ok, const char *what)
{
    std::printf("%s %s\n", ok ? "ok:" : "FAILED:", what);
    return ok;
}

} // namespace maxk::tools

#endif // MAXK_TOOLS_SCENARIO_HH
