#include "sample/sampled_trainer.hh"

#include <algorithm>
#include <string>

#include "common/logging.hh"
#include "common/trace.hh"
#include "nn/checkpoint.hh"
#include "nn/gnn_layer.hh"
#include "nn/loss.hh"
#include "sample/pipeline.hh"

namespace maxk::sample
{

SampledTrainer::SampledTrainer(nn::GnnModel &model, TrainingData &data,
                               const TrainingTask &task,
                               const SamplerConfig &scfg)
    : model_(model), data_(data), task_(task),
      sampler_(data.graph, scfg), evalModel_(model.config())
{
    if (scfg.fanouts.size() != model_.config().numLayers)
        fatal("SampledTrainer: fanout arity (" +
              std::to_string(scfg.fanouts.size()) +
              ") must equal the model layer count (" +
              std::to_string(model_.config().numLayers) + ")");

    for (NodeId v = 0; v < data_.graph.numNodes(); ++v)
        if (data_.trainMask[v])
            trainIds_.push_back(v);
    if (trainIds_.empty())
        fatal("SampledTrainer: training mask selects no nodes");

    // Full-graph weights for the evaluation forward (same convention as
    // nn::Trainer); minibatch CSRs get their own local weights from the
    // extractor.
    data_.graph.setAggregatorWeights(
        nn::aggregatorFor(model_.config().kind));
    if (task_.multiLabel)
        multiTargets_ =
            nn::multiLabelTargets(data_.labels, task_.numClasses);

    extractor_.emplace(sampler_.nodeCapacity(),
                       nn::aggregatorFor(model_.config().kind),
                       data_.features, data_.labels,
                       task_.multiLabel ? &multiTargets_ : nullptr);
}

void
SampledTrainer::syncEvalParams()
{
    const nn::ParamRefs src = model_.params();
    const nn::ParamRefs dst = evalModel_.params();
    checkInvariant(src.size() == dst.size(),
                   "SampledTrainer: eval replica parameter mismatch");
    // Same config => identical shapes; same-size Matrix copy-assign
    // reuses the destination storage (no allocation event).
    for (std::size_t i = 0; i < src.size(); ++i)
        dst[i]->value = src[i]->value;
}

double
SampledTrainer::trainStep(const Minibatch &mb, nn::Adam &adam)
{
    const Matrix &logits = model_.forward(mb.graph, mb.features, true);
    // norm_count 0: normalise by the active masked count, i.e. the mean
    // over this batch's seeds (padding rows are never masked).
    const double mean_loss =
        task_.multiLabel
            ? nn::sigmoidBceInto(logits, mb.targets, mb.trainMask, 0,
                                 gradWs_)
            : nn::softmaxCrossEntropyInto(logits, mb.labels, mb.trainMask,
                                          0, gradWs_, probsWs_);
    model_.backward(mb.graph, gradWs_);
    adam.step();
    return mean_loss;
}

SampledTrainResult
SampledTrainer::run(const SampledTrainConfig &cfg)
{
    checkInvariant(model_.config().outDim == task_.numClasses,
                   "SampledTrainer: model outDim != task classes");
    static const telemetry::Phase epoch_span("sample.epoch");
    static const telemetry::Phase eval_span("sample.eval");
    nn::EpochLoop loop(cfg, {"SampledTrainer", "sampled",
                             "sampled_trainer.epoch", epoch_span,
                             eval_span});
    const std::uint32_t depth = std::max<std::uint32_t>(cfg.queueDepth, 1);
    SampledTrainResult result;
    nn::Adam adam(model_.params(), cfg.lr, 0.9f, 0.999f, 1e-8f,
                  cfg.weightDecay);
    // The "counters" extra is validated before readModelState applies
    // anything, and committed only once the whole image is accepted.
    const std::uint32_t start_epoch = loop.resume(
        result,
        [&](const formats::Checkpoint &ck)
            -> Expected<std::monostate, IoError> {
            auto counters = ck.getU64s("counters", 3);
            if (!counters)
                return unexpected(std::move(counters.error()));
            if (auto ok = nn::readModelState(ck, model_, adam); !ok)
                return ok;
            result.batchesTrained = counters.value()[0];
            result.sampledNodes = counters.value()[1];
            result.sampledEdges = counters.value()[2];
            return std::monostate{};
        });

    // Slot workspaces persist across epochs; the pipeline recycles them,
    // so after warmup no stage allocates tracked storage.
    std::vector<Minibatch> slots(cfg.pipeline ? depth + 1 : 1);

    const std::uint32_t batch_size = sampler_.config().batchSize;
    const std::uint32_t nb = sampler_.numBatches(trainIds_.size());

    // Cross-epoch production: one produce function maps a GLOBAL batch
    // index to (epoch, batch), so a single producer thread can run ahead
    // across epoch boundaries (it samples epoch e+1 while the consumer
    // still trains and evaluates epoch e). A resumed run shifts the
    // index by start_epoch, so the producer regenerates exactly the
    // keyed sample streams of the uninterrupted run. The epoch seed
    // order is computed by whoever produces batch 0 of that epoch — in
    // pipelined mode that is the producer thread, which is the only
    // reader/writer of order_/seedsWs_/batchWs_; the consumer touches
    // none of them.
    auto produce = [&](Minibatch &slot, std::size_t idx) {
        const std::size_t epoch = start_epoch + idx / nb;
        const std::size_t b = idx % nb;
        if (epoch >= cfg.epochs)
            return false;
        if (b == 0)
            sampler_.epochOrder(static_cast<std::uint32_t>(epoch),
                                trainIds_, order_);
        const std::size_t lo = b * static_cast<std::size_t>(batch_size);
        const std::size_t hi =
            std::min<std::size_t>(lo + batch_size, order_.size());
        seedsWs_.assign(order_.begin() + lo, order_.begin() + hi);
        {
            MAXK_TRACE_SCOPE("sample.draw");
            sampler_.sample(static_cast<std::uint32_t>(epoch),
                            static_cast<std::uint32_t>(b), seedsWs_,
                            batchWs_);
        }
        {
            MAXK_TRACE_SCOPE("sample.extract");
            extractor_->extract(batchWs_, slot);
        }
        return true;
    };

    std::optional<Pipeline<Minibatch>> pipe;
    if (cfg.pipeline) {
        pipe.emplace(depth, slots, produce);
        ++result.producerSpawns;
    }

    std::size_t sync_idx = 0;
    nn::EpochRoles roles;
    roles.step = [&](std::uint32_t) {
        double loss_sum = 0.0;
        std::size_t seed_sum = 0;
        auto consume = [&](const Minibatch &mb) {
            {
                MAXK_TRACE_SCOPE("sample.train_step");
                loss_sum += trainStep(mb, adam) *
                            static_cast<double>(mb.numSeeds);
            }
            seed_sum += mb.numSeeds;
            ++result.batchesTrained;
            result.sampledNodes += mb.numNodes;
            result.sampledEdges += mb.graph.numEdges();
            if (telemetry::armed()) {
                telemetry::counterAdd("sample.batches", 1);
                telemetry::counterAdd("sample.nodes", mb.numNodes);
                telemetry::counterAdd("sample.edges",
                                      mb.graph.numEdges());
            }
        };

        // Exactly nb batches belong to this epoch in either mode.
        for (std::uint32_t b = 0; b < nb; ++b) {
            if (cfg.pipeline) {
                Minibatch *mb = pipe->next();
                checkInvariant(mb != nullptr,
                               "SampledTrainer: pipeline ended early");
                consume(*mb);
                pipe->recycle(mb);
            } else {
                const bool ok = produce(slots[0], sync_idx++);
                checkInvariant(ok, "SampledTrainer: produce ended early");
                consume(slots[0]);
            }
        }
        checkInvariant(seed_sum == trainIds_.size(),
                       "SampledTrainer: epoch did not visit every seed");
        return loss_sum / static_cast<double>(seed_sum);
    };
    roles.eval = [&](std::uint32_t) {
        syncEvalParams();
        const Matrix &logits =
            evalModel_.forward(data_.graph, data_.features, false);
        result.finalLogits = logits;
        return nn::taskMetric(task_, data_, multiTargets_, logits);
    };
    roles.save = [&](formats::Checkpoint *ck) {
        nn::writeModelState(*ck, model_, adam);
        ck->setU64s("counters", {result.batchesTrained,
                                 result.sampledNodes,
                                 result.sampledEdges});
    };
    loop.run(roles, &result);
    return result;
}

} // namespace maxk::sample
