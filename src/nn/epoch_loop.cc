#include "nn/epoch_loop.hh"

#include <algorithm>

#include "common/logging.hh"
#include "nn/metrics.hh"
#include "tensor/alloc_probe.hh"

namespace maxk::nn
{

EvalScores
taskMetric(const TrainingTask &task, const TrainingData &data,
           const Matrix &targets, const Matrix &logits)
{
    const auto metric = [&](const std::vector<std::uint8_t> &mask) {
        switch (task.metric) {
          case MetricKind::Accuracy:
            return accuracy(logits, data.labels, mask);
          case MetricKind::MicroF1:
            return microF1(logits, targets, mask);
          case MetricKind::RocAuc:
            return rocAuc(logits, targets, mask);
        }
        return 0.0;
    };
    return {metric(data.valMask), metric(data.testMask)};
}

void
writeTrajectories(formats::Checkpoint &ck, const TrainResult &r)
{
    ck.setDoubles("traj.trainLoss", r.trainLoss);
    ck.setDoubles("traj.valMetric", r.valMetric);
    ck.setDoubles("traj.testMetric", r.testMetric);
    ck.setU32s("traj.evalEpochs", r.evalEpochs);
    ck.setDoubles("traj.best", {r.bestValMetric, r.testAtBestVal,
                                r.finalTestMetric});
}

Expected<std::monostate, IoError>
readTrajectories(const formats::Checkpoint &ck, TrainResult &r)
{
    auto loss = ck.getDoubles("traj.trainLoss");
    if (!loss)
        return unexpected(std::move(loss.error()));
    auto val = ck.getDoubles("traj.valMetric");
    if (!val)
        return unexpected(std::move(val.error()));
    auto test = ck.getDoubles("traj.testMetric");
    if (!test)
        return unexpected(std::move(test.error()));
    auto epochs = ck.getU32s("traj.evalEpochs");
    if (!epochs)
        return unexpected(std::move(epochs.error()));
    auto best = ck.getDoubles("traj.best", 3);
    if (!best)
        return unexpected(std::move(best.error()));
    r.trainLoss = std::move(loss.value());
    r.valMetric = std::move(val.value());
    r.testMetric = std::move(test.value());
    r.evalEpochs = std::move(epochs.value());
    r.bestValMetric = best.value()[0];
    r.testAtBestVal = best.value()[1];
    r.finalTestMetric = best.value()[2];
    return std::monostate{};
}

EpochLoop::EpochLoop(const LoopConfig &cfg, const LoopNames &names)
    : cfg_(cfg), names_(names),
      evalEvery_(std::max<std::uint32_t>(cfg.evalEvery, 1)),
      checkpointEvery_(std::max<std::uint32_t>(cfg.checkpointEvery, 1))
{
    const std::string engine = names_.engine;
    // A zero cadence would divide by zero in the cadence checks; treat
    // it as "every epoch" rather than aborting a long run on a slip.
    if (cfg.evalEvery == 0)
        logMessage(LogLevel::Warn,
                   engine + ": evalEvery=0 clamped to 1 (every epoch)");
    if (!cfg.checkpointDir.empty()) {
        if (cfg.checkpointEvery == 0)
            logMessage(LogLevel::Warn,
                       engine +
                           ": checkpointEvery=0 clamped to 1 (every epoch)");
        store_.emplace(cfg.checkpointDir, names_.store,
                       cfg.checkpointKeep);
    }
    // Observation only: numerics never read telemetry state, and rank
    // threads see the global armed flag set here.
    if (cfg.telemetry) {
        arm_.emplace(true);
        report_ = telemetry::TelemetryReport::capture();
    }
}

std::uint32_t
EpochLoop::resume(TrainResult &result, const ImageCheck &restore)
{
    if (!store_ || store_->epochsOnDisk().empty())
        return start_;
    const std::string engine = names_.engine;
    auto loaded = store_->loadLatest();
    if (!loaded) {
        logMessage(LogLevel::Warn,
                   engine + ": no usable checkpoint, starting fresh: " +
                       loaded.error().describe());
        return start_;
    }
    const formats::Checkpoint &image = loaded.value().checkpoint;
    // Trajectories go to a scratch result, so a rejected image leaves
    // every piece of run state as a fresh run would see it.
    TrainResult traj;
    auto ok = readTrajectories(image, traj);
    if (ok)
        ok = restore(image);
    if (!ok) {
        logMessage(LogLevel::Warn,
                   engine + ": checkpoint rejected, starting fresh: " +
                       ok.error().describe());
        return start_;
    }
    result = std::move(traj);
    start_ = static_cast<std::uint32_t>(loaded.value().epoch) + 1;
    logMessage(LogLevel::Info,
               engine + ": resuming after epoch " +
                   std::to_string(loaded.value().epoch));
    return start_;
}

void
EpochLoop::run(const EpochRoles &roles, TrainResult *owner,
               std::uint32_t rank, std::string_view detail)
{
    const std::uint32_t steady_epoch = start_ + 2;
    for (std::uint32_t epoch = start_; epoch < cfg_.epochs; ++epoch) {
        telemetry::TraceScope span(names_.epochSpan, detail);
        // Epoch-aligning barrier: when the owner samples the allocation
        // counter at the steady epoch, every rank has finished warm-up.
        if (roles.sync)
            roles.sync();
        if (cfg_.faults)
            cfg_.faults->maybeThrow(names_.faultSite, rank);
        if (owner && epoch == steady_epoch)
            allocBase_ = AllocProbe::totalAllocCount();

        const double loss = roles.step(epoch);
        if (owner)
            owner->trainLoss.push_back(loss);

        if (epoch % evalEvery_ == 0 || epoch + 1 == cfg_.epochs) {
            telemetry::TraceScope eval_span(names_.evalSpan, detail);
            const EvalScores s = roles.eval(epoch);
            if (owner) {
                owner->evalEpochs.push_back(epoch);
                owner->valMetric.push_back(s.val);
                owner->testMetric.push_back(s.test);
                if (s.val >= owner->bestValMetric) {
                    owner->bestValMetric = s.val;
                    owner->testAtBestVal = s.test;
                }
                owner->finalTestMetric = s.test;
                if (cfg_.verbose)
                    logMessage(LogLevel::Info,
                               "epoch " + std::to_string(epoch) +
                                   " loss " + std::to_string(loss) +
                                   " val " + std::to_string(s.val) +
                                   " test " + std::to_string(s.test));
            }
        }

        if (store_ && ((epoch + 1) % checkpointEvery_ == 0 ||
                       epoch + 1 == cfg_.epochs))
            save(roles, owner, epoch);

        if (owner && cfg_.telemetry) {
            // Counters that advanced this epoch, at Debug so steady
            // runs stay quiet by default.
            telemetry::TelemetryReport now =
                telemetry::TelemetryReport::capture();
            const std::string delta = now.deltaText(report_);
            if (!delta.empty())
                logMessage(LogLevel::Debug,
                           "telemetry epoch " + std::to_string(epoch) +
                               " deltas:\n" + delta);
            report_ = std::move(now);
        }
    }
    if (roles.sync)
        roles.sync();
    if (owner && cfg_.epochs > steady_epoch)
        owner->steadyStateAllocCount =
            AllocProbe::totalAllocCount() - allocBase_;
    if (owner)
        owner->hostSeconds = watch_.seconds();
}

void
EpochLoop::save(const EpochRoles &roles, TrainResult *owner,
                std::uint32_t epoch)
{
    roles.save(owner ? &image_ : nullptr);
    if (!owner)
        return;
    writeTrajectories(image_, *owner);
    image_.setU64("epoch", epoch);
    auto saved = store_->save(image_, epoch, cfg_.faults);
    if (!saved)
        logMessage(LogLevel::Warn,
                   std::string(names_.engine) +
                       ": checkpoint save failed: " +
                       saved.error().describe());
}

} // namespace maxk::nn
