/**
 * @file
 * full-maxk / full-relu: full-batch 3-layer SAGE (128 -> 256 -> 256 ->
 * 41) trained by nn::Trainer on a Reddit-like zipf(1024, 500k, 0.6)
 * graph (average degree near Reddit's 492).
 */

#include <cmath>
#include <optional>

#include "common/rng.hh"
#include "graph/generators.hh"
#include "layers.hh"
#include "nn/loss.hh"
#include "nn/metrics.hh"
#include "nn/optimizer.hh"
#include "nn/trainer.hh"
#include "workloads.hh"

namespace hostbench
{

using namespace maxk;

namespace
{

constexpr NodeId kNodes = 1024;
constexpr EdgeId kEdges = 500000;
constexpr double kZipfExponent = 0.6;
constexpr std::uint32_t kClasses = 41;
constexpr std::uint32_t kFeatures = 128;
constexpr std::uint32_t kHidden = 256;
constexpr std::uint32_t kMaxK = 32;
/** Epochs of the training run whose last loss is loss_final. */
constexpr std::uint32_t kEpochs = 3;
/** Engine set-ups per run (setup_s is their median). */
constexpr int kSetupReps = 5;

} // namespace

nn::ModelConfig
fullModelConfig(nn::Nonlinearity nonlin, std::uint64_t seed)
{
    nn::ModelConfig cfg;
    cfg.kind = nn::GnnKind::Sage;
    cfg.nonlin = nonlin;
    cfg.maxkK = kMaxK;
    cfg.numLayers = 3;
    cfg.inDim = kFeatures;
    cfg.hiddenDim = kHidden;
    cfg.outDim = kClasses;
    cfg.dropout = 0.0f;
    cfg.seed = rngKey(seed, 0xF011ull, 2);
    return cfg;
}

void
runFullBatch(const RunOptions &opt, nn::Nonlinearity nonlin, Sheet &sheet,
             Tracer &tracer)
{
    Rng graph_rng(rngKey(opt.seed, 0xF011ull, 1));
    Inputs in = makeInputs(zipf(kNodes, kEdges, kZipfExponent, graph_rng),
                           kClasses, kFeatures, 0.6, opt.seed);
    const CsrGraph &g = in.data.graph;
    note("graph zipf(1024, 500k, 0.6): " + std::to_string(g.numNodes()) +
         " nodes, " + std::to_string(g.numEdges()) + " edges");
    const nn::ModelConfig cfg = fullModelConfig(nonlin, opt.seed);

    nn::TrainConfig tc;
    tc.epochs = kEpochs;
    tc.lr = 0.01f;
    tc.evalEvery = 1;
    tc.seed = opt.seed;

    // Set-up = model + trainer construction + the warm-up epoch (first
    // epoch: workspaces, transpose cache). The last repetition's model
    // trains kEpochs epochs; every epoch after its first is steady.
    std::vector<double> setups, steady, losses;
    std::optional<double> first_loss;
    std::uint64_t steady_allocs = 0;
    std::optional<nn::GnnModel> model;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const auto t0 = Clock::now();
        model.emplace(cfg);
        nn::Trainer trainer(*model, in.data, in.task);
        const double construct_s = secondsSince(t0);
        if (rep + 1 < kSetupReps) {
            nn::TrainConfig warm = tc;
            warm.epochs = 1;
            const nn::TrainResult r = trainer.run(warm);
            setups.push_back(construct_s + r.hostSeconds);
            checkLosses(sheet, r.trainLoss, first_loss);
            continue;
        }
        EpochClock clock("trainer.epoch");
        nn::TrainConfig timed = tc;
        timed.faults = clock.injector();
        clock.start();
        const nn::TrainResult r = trainer.run(timed);
        const std::vector<double> epochs = clock.stop();
        checkLosses(sheet, r.trainLoss, first_loss);
        losses = r.trainLoss;
        sheet.attempt(epochs.size() == kEpochs,
                      "epoch clock saw the wrong epoch count");
        if (epochs.size() != kEpochs)
            break;
        setups.push_back(construct_s + epochs[0]);
        steady.assign(epochs.begin() + 1, epochs.end());
        steady_allocs = clock.allocsSince(1) / (kEpochs - 1);

        // More steady epochs while another one fits in the measuring
        // time; they continue the trained model and do not touch
        // loss_final.
        double measured = 0.0;
        for (double e : steady)
            measured += e;
        nn::TrainConfig more = tc;
        more.epochs = 1;
        while (measured + steady.back() <= opt.seconds) {
            const nn::TrainResult m = trainer.run(more);
            sheet.attempt(std::isfinite(m.trainLoss[0]),
                          "training loss not finite");
            steady.push_back(m.hostSeconds);
            measured += m.hostSeconds;
        }
    }
    reportTraining(sheet, setups, steady, losses);
    checkAggregationSample(sheet, cfg, g, opt.seed);
    if (!opt.trace || steady.empty())
        return;

    // ---- traced epoch: the trainer's epoch replayed phase by phase.
    PhaseTotals step, eval;
    PhaseReplay step_replay(tracer, 0, step), eval_replay(tracer, 0, eval);
    nn::Adam adam(model->params(), tc.lr);
    Matrix eval_logits;
    const auto epoch = [&] {
        const Matrix *logits = nullptr;
        {
            Scope s(tracer, "nn.forward");
            logits = &step_replay.forward(*model, g, in.data.features, true);
        }
        nn::LossResult loss;
        {
            Scope s(tracer, "nn.loss", 0, &step.loss);
            loss = nn::softmaxCrossEntropy(*logits, in.data.labels,
                                           in.data.trainMask);
        }
        {
            Scope s(tracer, "nn.backward");
            step_replay.backward(*model, g, loss.gradLogits);
        }
        {
            Scope s(tracer, "nn.optim", 0, &step.optim);
            adam.step();
        }
        Scope s(tracer, "nn.eval");
        eval_logits = eval_replay.forward(*model, g, in.data.features, false);
        nn::accuracy(eval_logits, in.data.labels, in.data.valMask);
        nn::accuracy(eval_logits, in.data.labels, in.data.testMask);
    };
    // The warm-up epoch fills the replay's own buffers.
    epoch();
    step = PhaseTotals{};
    eval = PhaseTotals{};
    const TracedEpochs traced = traceEpochs(tracer, 0, epoch);
    reportTraceQuality(sheet, tracer, traced, median(steady));
    step = step.scaled(1.0 / kTracedEpochs);
    PhaseTotals total = step;
    total += eval.scaled(1.0 / kTracedEpochs);
    reportPhases(sheet, total);
    sheet.attempt(bitwiseEqual(eval_logits,
                               model->forward(g, in.data.features, false)),
                  "phase replay logits != GnnModel::forward");

    probeLayers(sheet, cfg, g, layerActivation(model->layers()[0], kMaxK),
                step, opt.seed);
    sheet.set("tensor.steady_allocs", static_cast<double>(steady_allocs),
              "count");
    zeroLayer(sheet, "sample.");
    zeroLayer(sheet, "serve.");
    zeroLayer(sheet, "dist.");
}

} // namespace hostbench
