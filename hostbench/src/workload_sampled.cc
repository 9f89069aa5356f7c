/**
 * @file
 * sampled-serve: a pipelined sample::SampledTrainer trains 2-layer
 * MaxK-SAGE (128 -> 64 -> 41, k = 8, fanouts {8, 4}, batch 32) on
 * rmat(13, 200k); a serve::ServeSession then answers a closed loop of
 * Zipf-skewed single-vertex requests with the trained model.
 */

#include <algorithm>
#include <optional>

#include "common/rng.hh"
#include "graph/generators.hh"
#include "layers.hh"
#include "nn/loss.hh"
#include "nn/metrics.hh"
#include "sample/sampled_trainer.hh"
#include "serve/session.hh"
#include "workloads.hh"

namespace hostbench
{

using namespace maxk;

namespace
{

constexpr std::uint32_t kScale = 13;
constexpr EdgeId kEdges = 200000;
constexpr std::uint32_t kClasses = 41;
constexpr std::uint32_t kFeatures = 128;
constexpr std::uint32_t kHidden = 64;
constexpr std::uint32_t kMaxK = 8;
/** Training seeds per epoch: 5% of the nodes (13 batches) keeps an
 *  epoch short, so a run times many of them. */
constexpr double kTrainFraction = 0.05;
/** loss_final is the loss of this epoch; the timed run trains at least
 *  this many. */
constexpr std::uint32_t kEpochs = 8;
constexpr int kSetupReps = 5;
/** Share of the measuring time that goes to training epochs; serving
 *  gets the rest. */
constexpr double kTrainShare = 0.8;

/** Serving: one deadline window of requests per replay() call. */
constexpr double kDeadline = 2e-3;
constexpr double kRequestsPerWindow = 16.0;
/** Windows whose structural counts (hits, rows, simulated latency)
 *  are reported; a fixed prefix, so the counts repeat exactly. */
constexpr std::size_t kCountWindows = 200;
constexpr double kMinServeSeconds = 2.0;
/** Windows replayed again through a cache-off session. */
constexpr std::size_t kVerifyWindows = 16;

nn::ModelConfig
modelConfig(std::uint64_t seed)
{
    nn::ModelConfig cfg;
    cfg.kind = nn::GnnKind::Sage;
    cfg.nonlin = nn::Nonlinearity::MaxK;
    cfg.maxkK = kMaxK;
    cfg.numLayers = 2;
    cfg.inDim = kFeatures;
    cfg.hiddenDim = kHidden;
    cfg.outDim = kClasses;
    cfg.dropout = 0.0f;
    cfg.seed = rngKey(seed, 0x5A3Dull, 2);
    return cfg;
}

serve::ServeConfig
serveConfig(std::uint64_t seed, bool cached)
{
    serve::ServeConfig cfg;
    cfg.fanout = 8;
    cfg.seed = rngKey(seed, 0x5A3Dull, 3);
    cfg.deadlineSimSeconds = kDeadline;
    cfg.batchCapacity = 16;
    cfg.cacheFraction = cached ? 0.05 : 0.0;
    cfg.lruSlots = cached ? 256 : 0;
    return cfg;
}

/**
 * Closed-loop request source: window w holds the requests arriving in
 * [w * deadline, (w + 1) * deadline); vertices are Zipf(1)-ranked over
 * a seeded permutation, so hot vertices repeat.
 */
class RequestStream
{
  public:
    RequestStream(NodeId n, std::uint64_t seed)
        : rng_(rngKey(seed, 0x5A3Dull, 4)), perm_(n), cum_(n)
    {
        for (NodeId v = 0; v < n; ++v)
            perm_[v] = v;
        for (NodeId v = n; v > 1; --v)
            std::swap(perm_[v - 1], perm_[rng_.nextBounded(v)]);
        double total = 0.0;
        for (NodeId r = 0; r < n; ++r)
            cum_[r] = total += 1.0 / static_cast<double>(r + 1);
    }

    /** Next window of requests (at least one). */
    const std::vector<serve::ServeRequest> &next()
    {
        window_.clear();
        const double end = static_cast<double>(++windows_) * kDeadline;
        const double mean_gap = kDeadline / kRequestsPerWindow;
        do {
            t_ += 2.0 * mean_gap * rng_.uniform();
            const double u = rng_.uniform() * cum_.back();
            const auto rank = static_cast<NodeId>(
                std::lower_bound(cum_.begin(), cum_.end(), u) -
                cum_.begin());
            window_.push_back({t_, perm_[std::min<NodeId>(
                                       rank, perm_.size() - 1)]});
        } while (t_ < end || window_.empty());
        return window_;
    }

  private:
    Rng rng_;
    std::vector<NodeId> perm_;
    std::vector<double> cum_;
    std::vector<serve::ServeRequest> window_;
    std::uint64_t windows_ = 0;
    double t_ = 0.0;
};

} // namespace

Inputs
rmatInputs(std::uint64_t seed, std::uint32_t scale, EdgeId edges,
           double train_fraction)
{
    Rng graph_rng(rngKey(seed, 0x5A3Dull, 1));
    Inputs in = makeInputs(rmat(scale, edges, graph_rng), kClasses,
                           kFeatures, train_fraction, seed);
    note("graph rmat(" + std::to_string(scale) + ", " +
         std::to_string(edges) + "): " +
         std::to_string(in.data.graph.numNodes()) + " nodes, " +
         std::to_string(in.data.graph.numEdges()) + " edges");
    return in;
}

void
runSampledServe(const RunOptions &opt, Sheet &sheet, Tracer &tracer)
{
    Inputs in = rmatInputs(opt.seed, kScale, kEdges, kTrainFraction);
    const CsrGraph &g = in.data.graph;
    const nn::ModelConfig cfg = modelConfig(opt.seed);
    sample::SamplerConfig scfg;
    scfg.fanouts = {8, 4};
    scfg.batchSize = 32;
    scfg.seed = rngKey(opt.seed, 0x5A3Dull, 5);

    sample::SampledTrainConfig tc;
    tc.epochs = kEpochs;
    tc.lr = 0.001f;
    tc.evalEvery = 1;
    tc.pipeline = true;
    tc.queueDepth = 2;

    // Set-up = trainer construction + warm-up epoch + serving session
    // construction (presample + pin) + warm-up replay. The last
    // repetition trains as many epochs as fill the training share of the
    // measuring time (at least kEpochs); every epoch after its first is
    // steady.
    std::vector<double> setups, warm_epochs, steady, losses;
    std::uint32_t epochs = kEpochs;
    std::optional<double> first_loss;
    std::optional<nn::GnnModel> model;
    std::optional<serve::ServeSession> session;
    sample::SampledTrainResult result;
    NodeId capacity = 0;
    const std::vector<serve::ServeRequest> warm_window =
        RequestStream(g.numNodes(), opt.seed ^ 0x77ull).next();
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const auto t0 = Clock::now();
        model.emplace(cfg);
        sample::SampledTrainer trainer(*model, in.data, in.task, scfg);
        capacity = trainer.sampler().nodeCapacity();
        double setup_s = secondsSince(t0);
        if (rep + 1 < kSetupReps) {
            sample::SampledTrainConfig warm = tc;
            warm.epochs = 1;
            const sample::SampledTrainResult r = trainer.run(warm);
            setup_s += r.hostSeconds;
            warm_epochs.push_back(r.hostSeconds);
            checkLosses(sheet, r.trainLoss, first_loss);
        } else {
            epochs = epochsFor(kTrainShare * opt.seconds,
                               median(warm_epochs), kEpochs);
            EpochClock clock("sampled_trainer.epoch");
            sample::SampledTrainConfig timed = tc;
            timed.epochs = epochs;
            timed.faults = clock.injector();
            clock.start();
            result = trainer.run(timed);
            const std::vector<double> times = clock.stop();
            checkLosses(sheet, result.trainLoss, first_loss);
            losses.assign(result.trainLoss.begin(),
                          result.trainLoss.begin() +
                              std::min<std::size_t>(kEpochs,
                                                    result.trainLoss.size()));
            sheet.attempt(times.size() == epochs,
                          "epoch clock saw the wrong epoch count");
            if (times.size() != epochs)
                break;
            setup_s += times[0];
            steady.assign(times.begin() + 1, times.end());
        }
        const auto t1 = Clock::now();
        session.emplace(*model, g, in.data.features,
                        serveConfig(opt.seed, true));
        const auto warm_reply = session->replay(warm_window);
        sheet.attempt(warm_reply.hasValue(), "warm-up replay failed");
        setups.push_back(setup_s + secondsSince(t1));
    }
    reportTraining(sheet, setups, steady, losses);
    checkAggregationSample(sheet, cfg, g, opt.seed);
    if (steady.empty())
        return;

    // ---- serving: closed loop, one client, one window per call.
    RequestStream stream(g.numNodes(), opt.seed);
    std::vector<double> req_ms, sim_latency;
    std::vector<std::vector<serve::ServeRequest>> verify_windows;
    std::vector<Matrix> verify_logits;
    double busy_s = 0.0;
    std::uint64_t hits = 0, misses = 0, recomputed = 0, injected = 0,
                  batches = 0, count_requests = 0, serve_allocs = 0;
    // Serving gets what the steady training epochs left of the
    // measuring time, and at least kMinServeSeconds.
    double serve_s = opt.seconds;
    for (double e : steady)
        serve_s -= e;
    serve_s = std::max(serve_s, kMinServeSeconds);
    const auto serve_t0 = Clock::now();
    for (std::size_t w = 0;
         w < kCountWindows || secondsSince(serve_t0) < serve_s; ++w) {
        const std::vector<serve::ServeRequest> &reqs = stream.next();
        const auto c0 = Clock::now();
        std::int64_t span = tracer.begin("serve.replay");
        auto reply = session->replay(reqs);
        tracer.end(span);
        const double ms = secondsSince(c0) * 1e3;
        sheet.attempt(reply.hasValue(), "replay returned a ServeError");
        if (!reply)
            continue;
        const serve::ServeReport &rep = reply.value();
        busy_s += ms * 1e-3;
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            req_ms.push_back(ms);
            sheet.attempt(rep.requestOutcome[i] !=
                              serve::ServeReport::kOutcomeShed,
                          "request shed");
        }
        serve_allocs += rep.steadyStateAllocCount;
        if (w < kCountWindows) {
            hits += rep.cacheHits;
            misses += rep.cacheMisses;
            recomputed += rep.nodesRecomputed;
            injected += rep.nodesInjected;
            batches += rep.batches;
            count_requests += rep.requests;
            sim_latency.insert(sim_latency.end(),
                               rep.latencySimSeconds.begin(),
                               rep.latencySimSeconds.end());
        }
        if (w < kVerifyWindows) {
            verify_windows.push_back(reqs);
            verify_logits.push_back(rep.logits);
        }
    }
    sheet.set("serve.req_per_s",
              static_cast<double>(req_ms.size()) / busy_s, "req/s");
    sheet.set("serve.ms_p50", percentile(req_ms, 50.0), "ms");
    sheet.set("serve.ms_p99", percentile(req_ms, 99.0), "ms");
    sheet.set("serve.requests", static_cast<double>(req_ms.size()),
              "count");
    sheet.set("serve.sim_p99_us", percentile(sim_latency, 99.0) * 1e6,
              "us");
    sheet.set("serve.hit_ratio",
              hits + misses ? static_cast<double>(hits) / (hits + misses)
                            : 0.0,
              "ratio");
    sheet.set("serve.rows_recomputed_per_req",
              static_cast<double>(recomputed) / count_requests, "rows");
    sheet.set("serve.rows_injected_per_req",
              static_cast<double>(injected) / count_requests, "rows");
    // Padded rows per batch: the session's node capacity in every layer.
    sheet.set("serve.useful_row_ratio",
              static_cast<double>(recomputed) /
                  (static_cast<double>(batches) *
                   session->nodeCapacity() * cfg.numLayers),
              "ratio");
    sheet.set("serve.steady_allocs", static_cast<double>(serve_allocs),
              "count");
    note("served " + std::to_string(req_ms.size()) + " requests");

    // Cached serving must be bitwise-equal to a cache-off session.
    serve::ServeSession uncached(*model, g, in.data.features,
                                 serveConfig(opt.seed, false));
    for (std::size_t w = 0; w < verify_windows.size(); ++w) {
        auto reply = uncached.replay(verify_windows[w]);
        sheet.attempt(reply.hasValue() &&
                          bitwiseEqual(reply.value().logits,
                                       verify_logits[w]),
                      "cached logits != cache-off logits");
    }

    if (!opt.trace)
        return;

    // ---- traced epoch: the trainer's pipeline stages run in order,
    // one span per call (sampler, extractor, training step, eval).
    sample::NeighborSampler sampler(g, scfg);
    sample::MinibatchExtractor extractor(
        capacity, nn::aggregatorFor(cfg.kind), in.data.features,
        in.data.labels);
    nn::GnnModel eval_model(cfg);
    nn::Adam adam(model->params(), tc.lr);
    std::vector<NodeId> train_ids, order, seeds;
    for (NodeId v = 0; v < g.numNodes(); ++v)
        if (in.data.trainMask[v])
            train_ids.push_back(v);
    const std::uint32_t nb = sampler.numBatches(train_ids.size());
    sample::SampleBatch sb;
    sample::Minibatch mb;
    Matrix grad, probs;
    PhaseTotals step, eval;
    PhaseReplay step_replay(tracer, 0, step), eval_replay(tracer, 0, eval);
    double steps_ms = 0.0, eval_ms = 0.0;
    std::uint32_t epoch_index = epochs;
    const auto epoch = [&] {
        const std::uint32_t e = epoch_index++;
        sampler.epochOrder(e, train_ids, order);
        for (std::uint32_t b = 0; b < nb; ++b) {
            const std::size_t lo = std::size_t(b) * scfg.batchSize;
            const std::size_t hi =
                std::min<std::size_t>(lo + scfg.batchSize, order.size());
            seeds.assign(order.begin() + lo, order.begin() + hi);
            {
                Scope s(tracer, "sample.sample");
                sampler.sample(e, b, seeds, sb);
            }
            {
                Scope s(tracer, "sample.extract");
                extractor.extract(sb, mb);
            }
            Scope s(tracer, "sample.step", 0, &steps_ms);
            const Matrix &logits =
                step_replay.forward(*model, mb.graph, mb.features, true);
            {
                Scope l(tracer, "nn.loss", 0, &step.loss);
                nn::softmaxCrossEntropyInto(logits, mb.labels, mb.trainMask,
                                            0, grad, probs);
            }
            step_replay.backward(*model, mb.graph, grad);
            Scope o(tracer, "nn.optim", 0, &step.optim);
            adam.step();
        }
        Scope s(tracer, "nn.eval", 0, &eval_ms);
        const nn::ParamRefs src = model->params(), dst = eval_model.params();
        for (std::size_t i = 0; i < src.size(); ++i)
            dst[i]->value = src[i]->value;
        const Matrix &logits =
            eval_replay.forward(eval_model, g, in.data.features, false);
        nn::accuracy(logits, in.data.labels, in.data.valMask);
        nn::accuracy(logits, in.data.labels, in.data.testMask);
    };
    // The warm-up epoch fills the replay's own buffers.
    epoch();
    step = PhaseTotals{};
    eval = PhaseTotals{};
    steps_ms = eval_ms = 0.0;
    const TracedEpochs traced = traceEpochs(tracer, 0, epoch);
    const double epoch_s = median(steady);
    reportTraceQuality(sheet, tracer, traced, epoch_s);
    step = step.scaled(1.0 / kTracedEpochs);
    PhaseTotals total = step;
    total += eval.scaled(1.0 / kTracedEpochs);
    reportPhases(sheet, total);
    {
        const Matrix replayed = eval_replay.forward(eval_model, g,
                                                    in.data.features, false);
        sheet.attempt(bitwiseEqual(replayed, eval_model.forward(
                                                 g, in.data.features, false)),
                      "phase replay logits != GnnModel::forward");
    }

    // Per-batch medians over the measured epochs (the warm-up epoch's
    // nb spans come first).
    const auto measured = [&](const char *name) {
        const std::vector<double> d = tracer.durationsMs(name);
        return median(std::vector<double>(d.begin() + nb, d.end()));
    };
    sheet.set("sample.sample_ms", measured("sample.sample"), "ms");
    sheet.set("sample.extract_ms", measured("sample.extract"), "ms");
    sheet.set("sample.step_ms", measured("sample.step"), "ms");
    sheet.set("sample.useful_row_ratio",
              static_cast<double>(result.sampledNodes) /
                  (static_cast<double>(result.batchesTrained) * capacity),
              "ratio");
    sheet.set("sample.exposed_ms_per_batch",
              (epoch_s * 1e3 - (steps_ms + eval_ms) / kTracedEpochs) / nb,
              "ms");
    sheet.set("tensor.steady_allocs",
              static_cast<double>(result.steadyStateAllocCount) /
                  (epochs - 2),
              "count");

    // ---- isolated probes on the last minibatch and its activation.
    probeLayers(sheet, cfg, mb.graph,
                layerActivation(model->layers()[0], kMaxK),
                step.scaled(1.0 / nb), opt.seed);
    zeroLayer(sheet, "dist.");
}

} // namespace hostbench
