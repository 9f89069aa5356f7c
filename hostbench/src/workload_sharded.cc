/**
 * @file
 * sharded-2: dist::ShardedTrainer with 2 ranks (bfsPartition) trains
 * the full-batch MaxK-SAGE model on an rmat(11, 50k) power-law graph.
 */

#include <algorithm>
#include <cstring>
#include <optional>

#include "common/rng.hh"
#include "dist/comm.hh"
#include "dist/halo.hh"
#include "dist/sharded_model.hh"
#include "dist/sharded_trainer.hh"
#include "layers.hh"
#include "nn/distributed.hh"
#include "nn/loss.hh"
#include "tensor/init.hh"
#include "workloads.hh"

namespace hostbench
{

using namespace maxk;

namespace
{

constexpr std::uint32_t kRanks = 2;
constexpr std::uint32_t kScale = 11;
constexpr EdgeId kEdges = 50000;
/** loss_final is the loss of this epoch; the timed run trains at least
 *  this many. */
constexpr std::uint32_t kEpochs = 4;
constexpr int kSetupReps = 5;
/** Exchange round trips timed per rank in the isolated probe. */
constexpr int kExchangeReps = 20;

/** What one rank's traced epoch hands back to the main thread. */
struct RankTrace
{
    PhaseTotals step, eval;
    TracedEpochs traced;
    Activation layer0;
};

} // namespace

void
runSharded(const RunOptions &opt, Sheet &sheet, Tracer &tracer)
{
    // Full-batch cost does not depend on the split, so the loss averages
    // over the same 60% training split as the full-batch workloads.
    Inputs in = rmatInputs(opt.seed, kScale, kEdges, 0.6);
    const CsrGraph &g = in.data.graph;
    const nn::ModelConfig cfg =
        fullModelConfig(nn::Nonlinearity::MaxK, opt.seed);
    Rng part_rng(rngKey(opt.seed, 0xD157ull, 1));
    const Partition part = bfsPartition(g, kRanks, part_rng);

    nn::TrainConfig tc;
    tc.epochs = kEpochs;
    tc.lr = 0.01f;
    tc.evalEvery = 1;
    tc.seed = opt.seed;

    // Set-up = trainer construction (halo plan) + the warm-up epoch
    // (rank threads, replicas, workspaces). The last repetition trains
    // as many epochs as fill the measuring time (at least kEpochs);
    // every epoch after its first is steady.
    std::vector<double> setups, warm_epochs, steady, losses;
    std::uint32_t epochs = kEpochs;
    std::optional<double> first_loss;
    dist::ShardedTrainResult result;
    std::optional<dist::ShardedTrainer> trainer;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const auto t0 = Clock::now();
        trainer.emplace(cfg, in.data, in.task, part);
        const double construct_s = secondsSince(t0);
        if (rep + 1 < kSetupReps) {
            nn::TrainConfig warm = tc;
            warm.epochs = 1;
            const dist::ShardedTrainResult r = trainer->run(warm);
            setups.push_back(construct_s + r.train.hostSeconds);
            warm_epochs.push_back(r.train.hostSeconds);
            checkLosses(sheet, r.train.trainLoss, first_loss);
            continue;
        }
        epochs = epochsFor(opt.seconds, median(warm_epochs), kEpochs);
        EpochClock clock("sharded.epoch");
        nn::TrainConfig timed = tc;
        timed.epochs = epochs;
        timed.faults = clock.injector();
        clock.start();
        result = trainer->run(timed);
        const std::vector<double> times = clock.stop();
        checkLosses(sheet, result.train.trainLoss, first_loss);
        losses.assign(result.train.trainLoss.begin(),
                      result.train.trainLoss.begin() +
                          std::min<std::size_t>(
                              kEpochs, result.train.trainLoss.size()));
        sheet.attempt(times.size() == epochs,
                      "epoch clock saw the wrong epoch count");
        if (times.size() != epochs)
            break;
        setups.push_back(construct_s + times[0]);
        steady.assign(times.begin() + 1, times.end());
    }
    reportTraining(sheet, setups, steady, losses);
    checkAggregationSample(sheet, cfg, g, opt.seed);
    if (steady.empty())
        return;

    // Measured halo traffic must reconcile with the analytical model.
    nn::ClusterConfig cluster;
    cluster.numGpus = kRanks;
    SimOptions sim;
    sim.simulateCaches = false;
    const nn::DistributedEpochTiming model =
        nn::profileDistributedEpoch(cfg, g, part, cluster, sim);
    sheet.attempt(result.trainHaloBytes == model.exchangedBytes * epochs,
                  "trainHaloBytes != profileDistributedEpoch bytes x epochs");

    if (!opt.trace)
        return;

    const dist::HaloPlan &plan = trainer->plan();
    std::uint64_t local_rows = 0, halo_rows = 0;
    for (const dist::HaloShard &s : plan.shards) {
        local_rows += s.localGlobal.size();
        halo_rows += s.haloGlobal.size();
    }
    sheet.set("dist.halo_bytes_per_epoch",
              static_cast<double>(result.trainHaloBytes) / epochs, "B");
    sheet.set("dist.reduce_bytes_per_epoch",
              static_cast<double>(result.reduceBytes) / epochs, "B");
    sheet.set("dist.halo_ratio",
              static_cast<double>(halo_rows) / static_cast<double>(local_rows),
              "ratio");
    sheet.set("tensor.steady_allocs",
              static_cast<double>(result.steadyStateAllocCount) /
                  (epochs - 2),
              "count");

    // ---- traced epoch: each rank replays ShardedTrainer's epoch phase
    // by phase on its own lane (rank r -> lane r + 1).
    std::size_t train_count = 0;
    for (std::uint8_t m : in.data.trainMask)
        train_count += m;
    std::vector<RankTrace> ranks(kRanks);
    std::vector<int> replay_ok(kRanks, 0);
    std::vector<double> exchange_ms(kRanks, 0.0);
    const std::size_t feat_dim = in.data.features.cols();
    dist::CommWorld world(kRanks);
    world.run([&](dist::Communicator &comm) {
        const std::uint32_t r = comm.rank();
        const std::uint32_t lane = r + 1;
        const dist::HaloShard &shard = plan.shards[r];
        Matrix features(shard.numExt(), feat_dim);
        std::vector<std::uint32_t> labels(shard.numExt(), 0);
        std::vector<std::uint8_t> mask(shard.numExt(), 0);
        for (NodeId i = 0; i < shard.numLocal(); ++i) {
            const NodeId v = shard.localGlobal[i];
            std::copy(in.data.features.row(v),
                      in.data.features.row(v) + feat_dim, features.row(i));
            labels[i] = in.data.labels[v];
            mask[i] = in.data.trainMask[v];
        }
        dist::ShardedModel model(cfg, shard);
        dist::HaloExchange ex(shard);
        nn::Adam adam(model.inner().params(), tc.lr);
        const nn::ParamRefs params = model.inner().params();
        RankTrace &rt = ranks[r];
        PhaseReplay step_replay(tracer, lane, rt.step);
        PhaseReplay eval_replay(tracer, lane, rt.eval);
        const PhaseReplay::Seam forward_seam = [&](nn::GnnLayer &layer) {
            if (layer.activationIsCbsr())
                ex.exchangeCbsr(comm, layer.activationCbsr());
            else
                ex.exchangeDense(comm, layer.activationDense());
        };
        const PhaseReplay::Seam backward_seam = [&](nn::GnnLayer &layer) {
            if (layer.activationIsCbsr())
                ex.reverseCbsr(comm, layer.gradAggCbsr());
            else
                ex.reverseDense(comm, layer.gradAggDense());
        };
        Matrix grad, probs, eval_logits;
        const auto epoch = [&] {
            const Matrix *logits = nullptr;
            {
                Scope s(tracer, "nn.forward", lane);
                logits = &step_replay.forward(model.inner(), shard.extGraph,
                                              features, true, forward_seam);
            }
            double loss = 0.0;
            {
                Scope s(tracer, "nn.loss", lane, &rt.step.loss);
                loss = nn::softmaxCrossEntropyInto(*logits, labels, mask,
                                                   train_count, grad, probs);
            }
            {
                Scope s(tracer, "nn.backward", lane);
                step_replay.backward(model.inner(), shard.extGraph, grad,
                                     backward_seam);
            }
            {
                Scope s(tracer, "dist.allreduce", lane);
                comm.allReduceSum(&loss, 1);
                for (nn::Param *p : params)
                    comm.allReduceSum(p->grad.data(), p->grad.size());
            }
            {
                Scope s(tracer, "nn.optim", lane, &rt.step.optim);
                adam.step();
            }
            Scope s(tracer, "nn.eval", lane);
            eval_logits = eval_replay.forward(model.inner(), shard.extGraph,
                                              features, false, forward_seam);
        };
        // The warm-up epoch fills the replay's own buffers; each epoch
        // starts together on both ranks, as in ShardedTrainer.
        const auto aligned_epoch = [&] {
            comm.barrier();
            epoch();
        };
        aligned_epoch();
        rt.step = PhaseTotals{};
        rt.eval = PhaseTotals{};
        rt.traced = traceEpochs(tracer, lane, aligned_epoch);

        const Matrix &ref = model.forward(comm, ex, features, false);
        const std::size_t local_bytes =
            std::size_t(shard.numLocal()) * ref.cols() * sizeof(Float);
        replay_ok[r] = ref.rows() == eval_logits.rows() &&
                       ref.cols() == eval_logits.cols() &&
                       std::memcmp(ref.data(), eval_logits.data(),
                                   local_bytes) == 0;
        rt.layer0 = layerActivation(model.inner().layers()[0], cfg.maxkK);

        // Isolated exchange probe: CBSR forward + reverse round trips.
        comm.barrier();
        Rng rng(rngKey(opt.seed, 0xD157ull, 2 + r));
        Matrix y(shard.numExt(), cfg.hiddenDim);
        fillNormal(y, rng, 0.0f, 1.0f);
        CbsrMatrix m;
        nn::maxkCompressFast(y, cfg.maxkK, m);
        std::vector<double> ms;
        for (int i = 0; i <= kExchangeReps; ++i) {
            comm.barrier();
            const auto t0 = Clock::now();
            ex.exchangeCbsr(comm, m);
            ex.reverseCbsr(comm, m);
            if (i > 0)
                ms.push_back(secondsSince(t0) * 1e3);
        }
        exchange_ms[r] = median(ms);
    });

    // The slowest rank sets the epoch time.
    std::uint32_t slow = 0;
    for (std::uint32_t r = 1; r < kRanks; ++r)
        if (median(ranks[r].traced.ms) > median(ranks[slow].traced.ms))
            slow = r;
    const RankTrace &rt = ranks[slow];
    for (std::uint32_t r = 0; r < kRanks; ++r)
        sheet.attempt(replay_ok[r] != 0,
                      "phase replay logits != ShardedModel::forward");
    reportTraceQuality(sheet, tracer, rt.traced, median(steady));
    const PhaseTotals step = rt.step.scaled(1.0 / kTracedEpochs);
    PhaseTotals total = step;
    total += rt.eval.scaled(1.0 / kTracedEpochs);
    reportPhases(sheet, total);
    sheet.set("dist.exchange_ms",
              *std::max_element(exchange_ms.begin(), exchange_ms.end()),
              "ms");

    // ---- isolated probes on the slowest rank's shard.
    probeLayers(sheet, cfg, plan.shards[slow].extGraph, rt.layer0, step,
                opt.seed);
    zeroLayer(sheet, "sample.");
    zeroLayer(sheet, "serve.");
}

} // namespace hostbench
