/**
 * @file
 * maxk-faults: replay the named fault-injection scenarios end-to-end
 * (ISSUE 9). Each scenario builds FaultPlan::named(<name>, seed), arms
 * a FaultInjector, drives the real subsystem against it, and checks
 * that the failure lands exactly where the plan scheduled it — plus
 * that recovery (retry, checkpoint fallback, load shedding) behaves as
 * documented:
 *
 *   maxk-faults rank-throw     kill one sharded rank mid-run, resume
 *                              from checkpoint, prove bitwise-equal
 *                              trajectories to the uninterrupted run
 *   maxk-faults comm-timeout   transient collective timeout absorbed by
 *                              retry, then a fatal one that aborts the
 *                              world with the typed CommTimeout
 *   maxk-faults ckpt-corrupt   bit-flip + truncate checkpoint images at
 *                              write; resume falls back past them to
 *                              the newest good image, bitwise-correct
 *   maxk-faults serve-burst    deadline-violating request burst at
 *                              replay entry; overload policy sheds to
 *                              keep the served tail bounded
 *
 * Everything is keyed on --seed: the same seed replays the identical
 * failure (same site, same occurrence, same rank) every time.
 *
 * Exit status: 0 scenario behaved as specified, 1 it did not, 2 usage.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/fault.hh"
#include "common/rng.hh"
#include "dist/comm.hh"
#include "dist/sharded_trainer.hh"
#include "graph/formats/checkpoint.hh"
#include "graph/partition.hh"
#include "graph/registry.hh"
#include "nn/model.hh"
#include "nn/trainer.hh"
#include "sample/sampled_trainer.hh"
#include "serve/session.hh"

#include "scenario.hh"

using namespace maxk;
using tools::check;
using tools::smallModel;
using tools::smallTask;

namespace
{

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s <scenario> [options]\n"
        "\n"
        "Replay a named fault-injection scenario end-to-end and verify\n"
        "the documented recovery behaviour.\n"
        "\n"
        "scenarios:\n"
        "  rank-throw    kill a sharded rank, resume from checkpoint\n"
        "  comm-timeout  transient retry + fatal collective timeout\n"
        "  ckpt-corrupt  corrupt checkpoint images, fall back on resume\n"
        "  serve-burst   request burst sheds under a latency budget\n"
        "\n"
        "options:\n"
        "  --seed N   scenario key (default 42); the same seed replays\n"
        "             the identical failure\n"
        "  --dir D    scratch directory for checkpoint scenarios\n"
        "             (default: a fresh directory under the system\n"
        "             temp dir, removed on success)\n",
        argv0);
    return 2;
}

/** Print the plan so the replay is auditable. */
void
printPlan(const FaultPlan &plan)
{
    for (const FaultSpec &s : plan.specs())
        std::printf("plan: %s at '%s' occurrence %llu rank %s%s\n",
                    faultKindName(s.kind), s.site.c_str(),
                    static_cast<unsigned long long>(s.occurrence),
                    s.rank == kAnyRank ? "any"
                                       : std::to_string(s.rank).c_str(),
                    s.transient ? " (transient)" : "");
}

/* ------------------------------------------------------- rank-throw */

int
runRankThrow(std::uint64_t seed, const std::string &dir)
{
    FaultInjector inj(FaultPlan::named("rank-throw", seed));
    printPlan(inj.plan());

    const TrainingTask task = smallTask(400);
    Rng rng(31);
    TrainingData data = materializeTrainingData(task, rng);
    const nn::ModelConfig cfg = smallModel(task);
    Rng prng(77);
    const Partition parts = bfsPartition(data.graph, 3, prng);

    nn::TrainConfig tc;
    tc.epochs = 8;
    tc.evalEvery = 2;

    // Uninterrupted reference run (no checkpointing, no faults).
    dist::ShardedTrainer ref_trainer(cfg, data, task, parts);
    const dist::ShardedTrainResult ref = ref_trainer.run(tc);

    // Faulted run: the scheduled rank dies at its epoch boundary.
    tc.checkpointDir = dir;
    tc.checkpointKeep = 4;
    tc.faults = &inj;
    bool fired = false;
    try {
        dist::ShardedTrainer trainer(cfg, data, task, parts);
        trainer.run(tc);
    } catch (const InjectedFault &f) {
        fired = true;
        std::printf("fired: %s\n", f.what());
    }
    if (!check(fired, "scheduled rank failure fired")) return 1;

    // Resume: a fresh trainer picks up the newest checkpoint and must
    // land bitwise-equal to the uninterrupted run.
    tc.faults = nullptr;
    dist::ShardedTrainer resumed(cfg, data, task, parts);
    const dist::ShardedTrainResult got = resumed.run(tc);
    bool ok = true;
    ok &= check(got.train.trainLoss == ref.train.trainLoss,
                "resumed loss trajectory bitwise-equal");
    ok &= check(got.train.valMetric == ref.train.valMetric &&
                    got.train.testMetric == ref.train.testMetric,
                "resumed metric trajectories bitwise-equal");
    ok &= check(got.finalLogits.equals(ref.finalLogits),
                "resumed final logits bitwise-equal");
    return ok ? 0 : 1;
}

/* ----------------------------------------------------- comm-timeout */

int
runCommTimeout(std::uint64_t seed)
{
    FaultInjector inj(FaultPlan::named("comm-timeout", seed));
    printPlan(inj.plan());

    // Drive the collectives directly: enough iterations that both the
    // transient allReduceSum fault (occurrence < 4) and the fatal
    // allToAllv one (occurrence 4..7) are reached.
    dist::CommWorld world(2);
    world.setFaultInjector(&inj);
    bool fatal_seen = false;
    std::string fatal_what;
    try {
        world.run([](dist::Communicator &comm) {
            std::vector<Float> acc(64, 1.0f);
            std::vector<std::vector<std::uint8_t>> send(2), recv;
            for (std::uint32_t d = 0; d < 2; ++d)
                send[d].assign(16, static_cast<std::uint8_t>(d));
            for (int iter = 0; iter < 12; ++iter) {
                comm.allReduceSum(acc.data(), acc.size());
                comm.allToAllv(send, recv, dist::CommChannel::Halo);
            }
        });
    } catch (const dist::CommTimeout &t) {
        fatal_seen = true;
        fatal_what = t.what();
    }
    bool ok = true;
    ok &= check(world.totalTransientRetries() == 1,
                "transient timeout absorbed by exactly one retry");
    ok &= check(fatal_seen, "fatal timeout surfaced as typed CommTimeout");
    if (fatal_seen)
        std::printf("fired: %s\n", fatal_what.c_str());
    ok &= check(inj.visits("comm.allToAllv", 0) > 0 ||
                    inj.visits("comm.allToAllv", 1) > 0,
                "allToAllv hook site visited");
    return ok ? 0 : 1;
}

/* ----------------------------------------------------- ckpt-corrupt */

int
runCkptCorrupt(std::uint64_t seed, const std::string &dir)
{
    FaultInjector inj(FaultPlan::named("ckpt-corrupt", seed));
    printPlan(inj.plan());

    // The truncate spec lands on save occurrence T; stop run 1 right
    // after it so the NEWEST image on disk is the truncated one and
    // resume must fall back.
    std::uint64_t trunc_occ = 0;
    for (const FaultSpec &s : inj.plan().specs())
        if (s.kind == FaultKind::CheckpointTruncate)
            trunc_occ = s.occurrence;

    const TrainingTask task = smallTask(300);
    Rng rng(41);
    TrainingData data = materializeTrainingData(task, rng);
    const nn::ModelConfig cfg = smallModel(task);

    nn::TrainConfig tc;
    tc.epochs = 10;
    tc.evalEvery = 2;

    // Uninterrupted reference.
    nn::GnnModel ref_model(cfg);
    nn::Trainer ref_trainer(ref_model, data, task);
    const nn::TrainResult ref = ref_trainer.run(tc);

    // Run 1: checkpoint every epoch through the corrupting injector,
    // "crashing" (stopping) right after the truncated save.
    tc.checkpointDir = dir;
    tc.checkpointKeep = 16;
    tc.faults = &inj;
    tc.epochs = static_cast<std::uint32_t>(trunc_occ) + 1;
    {
        nn::GnnModel model(cfg);
        nn::Trainer trainer(model, data, task);
        trainer.run(tc);
    }

    // The store must reject the damaged images and fall back.
    formats::CheckpointStore store(dir, "trainer", 16);
    std::vector<IoError> skipped;
    auto latest = store.loadLatest(&skipped);
    bool ok = true;
    ok &= check(latest.hasValue(), "a verifiable checkpoint survives");
    if (!latest.hasValue())
        return 1;
    for (const IoError &e : skipped)
        std::printf("rejected: %s\n", e.describe().c_str());
    ok &= check(!skipped.empty(),
                "corrupted image detected and skipped");
    ok &= check(latest.value().epoch < trunc_occ,
                "fell back past the truncated newest image");
    std::printf("resuming from epoch %llu\n",
                static_cast<unsigned long long>(latest.value().epoch));

    // Run 2: resume to the full horizon; must be bitwise-equal to the
    // uninterrupted run despite the corrupt images in between.
    tc.faults = nullptr;
    tc.epochs = 10;
    nn::GnnModel model(cfg);
    nn::Trainer trainer(model, data, task);
    const nn::TrainResult got = trainer.run(tc);
    ok &= check(got.trainLoss == ref.trainLoss,
                "resumed loss trajectory bitwise-equal");
    ok &= check(got.valMetric == ref.valMetric &&
                    got.testMetric == ref.testMetric,
                "resumed metric trajectories bitwise-equal");
    return ok ? 0 : 1;
}

/* ------------------------------------------------------ serve-burst */

int
runServeBurst(std::uint64_t seed)
{
    const FaultPlan plan = FaultPlan::named("serve-burst", seed);
    printPlan(plan);
    std::uint64_t planned_burst = 0;
    for (const FaultSpec &s : plan.specs())
        if (s.kind == FaultKind::ServeBurst)
            planned_burst = s.payload;

    const TrainingTask task = smallTask(400);
    Rng rng(51);
    TrainingData data = materializeTrainingData(task, rng);
    nn::ModelConfig mcfg = smallModel(task);
    nn::GnnModel model(mcfg);
    tools::trainSampled(model, data, task, 909, 2);

    // A steady trickle of requests; the injected burst all arrives at
    // once at the tail, deeper than one batch, so the serialized queue
    // model must stack burst batches behind each other.
    const std::vector<serve::ServeRequest> trace =
        tools::steadyTrace(64, seed, data.graph.numNodes());

    serve::ServeConfig scfg;
    scfg.fanout = 6;
    scfg.cacheFraction = 0.25;
    scfg.lruSlots = 32;
    scfg.seed = seed;

    // Pass 1: replay the burst with an unreachable budget (queue model
    // armed, nothing shed) to measure what the overload actually costs.
    FaultInjector measure_inj(plan);
    serve::ServeConfig mcfg2 = scfg;
    mcfg2.faults = &measure_inj;
    mcfg2.latencyBudgetSimSeconds = 1e9;
    serve::ServeSession measure(model, data.graph, data.features, mcfg2);
    auto unshed = measure.replay(trace);
    if (!unshed.hasValue()) {
        std::printf("measurement replay rejected: %s\n",
                    unshed.error().message.c_str());
        return 1;
    }
    const serve::ServeReport &u = unshed.value();
    bool ok = true;
    ok &= check(u.burstRequests == planned_burst,
                "burst size matches the plan payload");
    ok &= check(u.requests == trace.size() + planned_burst,
                "burst requests appended to the trace");

    // Per-batch worst latency == the shed policy's projection, so a
    // budget strictly between the tamest and worst batch must shed some
    // batches and serve others.
    std::vector<double> batch_worst(u.batchStats.size(), 0.0);
    for (std::size_t i = 0; i < u.latencySimSeconds.size(); ++i) {
        double &w = batch_worst[u.requestBatch[i]];
        if (u.latencySimSeconds[i] > w)
            w = u.latencySimSeconds[i];
    }
    double bmin = batch_worst[0], bmax = batch_worst[0];
    for (double w : batch_worst) {
        if (w < bmin) bmin = w;
        if (w > bmax) bmax = w;
    }
    ok &= check(bmax > bmin,
                "queue model stacks burst batches (latencies spread)");
    const double budget = 0.5 * (bmin + bmax);
    std::printf("batch worst latency %.6fms..%.6fms -> budget %.6fms\n",
                bmin * 1e3, bmax * 1e3, budget * 1e3);

    // Pass 2: same burst, shedding armed at the calibrated budget.
    FaultInjector shed_inj(plan);
    serve::ServeConfig scfg2 = scfg;
    scfg2.faults = &shed_inj;
    scfg2.latencyBudgetSimSeconds = budget;
    scfg2.shedOnOverload = true;
    serve::ServeSession session(model, data.graph, data.features, scfg2);
    auto rep = session.replay(trace);
    if (!rep.hasValue()) {
        std::printf("replay rejected: %s\n", rep.error().message.c_str());
        return 1;
    }
    const serve::ServeReport &r = rep.value();
    std::printf("requests %llu (burst %llu)  shed %llu  p99 %.6fms\n",
                static_cast<unsigned long long>(r.requests),
                static_cast<unsigned long long>(r.burstRequests),
                static_cast<unsigned long long>(r.sheddedRequests),
                r.p99LatencySimSeconds * 1e3);
    ok &= check(r.sheddedRequests > 0,
                "overload policy shed the over-budget batches");
    ok &= check(r.sheddedRequests < r.requests,
                "under-budget traffic still served");
    ok &= check(r.p99LatencySimSeconds <= budget * (1.0 + 1e-9),
                "served p99 bounded by the latency budget");
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage(argv[0]);
    std::string scenario;
    std::string dir;
    std::uint64_t seed = 42;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: %s needs a value\n", argv[0],
                             flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--seed")
            seed = static_cast<std::uint64_t>(std::atoll(next("--seed")));
        else if (arg == "--dir")
            dir = next("--dir");
        else if (arg == "--help" || arg == "-h")
            return usage(argv[0]);
        else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "%s: unknown option %s\n", argv[0],
                         arg.c_str());
            return usage(argv[0]);
        } else if (scenario.empty())
            scenario = arg;
        else
            return usage(argv[0]);
    }
    if (scenario.empty())
        return usage(argv[0]);

    bool made_dir = false;
    if (scenario == "rank-throw" || scenario == "ckpt-corrupt") {
        std::error_code ec;
        if (dir.empty()) {
            dir = (std::filesystem::temp_directory_path(ec) /
                   ("maxk-faults-" + scenario + "-" +
                    std::to_string(seed)))
                      .string();
            made_dir = true;
        }
        // The scenarios assume a fresh store: a stale image would make
        // run 1 resume instead of starting the scripted failure.
        std::filesystem::remove_all(dir, ec);
    }

    int rc = 2;
    if (scenario == "rank-throw")
        rc = runRankThrow(seed, dir);
    else if (scenario == "comm-timeout")
        rc = runCommTimeout(seed);
    else if (scenario == "ckpt-corrupt")
        rc = runCkptCorrupt(seed, dir);
    else if (scenario == "serve-burst")
        rc = runServeBurst(seed);
    else {
        std::fprintf(stderr,
                     "%s: unknown scenario '%s' (known: rank-throw, "
                     "comm-timeout, ckpt-corrupt, serve-burst)\n",
                     argv[0], scenario.c_str());
        return usage(argv[0]);
    }

    if (rc == 0 && made_dir) {
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
    }
    std::printf("scenario %s: %s\n", scenario.c_str(),
                rc == 0 ? "OK" : "FAILED");
    return rc;
}
