/**
 * @file
 * Acceptance suite for the checkpoint/restore half of ISSUE 9:
 *
 *  - Checkpoint container: typed round trip of every section kind,
 *    detection of structural bit flips and of truncation at EVERY
 *    prefix length, typed IoError values throughout (no process exit);
 *  - CheckpointStore: atomic saves (no .tmp residue), keep-last-N
 *    rotation, and loadLatest() falling back past corrupted images
 *    with the skip list reporting what was rejected and why;
 *  - bitwise recovery: for each of the three training loops
 *    (nn::Trainer, sample::SampledTrainer, dist::ShardedTrainer), a
 *    run killed at epoch k by an injected fault and resumed from its
 *    checkpoints finishes with trajectories and final logits bitwise
 *    equal to the uninterrupted run — dropout enabled, so the RNG
 *    stream positions must genuinely persist and restore;
 *  - one resume policy: an image the trainer rejects leaves no trace,
 *    so the run is bitwise-equal to a fresh one;
 *  - the per-epoch fault hook is visited once per epoch, fresh or
 *    resumed, on every rank of every engine.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/fault.hh"
#include "common/rng.hh"
#include "dist/sharded_trainer.hh"
#include "graph/formats/checkpoint.hh"
#include "graph/partition.hh"
#include "graph/registry.hh"
#include "nn/model.hh"
#include "nn/trainer.hh"
#include "sample/sampled_trainer.hh"
#include "tensor/matrix.hh"

namespace maxk
{
namespace
{

/** Fresh scratch directory, removed on scope exit. */
struct ScopedDir
{
    explicit ScopedDir(const std::string &tag)
    {
        std::error_code ec;
        path = (std::filesystem::temp_directory_path(ec) /
                ("maxk-test-ckpt-" + tag))
                   .string();
        std::filesystem::remove_all(path, ec);
        std::filesystem::create_directories(path, ec);
    }
    ~ScopedDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
    std::string path;
};

std::vector<std::uint8_t>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<std::uint8_t>(
        std::istreambuf_iterator<char>(in),
        std::istreambuf_iterator<char>());
}

void
writeFile(const std::string &path, const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

formats::Checkpoint
sampleCheckpoint()
{
    formats::Checkpoint ck;
    ck.setU64("epoch", 41);
    ck.setU64s("rng.drop", {1, 2, 3, 4});
    ck.setDoubles("traj.trainLoss", {0.9, 0.5, 0.25});
    ck.setU32s("traj.evalEpochs", {0, 2});
    Matrix m(3, 4);
    Rng rng(5);
    for (std::size_t i = 0; i < m.size(); ++i)
        m.data()[i] = rng.normal();
    ck.setMatrix("param.0", m);
    const char raw[] = "opaque";
    ck.set("blob", raw, sizeof raw);
    return ck;
}

/* ----------------------------------------------------- the container */

TEST(Checkpoint, TypedSectionsRoundTripThroughDisk)
{
    ScopedDir dir("roundtrip");
    const formats::Checkpoint ck = sampleCheckpoint();
    const std::string path =
        dir.path + "/image" + formats::kCheckpointExtension;
    auto saved = ck.save(path);
    ASSERT_TRUE(saved.hasValue()) << saved.error().describe();
    EXPECT_EQ(saved.value(), ck.encodedBytes());
    // Atomic write: the temp file must be gone.
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

    auto loaded = formats::Checkpoint::load(path);
    ASSERT_TRUE(loaded.hasValue()) << loaded.error().describe();
    const formats::Checkpoint &got = loaded.value();
    EXPECT_EQ(got.sectionCount(), ck.sectionCount());
    EXPECT_EQ(got.getU64("epoch").value(), 41u);
    EXPECT_EQ(got.getU64s("rng.drop").value(),
              (std::vector<std::uint64_t>{1, 2, 3, 4}));
    EXPECT_EQ(got.getDoubles("traj.trainLoss").value(),
              (std::vector<double>{0.9, 0.5, 0.25}));
    EXPECT_EQ(got.getU32s("traj.evalEpochs").value(),
              (std::vector<std::uint32_t>{0, 2}));
    Matrix m;
    ASSERT_TRUE(got.getMatrix("param.0", m).hasValue());
    Matrix ref;
    ASSERT_TRUE(ck.getMatrix("param.0", ref).hasValue());
    EXPECT_TRUE(m.equals(ref));
    auto blob = got.section("blob");
    ASSERT_TRUE(blob.hasValue());
    EXPECT_EQ(blob.value()->size(), sizeof "opaque");
}

TEST(Checkpoint, MissingAndMistypedSectionsAreTypedErrors)
{
    formats::Checkpoint ck = sampleCheckpoint();
    EXPECT_FALSE(ck.getU64("absent").hasValue());
    EXPECT_FALSE(ck.section("absent").hasValue());
    // A 4-word section read as a single u64 must fail, not misparse.
    EXPECT_FALSE(ck.getU64("rng.drop").hasValue());
    Matrix m;
    EXPECT_FALSE(ck.getMatrix("epoch", m).hasValue());
    // Shape header rows=2^62, cols=1 with no payload: rows*cols*4 wraps
    // to 0, which an unchecked product would accept as consistent.
    const std::uint64_t overflow[2] = {std::uint64_t{1} << 62, 1};
    ck.set("overflow", overflow, sizeof overflow);
    auto wrapped = ck.getMatrix("overflow", m);
    ASSERT_FALSE(wrapped.hasValue());
    EXPECT_EQ(wrapped.error().code, IoErrorCode::CountMismatch);
}

TEST(Checkpoint, TruncationAtEveryPrefixLengthIsDetected)
{
    const formats::Checkpoint ck = sampleCheckpoint();
    std::vector<std::uint8_t> bytes;
    ck.encode(bytes);
    ASSERT_GT(bytes.size(), 0u);
    for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
        const std::vector<std::uint8_t> cut(bytes.begin(),
                                            bytes.begin() + keep);
        auto got = formats::Checkpoint::decode(cut, "cut");
        ASSERT_FALSE(got.hasValue()) << "prefix of " << keep
                                     << " bytes decoded successfully";
    }
}

TEST(Checkpoint, BitFlipsInStructureAndPayloadAreDetected)
{
    // Single one-letter section name: every byte of the container
    // except that name byte is structural or checksummed, so a flip
    // anywhere else MUST fail the decode.
    formats::Checkpoint ck;
    ck.setDoubles("p", {1.0, -2.0, 3.5});
    std::vector<std::uint8_t> bytes;
    ck.encode(bytes);
    const std::size_t name_byte = 8 + 4 + 4 + 4; // magic,version,count,len
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        if (i == name_byte)
            continue;
        std::vector<std::uint8_t> flipped = bytes;
        flipped[i] ^= 0x01;
        auto got = formats::Checkpoint::decode(flipped, "flip");
        ASSERT_FALSE(got.hasValue())
            << "flip at byte " << i << " decoded successfully";
    }
    // The one name byte yields a well-formed container with a different
    // section name — callers then see a typed missing-section error.
    std::vector<std::uint8_t> renamed = bytes;
    renamed[name_byte] ^= 0x01;
    auto got = formats::Checkpoint::decode(renamed, "rename");
    ASSERT_TRUE(got.hasValue());
    EXPECT_FALSE(got.value().getDoubles("p").hasValue());
}

/* --------------------------------------------------------- the store */

TEST(CheckpointStore, RotationKeepsTheNewestN)
{
    ScopedDir dir("rotate");
    formats::CheckpointStore store(dir.path, "trainer", 3);
    formats::Checkpoint ck;
    for (std::uint64_t epoch = 1; epoch <= 6; ++epoch) {
        ck.setU64("epoch", epoch);
        ASSERT_TRUE(store.save(ck, epoch).hasValue());
    }
    EXPECT_EQ(store.epochsOnDisk(),
              (std::vector<std::uint64_t>{4, 5, 6}));
    auto latest = store.loadLatest();
    ASSERT_TRUE(latest.hasValue());
    EXPECT_EQ(latest.value().epoch, 6u);
    EXPECT_EQ(latest.value().checkpoint.getU64("epoch").value(), 6u);
}

TEST(CheckpointStore, LoadLatestFallsBackPastCorruptImages)
{
    ScopedDir dir("fallback");
    formats::CheckpointStore store(dir.path, "trainer", 8);
    formats::Checkpoint ck;
    for (std::uint64_t epoch = 1; epoch <= 3; ++epoch) {
        ck.setU64("epoch", epoch);
        ASSERT_TRUE(store.save(ck, epoch).hasValue());
    }
    // Newest: flip a payload byte. Second newest: truncate.
    {
        std::vector<std::uint8_t> bytes = readFile(store.pathFor(3));
        bytes[bytes.size() - 3] ^= 0x40;
        writeFile(store.pathFor(3), bytes);
        std::vector<std::uint8_t> cut = readFile(store.pathFor(2));
        cut.resize(cut.size() - 9);
        writeFile(store.pathFor(2), cut);
    }
    std::vector<IoError> skipped;
    auto latest = store.loadLatest(&skipped);
    ASSERT_TRUE(latest.hasValue());
    EXPECT_EQ(latest.value().epoch, 1u);
    ASSERT_EQ(skipped.size(), 2u);
    EXPECT_EQ(skipped[0].code, IoErrorCode::ChecksumMismatch);
    EXPECT_EQ(skipped[1].code, IoErrorCode::Truncated);

    // Corrupt the last good one too: the newest image's error surfaces.
    std::vector<std::uint8_t> bytes = readFile(store.pathFor(1));
    bytes[bytes.size() - 3] ^= 0x40;
    writeFile(store.pathFor(1), bytes);
    auto none = store.loadLatest();
    ASSERT_FALSE(none.hasValue());
    EXPECT_EQ(none.error().code, IoErrorCode::ChecksumMismatch);
}

TEST(CheckpointStore, EmptyDirIsATypedError)
{
    ScopedDir dir("empty");
    formats::CheckpointStore store(dir.path, "trainer", 2);
    auto got = store.loadLatest();
    ASSERT_FALSE(got.hasValue());
    EXPECT_EQ(got.error().code, IoErrorCode::OpenFailed);
}

/* ------------------------------------------------- bitwise recovery */

TrainingTask
smallTask(NodeId nodes)
{
    TrainingTask task = *findTrainingTask("Flickr");
    task.accuracyNodes = nodes;
    task.accuracyAvgDegree = 8.0;
    return task;
}

nn::ModelConfig
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
    cfg.dropout = 0.2f; // exercises the persisted RNG stream position
    return cfg;
}

/** One-spec plan: throw at `site` visit `occurrence` of `rank`. */
FaultPlan
killPlan(const char *site, std::uint64_t occurrence,
         std::uint32_t rank = kAnyRank)
{
    FaultSpec s;
    s.kind = FaultKind::RankThrow;
    s.site = site;
    s.occurrence = occurrence;
    s.rank = rank;
    return FaultPlan().add(std::move(s));
}

TEST(Recovery, TrainerKillAtEpochResumeIsBitwise)
{
    ScopedDir dir("trainer");
    const TrainingTask task = smallTask(300);
    Rng rng(61);
    TrainingData data = materializeTrainingData(task, rng);
    const nn::ModelConfig cfg = smallModel(task);

    nn::TrainConfig tc;
    tc.epochs = 6;
    tc.evalEvery = 2;

    nn::GnnModel ref_model(cfg);
    nn::Trainer ref_trainer(ref_model, data, task);
    const nn::TrainResult ref = ref_trainer.run(tc);

    FaultInjector inj(killPlan("trainer.epoch", 3));
    tc.checkpointDir = dir.path;
    tc.checkpointKeep = 2;
    tc.faults = &inj;
    {
        nn::GnnModel model(cfg);
        nn::Trainer trainer(model, data, task);
        EXPECT_THROW(trainer.run(tc), InjectedFault);
    }

    tc.faults = nullptr;
    nn::GnnModel model(cfg);
    nn::Trainer trainer(model, data, task);
    const nn::TrainResult got = trainer.run(tc);
    EXPECT_EQ(got.trainLoss, ref.trainLoss);
    EXPECT_EQ(got.evalEpochs, ref.evalEpochs);
    EXPECT_EQ(got.valMetric, ref.valMetric);
    EXPECT_EQ(got.testMetric, ref.testMetric);
    EXPECT_EQ(got.bestValMetric, ref.bestValMetric);
    EXPECT_EQ(got.testAtBestVal, ref.testAtBestVal);
    EXPECT_EQ(got.finalTestMetric, ref.finalTestMetric);
}

TEST(Recovery, TrainerResumeFallsBackPastCorruptSaves)
{
    ScopedDir dir("trainer-corrupt");
    const TrainingTask task = smallTask(300);
    Rng rng(62);
    TrainingData data = materializeTrainingData(task, rng);
    const nn::ModelConfig cfg = smallModel(task);

    nn::TrainConfig tc;
    tc.epochs = 6;
    tc.evalEvery = 2;

    nn::GnnModel ref_model(cfg);
    nn::Trainer ref_trainer(ref_model, data, task);
    const nn::TrainResult ref = ref_trainer.run(tc);

    // Run to epoch 4 with saves 2 and 3 corrupted at write, then
    // "crash". Keep-last covers every image so the fallback chain is
    // fully on disk.
    FaultPlan plan;
    FaultSpec flip;
    flip.kind = FaultKind::CheckpointBitFlip;
    flip.site = "checkpoint.write";
    flip.occurrence = 2;
    flip.payload = 12345;
    plan.add(std::move(flip));
    FaultSpec trunc;
    trunc.kind = FaultKind::CheckpointTruncate;
    trunc.site = "checkpoint.write";
    trunc.occurrence = 3;
    trunc.payload = 17;
    plan.add(std::move(trunc));
    FaultInjector inj(plan);
    tc.checkpointDir = dir.path;
    tc.checkpointKeep = 8;
    tc.faults = &inj;
    tc.epochs = 4;
    {
        nn::GnnModel model(cfg);
        nn::Trainer trainer(model, data, task);
        trainer.run(tc);
    }

    // Both damaged images must be rejected; epoch 1 is the survivor.
    formats::CheckpointStore store(dir.path, "trainer", 8);
    std::vector<IoError> skipped;
    auto latest = store.loadLatest(&skipped);
    ASSERT_TRUE(latest.hasValue());
    EXPECT_EQ(latest.value().epoch, 1u);
    EXPECT_EQ(skipped.size(), 2u);

    tc.faults = nullptr;
    tc.epochs = 6;
    nn::GnnModel model(cfg);
    nn::Trainer trainer(model, data, task);
    const nn::TrainResult got = trainer.run(tc);
    EXPECT_EQ(got.trainLoss, ref.trainLoss);
    EXPECT_EQ(got.valMetric, ref.valMetric);
    EXPECT_EQ(got.testMetric, ref.testMetric);
    EXPECT_EQ(got.finalTestMetric, ref.finalTestMetric);
}

TEST(Recovery, SampledTrainerKillAtEpochResumeIsBitwise)
{
    ScopedDir dir("sampled");
    const TrainingTask task = smallTask(300);
    Rng rng(63);
    TrainingData data = materializeTrainingData(task, rng);
    const nn::ModelConfig cfg = smallModel(task);

    sample::SamplerConfig scfg;
    scfg.fanouts = {4, 4};
    scfg.batchSize = 32;
    scfg.seed = 99;

    sample::SampledTrainConfig tc;
    tc.epochs = 6;
    tc.evalEvery = 2;

    sample::SampledTrainResult ref;
    {
        nn::GnnModel model(cfg);
        sample::SampledTrainer trainer(model, data, task, scfg);
        ref = trainer.run(tc);
    }

    FaultInjector inj(killPlan("sampled_trainer.epoch", 3));
    tc.checkpointDir = dir.path;
    tc.checkpointKeep = 2;
    tc.faults = &inj;
    {
        nn::GnnModel model(cfg);
        sample::SampledTrainer trainer(model, data, task, scfg);
        EXPECT_THROW(trainer.run(tc), InjectedFault);
    }

    tc.faults = nullptr;
    nn::GnnModel model(cfg);
    sample::SampledTrainer trainer(model, data, task, scfg);
    const sample::SampledTrainResult got = trainer.run(tc);
    EXPECT_EQ(got.trainLoss, ref.trainLoss);
    EXPECT_EQ(got.evalEpochs, ref.evalEpochs);
    EXPECT_EQ(got.valMetric, ref.valMetric);
    EXPECT_EQ(got.testMetric, ref.testMetric);
    EXPECT_EQ(got.finalTestMetric, ref.finalTestMetric);
    EXPECT_TRUE(got.finalLogits.equals(ref.finalLogits));
}

TEST(Recovery, ShardedTrainerRankKillResumeIsBitwise)
{
    ScopedDir dir("sharded");
    const TrainingTask task = smallTask(400);
    Rng rng(64);
    TrainingData data = materializeTrainingData(task, rng);
    const nn::ModelConfig cfg = smallModel(task);
    Rng prng(65);
    const Partition parts = bfsPartition(data.graph, 3, prng);

    nn::TrainConfig tc;
    tc.epochs = 6;
    tc.evalEvery = 2;

    dist::ShardedTrainer ref_trainer(cfg, data, task, parts);
    const dist::ShardedTrainResult ref = ref_trainer.run(tc);

    // Kill rank 1 at its third epoch boundary.
    FaultInjector inj(killPlan("sharded.epoch", 2, 1));
    tc.checkpointDir = dir.path;
    tc.checkpointKeep = 2;
    tc.faults = &inj;
    {
        dist::ShardedTrainer trainer(cfg, data, task, parts);
        EXPECT_THROW(trainer.run(tc), InjectedFault);
    }

    tc.faults = nullptr;
    dist::ShardedTrainer trainer(cfg, data, task, parts);
    const dist::ShardedTrainResult got = trainer.run(tc);
    EXPECT_EQ(got.train.trainLoss, ref.train.trainLoss);
    EXPECT_EQ(got.train.evalEpochs, ref.train.evalEpochs);
    EXPECT_EQ(got.train.valMetric, ref.train.valMetric);
    EXPECT_EQ(got.train.testMetric, ref.train.testMetric);
    EXPECT_EQ(got.train.finalTestMetric, ref.train.finalTestMetric);
    EXPECT_TRUE(got.finalLogits.equals(ref.finalLogits));
}

/** Rewrite the newest `basename` image in `dir` through `edit`. The
 *  checksums stay valid, so only the trainer's own validation can
 *  reject the edited image. */
template <class Edit>
void
editNewestImage(const std::string &dir, const char *basename, Edit edit)
{
    formats::CheckpointStore store(dir, basename, 8);
    auto latest = store.loadLatest();
    ASSERT_TRUE(latest.hasValue()) << latest.error().describe();
    formats::Checkpoint ck = std::move(latest.value().checkpoint);
    edit(ck);
    ASSERT_TRUE(ck.save(store.pathFor(latest.value().epoch)).hasValue());
}

void
damageBest(formats::Checkpoint &ck)
{
    ck.setDoubles("traj.best", {0.5, 0.5}); // must hold three doubles
}

TEST(Recovery, TrainerRejectedImageStartsTrulyFresh)
{
    ScopedDir dir("trainer-reject");
    const TrainingTask task = smallTask(300);
    Rng rng(66);
    TrainingData data = materializeTrainingData(task, rng);
    const nn::ModelConfig cfg = smallModel(task);

    nn::TrainConfig tc;
    tc.epochs = 4;
    tc.evalEvery = 2;
    nn::GnnModel ref_model(cfg);
    nn::Trainer ref_trainer(ref_model, data, task);
    const nn::TrainResult ref = ref_trainer.run(tc);

    tc.checkpointDir = dir.path;
    {
        nn::GnnModel model(cfg);
        nn::Trainer trainer(model, data, task);
        trainer.run(tc);
    }
    editNewestImage(dir.path, "trainer", damageBest);

    // The image is rejected, so the run must not keep any of its state.
    nn::GnnModel model(cfg);
    nn::Trainer trainer(model, data, task);
    const nn::TrainResult got = trainer.run(tc);
    EXPECT_EQ(got.trainLoss, ref.trainLoss);
    EXPECT_EQ(got.evalEpochs, ref.evalEpochs);
    EXPECT_EQ(got.valMetric, ref.valMetric);
    EXPECT_EQ(got.testMetric, ref.testMetric);
    EXPECT_EQ(got.bestValMetric, ref.bestValMetric);
    EXPECT_EQ(got.testAtBestVal, ref.testAtBestVal);
}

TEST(Recovery, SampledTrainerRejectedImageStartsTrulyFresh)
{
    ScopedDir dir("sampled-reject");
    const TrainingTask task = smallTask(300);
    Rng rng(67);
    TrainingData data = materializeTrainingData(task, rng);
    const nn::ModelConfig cfg = smallModel(task);

    sample::SamplerConfig scfg;
    scfg.fanouts = {4, 4};
    scfg.batchSize = 32;
    scfg.seed = 98;

    sample::SampledTrainConfig tc;
    tc.epochs = 4;
    tc.evalEvery = 2;
    sample::SampledTrainResult ref;
    {
        nn::GnnModel model(cfg);
        sample::SampledTrainer trainer(model, data, task, scfg);
        ref = trainer.run(tc);
    }

    tc.checkpointDir = dir.path;
    {
        nn::GnnModel model(cfg);
        sample::SampledTrainer trainer(model, data, task, scfg);
        trainer.run(tc);
    }
    editNewestImage(dir.path, "sampled", damageBest);

    nn::GnnModel model(cfg);
    sample::SampledTrainer trainer(model, data, task, scfg);
    const sample::SampledTrainResult got = trainer.run(tc);
    EXPECT_EQ(got.trainLoss, ref.trainLoss);
    EXPECT_EQ(got.valMetric, ref.valMetric);
    EXPECT_EQ(got.testMetric, ref.testMetric);
    EXPECT_EQ(got.batchesTrained, ref.batchesTrained);
    EXPECT_EQ(got.sampledNodes, ref.sampledNodes);
    EXPECT_TRUE(got.finalLogits.equals(ref.finalLogits));
}

TEST(Recovery, ShardedTrainerRejectedImageStartsTrulyFresh)
{
    ScopedDir dir("sharded-reject");
    const TrainingTask task = smallTask(400);
    Rng rng(68);
    TrainingData data = materializeTrainingData(task, rng);
    const nn::ModelConfig cfg = smallModel(task);
    Rng prng(69);
    const Partition parts = bfsPartition(data.graph, 2, prng);

    nn::TrainConfig tc;
    tc.epochs = 4;
    tc.evalEvery = 2;
    dist::ShardedTrainer ref_trainer(cfg, data, task, parts);
    const dist::ShardedTrainResult ref = ref_trainer.run(tc);

    tc.checkpointDir = dir.path;
    {
        dist::ShardedTrainer trainer(cfg, data, task, parts);
        trainer.run(tc);
    }
    // Rank 1's dropout stream loses two of its four words.
    editNewestImage(dir.path, "sharded", [](formats::Checkpoint &ck) {
        ck.setU64s("rng.rank1", {1, 2});
    });

    dist::ShardedTrainer trainer(cfg, data, task, parts);
    const dist::ShardedTrainResult got = trainer.run(tc);
    EXPECT_EQ(got.train.trainLoss, ref.train.trainLoss);
    EXPECT_EQ(got.train.valMetric, ref.train.valMetric);
    EXPECT_TRUE(got.finalLogits.equals(ref.finalLogits));
}

/* ------------------------------------------ per-epoch hook contract */

enum class Engine { FullBatch, Sampled, Sharded };

/**
 * The epoch-start fault hook of every engine is visited exactly once
 * per epoch run (on every rank), fresh or resumed: epoch clocks that
 * poll the hook depend on it. The injector is armed with a spec that
 * never fires, so it counts visits without changing the run.
 */
class EpochHookContract : public ::testing::TestWithParam<Engine>
{
  protected:
    /** Train `epochs` epochs with checkpoints in `dir`; returns the
     *  hook site and rank count. */
    std::pair<const char *, std::uint32_t>
    train(std::uint32_t epochs, const std::string &dir,
          FaultInjector &inj)
    {
        nn::LoopConfig loop;
        loop.epochs = epochs;
        loop.evalEvery = 2;
        loop.checkpointDir = dir;
        loop.faults = &inj;
        switch (GetParam()) {
          case Engine::FullBatch: {
            nn::TrainConfig tc;
            static_cast<nn::LoopConfig &>(tc) = loop;
            nn::GnnModel model(cfg_);
            nn::Trainer(model, data_, task_).run(tc);
            return {"trainer.epoch", 1};
          }
          case Engine::Sampled: {
            sample::SampledTrainConfig tc;
            static_cast<nn::LoopConfig &>(tc) = loop;
            sample::SamplerConfig scfg;
            scfg.fanouts = {4, 4};
            scfg.batchSize = 64;
            nn::GnnModel model(cfg_);
            sample::SampledTrainer(model, data_, task_, scfg).run(tc);
            return {"sampled_trainer.epoch", 1};
          }
          case Engine::Sharded: {
            nn::TrainConfig tc;
            static_cast<nn::LoopConfig &>(tc) = loop;
            dist::ShardedTrainer(cfg_, data_, task_, parts_).run(tc);
            return {"sharded.epoch", parts_.numParts};
          }
        }
        return {"", 0};
    }

    static FaultInjector
    countingInjector()
    {
        FaultSpec never;
        never.kind = FaultKind::RankThrow;
        never.site = "never.visited";
        return FaultInjector(FaultPlan().add(std::move(never)));
    }

    const TrainingTask task_ = smallTask(300);
    Rng rng_{70};
    TrainingData data_ = materializeTrainingData(task_, rng_);
    const nn::ModelConfig cfg_ = smallModel(task_);
    Rng prng_{71};
    const Partition parts_ = bfsPartition(data_.graph, 2, prng_);
};

TEST_P(EpochHookContract, OneVisitPerEpochFreshAndResumed)
{
    ScopedDir dir("hooks");
    FaultInjector fresh = countingInjector();
    const auto [site, ranks] = train(3, dir.path, fresh);
    FaultInjector resumed = countingInjector();
    train(5, dir.path, resumed); // resumes after epoch 2
    for (std::uint32_t r = 0; r < ranks; ++r) {
        EXPECT_EQ(fresh.visits(site, r), 3u) << site << " rank " << r;
        EXPECT_EQ(resumed.visits(site, r), 2u) << site << " rank " << r;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, EpochHookContract,
    ::testing::Values(Engine::FullBatch, Engine::Sampled, Engine::Sharded),
    [](const ::testing::TestParamInfo<Engine> &info) {
        switch (info.param) {
          case Engine::FullBatch: return "FullBatch";
          case Engine::Sampled: return "Sampled";
          case Engine::Sharded: return "Sharded";
        }
        return "Unknown";
    });

} // namespace
} // namespace maxk
