/**
 * @file
 * Shared plumbing of the host benchmark: run options, the in-memory span
 * recorder of the traced run, the metric sheet every workload fills,
 * timing statistics, input generation and the machine probe.
 *
 * Spans are recorded by the benchmark around its own calls into the
 * library's public functions; the library's MAXK_TRACE_SCOPE
 * instrumentation is never armed here.
 */

#ifndef HOSTBENCH_BENCH_HH
#define HOSTBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.hh"
#include "graph/registry.hh"
#include "nn/model.hh"

namespace hostbench
{

namespace nn = maxk::nn;
using Clock = std::chrono::steady_clock;

/** Command-line options of one benchmark run. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir = ".bench_out";
};

/** Seconds elapsed since `t0`. */
double secondsSince(Clock::time_point t0);

/** Median of a non-empty sample (0 for an empty one). */
double median(std::vector<double> v);

/** Nearest-rank percentile p in [0, 100] (0 for an empty sample). */
double percentile(std::vector<double> v, double p);

/**
 * Metric sheet of one run: every declared metric by name with its
 * unit, plus the operation counters behind `attempted` / `failed`.
 * A correctness check that fails increments `failed` and logs why.
 */
class Sheet
{
  public:
    void set(const std::string &name, double value, const std::string &unit);
    bool has(const std::string &name) const;
    double get(const std::string &name) const;

    /** One attempted operation that succeeded or failed. */
    void attempt(bool ok, const std::string &what);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

    struct Entry
    {
        double value;
        std::string unit;
    };
    const std::map<std::string, Entry> &entries() const { return entries_; }

  private:
    std::map<std::string, Entry> entries_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/**
 * Span recorder of the traced run. Spans live in memory until
 * writeChromeTrace() at the end of the run. A span's parent is the
 * innermost open span of the same lane (thread); lanes are numbered
 * by the caller (0 = main thread, r + 1 = rank r).
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        std::uint32_t lane = 0;
        std::int64_t parent = -1;
        double startUs = 0.0;
        double endUs = 0.0;
    };

    explicit Tracer(bool enabled) : enabled_(enabled) {}

    /** Open a span; returns its id (-1 when disabled). */
    std::int64_t begin(const std::string &name, std::uint32_t lane = 0);
    /** Close span `id`; returns its duration in ms. */
    double end(std::int64_t id);

    /** Durations (ms) of spans named `name` on `lane`, in order. */
    std::vector<double> durationsMs(const std::string &name,
                                    std::uint32_t lane = 0) const;
    /** Sum of durations (ms) of the children of span `parent`. */
    double childrenMs(std::int64_t parent) const;

    /** Write every span as Chrome trace JSON (false on I/O error). */
    bool writeChromeTrace(const std::string &path) const;

  private:
    bool enabled_;
    Clock::time_point t0_ = Clock::now();
    mutable std::mutex mu_;
    std::vector<Span> spans_;
    std::map<std::uint32_t, std::vector<std::int64_t>> open_;
};

/** RAII span; also accumulates its duration into `*sink_ms` if given. */
class Scope
{
  public:
    Scope(Tracer &t, const std::string &name, std::uint32_t lane = 0,
          double *sink_ms = nullptr)
        : t_(t), id_(t.begin(name, lane)), sink_(sink_ms)
    {
    }
    ~Scope()
    {
        const double ms = t_.end(id_);
        if (sink_)
            *sink_ += ms;
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
    std::int64_t id() const { return id_; }

  private:
    Tracer &t_;
    std::int64_t id_;
    double *sink_;
};

/**
 * Epoch boundaries of an unmodified trainer. Every trainer visits its
 * fault hook ("trainer.epoch", "sampled_trainer.epoch",
 * "sharded.epoch") once at the start of each epoch; this clock hands
 * the trainer an injector whose plan never fires and polls the visit
 * counter of rank 0 every 2 ms from a background thread. Epoch
 * i lasts from its hook visit to the next one (the last epoch ends
 * when the run returns).
 */
class EpochClock
{
  public:
    explicit EpochClock(std::string site);
    ~EpochClock();
    EpochClock(const EpochClock &) = delete;
    EpochClock &operator=(const EpochClock &) = delete;

    maxk::FaultInjector *injector() { return &injector_; }

    /** Start polling; call right before the trainer's run(). */
    void start();
    /** Stop polling; call right after run() returned. Returns the
     *  per-epoch wall times in seconds. */
    std::vector<double> stop();

    /** Matrix/CbsrMatrix allocations (AllocProbe) from the start of
     *  epoch `first` to the end of the run; valid after stop(). */
    std::uint64_t allocsSince(std::size_t first) const;

  private:
    std::string site_;
    maxk::FaultInjector injector_;
    std::uint64_t allocsEnd_ = 0;
    bool running_ = false;

    std::mutex mu_;  //!< guards the three members below
    std::vector<Clock::time_point> starts_;
    std::vector<std::uint64_t> allocs_;  //!< AllocProbe count per start
    bool quit_ = false;

    std::thread poller_;  //!< last: it uses every member above
};

/**
 * Check one training run's per-epoch losses: each is finite, and the
 * epoch-0 loss is bitwise equal to the first checked run's (`first`
 * is set by the first call).
 */
void checkLosses(Sheet &sheet, const std::vector<double> &losses,
                 std::optional<double> &first);

/**
 * Epoch count of a training run that cannot be extended once started:
 * one warm-up epoch plus as many `epoch_s`-long steady epochs as fit in
 * `budget_s`, and at least `min_epochs`.
 */
std::uint32_t epochsFor(double budget_s, double epoch_s,
                        std::uint32_t min_epochs);

/** Report setup_s (median set-up), epoch_s (median steady epoch) and
 *  loss_final (last loss), with the samples as progress notes. */
void reportTraining(Sheet &sheet, const std::vector<double> &setups,
                    const std::vector<double> &steady,
                    const std::vector<double> &losses);

/** Labelled inputs generated from the run seed. */
struct Inputs
{
    maxk::TrainingData data;
    maxk::TrainingTask task;
};

/**
 * Wrap `graph` into a classification task with `classes` labels:
 * each node draws a class, its features are that class's prototype
 * plus Gaussian noise, its label is that class (a random one for 25%
 * of nodes), and the split is train_frac / 0.2 val / rest
 * test. Deterministic in `seed`.
 */
Inputs makeInputs(maxk::CsrGraph graph, std::uint32_t classes,
                  std::uint32_t feature_dim, double train_frac,
                  std::uint64_t seed);

/** Serial naive fp32 matmul throughput of the host (GFLOP/s),
 *  independent of the library. */
double calibGflops();
/** memcpy bandwidth of the host (GB/s). */
double copyGbps();
/** Peak resident set size of the process so far (MB). */
double peakRssMb();

/** Bitwise equality of two matrices (shape and every bit). */
bool bitwiseEqual(const maxk::Matrix &a, const maxk::Matrix &b);
/** Max |a - b| / max(1, |b|) over all elements (inf on shape mismatch). */
double maxRelDiff(const maxk::Matrix &a, const maxk::Matrix &b);

/** Human-readable progress line on stdout (never the last line). */
void note(const std::string &msg);

} // namespace hostbench

#endif // HOSTBENCH_BENCH_HH
