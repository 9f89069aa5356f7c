#include "bench.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>

#include "common/rng.hh"
#include "tensor/alloc_probe.hh"

namespace hostbench
{

using namespace maxk;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
    const std::size_t idx = static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(v.size())));
    return v[idx - 1];
}

// ---------------------------------------------------------------- Sheet

void
Sheet::set(const std::string &name, double value, const std::string &unit)
{
    entries_[name] = Entry{value, unit};
}

bool
Sheet::has(const std::string &name) const
{
    return entries_.count(name) != 0;
}

double
Sheet::get(const std::string &name) const
{
    auto it = entries_.find(name);
    return it == entries_.end() ? 0.0 : it->second.value;
}

void
Sheet::attempt(bool ok, const std::string &what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        std::fprintf(stderr, "hostbench: check failed: %s\n", what.c_str());
    }
}

// --------------------------------------------------------------- Tracer

std::int64_t
Tracer::begin(const std::string &name, std::uint32_t lane)
{
    if (!enabled_)
        return -1;
    const double now = std::chrono::duration<double, std::micro>(
                           Clock::now() - t0_)
                           .count();
    std::lock_guard<std::mutex> lk(mu_);
    auto &stack = open_[lane];
    Span s;
    s.name = name;
    s.lane = lane;
    s.parent = stack.empty() ? -1 : stack.back();
    s.startUs = now;
    spans_.push_back(std::move(s));
    const auto id = static_cast<std::int64_t>(spans_.size() - 1);
    stack.push_back(id);
    return id;
}

double
Tracer::end(std::int64_t id)
{
    if (id < 0)
        return 0.0;
    const double now = std::chrono::duration<double, std::micro>(
                           Clock::now() - t0_)
                           .count();
    std::lock_guard<std::mutex> lk(mu_);
    Span &s = spans_[static_cast<std::size_t>(id)];
    s.endUs = now;
    auto &stack = open_[s.lane];
    if (!stack.empty() && stack.back() == id)
        stack.pop_back();
    return (s.endUs - s.startUs) / 1e3;
}

std::vector<double>
Tracer::durationsMs(const std::string &name, std::uint32_t lane) const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<double> out;
    for (const Span &s : spans_)
        if (s.lane == lane && s.name == name)
            out.push_back((s.endUs - s.startUs) / 1e3);
    return out;
}

double
Tracer::childrenMs(std::int64_t parent) const
{
    std::lock_guard<std::mutex> lk(mu_);
    double sum = 0.0;
    for (const Span &s : spans_)
        if (s.parent == parent && parent >= 0)
            sum += (s.endUs - s.startUs) / 1e3;
    return sum;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        char buf[512];
        std::snprintf(buf, sizeof(buf),
                      "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                      "\"args\":{\"id\":%zu,\"parent\":%lld}}\n",
                      i ? "," : "", s.name.c_str(), s.lane, s.startUs,
                      s.endUs - s.startUs, i,
                      static_cast<long long>(s.parent));
        out << buf;
    }
    out << "],\"displayTimeUnit\":\"ms\"}\n";
    return static_cast<bool>(out);
}

// ----------------------------------------------------------- EpochClock

namespace
{

FaultPlan
neverFiringPlan()
{
    // A non-empty plan arms the injector so it counts hook visits; the
    // site below is never visited, so nothing ever fires.
    FaultPlan plan;
    FaultSpec s;
    s.site = "hostbench.never";
    plan.add(s);
    return plan;
}

} // namespace

EpochClock::EpochClock(std::string site)
    : site_(std::move(site)), injector_(neverFiringPlan())
{
}

EpochClock::~EpochClock()
{
    if (running_)
        stop();
}

void
EpochClock::start()
{
    starts_.clear();
    allocs_.clear();
    quit_ = false;
    running_ = true;
    const std::uint64_t base = injector_.visits(site_, 0);
    poller_ = std::thread([this, base] {
        for (;;) {
            {
                std::lock_guard<std::mutex> lk(mu_);
                const std::uint64_t seen = injector_.visits(site_, 0) - base;
                const auto now = Clock::now();
                while (starts_.size() < seen) {
                    starts_.push_back(now);
                    allocs_.push_back(AllocProbe::totalAllocCount());
                }
                if (quit_)
                    return;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
    });
}

std::vector<double>
EpochClock::stop()
{
    const auto end = Clock::now();
    allocsEnd_ = AllocProbe::totalAllocCount();
    {
        std::lock_guard<std::mutex> lk(mu_);
        quit_ = true;
    }
    poller_.join();
    running_ = false;
    std::vector<double> epochs;
    for (std::size_t i = 0; i < starts_.size(); ++i) {
        const auto next = i + 1 < starts_.size() ? starts_[i + 1] : end;
        epochs.push_back(
            std::chrono::duration<double>(next - starts_[i]).count());
    }
    return epochs;
}

std::uint64_t
EpochClock::allocsSince(std::size_t first) const
{
    return first < allocs_.size() ? allocsEnd_ - allocs_[first] : 0;
}

// ------------------------------------------------------------- training

void
checkLosses(Sheet &sheet, const std::vector<double> &losses,
            std::optional<double> &first)
{
    for (double loss : losses)
        sheet.attempt(std::isfinite(loss), "training loss not finite");
    if (losses.empty())
        return;
    if (!first)
        first = losses[0];
    else
        sheet.attempt(losses[0] == *first,
                      "epoch-0 loss differs between set-ups");
}

std::uint32_t
epochsFor(double budget_s, double epoch_s, std::uint32_t min_epochs)
{
    constexpr double kMaxEpochs = 1000.0;
    const double fit =
        epoch_s > 0.0 ? 1.0 + std::floor(budget_s / epoch_s) : kMaxEpochs;
    return static_cast<std::uint32_t>(
        std::clamp(fit, static_cast<double>(min_epochs), kMaxEpochs));
}

void
reportTraining(Sheet &sheet, const std::vector<double> &setups,
               const std::vector<double> &steady,
               const std::vector<double> &losses)
{
    const auto list = [](const std::vector<double> &v) {
        std::string out;
        for (double x : v)
            out += " " + std::to_string(x);
        return out;
    };
    note("set-ups (s):" + list(setups));
    note("steady epochs (s):" + list(steady));
    note("training loss per epoch:" + list(losses));
    sheet.attempt(!steady.empty() && !losses.empty(),
                  "no steady epoch was timed");
    sheet.set("setup_s", median(setups), "s");
    sheet.set("epoch_s", median(steady), "s");
    sheet.set("loss_final", losses.empty() ? 0.0 : losses.back(), "nats");
}

// --------------------------------------------------------------- inputs

Inputs
makeInputs(CsrGraph graph, std::uint32_t classes, std::uint32_t feature_dim,
           double train_frac, std::uint64_t seed)
{
    Rng rng(rngKey(seed, 0x1AB5ull, 1));
    const NodeId n = graph.numNodes();

    Matrix protos(classes, feature_dim);
    for (std::size_t i = 0; i < protos.size(); ++i)
        protos.data()[i] = rng.normal();

    Inputs in;
    in.data.graph = std::move(graph);
    in.data.features.resize(n, feature_dim);
    in.data.labels.resize(n);
    in.data.trainMask.assign(n, 0);
    in.data.valMask.assign(n, 0);
    in.data.testMask.assign(n, 0);
    // Noise 2 keeps the classes overlapping; the 0.15 scale puts the
    // initial loss near ln(classes) for Kaiming-initialised SAGE stacks.
    constexpr Float kNoise = 2.0f;
    constexpr Float kScale = 0.15f;
    // A quarter of the labels are replaced by a random class: the loss
    // then settles near a floor instead of collapsing towards 0, so it
    // compares across seeds.
    constexpr double kLabelNoise = 0.25;
    for (NodeId v = 0; v < n; ++v) {
        const auto cls = static_cast<std::uint32_t>(rng.nextBounded(classes));
        const auto other =
            static_cast<std::uint32_t>(rng.nextBounded(classes));
        in.data.labels[v] = rng.uniform() < kLabelNoise ? other : cls;
        Float *row = in.data.features.row(v);
        const Float *proto = protos.row(cls);
        for (std::uint32_t c = 0; c < feature_dim; ++c)
            row[c] = (proto[c] + kNoise * rng.normal()) * kScale;
        const double u = rng.uniform();
        if (u < train_frac)
            in.data.trainMask[v] = 1;
        else if (u < train_frac + 0.2)
            in.data.valMask[v] = 1;
        else
            in.data.testMask[v] = 1;
    }

    in.task.info.name = "hostbench";
    in.task.info.paperNodes = n;
    in.task.info.paperEdges = in.data.graph.numEdges();
    in.task.info.kind = GraphKind::PowerLaw;
    in.task.info.twinNodes = n;
    in.task.info.twinEdges = in.data.graph.numEdges();
    in.task.numClasses = classes;
    in.task.featureDim = feature_dim;
    in.task.multiLabel = false;
    in.task.metric = MetricKind::Accuracy;
    in.task.featureNoise = kNoise;
    in.task.intraEdgeFraction = 0.0;
    in.task.accuracyNodes = n;
    in.task.accuracyAvgDegree =
        n ? static_cast<double>(in.data.graph.numEdges()) / n : 0.0;
    return in;
}

// -------------------------------------------------------- machine probe

double
calibGflops()
{
    // Fixed 96^3 i-k-j matmul repeated for ~0.15 s: compute-bound on
    // any cache, and independent of the library under test.
    constexpr int kN = 96;
    std::vector<float> a(kN * kN), b(kN * kN), c(kN * kN);
    for (int i = 0; i < kN * kN; ++i) {
        a[i] = static_cast<float>((i * 7) % 13) * 0.1f;
        b[i] = static_cast<float>((i * 5) % 11) * 0.1f;
    }
    const auto t0 = Clock::now();
    std::uint64_t reps = 0;
    volatile float sink = 0.0f;
    do {
        std::fill(c.begin(), c.end(), 0.0f);
        for (int i = 0; i < kN; ++i)
            for (int k = 0; k < kN; ++k) {
                const float aik = a[i * kN + k];
                for (int j = 0; j < kN; ++j)
                    c[i * kN + j] += aik * b[k * kN + j];
            }
        sink = sink + c[reps % (kN * kN)];
        ++reps;
    } while (secondsSince(t0) < 0.15);
    return 2.0 * kN * kN * kN * static_cast<double>(reps) /
           secondsSince(t0) / 1e9;
}

double
copyGbps()
{
    // 16 MB buffers (past the private caches), ~0.15 s.
    constexpr std::size_t kBytes = std::size_t(16) << 20;
    std::vector<char> src(kBytes, 1), dst(kBytes, 0);
    const auto t0 = Clock::now();
    std::uint64_t reps = 0;
    do {
        std::memcpy(dst.data(), src.data(), kBytes);
        src[reps % kBytes] = static_cast<char>(dst[(reps * 31) % kBytes]);
        ++reps;
    } while (secondsSince(t0) < 0.15);
    // Read + write traffic per copy.
    return 2.0 * kBytes * static_cast<double>(reps) / secondsSince(t0) /
           1e9;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

bool
bitwiseEqual(const Matrix &a, const Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           (a.size() == 0 ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(Float)) == 0);
}

double
maxRelDiff(const Matrix &a, const Matrix &b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        return std::numeric_limits<double>::infinity();
    double worst = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const double d = std::fabs(static_cast<double>(a.data()[i]) -
                                   static_cast<double>(b.data()[i]));
        const double scale =
            std::max(1.0, std::fabs(static_cast<double>(b.data()[i])));
        if (std::isnan(d))
            return std::numeric_limits<double>::infinity();
        worst = std::max(worst, d / scale);
    }
    return worst;
}

void
note(const std::string &msg)
{
    std::printf("# %s\n", msg.c_str());
    std::fflush(stdout);
}

} // namespace hostbench
