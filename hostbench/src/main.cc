/**
 * @file
 * maxk_hostbench: host-measured benchmark of the four MaxK-GNN engines.
 *
 *   maxk_hostbench --workload NAME --seed N --seconds S --trace 0|1
 *                  [--out DIR]
 *
 * Prints progress lines starting with '#', then as its last line one
 * JSON object {"correct", "attempted", "failed", "metrics"}: every
 * end-to-end metric with --trace 0, every per-layer metric with
 * --trace 1. The full result (with machine facts) and, when traced, the
 * spans (Chrome trace format) are written under --out. Exit status: 0
 * when every correctness check passed, 1 when one failed, 2 on a usage
 * error.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "bench.hh"
#include "common/parallel.hh"
#include "layers.hh"
#include "workloads.hh"

using namespace hostbench;

namespace
{

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "maxk_hostbench: %s\nusage: maxk_hostbench --workload "
                 "NAME --seed N --seconds S --trace 0|1 [--out DIR]\n",
                 why.c_str());
    std::exit(2);
}

RunOptions
parseArgs(int argc, char **argv)
{
    RunOptions opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        const std::string val = argv[++i];
        try {
            if (arg == "--workload")
                opt.workload = val;
            else if (arg == "--seed")
                opt.seed = std::stoull(val);
            else if (arg == "--seconds")
                opt.seconds = std::stod(val);
            else if (arg == "--trace")
                opt.trace = std::stoi(val) != 0;
            else if (arg == "--out")
                opt.outDir = val;
            else
                usage("unknown argument " + arg);
        } catch (const std::exception &) {
            usage("bad value for " + arg + ": " + val);
        }
    }
    if (opt.workload.empty())
        usage("--workload is required");
    if (!(opt.seconds > 0.0))
        usage("--seconds must be positive");
    return opt;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    return "unknown";
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** `"name": {"value": v, "unit": "u"}` */
std::string
metricJson(const std::string &name, double value, const std::string &unit)
{
    return "\"" + name + "\": {\"value\": " + num(value) +
           ", \"unit\": \"" + unit + "\"}";
}

} // namespace

int
main(int argc, char **argv)
{
    using Runner = void (*)(const RunOptions &, Sheet &, Tracer &);
    const std::map<std::string, Runner> workloads = {
        {"full-maxk",
         [](const RunOptions &o, Sheet &s, Tracer &t) {
             runFullBatch(o, nn::Nonlinearity::MaxK, s, t);
         }},
        {"full-relu",
         [](const RunOptions &o, Sheet &s, Tracer &t) {
             runFullBatch(o, nn::Nonlinearity::Relu, s, t);
         }},
        {"sampled-serve", runSampledServe},
        {"sharded-2", runSharded},
    };
    const RunOptions opt = parseArgs(argc, argv);
    const auto workload = workloads.find(opt.workload);
    if (workload == workloads.end())
        usage("unknown workload " + opt.workload);

    maxk::setDefaultThreads(kWorkloadThreads);
    const std::string facts =
        "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
        ", \"cpu_model\": \"" + jsonEscape(cpuModel()) +
        "\", \"build_type\": \"" HOSTBENCH_BUILD_TYPE
        "\", \"cxx_flags\": \"" + jsonEscape(HOSTBENCH_CXX_FLAGS) +
        "\", \"compiler\": \"" + jsonEscape(HOSTBENCH_COMPILER) +
        "\", \"workload_threads\": " + std::to_string(kWorkloadThreads) +
        "}";
    note("machine " + facts);

    Sheet sheet;
    Tracer tracer(opt.trace);
    const double calib0 = calibGflops();
    const double copy0 = copyGbps();

    try {
        workload->second(opt, sheet, tracer);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "maxk_hostbench: %s failed: %s\n",
                     opt.workload.c_str(), e.what());
        return 1;
    }

    // Peak RSS before the closing probe, whose buffers are not the
    // workload's.
    sheet.set("peak_rss_mb", peakRssMb(), "MB");
    const double calib1 = calibGflops();
    const double copy1 = copyGbps();
    sheet.set("machine.calib_gflops.start", calib0, "GFLOP/s");
    sheet.set("machine.calib_gflops.end", calib1, "GFLOP/s");
    sheet.set("machine.copy_gbps.start", copy0, "GB/s");
    sheet.set("machine.copy_gbps.end", copy1, "GB/s");

    // The printed set is exactly one catalog; a missing or non-finite
    // value is a failed check, never a silently absent metric.
    const auto &catalog = opt.trace ? perLayerCatalog() : endToEndCatalog();
    std::string metrics;
    for (const MetricDef &m : catalog) {
        double v = sheet.get(m.name);
        sheet.attempt(sheet.has(m.name) && std::isfinite(v),
                      "metric " + m.name + " missing or not finite");
        if (!std::isfinite(v))
            v = 0.0;
        metrics +=
            (metrics.empty() ? "" : ", ") + metricJson(m.name, v, m.unit);
    }
    // Informational lines: values of the other catalog this run has.
    for (const auto &[name, e] : sheet.entries())
        if (metrics.find("\"" + name + "\"") == std::string::npos)
            note(name + " " + num(e.value) + " " + e.unit);
    const bool correct = sheet.failed() == 0;
    note("operations: " + std::to_string(sheet.failed()) + " failed of " +
         std::to_string(sheet.attempted()) + " attempted");
    const std::string result =
        "{\"correct\": " + std::string(correct ? "true" : "false") +
        ", \"attempted\": " + std::to_string(sheet.attempted()) +
        ", \"failed\": " + std::to_string(sheet.failed()) +
        ", \"metrics\": {" + metrics + "}}";

    std::error_code ec;
    std::filesystem::create_directories(opt.outDir, ec);
    const std::string stem = opt.outDir + "/" + opt.workload + "-seed" +
                             std::to_string(opt.seed) +
                             (opt.trace ? "-trace" : "");
    std::string all;
    for (const auto &[name, e] : sheet.entries())
        all += (all.empty() ? "" : ", ") + metricJson(name, e.value, e.unit);
    std::ofstream(stem + ".json")
        << "{\"workload\": \"" << opt.workload << "\", \"seed\": "
        << opt.seed << ", \"seconds\": " << num(opt.seconds)
        << ", \"machine\": " << facts << ", \"result\": " << result
        << ", \"all_metrics\": {" << all << "}}\n";
    if (opt.trace && !tracer.writeChromeTrace(stem + ".spans.json"))
        std::fprintf(stderr, "maxk_hostbench: cannot write %s\n",
                     (stem + ".spans.json").c_str());

    std::printf("%s\n", result.c_str());
    return correct ? 0 : 1;
}
