/**
 * @file
 * maxk-perf-check — compare a maxk-perf-v1 JSON report (bench --json)
 * against a committed baseline and fail on regressions.
 *
 * The records are deterministic by construction (the benches collect
 * them with the cache model off, so every metric is structural), which
 * is why the default thresholds can be tight. Regression rules, per
 * baseline record (keyed by bench/kernel/graph/dim/k):
 *
 *   sim_seconds, dram_bytes, l2_req_bytes:
 *       fail when current > baseline * (1 + tol)          [--tol, 0.02]
 *   peak_workspace_bytes:
 *       fail when current > baseline * (1 + wtol) AND
 *       current > baseline + 4096 bytes (absolute slack for allocator
 *       rounding differences across libstdc++ versions)
 *                                             [--workspace-tol, 0.25]
 *   alloc_count:
 *       fail when current > baseline (exact — allocation creep in the
 *       hot loop is the regression class ISSUE 4 exists to prevent)
 *
 * A baseline record missing from the current report fails (a kernel
 * silently dropped out of the bench); extra current records are listed
 * but pass (new kernels land with a later baseline refresh).
 * Improvements beyond tol are reported so baselines can be re-blessed
 * (see README "Performance": MAXK_PERF_BLESS=1 in tools/perfgate.sh).
 *
 * Exit codes: 0 ok, 1 regression/missing records, 2 usage/parse error.
 */

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "json_reader.hh"

namespace
{

namespace json = maxk::json;

/** One flat record: string fields + numeric fields. */
struct Record
{
    std::map<std::string, std::string> strings;
    std::map<std::string, double> numbers;

    std::string
    key() const
    {
        auto str = [&](const char *k) {
            auto it = strings.find(k);
            return it == strings.end() ? std::string("?") : it->second;
        };
        auto num = [&](const char *k) {
            auto it = numbers.find(k);
            return it == numbers.end()
                       ? std::string("?")
                       : std::to_string(
                             static_cast<long long>(it->second));
        };
        return str("bench") + "/" + str("kernel") + "/" + str("graph") +
               "/dim" + num("dim") + "/k" + num("k");
    }

    double
    num(const char *k, double fallback = 0.0) const
    {
        auto it = numbers.find(k);
        return it == numbers.end() ? fallback : it->second;
    }
};

[[noreturn]] void
reportError(const std::string &path, const std::string &what)
{
    std::fprintf(stderr, "maxk-perf-check: %s: %s\n", path.c_str(),
                 what.c_str());
    std::exit(2);
}

std::vector<Record>
loadReport(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "maxk-perf-check: cannot open %s\n",
                     path.c_str());
        std::exit(2);
    }
    std::ostringstream buf;
    buf << in.rdbuf();

    json::Value doc;
    json::ParseError err;
    if (!json::parse(buf.str(), doc, err))
        reportError(path, "JSON parse error at byte " +
                              std::to_string(err.offset) + ": " +
                              err.what);
    if (doc.kind != json::Value::Kind::Object)
        reportError(path, "report is not a JSON object");
    if (const json::Value *schema = doc.find("schema");
        schema && (schema->kind != json::Value::Kind::String ||
                   schema->string != "maxk-perf-v1"))
        reportError(path, "unknown schema (want maxk-perf-v1)");
    const json::Value *records = doc.find("records");
    if (!records || records->kind != json::Value::Kind::Array)
        reportError(path, "no \"records\" array");

    std::vector<Record> out;
    for (const json::Value &r : records->array) {
        if (r.kind != json::Value::Kind::Object)
            reportError(path, "a record is not a JSON object");
        Record rec;
        for (const auto &[field, v] : r.object) {
            if (v.kind == json::Value::Kind::String)
                rec.strings[field] = v.string;
            else if (v.kind == json::Value::Kind::Number)
                rec.numbers[field] = v.number;
        }
        out.push_back(std::move(rec));
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string current_path, baseline_path;
    double tol = 0.02;
    double wtol = 0.25;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--tol" && i + 1 < argc) {
            tol = std::strtod(argv[++i], nullptr);
        } else if (arg == "--workspace-tol" && i + 1 < argc) {
            wtol = std::strtod(argv[++i], nullptr);
        } else if (arg == "--help" || arg == "-h") {
            std::printf("usage: maxk-perf-check <current.json> "
                        "<baseline.json> [--tol F] [--workspace-tol F]\n");
            return 0;
        } else if (current_path.empty()) {
            current_path = arg;
        } else if (baseline_path.empty()) {
            baseline_path = arg;
        } else {
            std::fprintf(stderr, "maxk-perf-check: unexpected '%s'\n",
                         arg.c_str());
            return 2;
        }
    }
    if (current_path.empty() || baseline_path.empty()) {
        std::fprintf(stderr, "usage: maxk-perf-check <current.json> "
                             "<baseline.json> [--tol F] "
                             "[--workspace-tol F]\n");
        return 2;
    }

    const std::vector<Record> current = loadReport(current_path);
    const std::vector<Record> baseline = loadReport(baseline_path);

    std::map<std::string, const Record *> current_by_key;
    for (const Record &r : current)
        current_by_key[r.key()] = &r;

    int regressions = 0;
    int improvements = 0;
    std::map<std::string, bool> matched;

    auto check_metric = [&](const Record &base, const Record &cur,
                            const char *metric, double rel_tol,
                            double abs_slack, bool exact) {
        const double b = base.num(metric);
        const double c = cur.num(metric);
        const bool regressed =
            exact ? c > b
                  : (c > b * (1.0 + rel_tol) && c > b + abs_slack);
        if (regressed) {
            std::printf("REGRESSION %s %s: %.6g -> %.6g (+%.2f%%)\n",
                        base.key().c_str(), metric, b, c,
                        b > 0 ? 100.0 * (c - b) / b : 100.0);
            ++regressions;
        } else if (!exact && b > 0 && c < b * (1.0 - rel_tol)) {
            std::printf("improved   %s %s: %.6g -> %.6g (%.2f%%)\n",
                        base.key().c_str(), metric, b, c,
                        100.0 * (c - b) / b);
            ++improvements;
        }
    };

    for (const Record &base : baseline) {
        const std::string key = base.key();
        auto it = current_by_key.find(key);
        if (it == current_by_key.end()) {
            std::printf("MISSING    %s (in baseline, not in current "
                        "report)\n",
                        key.c_str());
            ++regressions;
            continue;
        }
        matched[key] = true;
        const Record &cur = *it->second;
        check_metric(base, cur, "sim_seconds", tol, 0.0, false);
        check_metric(base, cur, "dram_bytes", tol, 0.0, false);
        check_metric(base, cur, "l2_req_bytes", tol, 0.0, false);
        check_metric(base, cur, "peak_workspace_bytes", wtol, 4096.0,
                     false);
        check_metric(base, cur, "alloc_count", 0.0, 0.0, true);
    }

    int extra = 0;
    for (const Record &r : current)
        if (!matched.count(r.key()))
            ++extra;
    if (extra > 0)
        std::printf("note: %d record(s) in the current report have no "
                    "baseline yet (refresh to start gating them)\n",
                    extra);

    std::printf("maxk-perf-check: %zu baseline record(s), %d "
                "regression(s), %d improvement(s)\n",
                baseline.size(), regressions, improvements);
    if (improvements > 0 && regressions == 0)
        std::printf("note: improvements beyond tolerance — consider "
                    "refreshing the baseline (MAXK_PERF_BLESS=1, see "
                    "README Performance)\n");
    return regressions == 0 ? 0 : 1;
}
