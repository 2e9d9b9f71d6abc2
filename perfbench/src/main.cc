/**
 * @file
 * raizn_perfbench: the repository's end-to-end benchmark. One process,
 * one thread; drives the arrays only through their public APIs.
 *
 *   raizn_perfbench --workload raizn_fio|kv_mdraid|raid6_degraded|all
 *                   --seed N --seconds S --trace 0|1
 *                   [--spans-out FILE]
 *
 * --trace 0 prints the end-to-end metrics: set-up time, throughput and
 * peak RSS on the host clock, and bandwidth, mean latency and WAF on
 * the virtual clock (plus ungated diagnostics). --trace 1 runs the
 * quantum untraced, traced with the outside-in decorators, and
 * untraced again, checks that the traced pass reproduces every virtual
 * metric and the event count, and prints the per-layer metrics. The
 * last stdout line is one JSON object: {"correct", "attempted",
 * "failed", "metrics"}. Exit code 1 on a wrong byte, a failed op, a
 * scrub finding or a traced/untraced mismatch; 2 on bad usage.
 */
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench.h"
#include "common/logging.h"

using namespace pb;

namespace {

struct WorkloadDef {
    const char *name;
    std::unique_ptr<Workload> (*make)(const RunOpts &);
};

const WorkloadDef kWorkloads[] = {
    {"raizn_fio", make_raizn_fio},
    {"kv_mdraid", make_kv_mdraid},
    {"raid6_degraded", make_raid6_degraded},
};

/// The q-quantile of `v`, interpolated between the two nearest ranks:
/// 0.5 is the median, 1 the largest value.
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t i = static_cast<size_t>(pos);
    if (i + 1 >= v.size())
        return v.back();
    return v[i] + (pos - static_cast<double>(i)) * (v[i + 1] - v[i]);
}

/// Set-up repetitions of an untraced pass: at least kMinSetups, then
/// more while they have used less than kSetupBudgetNs of CPU time, so
/// the median of a cheap set-up rests on more samples.
constexpr uint32_t kMinSetups = 3, kMaxSetups = 15;
constexpr uint64_t kSetupBudgetNs = 1000000000;

/// One pass: set up (the last set-up is used), run the quantum,
/// rebuild a member, extend until --seconds of timed work, then
/// finish. Set-up, rebuild and finish are outside the timed phase.
struct Pass {
    PassResult r;
    uint64_t window_cpu_ns = 0;
    uint64_t window_events = 0;
};

Pass
run_pass(const WorkloadDef &wd, const RunOpts &o)
{
    std::unique_ptr<Workload> w;
    std::vector<double> setup_s;
    uint64_t spent = 0;
    while (setup_s.empty() ||
           (o.repeat_setup && setup_s.size() < kMaxSetups &&
            (setup_s.size() < kMinSetups || spent < kSetupBudgetNs))) {
        w.reset();
        w = wd.make(o);
        uint64_t t0 = cpu_ns();
        w->setup();
        spent += cpu_ns() - t0;
        setup_s.push_back(static_cast<double>(cpu_ns() - t0) / 1e9);
    }
    if (w->rebuild_first())
        w->rebuild();
    // The quantum and each extension step are one timed step each; the
    // host rate is a quantile of the steps' rates (the median unless
    // the workload asks for a higher one), so a burst of contention on
    // the host or a rare deep compaction moves it less.
    std::vector<double> rates;
    auto timed = [&](auto &&step) {
        uint64_t t0 = cpu_ns(), ops0 = w->ops();
        step();
        uint64_t ns = cpu_ns() - t0, ops = w->ops() - ops0;
        w->r.timed_host_ns += ns;
        w->r.timed_ops += ops;
        rates.push_back(static_cast<double>(ops) * 1e9 /
                        static_cast<double>(std::max<uint64_t>(ns, 1)));
    };
    timed([&] { w->quantum(); });
    if (!w->rebuild_first())
        w->rebuild();
    while (o.extend &&
           static_cast<double>(w->r.timed_host_ns) / 1e9 < o.seconds)
        timed([&] { w->extend_step(); });
    w->r.host_ops_per_s = quantile(rates, w->step_rate_quantile());
    Pass p;
    p.window_cpu_ns = g_tr.window_cpu_ns();
    p.window_events = g_tr.window_events();
    w->finish();
    if (o.traced) {
        SelfTimes st = g_tr.self_times();
        sim_metrics(st, g_tr.window_events(),
                    w->r.write_lat.size() + w->r.read_lat.size(),
                    g_tr.num_spans(), &w->r.layer);
        w->layer_metrics(st);
        if (!o.spans_out.empty() && !g_tr.write_spans(o.spans_out))
            std::fprintf(stderr, "cannot write %s\n", o.spans_out.c_str());
    }
    w->r.setup_s = setup_s;
    p.r = std::move(w->r);
    return p;
}

double
peak_rss_mib()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Virtual metrics on the end-to-end list. The rest (percentiles,
/// rebuild time, counts) repeat exactly across seeds on this simulator
/// or are diagnostics, so they are printed and traced but not gated.
bool
is_e2e(const std::string &name)
{
    static const char *const kE2e[] = {"write_mibs", "read_mibs",
                                       "write_mean_us", "read_mean_us",
                                       "waf"};
    for (const char *n : kE2e)
        if (name == n)
            return true;
    return false;
}

double
failed_ratio(const PassResult &r)
{
    return static_cast<double>(r.errors + r.wrong) /
        static_cast<double>(std::max<uint64_t>(r.attempted, 1));
}

struct Outcome {
    std::vector<Metric> metrics;
    std::vector<Metric> info; ///< printed, not in the JSON line
    uint64_t attempted = 0, failed = 0;
    bool correct = true;
};

void
add_oracle(Outcome *out, const PassResult &r, const char *wl)
{
    out->attempted += r.attempted;
    out->failed += r.errors + r.wrong;
    if (r.errors + r.wrong > 0 || !r.scrub_ok) {
        std::fprintf(stderr,
                     "%s: ORACLE FAILED: %llu errors, %llu wrong reads, "
                     "scrub %s\n",
                     wl, (unsigned long long)r.errors,
                     (unsigned long long)r.wrong, r.scrub_ok ? "ok" : "BAD");
        out->correct = false;
    }
}

Outcome
run_untraced(const WorkloadDef &wd, const RunOpts &base)
{
    RunOpts o = base;
    o.traced = false;
    o.extend = true;
    Pass p = run_pass(wd, o);
    Outcome out;
    add_oracle(&out, p.r, wd.name);
    double host_s = static_cast<double>(p.r.timed_host_ns) / 1e9;
    out.metrics.push_back({"setup_s", quantile(p.r.setup_s, 0.5), "s"});
    out.metrics.push_back({"host_ops_per_s", p.r.host_ops_per_s, "1/s"});
    out.metrics.push_back({"peak_rss_mib", peak_rss_mib(), "MiB"});
    for (const Metric &m : p.r.virtual_metrics(p.window_events))
        (is_e2e(m.name) ? out.metrics : out.info).push_back(m);
    out.info.push_back({"failed_op_ratio", failed_ratio(p.r), "ratio"});
    out.info.push_back({"timed_ops", static_cast<double>(p.r.timed_ops),
                        "count"});
    out.info.push_back({"timed_host_s", host_s, "s"});
    return out;
}

Outcome
run_traced(const WorkloadDef &wd, const RunOpts &base)
{
    RunOpts o = base;
    o.extend = false;
    o.repeat_setup = false;
    // Untraced passes on both sides of the traced one, so warm-up and
    // drift do not bias the overhead.
    o.traced = false;
    Pass plain = run_pass(wd, o);
    o.traced = true;
    Pass traced = run_pass(wd, o);
    o.traced = false;
    Pass plain2 = run_pass(wd, o);
    Outcome out;
    add_oracle(&out, plain.r, wd.name);
    add_oracle(&out, traced.r, wd.name);
    add_oracle(&out, plain2.r, wd.name);

    std::vector<Metric> a = plain.r.virtual_metrics(plain.window_events);
    std::vector<Metric> b = traced.r.virtual_metrics(traced.window_events);
    for (size_t i = 0; i < a.size(); ++i) {
        if (a[i].value != b[i].value) {
            std::fprintf(stderr,
                         "%s: TRACE CHANGED THE RUN: %s untraced=%.17g "
                         "traced=%.17g\n",
                         wd.name, a[i].name.c_str(), a[i].value,
                         b[i].value);
            out.correct = false;
        }
    }
    std::map<std::string, double> L = traced.r.layer;
    for (const Metric &m : b)
        if (!is_e2e(m.name))
            L["bench." + m.name] = m.value;
    L["bench.failed_op_ratio"] =
        std::max({failed_ratio(plain.r), failed_ratio(traced.r),
                  failed_ratio(plain2.r)});
    L["trace.overhead_frac"] =
        2.0 * static_cast<double>(traced.window_cpu_ns) /
            static_cast<double>(plain.window_cpu_ns +
                                plain2.window_cpu_ns) -
        1.0;
    for (const LayerMetricDef &d : layer_metric_defs())
        out.metrics.push_back({d.name, L.count(d.name) ? L[d.name] : 0.0,
                               d.unit});
    for (const StageDef &d : stage_defs()) {
        for (const char *q : {"_p50_us", "_p999_us"}) {
            std::string n =
                std::string(d.array) + ".stage." + d.stage + q;
            out.metrics.push_back({n, L.count(n) ? L[n] : 0.0, "us"});
        }
    }
    return out;
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: raizn_perfbench --workload "
                 "raizn_fio|kv_mdraid|raid6_degraded|all --seed N "
                 "--seconds S --trace 0|1 [--spans-out FILE]\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    RunOpts o;
    int trace = -1;
    bool have_seed = false, have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc) {
            usage();
            return 2;
        }
        std::string v = argv[++i];
        if (a == "--workload") {
            workload = v;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v.c_str(), nullptr, 10);
            have_seed = true;
        } else if (a == "--seconds") {
            o.seconds = std::atof(v.c_str());
            have_seconds = true;
        } else if (a == "--trace") {
            trace = std::atoi(v.c_str());
        } else if (a == "--spans-out") {
            o.spans_out = v;
        } else {
            usage();
            return 2;
        }
    }
    std::vector<const WorkloadDef *> run;
    for (const WorkloadDef &wd : kWorkloads)
        if (workload == wd.name || workload == "all")
            run.push_back(&wd);
    if (run.empty() || (trace != 0 && trace != 1) || !have_seed ||
        !have_seconds || o.seconds <= 0) {
        usage();
        return 2;
    }
    // The simulator's own INFO chatter would drown the metric table.
    raizn::set_log_level(raizn::LogLevel::kWarn);

    Outcome all;
    for (const WorkloadDef *wd : run) {
        Outcome oc = trace ? run_traced(*wd, o) : run_untraced(*wd, o);
        std::printf("== %s (seed %llu, trace %d)\n", wd->name,
                    (unsigned long long)o.seed, trace);
        for (const Metric &m : oc.info)
            std::printf("  %-44s %16.6f %s (not gated)\n", m.name.c_str(),
                        m.value, m.unit.c_str());
        for (const Metric &m : oc.metrics) {
            std::printf("  %-44s %16.6f %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
            std::string name = run.size() > 1
                ? std::string(wd->name) + "." + m.name
                : m.name;
            all.metrics.push_back({name, m.value, m.unit});
        }
        all.attempted += oc.attempted;
        all.failed += oc.failed;
        all.correct = all.correct && oc.correct;
    }

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                all.correct ? "true" : "false",
                (unsigned long long)all.attempted,
                (unsigned long long)all.failed);
    for (size_t i = 0; i < all.metrics.size(); ++i) {
        const Metric &m = all.metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
    return all.correct ? 0 : 1;
}
