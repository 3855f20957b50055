/**
 * @file
 * fpc_bench — the repository's benchmark (README.md in this directory).
 *
 *   fpc_bench --workload=<name|all> --seed=<n> [--seconds=<s>]
 *             [--trace=<file>] [--smoke] [--tmpdir=<dir>]
 *
 * Prints a header of run facts, then one line per metric, one per
 * correctness check and the operation counts (report.h). Exits 1 when
 * any output was wrong, 2 on a usage error. --workload=all runs each
 * workload in a fresh process of its own, so set-up time and peak memory
 * are per workload. --trace=FILE first measures untraced for half the
 * time, then replays the same operations decomposed into spans for the
 * other half, tours the layers the workload did not reach, prints every
 * per-layer metric and writes the spans to FILE as Chrome trace JSON.
 */
#include <cinttypes>
#include <malloc.h>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "core/telemetry.h"
#include "spans.h"
#include "util/cpu_features.h"
#include "workloads.h"

namespace {

using namespace fpcbench;

/** Spans kept in memory by one traced run (about 64 B each). */
constexpr size_t kMaxSpans = 200'000;

struct Args {
    std::string workload;
    RunSettings settings;
    std::string trace;
    bool ok = true;
};

Args
Parse(int argc, char** argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&](const char* key) -> const char* {
            const size_t n = std::strlen(key);
            return a.compare(0, n, key) == 0 ? argv[i] + n : nullptr;
        };
        if (const char* v = value("--workload=")) {
            args.workload = v;
        } else if (const char* v = value("--seed=")) {
            args.settings.seed = std::strtoull(v, nullptr, 10);
        } else if (const char* v = value("--seconds=")) {
            args.settings.seconds = std::strtod(v, nullptr);
        } else if (const char* v = value("--trace=")) {
            args.trace = v;
        } else if (const char* v = value("--tmpdir=")) {
            args.settings.tmpdir = v;
        } else if (a == "--smoke") {
            args.settings.smoke = true;
        } else {
            std::fprintf(stderr, "fpc_bench: unknown argument %s\n", argv[i]);
            args.ok = false;
        }
    }
    if (args.workload.empty() || !(args.settings.seconds > 0)) args.ok = false;
    return args;
}

/** Seconds of one set-up run in a forked child, so it starts as cold as
 *  a fresh process; the child reports through a pipe. The parent has
 *  started no OpenMP team yet, so the child may. */
double
ForkedSetup(Workload& workload)
{
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
        ::close(fds[0]);
        int code = 1;
        try {
            const int64_t t0 = NowNs();
            workload.Setup();
            const double seconds = static_cast<double>(NowNs() - t0) / 1e9;
            workload.Teardown();
            if (::write(fds[1], &seconds, sizeof seconds) ==
                static_cast<ssize_t>(sizeof seconds)) {
                code = 0;
            }
        } catch (const std::exception& e) {
            std::fprintf(stderr, "fpc_bench: set-up failed: %s\n", e.what());
        }
        ::_exit(code);
    }
    ::close(fds[1]);
    double seconds = 0;
    size_t got = 0;
    while (got < sizeof seconds) {
        const ssize_t n =
            ::read(fds[0], reinterpret_cast<char*>(&seconds) + got,
                   sizeof seconds - got);
        if (n <= 0) break;
        got += static_cast<size_t>(n);
    }
    ::close(fds[0]);
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (got != sizeof seconds || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
        throw std::runtime_error("set-up failed in a child process");
    }
    return seconds;
}

int
RunAll(const Args& args, char** argv)
{
    int worst = 0;
    for (const char* name : kWorkloadNames) {
        std::vector<std::string> child_args = {
            argv[0], std::string("--workload=") + name,
            "--seed=" + std::to_string(args.settings.seed),
            "--seconds=" + std::to_string(args.settings.seconds),
            "--tmpdir=" + args.settings.tmpdir};
        if (args.settings.smoke) child_args.push_back("--smoke");
        if (!args.trace.empty()) {
            // trace.json -> trace.archive-ratio.json, one file each.
            std::string path = args.trace;
            const size_t dot = path.rfind('.');
            const size_t slash = path.rfind('/');
            const bool has_ext =
                dot != std::string::npos &&
                (slash == std::string::npos || dot > slash);
            path.insert(has_ext ? dot : path.size(), std::string(".") + name);
            child_args.push_back("--trace=" + path);
        }
        std::vector<char*> cargv;
        for (std::string& s : child_args) cargv.push_back(s.data());
        cargv.push_back(nullptr);
        std::fflush(stdout);
        const pid_t pid = ::fork();
        if (pid < 0) return 1;
        if (pid == 0) {
            ::execv("/proc/self/exe", cargv.data());
            ::_exit(127);
        }
        int status = 0;
        struct rusage usage {};
        ::wait4(pid, &status, 0, &usage);
        const int code = WIFEXITED(status) ? WEXITSTATUS(status) : 1;
        std::printf("child %s exit=%d maxrss_mib=%.1f\n", name, code,
                    static_cast<double>(usage.ru_maxrss) / 1024.0);
        worst = std::max(worst, code);
    }
    return worst;
}

int
RunOne(const Args& args)
{
    const RunSettings& settings = args.settings;
    std::unique_ptr<Workload> workload = MakeWorkload(args.workload, settings);
    if (workload == nullptr) {
        std::fprintf(stderr, "fpc_bench: unknown workload %s\n",
                     args.workload.c_str());
        return 2;
    }
#ifdef _OPENMP
    // The gpusim grid and any call that leaves Options::threads at 0 run
    // on this many host threads.
    omp_set_num_threads(workload->HostThreads());
#endif
    workload->Generate();
    const bool traced = !args.trace.empty();
    std::printf("header workload=%s seed=%" PRIu64 " seconds=%g smoke=%d "
                "trace=%s nproc=%u isa=%s telemetry=%s build=%s "
                "corpus_fingerprint=%016" PRIx64 "\n",
                args.workload.c_str(), settings.seed, settings.seconds,
                settings.smoke ? 1 : 0, traced ? args.trace.c_str() : "-",
                std::max(1u, std::thread::hardware_concurrency()),
                fpc::simd::IsaName(fpc::simd::DefaultIsa()),
                fpc::kTelemetryEnabled ? "on" : "off", FPC_BENCH_BUILD_TYPE,
                workload->Fingerprint());

    // Set-up five times, each cold (four in forked children, the last in
    // this process, which keeps its state); a traced or smoke run sets up
    // once.
    std::vector<double> setup_s;
    if (!traced && !settings.smoke) {
        for (int rep = 0; rep < 4; ++rep) {
            setup_s.push_back(ForkedSetup(*workload));
        }
    }
    const int64_t t0 = NowNs();
    workload->Setup();
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    workload->Prepare();

    Report report(args.workload);
    const double measured = traced ? settings.seconds / 2 : settings.seconds;
    const PhaseTotals untraced = workload->Measure(measured, report);
    if (traced) {
        Tracer& tracer = Tracer::Get();
        tracer.Enable(true);
        workload->Replay(settings.seconds / 2, kMaxSpans, report);
        RunTour(workload->Tour(), settings.seed, settings.tmpdir, report);
        tracer.Enable(false);
        AddLayerMetrics(tracer.Summarise(),
                        untraced.op_ns / static_cast<double>(untraced.ops),
                        report);
        report.Check("trace_written", tracer.WriteChromeJson(args.trace));
    }

    report.Metric("setup_s", Median(setup_s), "s", setup_s.size());
    struct rusage usage {};
    ::getrusage(RUSAGE_SELF, &usage);
    report.Metric("peak_rss_mib", static_cast<double>(usage.ru_maxrss) / 1024.0,
                  "MiB", 1);
    workload->Teardown();
    report.Print();
    return report.Correct() ? 0 : 1;
}

}  // namespace

int
main(int argc, char** argv)
{
    // Freed memory stays in the heap: no mmap per large buffer, no trim.
    // With glibc's defaults every 64 MiB Compress maps and faults in fresh
    // pages; on the 4-vCPU VM this benchmark was tuned on, that churn
    // varied field-speed-mt throughput by +-10 % from run to run. The
    // library's own work is unchanged; a change aimed at allocation cost
    // should be judged on peak_rss_mib or measured without this.
    mallopt(M_MMAP_MAX, 0);
    mallopt(M_TRIM_THRESHOLD, 1 << 30);
    const Args args = Parse(argc, argv);
    if (!args.ok) {
        std::fprintf(stderr,
                     "usage: fpc_bench --workload=<name|all> --seed=<n> "
                     "[--seconds=<s>] [--trace=<file>] [--smoke] "
                     "[--tmpdir=<dir>]\n");
        return 2;
    }
    try {
        return args.workload == "all" ? RunAll(args, argv) : RunOne(args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "fpc_bench: %s\n", e.what());
        return 1;
    }
}
