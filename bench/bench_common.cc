#include "bench_common.hh"

#include <cstdio>
#include <cstring>

#include "util/logging.hh"

namespace smarts::bench {

BenchOptions
parseOptions(int argc, char **argv, bool default_quick,
             const std::string &default_csv)
{
    BenchOptions opt;
    opt.quickSuite = default_quick;
    opt.csvPath = default_csv;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char *prefix) -> const char * {
            return arg.rfind(prefix, 0) == 0
                       ? arg.c_str() + std::strlen(prefix)
                       : nullptr;
        };
        if (const char *v = value("--scale=")) {
            if (!std::strcmp(v, "mini"))
                opt.scale = workloads::Scale::Mini;
            else if (!std::strcmp(v, "small"))
                opt.scale = workloads::Scale::Small;
            else if (!std::strcmp(v, "large"))
                opt.scale = workloads::Scale::Large;
            else
                SMARTS_FATAL("unknown scale '", v, "'");
        } else if (const char *v2 = value("--suite=")) {
            opt.quickSuite = !std::strcmp(v2, "quick");
        } else if (const char *v3 = value("--machine=")) {
            opt.runEight =
                !std::strcmp(v3, "8") || !std::strcmp(v3, "both");
            opt.runSixteen =
                !std::strcmp(v3, "16") || !std::strcmp(v3, "both");
        } else if (const char *v4 = value("--csv=")) {
            opt.csvPath = v4;
        } else if (const char *v5 = value("--section=")) {
            opt.section = v5;
        } else if (const char *v6 = value("--store=")) {
            opt.storePath = v6;
        } else if (const char *v7 = value("--json=")) {
            opt.jsonPath = v7;
        } else if (arg == "--benchmark_format" ||
                   arg.rfind("--benchmark", 0) == 0) {
            // Tolerate google-benchmark-style flags when invoked by
            // generic runners.
        } else {
            SMARTS_FATAL("unknown flag '", arg,
                         "' (supported: --scale=, --suite=, "
                         "--machine=, --csv=, --section=, "
                         "--store=, --json=)");
        }
    }
    return opt;
}

std::vector<uarch::MachineConfig>
machines(const BenchOptions &opt)
{
    std::vector<uarch::MachineConfig> configs;
    if (opt.runEight)
        configs.push_back(uarch::MachineConfig::eightWay());
    if (opt.runSixteen)
        configs.push_back(uarch::MachineConfig::sixteenWay());
    return configs;
}

std::uint64_t
recommendedW(const uarch::MachineConfig &config)
{
    return config.name == "16-way" ? 4000 : 2000;
}

void
banner(const std::string &title, const BenchOptions &opt)
{
    std::printf("=== %s ===\n", title.c_str());
    std::printf("suite: %s, scale: %s\n\n",
                opt.quickSuite ? "quick" : "standard",
                opt.scaleName());
    std::fflush(stdout);
}

void
emit(const TextTable &table, const BenchOptions &opt)
{
    std::printf("%s\n", table.toString().c_str());
    if (!opt.csvPath.empty()) {
        table.writeCsv(opt.csvPath);
        std::printf("csv: %s\n", opt.csvPath.c_str());
    }
    std::fflush(stdout);
}

} // namespace smarts::bench
