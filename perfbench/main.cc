// crf_perfbench: runs one benchmark workload against the repository's
// libraries and writes a JSON result document. perfbench/run.py builds this
// binary, generates the inputs, and turns the document into the benchmark's
// output; see perfbench/README.md.
//
//   crf_perfbench --workload=batch|serve_live|cluster_ab --seed=N --seconds=S
//                 --trace=0|1 --machines=M --days=D --threads=T
//                 [--trace-file=F] [--crf=BIN] --work-dir=DIR --out=FILE
//                 [--corrupt]

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "bench_util.h"

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

int Usage(const std::string& message) {
  std::fprintf(stderr, "crf_perfbench: %s\n", message.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0) {
      return Usage("unexpected argument " + arg);
    }
    const std::string key = arg.substr(2, eq == std::string::npos ? std::string::npos : eq - 2);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    try {
      if (key == "workload") {
        config.workload = value;
      } else if (key == "seed") {
        config.seed = std::stoull(value);
      } else if (key == "seconds") {
        config.seconds = std::stod(value);
      } else if (key == "trace") {
        config.traced = value == "1";
      } else if (key == "machines") {
        config.machines = std::stoi(value);
      } else if (key == "days") {
        config.days = std::stoi(value);
      } else if (key == "threads") {
        config.pool_threads = std::stoi(value);
      } else if (key == "trace-file") {
        config.trace_path = value;
      } else if (key == "crf") {
        config.crf_bin = value;
      } else if (key == "work-dir") {
        config.work_dir = value;
      } else if (key == "out") {
        out_path = value;
      } else if (key == "corrupt") {
        config.corrupt = true;
      } else {
        return Usage("unknown flag " + arg);
      }
    } catch (const std::exception&) {
      return Usage("bad value in " + arg);
    }
  }
  if (out_path.empty() || config.work_dir.empty() || config.machines < 1 || config.days < 1 ||
      config.pool_threads < 1) {
    return Usage("--out, --work-dir, --machines, --days and --threads are required");
  }

  perfbench::Report report;
  report.Info("workload", config.workload);
  report.Info("seed", std::to_string(config.seed));
  report.Info("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  report.Info("hardware_concurrency", std::to_string(std::thread::hardware_concurrency()));
  report.Info("cpu_model", CpuModel());
  report.Info("build_type", PERFBENCH_BUILD_TYPE);
  report.Info("compiler", PERFBENCH_COMPILER);
  report.Info("pool_threads", std::to_string(config.pool_threads));
  report.Info("size", std::to_string(config.machines) + " machines x " +
                          std::to_string(config.days) + " days");
  try {
    if (config.workload == "batch") {
      perfbench::RunBatch(config, report);
    } else if (config.workload == "serve_live") {
      perfbench::RunServeLive(config, report);
    } else if (config.workload == "cluster_ab") {
      perfbench::RunClusterAb(config, report);
    } else {
      return Usage("unknown workload \"" + config.workload + "\"");
    }
  } catch (const std::exception& error) {
    report.Fail(std::string("aborted: ") + error.what());
  }
  if (report.attempted() < report.failed()) {
    report.Attempt(report.failed() - report.attempted());
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    return Usage("cannot write " + out_path);
  }
  const std::string json = report.ToJson();
  const bool written = std::fwrite(json.data(), 1, json.size(), out) == json.size();
  return std::fclose(out) == 0 && written ? 0 : 1;
}
