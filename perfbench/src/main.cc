// pdtstore benchmark entry point:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--quick] [--out-dir DIR]
//
// Runs one workload in this process and prints its result as the last
// line of standard output (a JSON object with `correct`, `attempted`,
// `failed` and `metrics`); everything else goes to standard error. With
// --trace 1 the metrics are the per-layer ones, the recorded spans are
// written to DIR/trace-NAME-N.json and the workload's own details to
// DIR/detail-NAME-N.json when the run ends.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>

#include "workloads.h"

namespace perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload tpch_refreshed|dense_delta_scan|"
               "htap_refresh|durable_ingest --seed N --seconds S "
               "--trace 0|1 [--quick] [--out-dir DIR]\n");
  return 2;
}

int Main(int argc, char** argv) {
  const int64_t start_ns = NowNs();
  Args args;
  args.out_dir = ".bench_out";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--quick") {
      args.quick = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      return Usage();
    }
  }
  if (args.seconds <= 0) return Usage();
  const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
  args.nproc = cpus > 0 ? static_cast<int>(cpus) : 1;

  const std::map<std::string, void (*)(const Args&, int64_t, Result*)>
      workloads = {{"tpch_refreshed", RunTpchRefreshed},
                   {"dense_delta_scan", RunDenseDeltaScan},
                   {"htap_refresh", RunHtapRefresh},
                   {"durable_ingest", RunDurableIngest}};
  auto it = workloads.find(args.workload);
  if (it == workloads.end()) return Usage();

  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", args.out_dir.c_str());
    return 1;
  }
  if (args.trace) Tracer::Get().Enable(1 << 20);

  Result result;
  it->second(args, start_ns, &result);

  if (args.trace) {
    const std::string stem = "-" + args.workload + "-" +
                             std::to_string(args.seed) + ".json";
    const std::string path = args.out_dir + "/trace" + stem;
    if (!Tracer::Get().Dump(path)) {
      result.Fail("cannot write trace file " + path);
    } else {
      std::fprintf(stderr, "spans written to %s\n", path.c_str());
    }
    const std::string detail_path = args.out_dir + "/detail" + stem;
    std::FILE* f = std::fopen(detail_path.c_str(), "w");
    const std::string details = result.DetailsJson();
    bool written =
        f != nullptr && std::fprintf(f, "%s\n", details.c_str()) >= 0;
    if (f != nullptr) written = std::fclose(f) == 0 && written;
    if (!written) {
      result.Fail("cannot write detail file " + detail_path);
    } else {
      std::fprintf(stderr, "details written to %s\n", detail_path.c_str());
    }
  }
  std::fflush(stderr);
  std::printf("%s\n", result.ToJson().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
