// lion_perfbench — run one benchmark workload and write its raw results.
//
//   lion_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --out FILE --work-dir DIR
//
// Every run executes batch_fleet (engine::BatchEngine) with an untraced
// serve_ingest pass (closed-loop journaled ingest) and a setup slot (timed
// start-up) after each of its measured runs, then the last ingest pass
// (+ restore), then serve_flush (open-loop flushes and ticks + restore),
// all sized from S; two more setup slots follow the last two. With --trace 1
// the phases run shorter, each measured pass is repeated (or, for
// serve_flush, run) with span tracing on, and the spans are written into
// FILE. Exit status 0 means every output check passed.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "driver/harness.hpp"

namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: lion_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --out FILE --work-dir DIR\n",
               msg);
  std::exit(2);
}

bool write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  std::string workload;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--out") {
      out_path = value;
    } else if (flag == "--work-dir") {
      opt.work_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!perfbench::find_workload(workload, opt.w)) usage("unknown workload");
  if (out_path.empty() || opt.work_dir.empty() || !(opt.seconds > 0.0)) {
    usage("--out, --work-dir and a positive --seconds are required");
  }
  // Sizing: the flush schedule takes three quarters of S; the fleet holds
  // one antenna per flush cycle, and the ingest pass sends a fixed number
  // of reads per second of S. The traced run is shorter: every measured
  // pass runs twice there, and every span must fit the in-memory rings.
  const double scale = opt.trace ? 0.25 : 1.0;
  opt.flush_s = 0.75 * opt.seconds * scale;
  opt.ingest_reads = perfbench::kIngestReadsPerRunS * opt.seconds * scale;

  // Input generation (never timed): the fleet shared by batch_fleet and
  // serve_flush.
  perfbench::Fleet fleet;
  fleet.antennas = perfbench::make_antennas(
      opt.w, opt.seed, perfbench::first_antenna_id(opt.seed),
      std::max(perfbench::flush_cycles(opt.flush_s),
               static_cast<std::size_t>(perfbench::kFleetPerRunS *
                                        opt.seconds * scale)));
  for (std::size_t g = 0; g < fleet.antennas.size(); ++g) {
    const std::string id = std::string("f").append(std::to_string(g));
    fleet.declares.push_back(
        perfbench::calibrate_declare(id, fleet.antennas[g]));
  }
  fleet.config = perfbench::declared_config(fleet.declares.front());
  fleet.scan_rows = fleet.antennas.front().rows.size();
  for (const auto& a : fleet.antennas) {
    fleet.scan_rows = std::min(fleet.scan_rows, a.rows.size());
  }
  fleet.scan_rows -= perfbench::kDeltaRows;

  perfbench::Json out;
  out.open();
  out.str("workload", opt.w.name);
  out.num("seed", static_cast<double>(opt.seed));
  out.num("trace", opt.trace ? 1.0 : 0.0);
  out.num("scan_rows", static_cast<double>(fleet.scan_rows));
  perfbench::SetupSampler setup(fleet);
  perfbench::IngestPhase ingest(opt);
  // The measured batch runs, ingest passes and set-ups take turns, so the
  // median of each draws on samples spread over the run.
  const auto between = [&] {
    ingest.pass();
    setup.slot();
  };
  bool ok = perfbench::run_batch_phase(opt, fleet, out, between);
  ok = ingest.finish(out) && ok;
  setup.slot();
  ok = perfbench::run_flush_phase(opt, fleet, out) && ok;
  setup.slot();
  ok = setup.write(out) && ok;
  out.num("peak_rss_mb", perfbench::peak_rss_mb());
  out.num("ok", ok ? 1.0 : 0.0);
  out.close();

  if (!write_file(out_path, out.text())) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  return ok ? 0 : 1;
}
