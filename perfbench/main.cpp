// perfbench: runs one workload of paper-model cells for a fixed time and
// prints its metrics; the last line of stdout is one JSON object.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --goldens FILE [--trace-out FILE]
//   perfbench --print-goldens      (one untraced pass over every cell)
//
// --trace 0 reports the end-to-end metrics (set-up, verify time, peak RSS,
// peak allocated nodes); --trace 1 alternates untraced passes with passes
// through the rebuilt, span-instrumented loops, checks the two agree, and
// reports the per-layer metrics.
// Exit 0 when every cell matched; 1 when some cell failed (the JSON line is
// still printed); 2 on bad arguments or unreadable goldens.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "outcome.hpp"
#include "pass.hpp"
#include "stats.hpp"
#include "util/timer.hpp"

using namespace perfbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string goldens;
  std::string traceOut;
  bool printGoldens = false;
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "perfbench: " << error
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --goldens FILE [--trace-out FILE]\n"
               "       perfbench --print-goldens\nworkloads:";
  for (const Workload& w : workloads()) std::cerr << ' ' << w.name;
  std::cerr << '\n';
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args args;
  bool haveSeed = false;
  bool haveSeconds = false;
  bool haveTrace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--print-goldens") {
      args.printGoldens = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      std::size_t used = 0;
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value, &used);
        haveSeed = true;
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value, &used);
        haveSeconds = true;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
        haveTrace = true;
      } else if (flag == "--goldens") {
        args.goldens = value;
      } else if (flag == "--trace-out") {
        args.traceOut = value;
      } else {
        usage("unknown flag " + flag);
      }
      if (used != 0 && used != value.size()) usage("bad number for " + flag);
    } catch (const std::logic_error&) {
      usage("bad number for " + flag);
    }
  }
  if (args.printGoldens) return args;
  if (findWorkload(args.workload) == nullptr) {
    usage("unknown workload '" + args.workload + "'");
  }
  if (!haveSeed || !haveSeconds || !haveTrace || args.goldens.empty()) {
    usage("--seed, --seconds, --trace and --goldens are required");
  }
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

constexpr std::size_t kMinSetupSamples = 101;

/// Starts another pass only when one more of average length still fits.
bool anotherPassFits(double elapsed, std::size_t passes, double seconds) {
  return elapsed + elapsed / static_cast<double>(passes) <= seconds;
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// "order: a b; setup_s X; verify_s Y" -- the pass's cell order and times.
std::string describePass(const PassResult& pass) {
  std::ostringstream out;
  out << "order:";
  for (const CellRun& c : pass.cells) out << ' ' << c.spec->id;
  out << "; setup_s " << pass.setupS() << "; verify_s " << pass.verifyS();
  return out.str();
}

/// Attempted and failed cells; a cell fails once however many checks it
/// misses, so failed never exceeds attempted.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Checks the cell against its golden and, when given, against the
  /// outcome runMethod produced for the same cell.
  void check(const Goldens& goldens, const CellRun& run,
             const Outcome* engine = nullptr) {
    ++attempted;
    std::vector<std::string> reasons;
    if (std::string r = checkOutcome(goldens, run.spec->id, run.outcome);
        !r.empty()) {
      reasons.push_back(std::move(r));
    }
    if (engine != nullptr && !(run.outcome == *engine)) {
      reasons.push_back(run.spec->id + ": traced loop '" +
                        formatGoldenLine(run.spec->id, run.outcome) +
                        "' differs from runMethod '" +
                        formatGoldenLine(run.spec->id, *engine) + "'");
    }
    if (!reasons.empty()) ++failed;
    for (const std::string& r : reasons) {
      std::cerr << "perfbench: FAIL " << r << '\n';
    }
  }
};

std::string jsonNumber(double v) {
  std::ostringstream out;
  out.precision(17);
  out << v;
  return out.str();
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result line: exactly correct / attempted / failed / metrics.
void printResult(const Tally& tally, const std::vector<Metric>& metrics) {
  std::cout << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << tally.attempted
            << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i == 0 ? "" : ", ") << '"' << metrics[i].name
              << "\": {\"value\": " << jsonNumber(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

int printGoldens() {
  std::cout << "# cell verdict iterations peak_iterate_nodes members "
               "cex_length cex_check\n";
  for (const Workload& w : workloads()) {
    std::vector<std::size_t> order(w.cells.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (const CellRun& run : runEnginePass(w, order).cells) {
      std::cout << formatGoldenLine(run.spec->id, run.outcome) << '\n';
    }
  }
  return 0;
}

int runEndToEnd(const Args& args, const Workload& workload,
                const Goldens& goldens) {
  Tally tally;
  std::vector<double> setups;
  std::vector<double> verifies;
  std::uint64_t peakAlloc = 0;
  const icb::Stopwatch clock;
  for (unsigned pass = 0;; ++pass) {
    const PassResult p = runEnginePass(
        workload, passOrder(workload.cells.size(), args.seed, pass));
    std::cout << "perfbench pass " << pass << ' ' << describePass(p)
              << '\n';
    for (const CellRun& run : p.cells) tally.check(goldens, run);
    setups.push_back(p.setupS());
    verifies.push_back(p.verifyS());
    peakAlloc = std::max(peakAlloc, p.peakAllocatedNodes());
    if (!anotherPassFits(clock.elapsedSeconds(), setups.size(), args.seconds)) {
      break;
    }
  }
  // Set-up is milliseconds on most workloads, so a few passes give too few
  // samples for a steady median; set-up-only rounds add samples, within 5%
  // of the run's time.
  const double meanSetup =
      std::accumulate(setups.begin(), setups.end(), 0.0) /
      static_cast<double>(setups.size());
  const icb::Stopwatch setupClock;
  while (setups.size() < kMinSetupSamples &&
         setupClock.elapsedSeconds() + meanSetup <= 0.05 * args.seconds) {
    setups.push_back(runSetupRound(
        workload, passOrder(workload.cells.size(), args.seed,
                            static_cast<unsigned>(setups.size()))));
  }
  const double rss = peakRssMb();
  const std::size_t n = verifies.size();
  std::cout << "perfbench setup_s median " << median(setups) << " s (n="
            << setups.size() << ")\n";
  std::cout << "perfbench verify_s median " << median(verifies) << " s (n=" << n
            << ")";
  if (const auto tail = tailPercentile(verifies)) {
    std::cout << ", p" << tail->p << ' ' << tail->value << " s";
  }
  std::cout << "\nperfbench peak_rss_mb " << rss << " MB\n";
  std::cout << "perfbench peak_alloc_nodes " << peakAlloc << " count\n";
  std::cout << "perfbench cell_fail_rate "
            << static_cast<double>(tally.failed) /
                   static_cast<double>(tally.attempted)
            << " (" << tally.failed << " of " << tally.attempted
            << " cells)\n";
  printResult(tally, {{"verify_s", median(verifies), "s"},
                      {"setup_s", median(setups), "s"},
                      {"peak_rss_mb", rss, "MB"},
                      {"peak_alloc_nodes", static_cast<double>(peakAlloc),
                       "count"}});
  return tally.failed == 0 ? 0 : 1;
}

/// Units of the per-layer metrics, in the order they are printed.
const std::vector<std::pair<std::string, std::string>>& layerUnits() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"ici.term_s", "s"},
      {"ici.term_tautology_calls", "count"},
      {"ici.term_shannon_expansions", "count"},
      {"ici.simplify_s", "s"},
      {"ici.simplify_applications", "count"},
      {"ici.greedy_s", "s"},
      {"ici.greedy_merges", "count"},
      {"ici.pair_entries_built", "count"},
      {"ici.normalize_s", "s"},
      {"sym.property_s", "s"},
      {"sym.image_s", "s"},
      {"sym.image_calls", "count"},
      {"bdd.gc_s", "s"},
      {"bdd.gc_runs", "count"},
      {"bdd.gc_reclaimed_per_run", "nodes/run"},
      {"bdd.gc_in_image_s", "s"},
      {"bdd.gc_in_term_s", "s"},
      {"bdd.gc_in_policy_s", "s"},
      {"bdd.gc_in_cex_s", "s"},
      {"bdd.and_s", "s"},
      {"bdd.nodes_created", "count"},
      {"bdd.cache_lookups", "count"},
      {"bdd.cache_hit_rate", "ratio"},
      {"bdd.unique_lookups", "count"},
      {"bdd.unique_chain_per_lookup", "steps/lookup"},
      {"models.build_s", "s"},
      {"verif.cex_s", "s"},
      {"verif.loop_self_s", "s"},
      {"verif.iterations", "count"},
      {"trace.verify_s", "s"},
      {"trace.span_coverage", "ratio"},
      {"trace.overhead_frac", "ratio"},
  };
  return units;
}

int runTraced(const Args& args, const Workload& workload,
              const Goldens& goldens) {
  Tally tally;
  const icb::Stopwatch clock;
  const std::size_t n = workload.cells.size();
  // Each round is an untraced pass and a traced pass, so the overhead is
  // measured on pairs taken close together, and every traced cell is held
  // to the outcome runMethod gave for it in the same round.
  std::vector<double> untraced;
  std::vector<SpanRecorder> recorders;
  std::map<std::string, std::vector<double>> samples;
  for (unsigned round = 0;; ++round) {
    const PassResult engine =
        runEnginePass(workload, passOrder(n, args.seed, 2 * round));
    std::cout << "perfbench round " << round << " untraced "
              << describePass(engine) << '\n';
    std::map<std::string, Outcome> reference;
    for (const CellRun& run : engine.cells) {
      tally.check(goldens, run);
      reference[run.spec->id] = run.outcome;
    }
    untraced.push_back(engine.verifyS());

    SpanRecorder& rec = recorders.emplace_back();
    LayerCounters counters;
    const PassResult p = runTracedPass(
        workload, passOrder(n, args.seed, 2 * round + 1), rec, counters);
    std::cout << "perfbench round " << round << " traced " << describePass(p)
              << '\n';
    for (const CellRun& run : p.cells) {
      tally.check(goldens, run, &reference.at(run.spec->id));
    }
    for (const auto& [name, value] : layerMetrics(p, rec.spans(), counters)) {
      samples[name].push_back(value);
    }
    if (!anotherPassFits(clock.elapsedSeconds(), recorders.size(),
                         args.seconds)) {
      break;
    }
  }
  samples["trace.overhead_frac"] = {
      median(samples["trace.verify_s"]) / median(untraced) - 1.0};

  if (!args.traceOut.empty()) {
    std::ofstream out(args.traceOut);
    for (std::size_t i = 0; i < recorders.size(); ++i) {
      recorders[i].writeJsonl(out, static_cast<unsigned>(i));
    }
    if (!out) {
      std::cerr << "perfbench: cannot write spans to " << args.traceOut << '\n';
      return 2;
    }
  }

  std::cout << "perfbench untraced verify_s median " << median(untraced)
            << " s (n=" << untraced.size() << ")\n";
  std::vector<Metric> metrics;
  for (const auto& [name, unit] : layerUnits()) {
    const double value = median(samples.at(name));
    std::cout << "perfbench " << name << ' ' << value << ' ' << unit << '\n';
    metrics.push_back({name, value, unit});
  }
  printResult(tally, metrics);
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parseArgs(argc, argv);
  if (args.printGoldens) return printGoldens();
  Goldens goldens;
  try {
    goldens = loadGoldens(args.goldens);
  } catch (const std::runtime_error& err) {
    std::cerr << "perfbench: " << err.what() << '\n';
    return 2;
  }
  const Workload& workload = *findWorkload(args.workload);
  std::cout << "perfbench workload=" << workload.name << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << (args.trace ? 1 : 0)
            << '\n';
  return args.trace ? runTraced(args, workload, goldens)
                    : runEndToEnd(args, workload, goldens);
}
