#include "pass.hpp"

#include <algorithm>

#include "util/rng.hpp"
#include "util/timer.hpp"

namespace perfbench {

double PassResult::setupS() const {
  double total = 0.0;
  for (const CellRun& c : cells) total += c.setupS;
  return total;
}

double PassResult::verifyS() const {
  double total = 0.0;
  for (const CellRun& c : cells) total += c.verifyS;
  return total;
}

std::uint64_t PassResult::peakAllocatedNodes() const {
  std::uint64_t peak = 0;
  for (const CellRun& c : cells) peak = std::max(peak, c.peakAllocatedNodes);
  return peak;
}

std::vector<std::size_t> passOrder(std::size_t n, std::uint64_t seed,
                                   unsigned pass) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  icb::Rng rng(seed * 0x9E3779B97F4A7C15ull + pass);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  return order;
}

namespace {

/// Constructs the manager and the model; the model build gets a span when
/// `rec` is set.
BuiltCell setUp(const CellSpec& spec, SpanRecorder* rec) {
  BuiltCell cell;
  cell.mgr = std::make_unique<icb::BddManager>();
  if (rec == nullptr) {
    cell.model = buildModel(*cell.mgr, spec);
    return cell;
  }
  rec->setManager(cell.mgr.get());
  ScopedSpan span(*rec, SpanKind::kModelsBuild);
  cell.model = buildModel(*cell.mgr, spec);
  return cell;
}

template <typename Verify>
PassResult runPass(const Workload& workload,
                   const std::vector<std::size_t>& order, SpanRecorder* rec,
                   Verify verify) {
  PassResult pass;
  for (const std::size_t index : order) {
    const CellSpec& spec = workload.cells.at(index);
    CellRun run;
    run.spec = &spec;
    const icb::EngineOptions options = engineOptions(spec);

    icb::Stopwatch watch;
    const BuiltCell cell = setUp(spec, rec);
    run.setupS = watch.elapsedSeconds();

    watch.reset();
    const icb::EngineResult result = verify(*cell.model.fsm, spec, options);
    run.verifyS = watch.elapsedSeconds();

    run.outcome = outcomeOf(*cell.model.fsm, result, options.withAssists);
    run.peakAllocatedNodes = result.peakAllocatedNodes;
    pass.cells.push_back(std::move(run));
    if (rec != nullptr) rec->setManager(nullptr);
  }
  return pass;
}

}  // namespace

double runSetupRound(const Workload& workload,
                     const std::vector<std::size_t>& order) {
  double total = 0.0;
  for (const std::size_t index : order) {
    const icb::Stopwatch watch;
    const BuiltCell cell = setUp(workload.cells.at(index), nullptr);
    total += watch.elapsedSeconds();
  }
  return total;
}

PassResult runEnginePass(const Workload& workload,
                         const std::vector<std::size_t>& order) {
  return runPass(workload, order, nullptr,
                 [](icb::Fsm& fsm, const CellSpec& spec,
                    const icb::EngineOptions& options) {
                   return icb::runMethod(fsm, spec.method, {}, options);
                 });
}

PassResult runTracedPass(const Workload& workload,
                         const std::vector<std::size_t>& order,
                         SpanRecorder& rec, LayerCounters& counters) {
  return runPass(workload, order, &rec,
                 [&](icb::Fsm& fsm, const CellSpec& spec,
                     const icb::EngineOptions& options) {
                   return runTracedLoop(fsm, spec.method, options, rec,
                                        counters);
                 });
}

std::map<std::string, double> layerMetrics(const PassResult& pass,
                                           const std::vector<Span>& spans,
                                           const LayerCounters& counters) {
  const KindTotals t = totalsByKind(spans);
  auto self = [&](SpanKind k) { return t.selfS[static_cast<std::size_t>(k)]; };
  auto selfGc = [&](SpanKind k) {
    return t.selfGcS[static_cast<std::size_t>(k)];
  };
  auto calls = [&](SpanKind k) {
    return static_cast<double>(t.calls[static_cast<std::size_t>(k)]);
  };
  auto ratio = [](std::uint64_t num, std::uint64_t den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
  };
  double buildS = 0.0;
  double loopS = 0.0;
  for (const Span& s : spans) {
    const double d = static_cast<double>(s.endNs - s.startNs) * 1e-9;
    if (s.kind == SpanKind::kModelsBuild) buildS += d;
    if (s.kind == SpanKind::kVerifLoop) loopS += d;
  }
  const double loopSelf = self(SpanKind::kVerifLoop);

  std::map<std::string, double> m;
  m["ici.term_s"] = self(SpanKind::kIciTerm);
  m["ici.term_tautology_calls"] =
      static_cast<double>(counters.termTautologyCalls);
  m["ici.term_shannon_expansions"] =
      static_cast<double>(counters.termShannonExpansions);
  m["ici.simplify_s"] = self(SpanKind::kIciSimplify);
  m["ici.simplify_applications"] =
      static_cast<double>(counters.simplifyApplications);
  m["ici.greedy_s"] = self(SpanKind::kIciGreedy);
  m["ici.greedy_merges"] = static_cast<double>(counters.greedyMerges);
  m["ici.pair_entries_built"] = static_cast<double>(counters.pairEntriesBuilt);
  m["ici.normalize_s"] = self(SpanKind::kIciNormalize);
  m["sym.property_s"] = self(SpanKind::kSymProperty);
  m["sym.image_s"] = self(SpanKind::kSymBackImage) + self(SpanKind::kSymImage) +
                     self(SpanKind::kSymImageBuild);
  m["sym.image_calls"] =
      calls(SpanKind::kSymBackImage) + calls(SpanKind::kSymImage);
  m["bdd.gc_s"] = static_cast<double>(counters.gcUs) * 1e-6;
  m["bdd.gc_runs"] = static_cast<double>(counters.gcRuns);
  m["bdd.gc_reclaimed_per_run"] = ratio(counters.gcReclaimed, counters.gcRuns);
  m["bdd.gc_in_image_s"] = selfGc(SpanKind::kSymBackImage) +
                           selfGc(SpanKind::kSymImage) +
                           selfGc(SpanKind::kSymImageBuild);
  m["bdd.gc_in_term_s"] = selfGc(SpanKind::kIciTerm);
  m["bdd.gc_in_policy_s"] = selfGc(SpanKind::kIciSimplify) +
                            selfGc(SpanKind::kIciGreedy) +
                            selfGc(SpanKind::kIciNormalize);
  m["bdd.gc_in_cex_s"] = selfGc(SpanKind::kVerifCex);
  m["bdd.and_s"] = self(SpanKind::kBddAnd);
  m["bdd.nodes_created"] = static_cast<double>(counters.nodesCreated);
  m["bdd.cache_lookups"] = static_cast<double>(counters.cacheLookups);
  m["bdd.cache_hit_rate"] = ratio(counters.cacheHits, counters.cacheLookups);
  m["bdd.unique_lookups"] = static_cast<double>(counters.uniqueLookups);
  m["bdd.unique_chain_per_lookup"] =
      ratio(counters.uniqueChainSteps, counters.uniqueLookups);
  m["models.build_s"] = buildS;
  m["verif.cex_s"] = self(SpanKind::kVerifCex);
  m["verif.loop_self_s"] = loopSelf;
  m["verif.iterations"] = static_cast<double>(counters.iterations);
  m["trace.span_coverage"] = loopS > 0.0 ? 1.0 - loopSelf / loopS : 0.0;
  m["trace.verify_s"] = pass.verifyS();
  return m;
}

}  // namespace perfbench
