#include "traced_loops.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "ici/evaluate_policy.hpp"
#include "ici/simplify.hpp"
#include "ici/termination.hpp"
#include "sym/image.hpp"
#include "verif/counterexample.hpp"
#include "verif/limit_guard.hpp"

namespace perfbench {

using icb::Bdd;
using icb::ConjunctList;
using icb::EngineOptions;
using icb::EngineResult;
using icb::Fsm;
using icb::Verdict;

namespace {

// Mirrors runForward (src/verif/forward.cpp).
void forwardLoop(Fsm& fsm, const EngineOptions& options, SpanRecorder& rec,
                 EngineResult& result) {
  const ConjunctList property = [&] {
    ScopedSpan s(rec, SpanKind::kSymProperty);
    return fsm.property(options.withAssists);
  }();
  const Bdd notGood = [&] {
    ScopedSpan s(rec, SpanKind::kBddAnd);
    return !property.evaluate();
  }();
  std::optional<icb::ImageComputer> imager;
  {
    ScopedSpan s(rec, SpanKind::kSymImageBuild);
    imager.emplace(fsm, options.image);
  }
  Bdd reached = fsm.init();
  std::vector<Bdd> rings{fsm.init()};
  auto touchesBad = [&](const Bdd& states) {
    ScopedSpan s(rec, SpanKind::kBddAnd);
    return !(states & notGood).isZero();
  };

  while (true) {
    result.peakIterateNodes = std::max(result.peakIterateNodes, reached.size());
    if (touchesBad(reached)) {
      result.verdict = Verdict::kViolated;
      if (options.wantTrace) {
        while (rings.size() > 1 && touchesBad(rings[rings.size() - 2])) {
          rings.pop_back();
        }
        ScopedSpan s(rec, SpanKind::kVerifCex);
        result.trace = icb::buildForwardTrace(fsm, rings, notGood);
      }
      return;
    }
    if (result.iterations >= options.maxIterations) {
      result.verdict = Verdict::kIterationLimit;
      return;
    }
    const Bdd frontier = rings.back();
    const Bdd next = [&] {
      ScopedSpan s(rec, SpanKind::kSymImage);
      return imager->image(frontier);
    }();
    const Bdd fresh = [&] {
      ScopedSpan s(rec, SpanKind::kBddAnd);
      return next & !reached;
    }();
    ++result.iterations;
    fsm.mgr().autoReorderIfNeeded();
    if (fresh.isZero()) {
      result.verdict = Verdict::kHolds;
      return;
    }
    rings.push_back(fresh);
    ScopedSpan s(rec, SpanKind::kBddAnd);  // the one disjunction per step
    reached |= fresh;
  }
}

// Mirrors runBackward (src/verif/backward.cpp).
void backwardLoop(Fsm& fsm, const EngineOptions& options, SpanRecorder& rec,
                  EngineResult& result) {
  icb::BddManager& mgr = fsm.mgr();
  const ConjunctList property = [&] {
    ScopedSpan s(rec, SpanKind::kSymProperty);
    return fsm.property(options.withAssists);
  }();
  const Bdd g0 = [&] {
    ScopedSpan s(rec, SpanKind::kBddAnd);
    return property.evaluate();
  }();
  Bdd g = g0;
  std::vector<ConjunctList> layers;
  layers.emplace_back(&mgr, std::vector<Bdd>{g});

  while (true) {
    result.peakIterateNodes = std::max(result.peakIterateNodes, g.size());
    const bool violated = [&] {
      ScopedSpan s(rec, SpanKind::kBddAnd);
      return !(fsm.init() & !g).isZero();
    }();
    if (violated) {
      result.verdict = Verdict::kViolated;
      if (options.wantTrace) {
        ScopedSpan s(rec, SpanKind::kVerifCex);
        result.trace = icb::buildBackwardTrace(fsm, layers);
      }
      return;
    }
    if (result.iterations >= options.maxIterations) {
      result.verdict = Verdict::kIterationLimit;
      return;
    }
    Bdd next;
    {
      // The preimage dies right after the conjunction, as the engine's
      // temporary does, so GC sees the same live set.
      const Bdd back = [&] {
        ScopedSpan s(rec, SpanKind::kSymBackImage);
        return fsm.backImage(g);
      }();
      ScopedSpan s(rec, SpanKind::kBddAnd);
      next = g0 & back;
    }
    ++result.iterations;
    mgr.autoReorderIfNeeded();
    if (next == g) {  // canonical form: the engine's O(1) convergence test
      result.verdict = Verdict::kHolds;
      return;
    }
    g = next;
    layers.emplace_back(&mgr, std::vector<Bdd>{g});
  }
}

void trackPeak(EngineResult& result, const ConjunctList& list) {
  const std::uint64_t nodes = list.sharedNodeCount();
  if (nodes > result.peakIterateNodes) {
    result.peakIterateNodes = nodes;
    result.peakIterateMemberSizes = list.memberSizes();
  }
}

// Mirrors runXiciBackward (src/verif/xici_backward.cpp), with
// evaluateAndSimplify split into its public steps so the Restrict pass and
// the Figure 1 greedy loop get spans of their own.
void xiciLoop(Fsm& fsm, const EngineOptions& options, SpanRecorder& rec,
              icb::TerminationChecker& checker, LayerCounters& counters,
              EngineResult& result) {
  icb::BddManager& mgr = fsm.mgr();
  auto applyPolicy = [&](ConjunctList& list) {
    {
      ScopedSpan s(rec, SpanKind::kIciNormalize);
      list.normalize();
    }
    if (options.policy.simplifyFirst) {
      ScopedSpan s(rec, SpanKind::kIciSimplify);
      counters.simplifyApplications +=
          icb::simplifyList(list, options.policy.simplify).applications;
    }
    if (list.isFalse() || list.size() < 2) return;
    ScopedSpan s(rec, SpanKind::kIciGreedy);
    const icb::EvaluatePolicyResult r =
        icb::greedyEvaluate(list, options.policy);
    counters.greedyMerges += r.merges;
    counters.pairEntriesBuilt += r.pairEntriesBuilt;
  };

  ConjunctList g0 = [&] {
    ScopedSpan s(rec, SpanKind::kSymProperty);
    return fsm.property(options.withAssists);
  }();
  applyPolicy(g0);
  ConjunctList current = g0;
  std::vector<ConjunctList> layers{current};

  while (true) {
    trackPeak(result, current);
    bool violated = false;
    for (const Bdd& c : current) {
      ScopedSpan s(rec, SpanKind::kBddAnd);
      if (!(fsm.init() & !c).isZero()) {
        violated = true;
        break;
      }
    }
    if (violated) {
      result.verdict = Verdict::kViolated;
      if (options.wantTrace) {
        ScopedSpan s(rec, SpanKind::kVerifCex);
        result.trace = icb::buildBackwardTrace(fsm, layers);
      }
      break;
    }
    if (result.iterations >= options.maxIterations) {
      result.verdict = Verdict::kIterationLimit;
      break;
    }
    ConjunctList next(&mgr);
    for (const Bdd& c : g0) next.push(c);
    for (const Bdd& c : current) {
      ScopedSpan s(rec, SpanKind::kSymBackImage);
      next.push(fsm.backImage(c));
    }
    {
      ScopedSpan s(rec, SpanKind::kIciNormalize);
      next.normalize();
    }
    applyPolicy(next);
    ++result.iterations;
    mgr.autoReorderIfNeeded();
    const bool converged = [&] {
      ScopedSpan s(rec, SpanKind::kIciTerm);
      return checker.equal(next, current);
    }();
    if (converged) {
      result.verdict = Verdict::kHolds;
      break;
    }
    current = next;
    layers.push_back(current);
  }
}

}  // namespace

EngineResult runTracedLoop(Fsm& fsm, icb::Method method,
                           const EngineOptions& options, SpanRecorder& rec,
                           LayerCounters& counters) {
  fsm.validate();
  icb::BddManager& mgr = fsm.mgr();
  EngineResult result;
  result.method = method;
  mgr.resetStats();
  icb::LimitGuard guard(mgr, options);
  icb::TerminationChecker checker(mgr, options.termination);
  {
    ScopedSpan root(rec, SpanKind::kVerifLoop);
    try {
      switch (method) {
        case icb::Method::kFwd:
          forwardLoop(fsm, options, rec, result);
          break;
        case icb::Method::kBkwd:
          backwardLoop(fsm, options, rec, result);
          break;
        case icb::Method::kXici:
          xiciLoop(fsm, options, rec, checker, counters, result);
          break;
        default:
          throw std::invalid_argument(std::string("no traced loop for ") +
                                      icb::methodName(method));
      }
    } catch (const icb::ResourceLimitError& err) {
      result.verdict = icb::verdictForResourceLimit(err.kind());
      mgr.gc();
    }
  }
  const icb::BddStats& st = mgr.stats();
  result.peakAllocatedNodes = st.peakNodes;
  counters.gcUs += st.gcPauseUs.sum();
  counters.gcRuns += st.gcRuns;
  counters.gcReclaimed += st.gcReclaimed;
  counters.nodesCreated += st.nodesCreated;
  counters.cacheLookups += st.cacheLookups();
  counters.cacheHits += st.cacheHits();
  counters.uniqueLookups += st.uniqueLookups;
  counters.uniqueChainSteps += st.uniqueChainSteps;
  counters.iterations += result.iterations;
  counters.termTautologyCalls += checker.stats().tautologyCalls;
  counters.termShannonExpansions += checker.stats().shannonExpansions;
  return result;
}

}  // namespace perfbench
