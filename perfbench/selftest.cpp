// The benchmark's own tests: span self-time arithmetic, median and
// percentile selection, golden checking (a deliberately wrong golden must
// fail), seed independence of outcomes, and the composed-loop check -- each
// rebuilt loop reproduces runMethod -- on the smallest cell of every workload.
//
//   perfbench_test --goldens perfbench/goldens.txt
#include <cmath>
#include <cstdio>
#include <functional>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "outcome.hpp"
#include "pass.hpp"
#include "stats.hpp"

using namespace perfbench;

namespace {

int failures = 0;

void check(bool ok, const char* expr, int line) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "  FAILED line %d: %s\n", line, expr);
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

Span span(SpanKind kind, std::int32_t parent, std::int64_t start,
          std::int64_t end, std::uint64_t gcUs = 0) {
  Span s;
  s.kind = kind;
  s.parent = parent;
  s.startNs = start;
  s.endNs = end;
  s.gcUs = gcUs;
  return s;
}

void selfTimeSubtractsChildCoverage() {
  // Root [0, 10000) with children [1000, 3000) and [2000, 5000) overlapping
  // (covering 4000 ns together) and a grandchild inside the first child.
  const std::vector<Span> spans = {
      span(SpanKind::kVerifLoop, -1, 0, 10'000),
      span(SpanKind::kSymBackImage, 0, 1'000, 3'000),
      span(SpanKind::kIciTerm, 0, 2'000, 5'000),
      span(SpanKind::kBddAnd, 1, 1'500, 2'000),
  };
  const std::vector<SelfTime> self = selfTimes(spans);
  CHECK(near(self[0].selfS, 6'000e-9));
  CHECK(near(self[1].selfS, 1'500e-9));
  CHECK(near(self[2].selfS, 3'000e-9));
  CHECK(near(self[3].selfS, 500e-9));
  for (const SelfTime& t : self) CHECK(t.selfGcS == 0.0);
}

void selfTimeClipsChildrenAndExcludesGc() {
  // A child reaching past its parent only covers the overlap; GC pauses are
  // charged to the innermost span open during them and taken out of its
  // self time (bdd.gc_s reports them).
  const std::vector<Span> spans = {
      span(SpanKind::kVerifLoop, -1, 0, 10'000, 3),
      span(SpanKind::kSymImage, 0, 8'000, 12'000, 1),
  };
  const std::vector<SelfTime> self = selfTimes(spans);
  CHECK(near(self[0].selfS, 8'000e-9 - 2'000e-9));
  CHECK(near(self[0].selfGcS, 2'000e-9));
  CHECK(near(self[1].selfS, 4'000e-9 - 1'000e-9));
  CHECK(near(self[1].selfGcS, 1'000e-9));
  // Self time never goes negative, even when GC exceeds the uncovered part.
  const std::vector<Span> gcHeavy = {span(SpanKind::kBddAnd, -1, 0, 500, 5)};
  CHECK(selfTimes(gcHeavy)[0].selfS == 0.0);
}

void totalsGroupByKind() {
  // The loop's one GC microsecond fell inside the first back-image call, so
  // it is charged to that call's kind and to no other.
  const std::vector<Span> spans = {
      span(SpanKind::kVerifLoop, -1, 0, 10'000, 1),
      span(SpanKind::kSymBackImage, 0, 0, 2'000, 1),
      span(SpanKind::kSymBackImage, 0, 3'000, 6'000),
  };
  const KindTotals t = totalsByKind(spans);
  const auto back = static_cast<std::size_t>(SpanKind::kSymBackImage);
  const auto loop = static_cast<std::size_t>(SpanKind::kVerifLoop);
  CHECK(t.calls[back] == 2 && t.calls[loop] == 1);
  CHECK(near(t.selfS[back], 4'000e-9));
  CHECK(near(t.selfGcS[back], 1'000e-9));
  CHECK(near(t.selfS[loop], 5'000e-9));
  CHECK(t.selfGcS[loop] == 0.0);
}

void recorderNestsSpans() {
  SpanRecorder rec;
  {
    ScopedSpan outer(rec, SpanKind::kVerifLoop);
    { ScopedSpan a(rec, SpanKind::kSymBackImage); }
    { ScopedSpan b(rec, SpanKind::kIciTerm); }
  }
  { ScopedSpan next(rec, SpanKind::kModelsBuild); }
  const std::vector<Span>& s = rec.spans();
  CHECK(s.size() == 4);
  CHECK(s[0].parent == -1 && s[1].parent == 0 && s[2].parent == 0);
  CHECK(s[3].parent == -1);
  for (const Span& x : s) CHECK(x.endNs >= x.startNs);
}

void medianAndPercentiles() {
  CHECK(median({3.0}) == 3.0);
  CHECK(median({5.0, 1.0, 3.0}) == 3.0);
  CHECK(median({4.0, 1.0, 3.0, 2.0}) == 2.5);
  CHECK(percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 90.0) == 9.0);
  CHECK(percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 50.0) == 5.0);
  CHECK(percentile({7.0}, 99.0) == 7.0);
  CHECK(percentile({1, 2, 3}, 0.0) == 1.0);

  auto ramp = [](std::size_t n) {
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);
    return v;
  };
  // Fewer than ten samples beyond even p90: no tail figure.
  CHECK(!tailPercentile(ramp(5)).has_value());
  CHECK(!tailPercentile(ramp(99)).has_value());
  // 100 samples: p90 (rank 90) has exactly ten beyond it; p99 has one.
  const auto p90 = tailPercentile(ramp(100));
  CHECK(p90.has_value() && p90->p == 90.0 && p90->value == 90.0);
  // 1000 samples: p99 (rank 990) has ten beyond; p99.9 has one.
  const auto p99 = tailPercentile(ramp(1000));
  CHECK(p99.has_value() && p99->p == 99.0 && p99->value == 990.0);
}

void wrongGoldenIsAFailure(const Goldens& committed) {
  const auto& [cell, golden] = *committed.begin();
  CHECK(checkOutcome(committed, cell, golden).empty());

  Goldens wrong = committed;
  wrong[cell].iterations += 1;
  CHECK(!checkOutcome(wrong, cell, golden).empty());

  Outcome capped = golden;
  capped.verdict = "time-limit";
  CHECK(!checkOutcome(committed, cell, capped).empty());
  // A golden that itself records a cap still fails the cell.
  Goldens cappedGolden = committed;
  cappedGolden[cell] = capped;
  CHECK(!checkOutcome(cappedGolden, cell, capped).empty());
  CHECK(!checkOutcome(committed, "no-such-cell", golden).empty());
}

void goldensRoundTripAndRejectMalformedLines(const Goldens& committed) {
  std::string text;
  for (const auto& [cell, outcome] : committed) {
    text += formatGoldenLine(cell, outcome) + "\n";
  }
  CHECK(parseGoldens(text) == committed);
  for (const Workload& w : workloads()) {
    for (const CellSpec& c : w.cells) CHECK(committed.count(c.id) == 1);
  }
  for (const char* bad : {"cell holds 3\n", "cell holds x 5 - - -\n",
                          "cell holds 3 5 - 4 -\n",
                          "cell holds 3 5 - - - extra\n",
                          "a holds 1 1 - - -\na holds 1 1 - - -\n"}) {
    bool threw = false;
    try {
      (void)parseGoldens(bad);
    } catch (const std::runtime_error&) {
      threw = true;
    }
    CHECK(threw);
  }
}

void passOrderIsASeededPermutation() {
  std::set<std::vector<std::size_t>> seen;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    const std::vector<std::size_t> order = passOrder(5, seed, 0);
    CHECK(order == passOrder(5, seed, 0));
    CHECK(std::set<std::size_t>(order.begin(), order.end()).size() == 5);
    seen.insert(order);
  }
  CHECK(seen.size() > 1);
}

void outcomesDoNotDependOnTheSeed(const Goldens& goldens) {
  const Workload& w = *findWorkload("counterexample");
  // Two seeds that run the cells in opposite orders.
  std::uint64_t other = 1;
  const std::size_t n = w.cells.size();
  while (passOrder(n, other, 0) == passOrder(n, 0, 0)) {
    ++other;
  }
  const PassResult a = runEnginePass(w, passOrder(n, 0, 0));
  const PassResult b = runEnginePass(w, passOrder(n, other, 0));
  for (const CellRun& x : a.cells) {
    CHECK(checkOutcome(goldens, x.spec->id, x.outcome).empty());
    for (const CellRun& y : b.cells) {
      if (x.spec == y.spec) {
        CHECK(x.outcome == y.outcome);
        CHECK(x.peakAllocatedNodes == y.peakAllocatedNodes);
      }
    }
  }
}

void composedLoopsMatchTheEngines(const Goldens& goldens) {
  for (const Workload& w : workloads()) {
    const std::vector<std::size_t> only{w.smallestCell};
    const PassResult engine = runEnginePass(w, only);
    SpanRecorder rec;
    LayerCounters counters;
    const PassResult traced = runTracedPass(w, only, rec, counters);
    const CellRun& e = engine.cells.at(0);
    const CellRun& t = traced.cells.at(0);
    std::cerr << "  " << w.name << ": "
              << formatGoldenLine(t.spec->id, t.outcome) << '\n';
    CHECK(checkOutcome(goldens, e.spec->id, e.outcome).empty());
    CHECK(t.outcome == e.outcome);
    CHECK(t.peakAllocatedNodes == e.peakAllocatedNodes);
    CHECK(counters.iterations == t.outcome.iterations);
    // One model build and one loop root; every other span nests in the loop.
    const std::vector<Span>& spans = rec.spans();
    CHECK(spans.size() >= 3);
    CHECK(spans[0].kind == SpanKind::kModelsBuild && spans[0].parent == -1);
    CHECK(spans[1].kind == SpanKind::kVerifLoop && spans[1].parent == -1);
    for (std::size_t i = 2; i < spans.size(); ++i) {
      CHECK(spans[i].parent >= 1);
      const Span& parent = spans[static_cast<std::size_t>(spans[i].parent)];
      CHECK(spans[i].startNs >= parent.startNs &&
            spans[i].endNs <= parent.endNs);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3 || std::string(argv[1]) != "--goldens") {
    std::cerr << "usage: perfbench_test --goldens FILE\n";
    return 2;
  }
  const Goldens goldens = loadGoldens(argv[2]);
  const std::vector<std::pair<const char*, std::function<void()>>> tests = {
      {"selfTimeSubtractsChildCoverage", selfTimeSubtractsChildCoverage},
      {"selfTimeClipsChildrenAndExcludesGc",
       selfTimeClipsChildrenAndExcludesGc},
      {"totalsGroupByKind", totalsGroupByKind},
      {"recorderNestsSpans", recorderNestsSpans},
      {"medianAndPercentiles", medianAndPercentiles},
      {"wrongGoldenIsAFailure", [&] { wrongGoldenIsAFailure(goldens); }},
      {"goldensRoundTripAndRejectMalformedLines",
       [&] { goldensRoundTripAndRejectMalformedLines(goldens); }},
      {"passOrderIsASeededPermutation", passOrderIsASeededPermutation},
      {"outcomesDoNotDependOnTheSeed",
       [&] { outcomesDoNotDependOnTheSeed(goldens); }},
      {"composedLoopsMatchTheEngines",
       [&] { composedLoopsMatchTheEngines(goldens); }},
  };
  for (const auto& [name, test] : tests) {
    const int before = failures;
    test();
    std::cerr << (failures == before ? "PASS " : "FAIL ") << name << '\n';
  }
  std::cerr << (failures == 0 ? "all perfbench tests passed\n"
                              : "perfbench tests FAILED\n");
  return failures == 0 ? 0 : 1;
}
