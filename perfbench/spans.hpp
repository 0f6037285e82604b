// In-memory spans around the calls the benchmark makes into each layer of
// src/.  A span records its kind, its parent, its start and end, and the GC
// pause time and node allocations the manager reported while it was open.
// Nothing is written until the run ends.
#pragma once

#include <array>
#include <cstdint>
#include <ostream>
#include <vector>

#include "bdd/manager.hpp"

namespace perfbench {

/// One kind per instrumented call site, named layer.operation after the
/// src/ module that implements it.
enum class SpanKind : std::uint8_t {
  kModelsBuild,     ///< model constructor (setup)
  kVerifLoop,       ///< one rebuilt engine loop: the root of a cell's verify
  kVerifCex,        ///< buildForwardTrace / buildBackwardTrace
  kSymProperty,     ///< Fsm::property
  kSymBackImage,    ///< Fsm::backImage
  kSymImage,        ///< ImageComputer::image
  kSymImageBuild,   ///< ImageComputer constructor (clustering)
  kIciNormalize,    ///< ConjunctList::normalize
  kIciSimplify,     ///< simplifyList
  kIciGreedy,       ///< greedyEvaluate
  kIciTerm,         ///< TerminationChecker::equal
  kBddAnd,          ///< Bdd & issued by the loop, ConjunctList::evaluate
  kCount,
};

inline constexpr std::size_t kSpanKinds =
    static_cast<std::size_t>(SpanKind::kCount);

[[nodiscard]] const char* spanName(SpanKind kind);

struct Span {
  SpanKind kind = SpanKind::kVerifLoop;
  std::int32_t parent = -1;  ///< index into the recorder, -1 for a root
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  std::uint64_t gcUs = 0;          ///< GC pauses while open, children included
  std::uint64_t nodesCreated = 0;  ///< mk() allocations while open
};

class SpanRecorder {
 public:
  /// The manager whose counters later spans read; set once per cell, before
  /// the first span over it opens.  Stats must not be reset while a span
  /// over it is open.
  void setManager(const icb::BddManager* mgr) { mgr_ = mgr; }

  std::int32_t begin(SpanKind kind);
  void end(std::int32_t id);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  void clear() { spans_.clear(); }

  /// One JSON object per span, tagged with the traced pass it belongs to.
  void writeJsonl(std::ostream& out, unsigned pass) const;

 private:
  const icb::BddManager* mgr_ = nullptr;
  std::vector<Span> spans_;
  std::int32_t open_ = -1;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, SpanKind kind)
      : rec_(rec), id_(rec.begin(kind)) {}
  ~ScopedSpan() { rec_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  std::int32_t id_;
};

struct SelfTime {
  /// The span's duration minus the part of its interval its children cover,
  /// minus selfGcS.  Never negative.
  double selfS = 0.0;
  /// GC pauses in that uncovered part: collections this call triggered
  /// itself rather than through a child span.  GC is its own layer
  /// (bdd.gc_s), so it is kept out of selfS.
  double selfGcS = 0.0;
};

[[nodiscard]] std::vector<SelfTime> selfTimes(const std::vector<Span>& spans);

/// Self time, self GC and call counts summed per kind.
struct KindTotals {
  std::array<double, kSpanKinds> selfS{};
  std::array<double, kSpanKinds> selfGcS{};
  std::array<std::uint64_t, kSpanKinds> calls{};
};
[[nodiscard]] KindTotals totalsByKind(const std::vector<Span>& spans);

}  // namespace perfbench
