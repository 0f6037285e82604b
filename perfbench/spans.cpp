#include "spans.hpp"

#include <algorithm>
#include <chrono>

namespace perfbench {

const char* spanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kModelsBuild: return "models.build";
    case SpanKind::kVerifLoop: return "verif.loop";
    case SpanKind::kVerifCex: return "verif.cex";
    case SpanKind::kSymProperty: return "sym.property";
    case SpanKind::kSymBackImage: return "sym.back_image";
    case SpanKind::kSymImage: return "sym.image";
    case SpanKind::kSymImageBuild: return "sym.image_build";
    case SpanKind::kIciNormalize: return "ici.normalize";
    case SpanKind::kIciSimplify: return "ici.simplify";
    case SpanKind::kIciGreedy: return "ici.greedy";
    case SpanKind::kIciTerm: return "ici.term";
    case SpanKind::kBddAnd: return "bdd.and";
    case SpanKind::kCount: break;
  }
  return "?";
}

namespace {

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::int32_t SpanRecorder::begin(SpanKind kind) {
  Span span;
  span.kind = kind;
  span.parent = open_;
  if (mgr_ != nullptr) {
    span.gcUs = mgr_->stats().gcPauseUs.sum();
    span.nodesCreated = mgr_->stats().nodesCreated;
  }
  span.startNs = nowNs();
  spans_.push_back(span);
  open_ = static_cast<std::int32_t>(spans_.size() - 1);
  return open_;
}

void SpanRecorder::end(std::int32_t id) {
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.endNs = nowNs();
  if (mgr_ != nullptr) {
    span.gcUs = mgr_->stats().gcPauseUs.sum() - span.gcUs;
    span.nodesCreated = mgr_->stats().nodesCreated - span.nodesCreated;
  } else {
    span.gcUs = 0;
    span.nodesCreated = 0;
  }
  open_ = span.parent;
}

void SpanRecorder::writeJsonl(std::ostream& out, unsigned pass) const {
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"pass\":" << pass << ",\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"name\":\"" << spanName(s.kind) << "\",\"start_ns\":" << s.startNs
        << ",\"end_ns\":" << s.endNs << ",\"gc_us\":" << s.gcUs
        << ",\"nodes_created\":" << s.nodesCreated << "}\n";
  }
}

std::vector<SelfTime> selfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      children[static_cast<std::size_t>(spans[i].parent)].push_back(i);
    }
  }
  std::vector<SelfTime> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    std::uint64_t childGcUs = 0;
    for (const std::size_t c : children[i]) {
      iv.emplace_back(std::max(spans[c].startNs, s.startNs),
                      std::min(spans[c].endNs, s.endNs));
      childGcUs += spans[c].gcUs;
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.startNs;
    for (const auto& [lo, hi] : iv) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) {
        covered += hi - from;
        reach = hi;
      }
    }
    const std::int64_t selfGcNs =
        s.gcUs > childGcUs
            ? static_cast<std::int64_t>(s.gcUs - childGcUs) * 1000
            : 0;
    const std::int64_t ns = (s.endNs - s.startNs) - covered - selfGcNs;
    self[i].selfS = ns > 0 ? static_cast<double>(ns) * 1e-9 : 0.0;
    self[i].selfGcS = static_cast<double>(selfGcNs) * 1e-9;
  }
  return self;
}

KindTotals totalsByKind(const std::vector<Span>& spans) {
  KindTotals totals;
  const std::vector<SelfTime> self = selfTimes(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto k = static_cast<std::size_t>(spans[i].kind);
    totals.selfS[k] += self[i].selfS;
    totals.selfGcS[k] += self[i].selfGcS;
    ++totals.calls[k];
  }
  return totals;
}

}  // namespace perfbench
