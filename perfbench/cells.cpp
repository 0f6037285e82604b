#include "cells.hpp"

#include "models/avg_filter.hpp"
#include "models/network.hpp"
#include "models/pipeline_cpu.hpp"

namespace perfbench {

using icb::Method;

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"xici-termination",
       {{"pipeline-2r3b-xici", ModelKind::kPipeline, 3, 2, false, Method::kXici,
         false},
        {"pipeline-2r2b-xici", ModelKind::kPipeline, 2, 2, false, Method::kXici,
         false}},
       1},
      {"xici-image",
       {{"filter-d16-xici", ModelKind::kFilter, 16, 0, false, Method::kXici,
         false}},
       0},
      {"monolithic",
       {{"filter-d8-bkwd", ModelKind::kFilter, 8, 0, false, Method::kBkwd,
         false},
        {"network-p7-bkwd", ModelKind::kNetwork, 7, 0, false, Method::kBkwd,
         false}},
       1},
      {"counterexample",
       {{"pipeline-2r1b-bug-fwd", ModelKind::kPipeline, 1, 2, true,
         Method::kFwd, true},
        {"pipeline-2r1b-bug-xici", ModelKind::kPipeline, 1, 2, true,
         Method::kXici, true}},
       1},
  };
  return all;
}

const Workload* findWorkload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

icb::EngineOptions engineOptions(const CellSpec& spec) {
  icb::EngineOptions options;
  options.maxNodes = 24'000'000;
  options.timeLimitSeconds = 60.0;
  options.withAssists = false;
  options.wantTrace = spec.wantTrace;
  return options;
}

namespace {

template <typename Model, typename Config>
icb::ModelInstance instance(icb::BddManager& mgr, const Config& config) {
  auto model = std::make_shared<Model>(mgr, config);
  icb::ModelInstance out;
  out.fsm = &model->fsm();
  out.fdCandidates = model->fdCandidates();
  out.holder = std::move(model);
  return out;
}

}  // namespace

icb::ModelInstance buildModel(icb::BddManager& mgr, const CellSpec& spec) {
  switch (spec.model) {
    case ModelKind::kPipeline:
      return instance<icb::PipelineCpuModel>(
          mgr, icb::PipelineCpuConfig{.registers = spec.registers,
                                      .width = spec.size,
                                      .injectBug = spec.injectBug});
    case ModelKind::kFilter:
      return instance<icb::AvgFilterModel>(
          mgr, icb::AvgFilterConfig{.depth = spec.size,
                                    .sampleWidth = 8,
                                    .injectBug = spec.injectBug});
    case ModelKind::kNetwork:
      return instance<icb::NetworkModel>(
          mgr, icb::NetworkConfig{.processors = spec.size,
                                  .injectBug = spec.injectBug});
  }
  return {};
}

}  // namespace perfbench
