// The benchmark's workloads: fixed (model, config, method) cells from the
// paper's tables, grouped by the layer each group stresses.  README.md gives
// the reason for every choice.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "bdd/manager.hpp"
#include "verif/run_all.hpp"

namespace perfbench {

enum class ModelKind { kPipeline, kFilter, kNetwork };

struct CellSpec {
  std::string id;
  ModelKind model = ModelKind::kPipeline;
  /// Pipeline datapath width, filter depth, or network processor count.
  unsigned size = 0;
  unsigned registers = 0;  ///< pipeline only
  bool injectBug = false;
  icb::Method method = icb::Method::kXici;
  bool wantTrace = false;
};

struct Workload {
  std::string name;
  std::vector<CellSpec> cells;
  /// Index of the cheapest cell, run by the self-test's composed-loop check.
  std::size_t smallestCell = 0;
};

[[nodiscard]] const std::vector<Workload>& workloads();
/// Null when no workload has that name.
[[nodiscard]] const Workload* findWorkload(const std::string& name);

/// Engine options of every cell: the bench caps (a cap verdict is a failed
/// cell), no assisting invariants, a counterexample only where asked.
[[nodiscard]] icb::EngineOptions engineOptions(const CellSpec& spec);

/// Builds the cell's model over `mgr`; the instance must be destroyed
/// before the manager.
[[nodiscard]] icb::ModelInstance buildModel(icb::BddManager& mgr,
                                            const CellSpec& spec);

/// A manager and the model built over it, torn down model first.
struct BuiltCell {
  std::unique_ptr<icb::BddManager> mgr;
  icb::ModelInstance model;
};

}  // namespace perfbench
