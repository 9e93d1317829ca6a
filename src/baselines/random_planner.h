// QuickPick-style random plan sampling (Waas & Pellenkoft): uniformly pick
// joinable pairs and physical operators until the plan is complete, over
// the whole bushy physical space. Used by the compare_optimizers and
// noisy_estimates examples and by tests (random plans are a cheap source
// of search-space coverage).
#pragma once

#include "src/catalog/schema.h"
#include "src/plan/plan.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace balsa {

class RandomPlanner {
 public:
  explicit RandomPlanner(const Schema* schema) : schema_(schema) {}

  /// A uniformly random valid physical plan for `query`.
  StatusOr<Plan> Sample(const Query& query, Rng* rng) const;

 private:
  const Schema* schema_;
};

}  // namespace balsa
