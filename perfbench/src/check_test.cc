// Tests for the served-clustering check: a faithful clustering passes,
// and every kind of corruption (a lost record, a duplicated record, a
// dead record, a scrambled partition, the --corrupt fault) fails it,
// and DivergentRecords counts the records two clusterings disagree on.
// Exits non-zero on the first failed expectation.
#include <cstdio>

#include "checks.h"

namespace {

int failures = 0;

void Expect(bool condition, const char* what) {
  if (!condition) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

}  // namespace

int main() {
  using perfbench::CheckClustering;
  using perfbench::Clusters;
  const std::vector<dynamicc::ObjectId> live = {0, 1, 2, 3, 4, 5, 6, 7, 8};
  const Clusters reference = {{0, 1, 2}, {3, 4, 5}, {6, 7, 8}};

  auto verdict = CheckClustering(reference, live, reference);
  Expect(verdict.ok() && verdict.f1 == 1.0, "identical clustering passes");

  Clusters close = {{0, 1, 2}, {3, 4, 5}, {6, 7}, {8}};
  verdict = CheckClustering(close, live, reference);
  Expect(verdict.partition_ok && verdict.f1 > perfbench::kMinF1VsBatch &&
             verdict.ok(),
         "a near-batch clustering passes");

  Clusters lost = {{0, 1, 2}, {3, 4, 5}, {6, 7}};
  Expect(!CheckClustering(lost, live, reference).ok(),
         "a lost live record fails");

  Clusters duplicated = {{0, 1, 2}, {2, 3, 4, 5}, {6, 7, 8}};
  Expect(!CheckClustering(duplicated, live, reference).ok(),
         "a record served twice fails");

  Clusters dead = {{0, 1, 2}, {3, 4, 5}, {6, 7, 8, 9}};
  Expect(!CheckClustering(dead, live, reference).ok(),
         "a removed record still served fails");

  Clusters empty_cluster = {{0, 1, 2}, {3, 4, 5}, {6, 7, 8}, {}};
  Expect(!CheckClustering(empty_cluster, live, reference).ok(),
         "an empty cluster fails");

  Clusters scrambled = {{0, 3, 6}, {1, 4, 7}, {2, 5, 8}};
  verdict = CheckClustering(scrambled, live, reference);
  Expect(verdict.partition_ok && !verdict.ok(),
         "a valid but scrambled partition fails on F1");

  Clusters corrupted = reference;
  perfbench::CorruptClustering(&corrupted);
  Expect(!CheckClustering(corrupted, live, reference).ok(),
         "the --corrupt fault fails the check");

  using perfbench::DivergentRecords;
  Expect(DivergentRecords(reference, {{2, 1, 0}, {5, 4, 3}, {8, 7, 6}}) == 0,
         "equal clusterings in another order do not diverge");
  Expect(DivergentRecords(reference, close) == 3,
         "a split cluster diverges on each of its records");
  Expect(DivergentRecords(reference, lost) == 3,
         "a lost record and its former cluster mates diverge");

  if (failures == 0) std::printf("check_test: all expectations passed\n");
  return failures == 0 ? 0 : 1;
}
