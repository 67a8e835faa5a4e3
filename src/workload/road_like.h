#ifndef DYNAMICC_WORKLOAD_ROAD_LIKE_H_
#define DYNAMICC_WORKLOAD_ROAD_LIKE_H_

#include <cstdint>
#include <vector>

#include "workload/profile.h"
#include "workload/schedule.h"

namespace dynamicc {

/// Synthetic stand-in for the 3D Road Network (North Jutland) dataset:
/// (x, y, elevation) points sampled along randomly generated road
/// polylines with smooth elevation profiles and GPS-style noise. The paper
/// runs this at 100K→344K objects; the default here is scaled down
/// (configurable) — `paper_bench` prints the scale each artifact uses.
class RoadLikeGenerator {
 public:
  struct Options {
    size_t initial_count = 4000;
    std::vector<SnapshotSpec> schedule = DefaultSchedule("road");
    uint64_t seed = 53;
    int roads = 48;
    int segments_per_road = 14;
    double segment_length = 28.0;
    double extent = 1000.0;
    double point_noise = 1.2;
  };

  RoadLikeGenerator();
  explicit RoadLikeGenerator(Options options);

  static const char* Name() { return "road"; }

  WorkloadStream Generate();

  static DatasetProfile Profile();

  /// Similarity value at Euclidean distance `distance` under the profile's
  /// kernel (lets DBSCAN configs express ε in distance units).
  static double SimilarityAtDistance(double distance);

 private:
  Options options_;
};

}  // namespace dynamicc

#endif  // DYNAMICC_WORKLOAD_ROAD_LIKE_H_
