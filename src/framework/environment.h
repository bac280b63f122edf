// SimEnvironment: one-stop ownership of a simulated cluster run.
//
// Benches and tests build an environment from a ClusterConfig, attach an executor
// (Spark-baseline or monotasks), and run jobs through the driver. The environment
// wires the pieces in the right order and keeps their lifetimes straight.
#ifndef MONOTASKS_SRC_FRAMEWORK_ENVIRONMENT_H_
#define MONOTASKS_SRC_FRAMEWORK_ENVIRONMENT_H_

#include <memory>

#include "src/cluster/machine.h"
#include "src/framework/driver.h"
#include "src/framework/executor.h"
#include "src/framework/monotask_log.h"
#include "src/framework/task_pool.h"
#include "src/simcore/simulation.h"
#include "src/storage/dfs.h"

namespace monosim {

class SimEnvironment {
 public:
  explicit SimEnvironment(const ClusterConfig& config, int dfs_replication = 1);

  SimEnvironment(const SimEnvironment&) = delete;
  SimEnvironment& operator=(const SimEnvironment&) = delete;

  Simulation& sim() { return sim_; }
  ClusterSim& cluster() { return *cluster_; }
  DfsSim& dfs() { return *dfs_; }
  TaskPool& pool() { return pool_; }
  JobDriver& driver() { return *driver_; }

  // Attaches the executor; must be called exactly once before submitting jobs. The
  // environment does not take ownership. The environment's MonotaskLog is
  // handed to the executor, so monotask-granularity executors record lifecycle
  // records into it automatically.
  void AttachExecutor(ExecutorSim* executor);

  // Per-monotask lifecycle records (monotask_log.h) accumulated by the
  // attached executor — the input of the critical-path analyzer (src/model).
  // Empty under the Spark baseline executor.
  MonotaskLog& monotask_log() { return monotask_log_; }
  const MonotaskLog& monotask_log() const { return monotask_log_; }

 private:
  Simulation sim_;
  std::unique_ptr<ClusterSim> cluster_;
  std::unique_ptr<DfsSim> dfs_;
  TaskPool pool_;
  std::unique_ptr<JobDriver> driver_;
  MonotaskLog monotask_log_;
};

}  // namespace monosim

#endif  // MONOTASKS_SRC_FRAMEWORK_ENVIRONMENT_H_
