// Ablation (§3.3 "Queueing monotasks"): round-robin across DAG phases vs plain FIFO
// in the disk scheduler.
//
// The paper's argument: with FIFO queues, a backlog of disk *writes* traps the disk
// *reads* that feed the CPU, so the machine alternates between all-CPU and all-disk
// phases and both resources idle half the time. Round-robin between reads and writes
// keeps a pipeline of monotasks on every resource.
//
// We compare the stock monotasks executor against the same executor with
// MonoConfig::fifo_disk_queues set, whose disk schedulers then serve one FIFO queue,
// on a read-compute-write workload.
#include <cstdio>
#include <iostream>

#include "bench/bench_util.h"
#include "src/common/table.h"
#include "src/workloads/clusters.h"
#include "src/workloads/sort.h"

int main() {
  std::puts("=== Ablation: disk scheduler round-robin vs FIFO queueing ===");
  std::puts("Paper (§3.3): FIFO lets write backlogs starve reads, idling the CPU\n");

  const auto cluster = monoload::SortClusterConfig();
  monoload::SortParams params;
  params.total_bytes = monoutil::GiB(200);
  params.values_per_key = 20;
  params.num_map_tasks = 800;
  params.num_reduce_tasks = 800;
  auto make_job = [&params](monosim::SimEnvironment* env) {
    return monoload::MakeSortJob(&env->dfs(), params);
  };

  monosim::MonoConfig round_robin;
  const auto rr = monobench::RunMonotasks(cluster, make_job, round_robin);

  monosim::MonoConfig fifo;
  fifo.fifo_disk_queues = true;
  const auto ff = monobench::RunMonotasks(cluster, make_job, fifo);

  monoutil::TablePrinter table({"disk queueing", "map", "reduce", "total"});
  table.AddRow({"round-robin (paper)", monoutil::FormatSeconds(rr.stages[0].duration()),
                monoutil::FormatSeconds(rr.stages[1].duration()),
                monoutil::FormatSeconds(rr.duration())});
  table.AddRow({"FIFO", monoutil::FormatSeconds(ff.stages[0].duration()),
                monoutil::FormatSeconds(ff.stages[1].duration()),
                monoutil::FormatSeconds(ff.duration())});
  table.Print(std::cout);
  std::printf("\nFIFO / round-robin runtime: %.2fx\n", ff.duration() / rr.duration());
  return 0;
}
