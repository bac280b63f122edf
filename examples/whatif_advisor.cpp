// What-if advisor: the §6 performance model as an interactive-style tool.
//
// Runs a sort workload once on the simulated cluster under the monotasks executor,
// then answers the questions from the paper's introduction using nothing but the
// monotask runtimes from that single run:
//
//   * What hardware should I run on?  (more disks / SSDs / more machines / 10 GbE)
//   * Is it worth caching the input in memory, deserialized?
//   * What is the bottleneck, and what is the best case from optimizing each
//     resource?
//
// Run:  ./whatif_advisor
#include <cstdio>

#include "src/framework/environment.h"
#include "src/model/monotasks_model.h"
#include "src/monotask/mono_executor.h"
#include "src/workloads/clusters.h"
#include "src/workloads/sort.h"

int main() {
  // The workload: a 150 GB sort on 10 machines with 2 HDDs each.
  monosim::ClusterConfig cluster =
      monosim::ClusterConfig::Of(10, monosim::MachineConfig::HddWorker(2));
  monoload::SortParams params;
  params.total_bytes = monoutil::GiB(150);
  params.values_per_key = 20;
  params.num_map_tasks = 600;
  params.num_reduce_tasks = 600;

  std::puts("Running the workload once under the monotasks executor...");
  monosim::SimEnvironment env(cluster);
  monosim::MonotasksExecutorSim executor(&env.sim(), &env.cluster(), &env.pool(), {});
  env.AttachExecutor(&executor);
  const monosim::JobResult result =
      env.driver().RunJob(monoload::MakeSortJob(&env.dfs(), params));
  std::printf("Observed runtime: %.1f s\n\n", result.duration().seconds());

  const auto baseline = monomodel::HardwareProfile::FromCluster(cluster);
  const monomodel::MonotasksModel model(result, baseline);

  // Bottleneck analysis (what the paper calls trivial with monotasks).
  std::printf("Job bottleneck: %s\n", monomodel::ResourceName(model.JobBottleneck()));
  for (int s = 0; s < model.num_stages(); ++s) {
    const auto ideal = model.IdealTimes(s);
    std::printf("  %-14s ideal cpu %6.1f s   disk %6.1f s   network %6.1f s   -> %s\n",
                model.stage_input(s).name.c_str(), ideal.cpu, ideal.disk, ideal.network,
                monomodel::ResourceName(ideal.bottleneck()));
  }

  std::puts("\nWhat-if predictions (no new runs needed):");
  auto report = [&](const char* question, double predicted) {
    std::printf("  %-52s %7.1f s  (%+5.1f%%)\n", question, predicted,
                100.0 * (predicted / result.duration().seconds() - 1.0));
  };
  report("4 disks per machine instead of 2?",
         model.PredictJobSeconds(baseline.WithDisksPerMachine(4)));
  report("replace HDDs with SSDs (450 MiB/s)?",
         model.PredictJobSeconds(baseline.WithDiskBandwidth(monoutil::MiBps(450))));
  report("double the cluster (20 machines)?",
         model.PredictJobSeconds(baseline.WithMachines(20)));
  {
    auto ten_gbe = baseline;
    ten_gbe.nic_bandwidth = monoutil::Gbps(10);
    report("upgrade the network 1 GbE -> 10 GbE?", model.PredictJobSeconds(ten_gbe));
  }
  {
    monomodel::SoftwareChanges software;
    software.input_in_memory_deserialized = true;
    report("cache input in memory, deserialized?",
           model.PredictJobSeconds(baseline, software));
  }
  {
    monomodel::SoftwareChanges software;
    software.input_stored_uncompressed = true;
    report("store input uncompressed on disk?",
           model.PredictJobSeconds(baseline, software));
  }

  std::puts("\nBest case from optimizing each resource (Fig 14 style):");
  for (auto resource : {monomodel::Resource::kCpu, monomodel::Resource::kDisk,
                        monomodel::Resource::kNetwork}) {
    std::printf("  infinitely fast %-8s -> %7.1f s\n", monomodel::ResourceName(resource),
                model.PredictWithInfinitelyFast(resource));
  }
  return 0;
}
