// Graph analytics: settle the "does the network matter for graph analytics?" debate
// for YOUR cluster with one run.
//
// The paper cites an ongoing argument ([22, 23, 30]) about whether faster networks
// help graph workloads. With monotasks, the answer for a given workload and cluster
// is one job away: run PageRank once, read the per-resource monotask times, and ask
// the model what a 10 GbE upgrade — or an in-memory graph, or more cores — would do.
//
// Run:  ./graph_analytics
#include <cstdio>

#include "src/framework/environment.h"
#include "src/model/monotasks_model.h"
#include "src/monotask/mono_executor.h"
#include "src/workloads/clusters.h"
#include "src/workloads/pagerank.h"

int main() {
  const auto cluster = monoload::SortClusterConfig();  // 20 workers, 2 HDD, 1 GbE.
  monoload::PageRankParams params;
  params.iterations = 4;

  std::puts("Running 4 PageRank iterations on 20 workers (1 GbE, in-memory graph)...");
  monosim::SimEnvironment env(cluster);
  monosim::MonotasksExecutorSim executor(&env.sim(), &env.cluster(), &env.pool(), {});
  env.AttachExecutor(&executor);
  const monosim::JobResult result =
      env.driver().RunJob(monoload::MakePageRankJob(&env.dfs(), params));
  std::printf("Runtime: %.1f s over %zu stages\n\n", result.duration().seconds(),
              result.stages.size());

  const auto baseline = monomodel::HardwareProfile::FromCluster(cluster);
  const monomodel::MonotasksModel model(result, baseline);

  std::printf("Job bottleneck: %s\n", monomodel::ResourceName(model.JobBottleneck()));
  const auto ideal = model.IdealTimes(0);
  std::printf("First contributions stage: ideal cpu %.1f s, network %.1f s, disk %.1f s\n\n",
              ideal.cpu, ideal.network, ideal.disk);

  auto answer = [&](const char* question, double predicted) {
    std::printf("  %-44s %7.1f s (%+.0f%%)\n", question, predicted,
                100.0 * (predicted / result.duration().seconds() - 1.0));
  };
  std::puts("The debate, settled for this cluster:");
  {
    auto ten_gbe = baseline;
    ten_gbe.nic_bandwidth = monoutil::Gbps(10);
    answer("10 GbE instead of 1 GbE?", model.PredictJobSeconds(ten_gbe));
  }
  answer("2x the machines?", model.PredictJobSeconds(baseline.WithMachines(40)));
  answer("infinitely fast network (upper bound)?",
         model.PredictWithInfinitelyFast(monomodel::Resource::kNetwork));
  answer("infinitely fast CPU (upper bound)?",
         model.PredictWithInfinitelyFast(monomodel::Resource::kCpu));

  std::puts("\n(McSherry & Schwarzkopf would ask for the single-threaded baseline;");
  std::puts(" monotasks at least tells you which hardware check to run first.)");
  return 0;
}
