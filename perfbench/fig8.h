// Stage 3, Fig 8 FCT: transport::run_experiment for the Flowtune scheme
// in the paper's §6.2 setup (144 hosts, web workload) over a reduced
// measured window. Time goes to the sim packet engine and the transport
// TCP models; the allocator's rounds are a small share.
#pragma once

#include "common.h"

namespace pb {

// Runs the experiment once, checks it, and reports into `rep`.
void run_fig8(const Options& opt, Report& rep);

}  // namespace pb
