#pragma once
// Layer probes for the traced benchmark run (see probe.cpp).

#include <string>

namespace perfbench {

/// Run the layer probes for `workload` for about `seconds` and return them
/// as one JSON object.
std::string run_probe(const std::string& workload, double seconds);

}  // namespace perfbench
