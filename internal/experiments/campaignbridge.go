package experiments

// Bridge from campaign scenarios (internal/campaign) to registered
// experiments: a shrunk reproducer names a workload class and a fault
// plan, and the closest registered experiment can replay the same traffic
// pattern under that plan through the ordinary `repro -exp … -faults …`
// path. The mapping is by traffic shape, not fidelity — a campaign
// scenario is a minimal synthetic workload, the experiment is the
// paper-scale sweep — so the bridge is a diagnosis aid ("run the full
// sweep under this plan"), not an equivalence.

import "fmt"

// campaignWorkloads maps a campaign workload class to the registered
// experiment exercising the same traffic pattern.
var campaignWorkloads = map[string]string{
	"pingpong": "fig1a",  // two-rank request/response: ping-pong latency sweep
	"stream":   "fig1b",  // windowed one-way flood: streaming bandwidth sweep
	"ring":     "xroute", // all-ranks neighbor traffic across the spine
}

// CampaignExperiment returns the registered experiment that replays a
// campaign scenario's workload class at full fidelity.
func CampaignExperiment(workload string) (Experiment, error) {
	id, ok := campaignWorkloads[workload]
	if !ok {
		return Experiment{}, fmt.Errorf("experiments: no experiment bridges campaign workload %q", workload)
	}
	return Get(id)
}
