package experiments

import "testing"

func TestCampaignExperiment(t *testing.T) {
	cases := []struct {
		workload, wantExp string
	}{
		{"pingpong", "fig1a"},
		{"stream", "fig1b"},
		{"ring", "xroute"},
	}
	for _, c := range cases {
		e, err := CampaignExperiment(c.workload)
		if err != nil {
			t.Fatalf("CampaignExperiment(%q): %v", c.workload, err)
		}
		if e.ID != c.wantExp {
			t.Fatalf("CampaignExperiment(%q) -> %s, want %s", c.workload, e.ID, c.wantExp)
		}
	}
	if _, err := CampaignExperiment("gossip"); err == nil {
		t.Fatal("unknown workload accepted")
	}
}
