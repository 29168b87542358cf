package search

import (
	"encoding/json"
	"fmt"
	"sort"
	"testing"
)

// TestConfigJSONKeys pins the top-level JSON shape of Config, which is the
// POST /v1/jobs config body: the embedded round.Spec must flatten, so every
// shared knob stays a top-level key under its own name.
func TestConfigJSONKeys(t *testing.T) {
	buf, err := json.Marshal(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(buf, &m); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range m {
		got = append(got, k)
	}
	sort.Strings(got)
	want := []string{
		"Alpha", "AlphaOnly", "Augment", "BatchSize", "ChurnProb", "CohortSize",
		"Dataset", "DirichletAlpha", "K", "Lambda", "Net", "Partition",
		"Quorum", "SearchSteps", "Seed", "Shards", "Staleness",
		"StalenessThreshold", "Strategy", "ThetaClip", "ThetaLR",
		"ThetaMomentum", "ThetaWD", "Transmission", "WarmupSteps",
		"Workers",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Config JSON keys\n got  %q\n want %q", got, want)
	}
}
