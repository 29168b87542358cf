package scenario

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestParseGrammar covers the four -scenario forms.
func TestParseGrammar(t *testing.T) {
	// Bare catalog name.
	spec, err := Parse("phone-urban")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Population) != 1 || spec.Population[0].Profile != "phone-urban" {
		t.Fatalf("bare name parsed to %+v", spec.Population)
	}

	// Percentage mix.
	spec, err = Parse("70%phone-urban+30%iot-rural")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Population) != 2 {
		t.Fatalf("mix has %d shares", len(spec.Population))
	}
	if spec.Population[0].Fraction != 0.7 || spec.Population[1].Fraction != 0.3 {
		t.Fatalf("mix fractions %+v", spec.Population)
	}
	if spec.Population[1].Profile != "iot-rural" {
		t.Fatalf("second share is %q", spec.Population[1].Profile)
	}

	// Inline JSON.
	spec, err = Parse(`{"population":[{"profile":"edge-dc"}],"personalize":true}`)
	if err != nil {
		t.Fatal(err)
	}
	if !spec.Personalize || spec.Population[0].Profile != "edge-dc" {
		t.Fatalf("inline JSON parsed to %+v", spec)
	}

	// @file.
	path := filepath.Join(t.TempDir(), "scen.json")
	if err := os.WriteFile(path, []byte(`{"skew":{"kind":"dirichlet","alpha":0.2}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err = Parse("@" + path)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Skew == nil || spec.Skew.Alpha != 0.2 {
		t.Fatalf("file spec parsed to %+v", spec)
	}

	// Empty arg means no scenario.
	if spec, err := Parse("  "); err != nil || spec != nil {
		t.Fatalf("empty arg = %v, %v; want nil, nil", spec, err)
	}

	for _, bad := range []string{"flying-car", "7x%phone-urban", "phone-urban++", "{not json", "@/does/not/exist"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

// TestSpecRoundTrip: parse → JSON → parse must be lossless for every form.
func TestSpecRoundTrip(t *testing.T) {
	for _, arg := range []string{
		"phone-urban",
		"70%phone-urban+30%iot-rural",
		`{"name":"custom","population":[{"custom":{"name":"x","speed":2,"network":[{"regime":"foot","rounds":3},{"regime":"train"}],"churn":0.1,"skew_alpha":0.3,"chaos":"latency=5ms"}}],"skew":{"kind":"dirichlet","alpha":0.5},"personalize":true,"head_lr":0.1}`,
	} {
		spec, err := Parse(arg)
		if err != nil {
			t.Fatalf("Parse(%q): %v", arg, err)
		}
		raw, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Parse(string(raw))
		if err != nil {
			t.Fatalf("re-Parse(%s): %v", raw, err)
		}
		if !reflect.DeepEqual(spec, back) {
			t.Errorf("round trip of %q:\n  first  %+v\n  second %+v", arg, spec, back)
		}
	}
}

// TestValidateReportsAllProblems: one Validate call must surface every
// mistake, not just the first.
func TestValidateReportsAllProblems(t *testing.T) {
	spec := &Spec{
		Population: []Share{
			{Profile: "no-such-profile", Fraction: 0.5},
			{Custom: &Profile{Name: "bad", Speed: -1, Churn: 2, Network: []Phase{{Regime: "submarine"}, {Regime: "foot"}}}},
		},
		Skew:   &Skew{Kind: "zipf"},
		HeadLR: -0.5,
	}
	err := spec.Validate()
	if err == nil {
		t.Fatal("invalid spec accepted")
	}
	msg := err.Error()
	for _, want := range []string{
		"no-such-profile", "speed -1", "churn 2", "submarine", "zipf", "head_lr -0.5",
		"only valid on the final phase",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("joined error missing %q:\n%s", want, msg)
		}
	}
}

// TestResolveHugeFractions: fractions whose sum overflows float64 keep
// their ratios instead of all normalizing to 0.
func TestResolveHugeFractions(t *testing.T) {
	spec, err := Parse(hugeFractions)
	if err != nil {
		t.Fatal(err)
	}
	_, fracs, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if len(fracs) != 2 || fracs[0] != 0.5 || fracs[1] != 0.5 {
		t.Fatalf("1e308:1e308 resolved to %v, want [0.5 0.5]", fracs)
	}
}

const hugeFractions = `{"population":[{"profile":"phone-urban","fraction":1e308},{"profile":"iot-rural","fraction":1e308}]}`

// TestAssignDeterministicAndProportional: assignment is a pure function of
// (fractions, k, seed) with largest-remainder counts.
func TestAssignDeterministic(t *testing.T) {
	fracs := []float64{0.7, 0.3}
	a := Assign(fracs, 10, 42)
	b := Assign(fracs, 10, 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("assignment not deterministic: %v vs %v", a, b)
	}
	counts := map[int]int{}
	for _, g := range a {
		counts[g]++
	}
	if counts[0] != 7 || counts[1] != 3 {
		t.Fatalf("70/30 of 10 assigned %v", counts)
	}
	if reflect.DeepEqual(a, Assign(fracs, 10, 43)) {
		t.Error("different seeds produced identical placements")
	}
	// Growing the population keeps proportions (largest remainder).
	counts = map[int]int{}
	for _, g := range Assign(fracs, 9, 42) {
		counts[g]++
	}
	if counts[0]+counts[1] != 9 || counts[0] < 6 || counts[0] > 7 {
		t.Fatalf("70/30 of 9 assigned %v", counts)
	}
}

// TestCatalogProfilesValid: every built-in profile must pass its own
// validation and produce a usable trace and chaos config.
func TestCatalogProfilesValid(t *testing.T) {
	for _, p := range Catalog() {
		if err := p.validate(); err != nil {
			t.Errorf("catalog profile %q invalid: %v", p.Name, err)
		}
		tr, err := p.Trace(20, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Errorf("profile %q trace: %v", p.Name, err)
		}
		if p.FixedMbps > 0 && tr.Mbps[5] != p.FixedMbps {
			t.Errorf("profile %q fixed trace at %v, want %v", p.Name, tr.Mbps[5], p.FixedMbps)
		}
		if _, err := p.ChaosConfig(7); err != nil {
			t.Errorf("profile %q chaos config: %v", p.Name, err)
		}
	}
	if _, err := Lookup("laptop-wifi"); err != nil {
		t.Error(err)
	}
	if _, err := Lookup("mainframe"); err == nil || !strings.Contains(err.Error(), "edge-dc") {
		t.Errorf("unknown profile error should list the catalog, got %v", err)
	}
}

// TestParticipantTraceOrderIndependent: a participant's trace depends only
// on (seed, pid), never on when it is drawn.
func TestParticipantTraceOrderIndependent(t *testing.T) {
	p, err := Lookup("phone-urban")
	if err != nil {
		t.Fatal(err)
	}
	tr3, err := p.ParticipantTrace(16, 9, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Draw others "first" — must not perturb participant 3.
	for _, pid := range []int{7, 0, 5} {
		if _, err := p.ParticipantTrace(16, 9, pid); err != nil {
			t.Fatal(err)
		}
	}
	again, err := p.ParticipantTrace(16, 9, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr3.Mbps, again.Mbps) {
		t.Fatal("participant trace depends on draw order")
	}
	other, _ := p.ParticipantTrace(16, 9, 4)
	if reflect.DeepEqual(tr3.Mbps, other.Mbps) {
		t.Fatal("distinct participants share a trace")
	}
}

// TestPartitionFor: every participant gets a non-empty shard, shards are
// disjoint, the split is deterministic, and a profile's Dirichlet alpha
// skews its group while an IID profile's group stays balanced.
func TestPartitionFor(t *testing.T) {
	const k, classes, perClass = 8, 4, 50
	labels := make([]int, classes*perClass)
	for i := range labels {
		labels[i] = i % classes
	}
	profiles := []Profile{
		{Name: "skewed", SkewAlpha: 0.1},
		{Name: "flat"},
	}
	assignment := Assign([]float64{0.5, 0.5}, k, 11)
	part, err := PartitionFor(labels, k, assignment, profiles, nil, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for pid, idxs := range part.Indices {
		if len(idxs) == 0 {
			t.Fatalf("participant %d has an empty shard", pid)
		}
		for _, idx := range idxs {
			if seen[idx] {
				t.Fatalf("index %d appears in two shards", idx)
			}
			seen[idx] = true
		}
	}
	part2, err := PartitionFor(labels, k, assignment, profiles, nil, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(part.Indices, part2.Indices) {
		t.Fatal("partition not deterministic")
	}
	// The Spec-level override replaces per-profile alphas.
	forced, err := PartitionFor(labels, k, assignment, profiles,
		&Skew{Kind: SkewIID}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	for pid, idxs := range forced.Indices {
		counts := make([]int, classes)
		for _, idx := range idxs {
			counts[labels[idx]]++
		}
		for c, n := range counts {
			if n == 0 {
				t.Fatalf("iid override: participant %d missing class %d", pid, c)
			}
		}
	}
}

// TestPersonalTestIndices: the per-client test set follows the client's
// label distribution and is deterministic.
func TestPersonalTestIndices(t *testing.T) {
	testLabels := make([]int, 40)
	for i := range testLabels {
		testLabels[i] = i % 4
	}
	idx := PersonalTestIndices([]float64{1, 0, 0, 0}, testLabels, 8)
	if len(idx) == 0 {
		t.Fatal("empty personal test set")
	}
	for _, i := range idx {
		if testLabels[i] != 0 {
			t.Fatalf("single-class dist pulled class %d", testLabels[i])
		}
	}
	mixed := PersonalTestIndices([]float64{0.5, 0.5, 0, 0}, testLabels, 8)
	classes := map[int]bool{}
	for _, i := range mixed {
		classes[testLabels[i]] = true
	}
	if !classes[0] || !classes[1] || classes[2] || classes[3] {
		t.Fatalf("mixed dist pulled classes %v", classes)
	}
}

// TestIsZero: zero specs lower to nothing; anything substantive does not.
func TestIsZero(t *testing.T) {
	if !(*Spec)(nil).IsZero() || !(&Spec{}).IsZero() || !(&Spec{Name: "label-only"}).IsZero() {
		t.Error("zero specs not recognized")
	}
	if (&Spec{Personalize: true}).IsZero() || (&Spec{Skew: &Skew{Kind: SkewIID}}).IsZero() {
		t.Error("substantive specs reported zero")
	}
}
