package scenario

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// FuzzParseScenario drives every accepted -scenario argument through the
// population pipeline a run builds from it: Resolve must succeed on what
// Parse validated and give normalized fractions, and Assign must place
// exactly k participants on valid profiles, reproducibly, for K 1–16.
// @FILE arguments are skipped (they read the file system). The seeds are
// TestParseGrammar's arguments and TestResolveHugeFractions'.
func FuzzParseScenario(f *testing.F) {
	for _, arg := range []string{
		"phone-urban",
		"70%phone-urban+30%iot-rural",
		`{"population":[{"profile":"edge-dc"}],"personalize":true}`,
		"  ",
		"flying-car", "7x%phone-urban", "phone-urban++", "{not json",
		hugeFractions,
	} {
		f.Add(arg, int64(1))
	}
	f.Fuzz(func(t *testing.T, arg string, seed int64) {
		if strings.HasPrefix(strings.TrimSpace(arg), "@") {
			t.Skip("@FILE reads the file system")
		}
		spec, err := Parse(arg)
		if err != nil {
			return
		}
		profiles, fracs, err := spec.Resolve()
		if err != nil {
			t.Fatalf("Parse(%q) accepted a spec Resolve rejects: %v", arg, err)
		}
		if spec == nil || len(spec.Population) == 0 {
			if profiles != nil || fracs != nil {
				t.Fatalf("Parse(%q): no population resolved to %v, %v", arg, profiles, fracs)
			}
			return
		}
		if len(profiles) != len(spec.Population) || len(fracs) != len(spec.Population) {
			t.Fatalf("Parse(%q): %d shares resolved to %d profiles, %d fractions",
				arg, len(spec.Population), len(profiles), len(fracs))
		}
		sum := 0.0
		for i, fr := range fracs {
			if !(fr >= 0 && fr <= 1) {
				t.Fatalf("Parse(%q): fraction %d resolved to %v", arg, i, fr)
			}
			sum += fr
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("Parse(%q): fractions %v sum to %v", arg, fracs, sum)
		}
		for k := 1; k <= 16; k++ {
			a := Assign(fracs, k, seed)
			if len(a) != k {
				t.Fatalf("Parse(%q): Assign(%v, %d) placed %d participants", arg, fracs, k, len(a))
			}
			for _, p := range a {
				if p < 0 || p >= len(profiles) {
					t.Fatalf("Parse(%q): Assign(%v, %d) gave profile %d", arg, fracs, k, p)
				}
			}
			if b := Assign(fracs, k, seed); !reflect.DeepEqual(a, b) {
				t.Fatalf("Parse(%q): Assign(%v, %d) not reproducible: %v vs %v", arg, fracs, k, a, b)
			}
		}
	})
}
