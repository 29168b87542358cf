package scenario

import (
	"fmt"
	"sort"
	"strings"
)

// catalog holds the built-in device profiles. Each bundles the four axes a
// scenario varies — compute, network, availability, data — so a whole
// device class is one name on the command line.
var catalog = map[string]Profile{
	"phone-urban": {
		Name:  "phone-urban",
		Speed: 1.0,
		// An urban phone walks, then rides a bus: a mid-run regime shift.
		Network:   []Phase{{Regime: "foot", Rounds: 8}, {Regime: "bus"}},
		Churn:     0.05,
		SkewAlpha: 0.5,
	},
	"phone-commuter": {
		Name:      "phone-commuter",
		Speed:     1.2,
		Network:   []Phase{{Regime: "bus", Rounds: 6}, {Regime: "train", Rounds: 6}, {Regime: "foot"}},
		Churn:     0.10,
		SkewAlpha: 0.5,
	},
	"iot-rural": {
		Name:  "iot-rural",
		Speed: 4.0, // a microcontroller-class device, 4x the reference step time
		// Rural coverage behaves like the burstiest measured regime.
		Network:   []Phase{{Regime: "train"}},
		Churn:     0.15,
		SkewAlpha: 0.2, // a sensor sees a narrow slice of the label space
	},
	"edge-dc": {
		Name:      "edge-dc",
		Speed:     0.25, // server-class accelerator
		FixedMbps: 200,  // wired link: no mobility regime
		Churn:     0,
		SkewAlpha: 0, // IID replica of the corpus
	},
	"laptop-wifi": {
		Name:      "laptop-wifi",
		Speed:     0.6,
		Network:   []Phase{{Regime: "foot"}},
		Churn:     0.02,
		SkewAlpha: 1.0,
	},
}

// Lookup resolves a built-in profile by name.
func Lookup(name string) (Profile, error) {
	p, ok := catalog[name]
	if !ok {
		return Profile{}, fmt.Errorf("unknown profile %q (valid: %s)", name, CatalogNames())
	}
	return p, nil
}

// CatalogNames returns every built-in profile name, sorted and
// comma-separated, for error text and usage strings.
func CatalogNames() string {
	names := make([]string, 0, len(catalog))
	for n := range catalog {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// Catalog returns the built-in profiles in name order (for docs and
// per-profile sweeps).
func Catalog() []Profile {
	names := make([]string, 0, len(catalog))
	for n := range catalog {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]Profile, len(names))
	for i, n := range names {
		out[i] = catalog[n]
	}
	return out
}
