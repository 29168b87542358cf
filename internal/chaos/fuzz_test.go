package chaos

import (
	"math"
	"testing"
)

// FuzzParseChaosSpec: a spec ParseSpec accepts is a Config that Validate
// accepts and whose fields hold the ranges Validate documents — NaN
// included, which compares false against every bound. The seeds are
// TestParseSpec's specs.
func FuzzParseChaosSpec(f *testing.F) {
	for _, spec := range []string{
		"latency=5ms,jitter=2ms,bw=20,chunk=4096,kill=0.001,seed=7",
		"",
		"nope=1", "latency", "latency=xyz", "kill=2", "regime=warp", "bw=NaN", "bw=Inf", "kill=NaN",
		"regime=train,seed=3",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := ParseSpec(spec)
		if err != nil {
			return
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("ParseSpec(%q) accepted a config Validate rejects: %v", spec, err)
		}
		if cfg.Latency < 0 || cfg.Jitter < 0 || cfg.TraceStep < 0 || cfg.MaxWriteBytes < 0 {
			t.Fatalf("ParseSpec(%q) accepted a negative field: %+v", spec, cfg)
		}
		if !(cfg.BandwidthMbps >= 0) || math.IsInf(cfg.BandwidthMbps, 1) {
			t.Fatalf("ParseSpec(%q) accepted bandwidth %v", spec, cfg.BandwidthMbps)
		}
		if !(cfg.KillProb >= 0 && cfg.KillProb <= 1) {
			t.Fatalf("ParseSpec(%q) accepted kill probability %v", spec, cfg.KillProb)
		}
		if len(cfg.Trace.Mbps) > 0 && cfg.TraceStep <= 0 {
			t.Fatalf("ParseSpec(%q) attached a trace without a step", spec)
		}
	})
}
