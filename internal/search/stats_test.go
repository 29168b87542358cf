package search

import (
	"math"
	"testing"

	"fedrlnas/internal/staleness"
)

// The observed fresh/late/dropped frequencies must match the configured
// staleness schedule — the tally is how Fig. 8's "70% staleness" is
// verified to actually be 70%.
func TestStatsMatchStalenessSchedule(t *testing.T) {
	cfg := tinyConfig()
	cfg.WarmupSteps = 0
	cfg.SearchSteps = 120
	cfg.K = 6
	cfg.Staleness = staleness.Severe()
	cfg.Strategy = staleness.DC
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	total := float64(s.Stats.Fresh + s.Stats.Late + s.Stats.Dropped)
	if total == 0 {
		t.Fatal("no updates tallied")
	}
	freshFrac := float64(s.Stats.Fresh) / total
	dropFrac := float64(s.Stats.Dropped) / total
	// Severe: 30% fresh, 60% late, 10% dropped — but the earliest rounds
	// treat would-be-stale draws as fresh, so allow a band.
	if math.Abs(freshFrac-0.3) > 0.1 {
		t.Errorf("fresh fraction %.3f, want ~0.30", freshFrac)
	}
	if math.Abs(dropFrac-0.1) > 0.06 {
		t.Errorf("dropped fraction %.3f, want ~0.10", dropFrac)
	}
	if s.Stats.Offline != 0 {
		t.Errorf("offline %d without churn", s.Stats.Offline)
	}
}

func TestStatsHardSyncAllFresh(t *testing.T) {
	cfg := tinyConfig()
	cfg.WarmupSteps = 5
	cfg.SearchSteps = 5
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Warmup(); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Stats.Late != 0 || s.Stats.Dropped != 0 {
		t.Errorf("hard sync produced late=%d dropped=%d", s.Stats.Late, s.Stats.Dropped)
	}
	if s.Stats.Fresh != 10*cfg.K {
		t.Errorf("fresh %d, want %d", s.Stats.Fresh, 10*cfg.K)
	}
}

func TestStatsThrowDropsStale(t *testing.T) {
	cfg := tinyConfig()
	cfg.WarmupSteps = 0
	cfg.SearchSteps = 40
	cfg.Staleness = staleness.Severe()
	cfg.Strategy = staleness.Throw
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Stats.Late != 0 {
		t.Errorf("throw strategy recorded %d late updates", s.Stats.Late)
	}
	if s.Stats.Dropped == 0 {
		t.Error("throw strategy dropped nothing under severe staleness")
	}
}

func TestObserverReceivesEveryRound(t *testing.T) {
	cfg := tinyConfig()
	cfg.WarmupSteps = 3
	cfg.SearchSteps = 4
	cfg.ChurnProb = 0.3
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var reports []RoundReport
	s.Observer = func(r RoundReport) { reports = append(reports, r) }
	if err := s.Warmup(); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(reports) != 7 {
		t.Fatalf("observer saw %d rounds, want 7", len(reports))
	}
	for i, r := range reports {
		if r.Round != i {
			t.Errorf("report %d has round %d", i, r.Round)
		}
		if r.MeanAccuracy < 0 || r.MeanAccuracy > 1 {
			t.Errorf("round %d accuracy %v", i, r.MeanAccuracy)
		}
	}
	offline := 0
	for _, r := range reports {
		offline += r.Stats.Offline
	}
	if offline != s.Stats.Offline {
		t.Errorf("per-round offline sum %d != total %d", offline, s.Stats.Offline)
	}
	if s.Stats.Offline == 0 {
		t.Error("churn 0.3 over 7 rounds never took anyone offline")
	}
}
