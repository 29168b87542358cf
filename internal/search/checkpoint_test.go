package search

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

func TestCheckpointRoundTrip(t *testing.T) {
	cfg := tinyConfig()
	cfg.WarmupSteps = 3
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
	path := filepath.Join(t.TempDir(), "search.ckpt")
	if err := s.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}

	// A fresh search restored from the checkpoint must match θ, α, round.
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.LoadCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	if s2.Round() != s.Round() {
		t.Errorf("round %d, want %d", s2.Round(), s.Round())
	}
	a, b := s.SnapshotTheta(), s2.SnapshotTheta()
	for i := range a {
		if !a[i].AllClose(b[i], 0) {
			t.Fatalf("theta tensor %d differs after restore", i)
		}
	}
	if s.Controller().Snapshot().Diff(s2.Controller().Snapshot()).L2Norm() != 0 {
		t.Error("alpha differs after restore")
	}
	// Derived genotypes must agree.
	if s.Derive().String() != s2.Derive().String() {
		t.Error("genotypes differ after restore")
	}
}

func TestCheckpointResumeContinues(t *testing.T) {
	cfg := tinyConfig()
	cfg.WarmupSteps = 2
	cfg.SearchSteps = 3
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Warmup(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "warm.ckpt")
	if err := s.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.LoadCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	if err := s2.Run(); err != nil {
		t.Fatalf("resume run: %v", err)
	}
	if s2.SearchCurve.Len() != 3 {
		t.Errorf("resumed search recorded %d rounds", s2.SearchCurve.Len())
	}
}

func TestLoadCheckpointRejectsGarbage(t *testing.T) {
	cfg := tinyConfig()
	cfg.WarmupSteps = 0
	cfg.SearchSteps = 0
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.ckpt")
	if err := os.WriteFile(bad, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadCheckpoint(bad); err == nil {
		t.Error("expected error for garbage checkpoint")
	}
	if err := s.LoadCheckpoint(filepath.Join(dir, "missing.ckpt")); err == nil {
		t.Error("expected error for missing file")
	}
}

func TestLoadCheckpointRejectsMismatchedConfig(t *testing.T) {
	cfg := tinyConfig()
	cfg.WarmupSteps = 1
	cfg.SearchSteps = 0
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Warmup(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "a.ckpt")
	if err := s.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	other := tinyConfig()
	other.Net.C = 6 // different supernet
	s2, err := New(other)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.LoadCheckpoint(path); err == nil {
		t.Error("expected error loading checkpoint into mismatched supernet")
	}
}

// Warmup then RunContext is the checkpointing driver: a checkpoint every
// `every` completed rounds, and one at the end.
func TestRunWithCheckpoints(t *testing.T) {
	cfg := tinyConfig()
	cfg.WarmupSteps = 1
	cfg.SearchSteps = 5
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "periodic.ckpt")
	savedRound := func() int {
		t.Helper()
		s2, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s2.LoadCheckpoint(path); err != nil {
			t.Fatal(err)
		}
		return s2.Round()
	}
	if err := s.Warmup(); err != nil {
		t.Fatal(err)
	}
	// The observer fires inside round r, before any checkpoint for it: the
	// file must then hold the last multiple of `every` completed so far.
	s.Observer = func(r RoundReport) {
		if want := r.Round / 2 * 2; want > 0 {
			if got := savedRound(); got != want {
				t.Errorf("during round %d the checkpoint is at round %d, want %d", r.Round, got, want)
			}
		}
	}
	if err := s.RunContext(context.Background(), path, 2); err != nil {
		t.Fatal(err)
	}
	if got := savedRound(); got != 6 {
		t.Errorf("final checkpoint at round %d, want 6", got)
	}
}
