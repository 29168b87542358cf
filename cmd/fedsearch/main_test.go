package main

import (
	"bufio"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestRunRejectsBadFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"bad dataset", []string{"-dataset", "mnist"}, "unknown dataset"},
		// -partition was removed in favour of -scenario; it must be
		// rejected rather than silently ignored.
		{"bad partition", []string{"-partition", "dirichlet"}, "flag provided but not defined: -partition"},
		{"bad staleness", []string{"-staleness", "extreme"}, "unknown staleness"},
		{"bad strategy", []string{"-strategy", "vote"}, "unknown strategy"},
		{"bad transmission", []string{"-transmission", "greedy"}, "unknown transmission"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("run(%v) = %v, want error containing %q", tc.args, err, tc.want)
			}
		})
	}
}

func TestRunTinyPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	args := []string{
		"-k", "3", "-warmup", "2", "-search", "3", "-retrain", "5", "-batch", "8",
		"-genotype-out", dir + "/g.json",
	}
	if err := run(args); err != nil {
		t.Fatalf("tiny pipeline failed: %v", err)
	}
}

// TestTraceFlagEmitsValidJSONL runs a tiny pipeline with -trace (plus
// -debug-addr to exercise its lifecycle) and checks that every line parses
// as JSON with the stable schema and that each of the 5 rounds (2 warm-up
// + 3 search) produced exactly one round.end event.
func TestTraceFlagEmitsValidJSONL(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	tracePath := dir + "/trace.jsonl"
	args := []string{
		"-k", "3", "-warmup", "2", "-search", "3", "-retrain", "1", "-batch", "8",
		"-trace", tracePath,
		"-debug-addr", "127.0.0.1:0",
	}
	if err := run(args); err != nil {
		t.Fatalf("pipeline with -trace failed: %v", err)
	}

	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	roundEnds := map[float64]int{}
	lines := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		lines++
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %d is not valid JSON: %v (%s)", lines, err, sc.Text())
		}
		for _, key := range []string{"ts", "event", "round", "bytes", "staleness", "seconds", "value"} {
			if _, ok := m[key]; !ok {
				t.Fatalf("line %d missing field %q: %s", lines, key, sc.Text())
			}
		}
		if m["event"].(string) == "round.end" {
			roundEnds[m["round"].(float64)]++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("trace file is empty")
	}
	const rounds = 5 // 2 warm-up + 3 search
	if len(roundEnds) != rounds {
		t.Fatalf("round.end events for %d distinct rounds, want %d", len(roundEnds), rounds)
	}
	for r := 0; r < rounds; r++ {
		if roundEnds[float64(r)] != 1 {
			t.Errorf("round %d has %d round.end events, want 1", r, roundEnds[float64(r)])
		}
	}
}

// TestDebugAddrRejectsBadAddress pins the error path of -debug-addr.
func TestDebugAddrRejectsBadAddress(t *testing.T) {
	err := run([]string{"-debug-addr", "999.999.999.999:-1"})
	if err == nil {
		t.Error("invalid -debug-addr accepted")
	}
}

func TestFirstVal(t *testing.T) {
	if firstVal(nil) != 0 {
		t.Error("empty firstVal should be 0")
	}
	if firstVal([]float64{3, 4}) != 3 {
		t.Error("firstVal should return the first element")
	}
}

// TestCheckpointResumeRoundTrip runs a tiny search with -checkpoint-out,
// then resumes a longer schedule from the checkpoint with -resume: the
// resumed run must skip the already-completed rounds and finish.
func TestCheckpointResumeRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	ckpt := dir + "/search.ckpt"
	base := []string{"-k", "3", "-warmup", "2", "-search", "3", "-retrain", "2", "-batch", "8"}
	if err := run(append(base, "-checkpoint-out", ckpt, "-checkpoint-every", "2")); err != nil {
		t.Fatalf("checkpointed run failed: %v", err)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}
	// Same config, longer schedule: resume continues from round 5.
	longer := []string{"-k", "3", "-warmup", "2", "-search", "6", "-retrain", "2", "-batch", "8",
		"-resume", ckpt}
	if err := run(longer); err != nil {
		t.Fatalf("resumed run failed: %v", err)
	}
	// A mismatched config must be rejected, not silently mis-resumed.
	mismatched := []string{"-k", "4", "-warmup", "2", "-search", "6", "-retrain", "2", "-batch", "8",
		"-resume", ckpt}
	if err := run(mismatched); err == nil {
		t.Fatal("resume with mismatched config should fail")
	}
}
