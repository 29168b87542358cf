package main

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"fedrlnas/internal/telemetry"
)

func TestRunModeValidation(t *testing.T) {
	if err := run(nil); err == nil || !strings.Contains(err.Error(), "usage") {
		t.Errorf("empty args not rejected: %v", err)
	}
	if err := run([]string{"conductor"}); err == nil ||
		!strings.Contains(err.Error(), "unknown mode") {
		t.Errorf("bad mode not rejected: %v", err)
	}
}

func TestShardForValidation(t *testing.T) {
	if _, _, err := shardFor("imagenet", 4, 0, 1, nil); err == nil {
		t.Error("unknown dataset not rejected")
	}
	if _, _, err := shardFor("cifar10s", 4, 9, 1, nil); err == nil {
		t.Error("out-of-range index not rejected")
	}
	ds, shard, err := shardFor("cifar10s", 4, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ds == nil || len(shard) == 0 {
		t.Error("valid shard empty")
	}
	// Determinism across "processes": same seed, same shard.
	_, shard2, err := shardFor("cifar10s", 4, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(shard) != len(shard2) {
		t.Fatal("shard sizes differ across regenerations")
	}
	for i := range shard {
		if shard[i] != shard2[i] {
			t.Fatal("shards differ across regenerations — workers would train on wrong data")
		}
	}
}

// TestDebugAddrServesEndpoints exercises the -debug-addr wiring: the same
// startDebug call both subcommands use must serve /metrics, /healthz and
// /debug/pprof/ over HTTP.
func TestDebugAddrServesEndpoints(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("rounds_total", "rounds").Add(2)
	dbg, err := startDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer dbg.Close()
	base := "http://" + dbg.Addr()
	for path, want := range map[string]string{
		"/metrics":      "rounds_total 2",
		"/healthz":      "ok",
		"/debug/pprof/": "goroutine",
		"/debug/vars":   "memstats",
	} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), want) {
			t.Errorf("%s = %d, body missing %q", path, resp.StatusCode, want)
		}
	}
	// Empty address disables the endpoint without error.
	off, err := startDebug("", reg)
	if err != nil || off != nil {
		t.Errorf("startDebug(\"\") = %v, %v; want nil, nil", off, err)
	}
	if err := off.Close(); err != nil {
		t.Errorf("closing disabled debug server: %v", err)
	}
	if _, err := startDebug("999.999.999.999:-1", reg); err == nil {
		t.Error("invalid debug address accepted")
	}
}

func TestServerModeNeedsAddrs(t *testing.T) {
	if err := runServer([]string{}); err == nil || !strings.Contains(err.Error(), "need -addrs") {
		t.Errorf("missing addrs not rejected: %v", err)
	}
	// A trailing comma names no participant: refused before any dial.
	if err := runServer([]string{"-addrs", "127.0.0.1:1,"}); err == nil ||
		!strings.Contains(err.Error(), "address 1 is empty") {
		t.Errorf("empty address not rejected: %v", err)
	}
}

// TestPrecisionFlagRemoved: the subcommands refuse removed flags and flag
// values instead of ignoring them: -precision on both, the top-k wire
// mode's -topk-ratio and -topk-grad-ratio, and -wire topk and the retired
// -wire binary alias. The worker row also passes an out-of-range -index,
// so a build that still parsed -precision fails fast; no server row has
// -addrs, so a build that still accepted the flag fails on that instead.
func TestPrecisionFlagRemoved(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"worker", "-precision", "fp32", "-index", "9"}, "flag provided but not defined: -precision"},
		{[]string{"server", "-precision", "fp32"}, "flag provided but not defined: -precision"},
		{[]string{"server", "-topk-ratio", "0.1"}, "flag provided but not defined: -topk-ratio"},
		{[]string{"server", "-topk-grad-ratio", "0.1"}, "flag provided but not defined: -topk-grad-ratio"},
		{[]string{"server", "-wire", "topk"}, `unknown mode "topk"`},
		{[]string{"server", "-wire", "binary"}, `unknown mode "binary"`},
	} {
		err := run(c.args)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("run(%q) = %v, want %q", c.args, err, c.want)
		}
	}
}
