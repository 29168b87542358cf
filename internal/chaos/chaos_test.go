package chaos

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"fedrlnas/internal/nettrace"
	"fedrlnas/internal/telemetry"
	"fedrlnas/internal/wire"
)

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config rejected: %v", err)
	}
	for _, bad := range []Config{
		{Latency: -time.Second},
		{Jitter: -time.Second},
		{BandwidthMbps: -1},
		{TraceStep: -time.Second},
		{MaxWriteBytes: -1},
		{KillProb: -0.1},
		{KillProb: 1.1},
		{KillProb: math.NaN()},
		{BandwidthMbps: math.NaN()},
		{BandwidthMbps: math.Inf(1)},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("config %+v accepted", bad)
		}
	}
}

func TestParseSpec(t *testing.T) {
	cfg, err := ParseSpec("latency=5ms,jitter=2ms,bw=20,chunk=4096,kill=0.001,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Latency != 5*time.Millisecond || cfg.Jitter != 2*time.Millisecond {
		t.Errorf("latency/jitter wrong: %+v", cfg)
	}
	if cfg.BandwidthMbps != 20 || cfg.MaxWriteBytes != 4096 ||
		cfg.KillProb != 0.001 || cfg.Seed != 7 {
		t.Errorf("spec fields wrong: %+v", cfg)
	}
	if cfg, err := ParseSpec(""); err != nil ||
		cfg.Latency != 0 || cfg.BandwidthMbps != 0 || cfg.KillProb != 0 || len(cfg.Trace.Mbps) != 0 {
		t.Errorf("empty spec: cfg=%+v err=%v", cfg, err)
	}
	for _, bad := range []string{"nope=1", "latency", "latency=xyz", "kill=2", "regime=warp", "bw=NaN", "bw=Inf", "kill=NaN"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

func TestParseSpecRegimeTrace(t *testing.T) {
	cfg, err := ParseSpec("regime=" + nettrace.AllRegimes[0].String() + ",seed=3")
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Trace.Mbps) == 0 {
		t.Fatal("regime spec produced no trace")
	}
	if cfg.TraceStep != time.Second {
		t.Errorf("TraceStep = %v, want 1s", cfg.TraceStep)
	}
	again, err := ParseSpec("regime=" + nettrace.AllRegimes[0].String() + ",seed=3")
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfg.Trace.Mbps {
		if cfg.Trace.Mbps[i] != again.Trace.Mbps[i] {
			t.Fatal("same seed produced different traces")
		}
	}
}

// echoPair starts an echo server behind the injector and returns a dialed
// client connection.
func echoPair(t *testing.T, in *Injector) net.Conn {
	t.Helper()
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := in.Listener(raw)
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { _, _ = io.Copy(conn, conn); _ = conn.Close() }()
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return conn
}

func roundTrip(t *testing.T, conn net.Conn, payload []byte) []byte {
	t.Helper()
	if _, err := conn.Write(payload); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestZeroConfigIsTransparent(t *testing.T) {
	in, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	in.Observe(reg)
	conn := echoPair(t, in)
	payload := bytes.Repeat([]byte("fedrlnas"), 512)
	if got := roundTrip(t, conn, payload); !bytes.Equal(got, payload) {
		t.Fatal("zero-config injector corrupted the stream")
	}
	if n := in.Metrics().Faults.Value(); n != 0 {
		t.Errorf("faults_injected_total = %d for a zero config, want 0", n)
	}
}

func TestPartialWritesDeliverEverything(t *testing.T) {
	in, err := New(Config{MaxWriteBytes: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	in.Observe(reg)
	conn := echoPair(t, in)
	payload := []byte(strings.Repeat("abcdefgh", 100))
	if got := roundTrip(t, conn, payload); !bytes.Equal(got, payload) {
		t.Fatal("chunked writes corrupted the stream")
	}
	if n := in.Metrics().Faults.Value(); n == 0 {
		t.Error("chunked writes counted no faults")
	}
}

func TestSetDownKillsConnections(t *testing.T) {
	in, err := New(Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	conn := echoPair(t, in)
	payload := []byte("ping")
	if got := roundTrip(t, conn, payload); !bytes.Equal(got, payload) {
		t.Fatal("healthy round-trip failed")
	}
	in.SetDown(true)
	if !in.Down() {
		t.Fatal("Down() false after SetDown(true)")
	}
	// The live server-side connection was killed: the echo stops.
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	_, _ = conn.Write(payload)
	if _, err := io.ReadFull(conn, make([]byte, len(payload))); err == nil {
		t.Fatal("echo survived SetDown(true)")
	}
	if n := in.Metrics().Kills.Value(); n == 0 {
		t.Error("chaos_kills_total = 0 after SetDown kill")
	}
	// New connections complete the TCP handshake but die on first I/O.
	down, err := net.Dial("tcp", conn.RemoteAddr().String())
	if err != nil {
		t.Fatalf("dial while down should succeed at TCP level: %v", err)
	}
	defer down.Close()
	_ = down.SetReadDeadline(time.Now().Add(2 * time.Second))
	_, _ = down.Write(payload)
	if _, err := io.ReadFull(down, make([]byte, len(payload))); err == nil {
		t.Fatal("down participant served a request")
	}
	// Back up: fresh connections work again.
	in.SetDown(false)
	up, err := net.Dial("tcp", conn.RemoteAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	if got := roundTrip(t, up, payload); !bytes.Equal(got, payload) {
		t.Fatal("participant did not come back up")
	}
}

func TestLatencyDelaysWrites(t *testing.T) {
	in, err := New(Config{Latency: 30 * time.Millisecond, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	conn := echoPair(t, in)
	// The injector sits server-side: its delay applies to the echoed copy.
	start := time.Now()
	roundTrip(t, conn, []byte("ping"))
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Errorf("round-trip took %v, want >= 30ms of injected latency", elapsed)
	}
	if n := in.Metrics().DelayNs.Value(); n == 0 {
		t.Error("chaos_delay_ns_total = 0 despite injected latency")
	}
}

func TestTraceWithTagsInjectedFaults(t *testing.T) {
	in, err := New(Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	ctx := wire.SpanContext{TraceID: 0xa1, SpanID: 0xb2, Round: 7, Participant: 3}
	in.TraceWith(telemetry.NewJSONLTracer(&buf), func() wire.SpanContext { return ctx })

	conn := echoPair(t, in)
	defer conn.Close()
	payload := []byte("ping")
	if got := roundTrip(t, conn, payload); !bytes.Equal(got, payload) {
		t.Fatal("healthy round-trip failed")
	}
	in.SetDown(true)

	var faults []map[string]any
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("invalid trace line %q: %v", sc.Text(), err)
		}
		if m["event"] == telemetry.EventChaosFault {
			faults = append(faults, m)
		}
	}
	if len(faults) == 0 {
		t.Fatal("SetDown(true) emitted no chaos.fault events")
	}
	for _, m := range faults {
		if m["value"].(float64) != FaultSiteOutage {
			t.Errorf("fault site = %v, want %d (outage)", m["value"], FaultSiteOutage)
		}
		if m["round"].(float64) != 7 || m["participant"].(float64) != 3 {
			t.Errorf("fault lost round/participant context: %v", m)
		}
		if m["trace"] != "a1" || m["parent"] != "b2" {
			t.Errorf("fault not correlated to the round span: %v", m)
		}
	}
}

// TestParseSpecErrorText: a typo'd spec must be diagnosable from the error
// alone — it quotes the offending token and lists every valid key.
func TestParseSpecErrorText(t *testing.T) {
	cases := []struct {
		spec string
		want []string
	}{
		{"nope=1", []string{`"nope"`, "latency, jitter, bw, chunk, kill, seed, regime"}},
		{"latency", []string{`"latency"`, "not key=value", "latency, jitter, bw, chunk, kill, seed, regime"}},
		{"latency=xyz", []string{`latency="xyz"`}},
		{"regime=warp", []string{`"warp"`, "foot"}},
	}
	for _, tc := range cases {
		_, err := ParseSpec(tc.spec)
		if err == nil {
			t.Errorf("spec %q accepted", tc.spec)
			continue
		}
		for _, want := range tc.want {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("ParseSpec(%q) error missing %q:\n%s", tc.spec, want, err)
			}
		}
	}
}
