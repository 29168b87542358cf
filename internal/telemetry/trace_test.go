package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"fedrlnas/internal/wire"
)

// fixedClock makes trace output deterministic.
func fixedClock(t *Tracer) {
	t.now = func() time.Time { return time.Unix(12, 345) }
}

func TestTracerEmitsValidJSONL(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONLTracer(&buf)
	fixedClock(tr)

	tr.RoundStart(0)
	tr.SubModelSample(0, 3, 4096)
	tr.TxAssign(0, 3, 2048, 0.25)
	tr.ReplyFresh(0, 3)
	tr.ReplyLate(1, 2, 1)
	tr.ReplyDropped(2, 1, 5)
	tr.ReplyOffline(2, 0)
	tr.AlphaUpdate(2, 1.38)
	tr.RoundTimeout(3, 0.5)
	tr.RoundEnd(3, 1.5, 0.75)
	if tr.Events() != 10 {
		t.Fatalf("Events() = %d, want 10", tr.Events())
	}

	sc := bufio.NewScanner(&buf)
	var names []string
	for sc.Scan() {
		line := sc.Text()
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("invalid JSON line %q: %v", line, err)
		}
		for _, key := range []string{"ts", "event", "round", "bytes", "staleness", "seconds", "value"} {
			if _, ok := m[key]; !ok {
				t.Errorf("line %q missing %q", line, key)
			}
		}
		names = append(names, m["event"].(string))
	}
	want := []string{
		EventRoundStart, EventSubModelSample, EventTxAssign, EventReplyFresh,
		EventReplyLate, EventReplyDropped, EventReplyOffline, EventAlphaUpdate,
		EventRoundTimeout, EventRoundEnd,
	}
	if len(names) != len(want) {
		t.Fatalf("%d lines, want %d", len(names), len(want))
	}
	for i, n := range names {
		if n != want[i] {
			t.Errorf("line %d event %q, want %q", i, n, want[i])
		}
	}
}

func TestTracerFieldValues(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONLTracer(&buf)
	fixedClock(tr)
	tr.Emit(Event{Name: "x", Round: 7, Participant: 4, Bytes: 99, Staleness: 2, Seconds: 0.5, Value: 0.25})
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	checks := map[string]float64{
		"round": 7, "participant": 4, "bytes": 99, "staleness": 2,
		"seconds": 0.5, "value": 0.25,
	}
	for k, want := range checks {
		if got := m[k].(float64); got != want {
			t.Errorf("%s = %v, want %v", k, got, want)
		}
	}

	// Round-scoped events omit the participant field entirely.
	buf.Reset()
	tr.RoundStart(1)
	if strings.Contains(buf.String(), "participant") {
		t.Errorf("round.start should omit participant: %s", buf.String())
	}

	// NaN/Inf must not produce invalid JSON.
	buf.Reset()
	tr.Emit(Event{Name: "x", Participant: -1, Seconds: math.Inf(1), Value: math.NaN()})
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("NaN value broke JSON: %v (%s)", err, buf.String())
	}
}

func TestNilTracerIsNoOpAndAllocFree(t *testing.T) {
	var tr *Tracer
	// Must not panic, must report zero state.
	tr.RoundStart(1)
	tr.RoundEnd(1, 0, 0)
	if tr.Events() != 0 || tr.Err() != nil || tr.Close() != nil {
		t.Error("nil tracer should be inert")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		tr.RoundStart(3)
		tr.SubModelSample(3, 1, 512)
		tr.TxAssign(3, 1, 512, 0.1)
		tr.ReplyFresh(3, 1)
		tr.ReplyLate(3, 2, 1)
		tr.ReplyDropped(3, 0, 4)
		tr.ReplyOffline(3, 0)
		tr.AlphaUpdate(3, 0.5)
		tr.RoundEnd(3, 0.2, 0.9)
	})
	if allocs != 0 {
		t.Errorf("disabled tracer allocated %.1f times per round", allocs)
	}
}

func TestEnabledTracerSteadyStateAllocFree(t *testing.T) {
	// After the reusable buffer warms up, the hand-rolled encoder should
	// not allocate per event either (io.Discard has a zero-cost Write).
	tr := NewJSONLTracer(discard{})
	fixedClock(tr)
	tr.RoundStart(0) // warm the buffer
	allocs := testing.AllocsPerRun(1000, func() {
		tr.ReplyFresh(1, 2)
	})
	if allocs != 0 {
		t.Errorf("enabled tracer allocated %.1f times per event", allocs)
	}
}

// discard is io.Discard without the interface-conversion allocation noise.
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

func TestOpenJSONLWritesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	tr, err := OpenJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	tr.RoundStart(0)
	tr.RoundEnd(0, 0.1, 0.5)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 {
		t.Fatalf("file has %d lines, want 2", len(lines))
	}
	for _, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("invalid line %q: %v", line, err)
		}
	}
}

// failWriter fails after n successful writes.
type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errors.New("disk full")
	}
	f.n--
	return len(p), nil
}

func TestTracerRecordsFirstWriteError(t *testing.T) {
	tr := NewJSONLTracer(&failWriter{n: 1})
	fixedClock(tr)
	tr.RoundStart(0)
	tr.RoundStart(1) // fails
	tr.RoundStart(2) // silently skipped
	if tr.Events() != 1 {
		t.Errorf("Events() = %d, want 1", tr.Events())
	}
	if tr.Err() == nil || tr.Close() == nil {
		t.Error("write error not surfaced")
	}
}

// slowWriter widens the torn-write window: each Write yields the scheduler
// partway through, so an unsynchronized tracer would interleave lines.
type slowWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *slowWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	half := len(p) / 2
	w.buf.Write(p[:half])
	runtime.Gosched()
	w.buf.Write(p[half:])
	return len(p), nil
}

// TestTracerConcurrentEmitsAreLineAtomic drives Emit from many goroutines —
// the shape of the parallel round engine, where every in-flight participant
// task emits its own reply span — and asserts that every output line is a
// complete, valid JSON object carrying the participant ID that emitted it.
func TestTracerConcurrentEmitsAreLineAtomic(t *testing.T) {
	const participants = 8
	const perParticipant = 50
	w := &slowWriter{}
	tr := NewJSONLTracer(w)
	fixedClock(tr)

	var wg sync.WaitGroup
	for k := 0; k < participants; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := 0; i < perParticipant; i++ {
				switch i % 3 {
				case 0:
					tr.ReplyFresh(i, k)
				case 1:
					tr.ReplyLate(i, k, 2)
				default:
					tr.ReplyDropped(i, k, 5)
				}
			}
		}(k)
	}
	wg.Wait()

	if got := tr.Events(); got != participants*perParticipant {
		t.Fatalf("Events() = %d, want %d", got, participants*perParticipant)
	}
	counts := make(map[int]int)
	sc := bufio.NewScanner(bytes.NewReader(w.buf.Bytes()))
	lines := 0
	for sc.Scan() {
		lines++
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("torn or invalid line %q: %v", sc.Text(), err)
		}
		p, ok := m["participant"].(float64)
		if !ok {
			t.Fatalf("line missing participant: %q", sc.Text())
		}
		counts[int(p)]++
	}
	if lines != participants*perParticipant {
		t.Fatalf("%d lines, want %d", lines, participants*perParticipant)
	}
	for k := 0; k < participants; k++ {
		if counts[k] != perParticipant {
			t.Errorf("participant %d has %d events, want %d", k, counts[k], perParticipant)
		}
	}
}

// parseLines decodes every JSONL line in buf.
func parseLines(t *testing.T, buf *bytes.Buffer) []map[string]any {
	t.Helper()
	var out []map[string]any
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("invalid line %q: %v", sc.Text(), err)
		}
		out = append(out, m)
	}
	return out
}

func TestTracerSpanStamping(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONLTracer(&buf)
	fixedClock(tr)

	// Untraced: no correlation fields at all.
	tr.RoundStart(0)
	tr.ReplyFresh(0, 1)
	for _, m := range parseLines(t, &buf) {
		for _, k := range []string{"trace", "span", "parent"} {
			if _, ok := m[k]; ok {
				t.Errorf("untraced event has %q: %v", k, m)
			}
		}
	}

	buf.Reset()
	tr.SetTraceID(0xabc)
	tr.RoundStart(1)
	tr.ReplyFresh(1, 2)
	tr.RoundDispatch(1, 100, 0.5)
	lines := parseLines(t, &buf)
	if len(lines) != 3 {
		t.Fatalf("%d lines, want 3", len(lines))
	}
	start := lines[0]
	if start["trace"] != "abc" {
		t.Errorf("round.start trace = %v, want abc", start["trace"])
	}
	span, ok := start["span"].(string)
	if !ok || span == "" {
		t.Fatalf("round.start missing span: %v", start)
	}
	if _, hasParent := start["parent"]; hasParent {
		t.Errorf("round.start must be a root span: %v", start)
	}
	for _, m := range lines[1:] {
		if m["trace"] != "abc" {
			t.Errorf("%v trace = %v, want abc", m["event"], m["trace"])
		}
		if m["parent"] != span {
			t.Errorf("%v parent = %v, want round span %s", m["event"], m["parent"], span)
		}
	}

	// A new round opens a new span; children follow it.
	buf.Reset()
	tr.RoundStart(2)
	tr.ReplyFresh(2, 0)
	lines = parseLines(t, &buf)
	span2 := lines[0]["span"].(string)
	if span2 == span {
		t.Error("round span not rotated between rounds")
	}
	if lines[1]["parent"] != span2 {
		t.Errorf("event parents under stale round span: %v", lines[1])
	}
}

func TestWorkerSpanParenting(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONLTracer(&buf) // worker tracer: no local trace ID
	fixedClock(tr)
	ctx := wire.SpanContext{TraceID: 0xf00d, SpanID: 0xbeef, Round: 3, Participant: 1}
	tr.WorkerSpan(EventWorkerTrain, ctx, 512, 0.25)
	tr.WorkerSpan(EventWorkerDecode, wire.SpanContext{Round: 3, Participant: 1}, 0, 0.1)
	lines := parseLines(t, &buf)
	if lines[0]["trace"] != "f00d" || lines[0]["parent"] != "beef" {
		t.Errorf("worker span not parented from wire context: %v", lines[0])
	}
	if lines[0]["round"].(float64) != 3 || lines[0]["participant"].(float64) != 1 {
		t.Errorf("worker span lost round/participant: %v", lines[0])
	}
	// An untraced wire context degrades to a plain event.
	if _, ok := lines[1]["trace"]; ok {
		t.Errorf("invalid context must not invent a trace: %v", lines[1])
	}
}

func TestTracerCountsDrops(t *testing.T) {
	tr := NewJSONLTracer(&failWriter{n: 1})
	fixedClock(tr)
	reg := NewRegistry()
	c := reg.Counter("trace_dropped_total", "")
	tr.SetDropCounter(c)
	tr.RoundStart(0)
	tr.RoundStart(1) // write fails: dropped
	tr.RoundStart(2) // short-circuited: dropped
	if tr.Events() != 1 {
		t.Errorf("Events() = %d, want 1", tr.Events())
	}
	if tr.Dropped() != 2 {
		t.Errorf("Dropped() = %d, want 2", tr.Dropped())
	}
	if c.Value() != 2 {
		t.Errorf("trace_dropped_total = %d, want 2", c.Value())
	}
	// Without a counter wired, drops are still tracked locally.
	tr2 := NewJSONLTracer(&failWriter{n: 0})
	fixedClock(tr2)
	tr2.RoundStart(0)
	if tr2.Dropped() != 1 {
		t.Errorf("uncounted Dropped() = %d, want 1", tr2.Dropped())
	}
}

// A failing sink is reported once per tracer, through log/slog's default
// logger, however many events it then drops.
func TestTracerWarnsOncePerTracer(t *testing.T) {
	var logged bytes.Buffer
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(&logged, nil)))
	t.Cleanup(func() { slog.SetDefault(prev) })

	for _, tr := range []*Tracer{NewJSONLTracer(&failWriter{n: 0}), NewJSONLTracer(&failWriter{n: 1})} {
		fixedClock(tr)
		for r := range 4 {
			tr.RoundStart(r)
		}
	}
	lines := strings.Split(strings.TrimSpace(logged.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("two failing tracers logged %d lines, want one each:\n%s", len(lines), logged.String())
	}
	for _, l := range lines {
		if !strings.Contains(l, "level=WARN") || !strings.Contains(l, "trace write failed") || !strings.Contains(l, "err=") {
			t.Errorf("warning %q lacks its level, message or error", l)
		}
	}
}

func TestEnsureTraceIDAndRoundContext(t *testing.T) {
	var nilTr *Tracer
	if nilTr.EnsureTraceID() != 0 {
		t.Error("nil tracer must report trace ID 0")
	}
	if ctx := nilTr.RoundContext(5); ctx.Valid() {
		t.Error("nil tracer must yield an invalid context")
	}

	tr := NewJSONLTracer(discard{})
	fixedClock(tr)
	if ctx := tr.RoundContext(0); ctx.Valid() {
		t.Error("untraced tracer must yield an invalid context")
	}
	id := tr.EnsureTraceID()
	if id == 0 {
		t.Fatal("EnsureTraceID returned 0")
	}
	if tr.EnsureTraceID() != id {
		t.Error("EnsureTraceID not idempotent")
	}
	tr.RoundStart(7)
	ctx := tr.RoundContext(7)
	if !ctx.Valid() || ctx.TraceID != id || ctx.SpanID == 0 {
		t.Errorf("round context = %+v, want trace %#x with open span", ctx, id)
	}
	if ctx.Round != 7 || ctx.Participant != -1 {
		t.Errorf("round context round/participant = %d/%d", ctx.Round, ctx.Participant)
	}
}

func TestNewSpanIDsAreUnique(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := 0; i < 10000; i++ {
		id := NewSpanID()
		if id == 0 {
			t.Fatal("NewSpanID returned 0")
		}
		if seen[id] {
			t.Fatalf("duplicate span ID %#x after %d draws", id, i)
		}
		seen[id] = true
	}
}

// TestTracedTracerSteadyStateAllocFree extends the alloc-free guarantee to
// traced runs: hex correlation fields reuse the line buffer.
func TestTracedTracerSteadyStateAllocFree(t *testing.T) {
	tr := NewJSONLTracer(discard{})
	fixedClock(tr)
	tr.SetTraceID(NewTraceID())
	tr.RoundStart(0) // warm the buffer, open a span
	ctx := tr.RoundContext(0)
	allocs := testing.AllocsPerRun(1000, func() {
		tr.ReplyFresh(1, 2)
		tr.RPCCall(ctx, 1, 2, 4096, 0.01, true)
		tr.WorkerSpan(EventWorkerTrain, ctx, 512, 0.02)
	})
	if allocs != 0 {
		t.Errorf("traced tracer allocated %.1f times per event", allocs)
	}
}
