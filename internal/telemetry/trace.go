// Package telemetry is the runtime observability substrate for the
// federated search stack: a span-style JSONL tracer for per-round events,
// a process-wide metric registry (counters, gauges, latency histograms),
// and an opt-in debug HTTP server exposing Prometheus-format metrics,
// health, expvar, and pprof.
//
// Everything in this package is safe to leave wired in on hot paths: a nil
// *Tracer is a zero-allocation no-op, and nil metric handles are no-ops
// too, so instrumented code never needs to branch on "telemetry enabled".
package telemetry

import (
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fedrlnas/internal/wire"
)

// Event names emitted by the instrumented round loops. The JSONL schema is
// documented in README.md §Observability; field names are stable.
const (
	EventRoundStart     = "round.start"
	EventRoundEnd       = "round.end"
	EventRoundTimeout   = "round.timeout"
	EventSubModelSample = "submodel.sample"
	EventTxAssign       = "tx.assign"
	EventReplyFresh     = "reply.fresh"
	EventReplyLate      = "reply.late"
	EventReplyDropped   = "reply.dropped"
	EventReplyOffline   = "reply.offline"
	EventAlphaUpdate    = "alpha.update"
	EventPeerState      = "participant.state"
	EventPeerRedial     = "participant.redial"
)

// Observability-v2 event names: server-side round phases, per-call RPC
// spans, worker-side spans parented across the process boundary by the
// wire-propagated span context, and trace-tagged chaos faults. cmd/fedtrace
// stitches these into per-round critical paths.
const (
	EventRoundDispatch = "round.dispatch"
	EventRoundMerge    = "round.merge"
	EventCtrlUpdate    = "controller.update"
	EventRPCCall       = "rpc.call"
	EventWorkerTrain   = "worker.train"
	EventWorkerDecode  = "worker.decode"
	EventWorkerEncode  = "worker.encode"
	EventChaosFault    = "chaos.fault"
)

// Event is one trace record. A zero field is emitted as its zero value so
// the schema stays fixed; Participant is omitted when negative (events
// that concern the whole round rather than one participant).
type Event struct {
	// Name identifies the event (see the Event* constants).
	Name string
	// Round is the communication round the event belongs to.
	Round int
	// Participant is the participant id, or -1 when not applicable.
	Participant int
	// Bytes is the payload size associated with the event (sub-model
	// wire size for submodel.sample / tx.assign), 0 otherwise.
	Bytes int64
	// Staleness is the reply delay in rounds (0 = fresh).
	Staleness int
	// Seconds is the wall-clock (or virtual) duration of the event.
	Seconds float64
	// Value is an event-specific scalar: mean accuracy for round.end,
	// entropy for alpha.update, assignment latency for tx.assign.
	Value float64
	// TraceID, SpanID and ParentID carry distributed-trace correlation
	// (zero = absent, field omitted from the JSONL line). TraceID groups
	// every event of one run, SpanID names the span an event opens
	// (round.start), ParentID links an event under its parent span. On a
	// tracer with a trace ID set, Emit stamps TraceID — and, for events
	// that neither open a span nor set an explicit parent, ParentID (the
	// current round span) — automatically.
	TraceID  uint64
	SpanID   uint64
	ParentID uint64
}

// Tracer writes Events as JSON lines. A nil *Tracer discards every event
// without allocating, so call sites never guard emissions. Methods are
// safe for concurrent use.
type Tracer struct {
	mu  sync.Mutex
	w   io.Writer
	c   io.Closer
	buf []byte
	n   int64
	err error

	// traceID, when nonzero, is stamped on every event; roundSpan is the
	// span ID of the most recent round.start and becomes the default
	// parent of events emitted inside the round.
	traceID   uint64
	roundSpan uint64

	// drops counts events lost to write errors; dropCounter optionally
	// mirrors them into a registry counter (trace_dropped_total), and
	// warned gates the single best-effort warning per tracer.
	drops       int64
	dropCounter *Counter
	warned      bool

	// now stamps events; replaced in tests for determinism.
	now func() time.Time
}

// NewJSONLTracer returns a tracer writing one JSON object per line to w.
func NewJSONLTracer(w io.Writer) *Tracer {
	return &Tracer{w: w, buf: make([]byte, 0, 256), now: time.Now}
}

// OpenJSONL creates (truncating) path and returns a tracer writing to it.
// Close flushes and closes the file.
func OpenJSONL(path string) (*Tracer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("telemetry: open trace: %w", err)
	}
	t := NewJSONLTracer(f)
	t.c = f
	return t, nil
}

// Close closes the underlying writer if it is closable and reports the
// first write error encountered over the tracer's lifetime.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.c != nil {
		if err := t.c.Close(); err != nil && t.err == nil {
			t.err = err
		}
		t.c = nil
	}
	return t.err
}

// Err reports the first write error encountered (nil if none).
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Events reports how many events have been written.
func (t *Tracer) Events() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Dropped reports how many events were lost to write errors.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.drops
}

// SetDropCounter mirrors dropped-event counts into c (typically the
// trace_dropped_total registry counter) so a wedged trace file shows up on
// /metrics rather than failing silently.
func (t *Tracer) SetDropCounter(c *Counter) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.dropCounter = c
}

// SetTraceID sets the run-wide trace ID stamped on every subsequent event.
func (t *Tracer) SetTraceID(id uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.traceID = id
}

// EnsureTraceID sets a fresh random trace ID if none is set yet and returns
// the tracer's trace ID (0 only on a nil tracer).
func (t *Tracer) EnsureTraceID() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.traceID == 0 {
		t.traceID = NewTraceID()
	}
	return t.traceID
}

// RoundContext returns the span context to propagate to participants for
// the current round: the run's trace ID plus the open round span as the
// remote parent. Participant is -1; the dispatcher stamps the real id per
// peer. Zero-valued (and therefore not propagated) when tracing is off.
func (t *Tracer) RoundContext(round int) wire.SpanContext {
	if t == nil {
		return wire.SpanContext{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.traceID == 0 {
		return wire.SpanContext{}
	}
	return wire.SpanContext{TraceID: t.traceID, SpanID: t.roundSpan,
		Round: int32(round), Participant: -1}
}

// Emit writes one event. On a nil tracer this is a no-op that performs no
// allocation, so it can sit on the hottest loop unconditionally.
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		t.drop()
		return
	}
	if t.traceID != 0 {
		if e.TraceID == 0 {
			e.TraceID = t.traceID
		}
		// Events that neither open a span nor carry an explicit parent
		// nest under the current round span. round.start itself arrives
		// with its SpanID set, so it stays a root span.
		if e.SpanID == 0 && e.ParentID == 0 {
			e.ParentID = t.roundSpan
		}
	}
	b := t.buf[:0]
	b = append(b, `{"ts":`...)
	b = strconv.AppendInt(b, t.now().UnixNano(), 10)
	b = append(b, `,"event":"`...)
	b = append(b, e.Name...)
	b = append(b, `","round":`...)
	b = strconv.AppendInt(b, int64(e.Round), 10)
	if e.Participant >= 0 {
		b = append(b, `,"participant":`...)
		b = strconv.AppendInt(b, int64(e.Participant), 10)
	}
	b = append(b, `,"bytes":`...)
	b = strconv.AppendInt(b, e.Bytes, 10)
	b = append(b, `,"staleness":`...)
	b = strconv.AppendInt(b, int64(e.Staleness), 10)
	b = append(b, `,"seconds":`...)
	b = appendJSONFloat(b, e.Seconds)
	b = append(b, `,"value":`...)
	b = appendJSONFloat(b, e.Value)
	if e.TraceID != 0 {
		b = append(b, `,"trace":"`...)
		b = strconv.AppendUint(b, e.TraceID, 16)
		b = append(b, '"')
	}
	if e.SpanID != 0 {
		b = append(b, `,"span":"`...)
		b = strconv.AppendUint(b, e.SpanID, 16)
		b = append(b, '"')
	}
	if e.ParentID != 0 {
		b = append(b, `,"parent":"`...)
		b = strconv.AppendUint(b, e.ParentID, 16)
		b = append(b, '"')
	}
	b = append(b, "}\n"...)
	t.buf = b
	if _, err := t.w.Write(b); err != nil {
		t.err = err
		t.drop()
		return
	}
	t.n++
}

// drop accounts one lost event (t.mu held) and logs a warning through
// log/slog's default logger once per tracer, so a broken trace sink is
// visible without spamming the console.
func (t *Tracer) drop() {
	t.drops++
	t.dropCounter.Inc()
	if !t.warned {
		t.warned = true
		slog.Warn("telemetry: trace write failed, dropping events", "err", t.err)
	}
}

// appendJSONFloat renders v as a JSON number (NaN/Inf, which JSON cannot
// represent, degrade to 0).
func appendJSONFloat(b []byte, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return append(b, '0')
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// RoundStart marks the beginning of a communication round. On a traced run
// it opens the round span every subsequent event (local and remote) parents
// under, until the next RoundStart.
func (t *Tracer) RoundStart(round int) {
	if t == nil {
		return
	}
	var span uint64
	t.mu.Lock()
	if t.traceID != 0 {
		span = NewSpanID()
		t.roundSpan = span
	}
	t.mu.Unlock()
	t.Emit(Event{Name: EventRoundStart, Round: round, Participant: -1, SpanID: span})
}

// RoundEnd marks the end of a round with its duration and mean accuracy.
func (t *Tracer) RoundEnd(round int, seconds, meanAccuracy float64) {
	t.Emit(Event{Name: EventRoundEnd, Round: round, Participant: -1,
		Seconds: seconds, Value: meanAccuracy})
}

// RoundTimeout records a round closed by the deadline below quorum.
func (t *Tracer) RoundTimeout(round int, waitedSeconds float64) {
	t.Emit(Event{Name: EventRoundTimeout, Round: round, Participant: -1,
		Seconds: waitedSeconds})
}

// SubModelSample records the sub-model sampled for a participant.
func (t *Tracer) SubModelSample(round, participant int, bytes int64) {
	t.Emit(Event{Name: EventSubModelSample, Round: round,
		Participant: participant, Bytes: bytes})
}

// TxAssign records the sub-model actually assigned for transmission, with
// its wire size and modeled link latency.
func (t *Tracer) TxAssign(round, participant int, bytes int64, latencySeconds float64) {
	t.Emit(Event{Name: EventTxAssign, Round: round, Participant: participant,
		Bytes: bytes, Value: latencySeconds})
}

// ReplyFresh records an update computed against the current round's state.
func (t *Tracer) ReplyFresh(round, participant int) {
	t.Emit(Event{Name: EventReplyFresh, Round: round, Participant: participant})
}

// ReplyLate records a stale-but-applied update with its delay in rounds.
func (t *Tracer) ReplyLate(round, participant, staleness int) {
	t.Emit(Event{Name: EventReplyLate, Round: round, Participant: participant,
		Staleness: staleness})
}

// ReplyDropped records an update discarded for staleness (or transport
// failure, staleness 0).
func (t *Tracer) ReplyDropped(round, participant, staleness int) {
	t.Emit(Event{Name: EventReplyDropped, Round: round, Participant: participant,
		Staleness: staleness})
}

// ReplyOffline records a participant skipped by churn this round.
func (t *Tracer) ReplyOffline(round, participant int) {
	t.Emit(Event{Name: EventReplyOffline, Round: round, Participant: participant})
}

// AlphaUpdate records a policy update with the controller's entropy after
// the step (the baseline is exposed via the alpha_baseline gauge).
func (t *Tracer) AlphaUpdate(round int, entropy float64) {
	t.Emit(Event{Name: EventAlphaUpdate, Round: round, Participant: -1,
		Value: entropy})
}

// PeerState records a participant lifecycle transition; the state code
// (0 alive, 1 suspect, 2 dead) rides in Value. Round is the round the
// server was driving when the transition happened.
func (t *Tracer) PeerState(round, participant int, state int) {
	t.Emit(Event{Name: EventPeerState, Round: round, Participant: participant,
		Value: float64(state)})
}

// PeerRedial records a successful mid-run reconnect, with the number of
// dial attempts it took in Value.
func (t *Tracer) PeerRedial(round, participant, attempts int) {
	t.Emit(Event{Name: EventPeerRedial, Round: round, Participant: participant,
		Value: float64(attempts)})
}

// RoundDispatch records the server-side dispatch phase: serializing and
// launching all participant calls, with the total payload bytes shipped.
func (t *Tracer) RoundDispatch(round int, bytes int64, seconds float64) {
	t.Emit(Event{Name: EventRoundDispatch, Round: round, Participant: -1,
		Bytes: bytes, Seconds: seconds})
}

// RoundMerge records the deterministic merge of accepted replies, with the
// contributor count in Value.
func (t *Tracer) RoundMerge(round, contributors int, seconds float64) {
	t.Emit(Event{Name: EventRoundMerge, Round: round, Participant: -1,
		Seconds: seconds, Value: float64(contributors)})
}

// ControllerUpdate records the optimizer/controller step closing a round.
func (t *Tracer) ControllerUpdate(round int, seconds float64) {
	t.Emit(Event{Name: EventCtrlUpdate, Round: round, Participant: -1,
		Seconds: seconds})
}

// RPCCall records one participant RPC from issue to reply (or failure:
// Value 1 = ok, 0 = failed), with the reply payload size. It parents under
// the span carried in ctx — the round that issued the call — rather than
// whichever round is open when the (possibly late) reply lands.
func (t *Tracer) RPCCall(ctx wire.SpanContext, round, participant int, bytes int64, seconds float64, ok bool) {
	v := 0.0
	if ok {
		v = 1
	}
	t.Emit(Event{Name: EventRPCCall, Round: round, Participant: participant,
		Bytes: bytes, Seconds: seconds, Value: v,
		TraceID: ctx.TraceID, ParentID: ctx.SpanID})
}

// WorkerSpan emits a worker-side span (worker.train, worker.decode,
// worker.encode) parented under the server's round span carried across the
// wire in ctx. With an invalid ctx (untraced run) the event is still logged,
// just without correlation fields.
func (t *Tracer) WorkerSpan(name string, ctx wire.SpanContext, bytes int64, seconds float64) {
	t.Emit(Event{Name: name, Round: int(ctx.Round), Participant: int(ctx.Participant),
		Bytes: bytes, Seconds: seconds, TraceID: ctx.TraceID, ParentID: ctx.SpanID})
}

// ChaosFault records an injected fault under the round span active when it
// fired; the kill-site code rides in Value (0 victim loop, 1 conn write,
// 2 accept while down).
func (t *Tracer) ChaosFault(ctx wire.SpanContext, site int) {
	t.Emit(Event{Name: EventChaosFault, Round: int(ctx.Round),
		Participant: int(ctx.Participant), Value: float64(site),
		TraceID: ctx.TraceID, ParentID: ctx.SpanID})
}

// idState is the process-wide span/trace ID generator: a splitmix64 stream
// over an atomic counter seeded once from crypto/rand, so IDs are unique
// within a process and collide across processes with negligible probability
// — without taking a lock or allocating on the round hot path.
var (
	idSeedOnce sync.Once
	idCounter  atomic.Uint64
)

func newID() uint64 {
	idSeedOnce.Do(func() {
		var b [8]byte
		if _, err := crand.Read(b[:]); err == nil {
			idCounter.Store(binary.LittleEndian.Uint64(b[:]))
		} else {
			idCounter.Store(uint64(time.Now().UnixNano()))
		}
	})
	for {
		x := idCounter.Add(0x9e3779b97f4a7c15)
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		if x != 0 {
			return x
		}
	}
}

// NewTraceID returns a fresh nonzero run-wide trace ID.
func NewTraceID() uint64 { return newID() }

// NewSpanID returns a fresh nonzero span ID.
func NewSpanID() uint64 { return newID() }
