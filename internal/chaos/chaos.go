// Package chaos injects network faults into net.Conn/net.Listener pairs so
// the federated RPC stack can be soaked against the failure modes the
// paper's soft synchronization exists for (Sec. V): added latency and
// jitter, bandwidth throttling (optionally driven by a nettrace mobility
// regime), partial writes, connection kills, and whole-participant outages.
//
// Every stochastic draw comes from a seeded RNG — the injector's, split
// into one private stream per accepted connection — so a fixed seed yields
// the same fault schedule for the same sequence of connection operations.
// A zero Config injects nothing: the wrappers degrade to transparent
// pass-throughs, which is what keeps no-fault runs bit-identical to runs
// without the chaos layer at all.
package chaos

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"fedrlnas/internal/nettrace"
	"fedrlnas/internal/telemetry"
	"fedrlnas/internal/wire"
)

// Kill-site codes carried in a chaos.fault event's value field, so
// cmd/fedtrace can attribute a fault to where in the stack it fired.
const (
	// FaultSiteOutage: SetDown(true) killed the live connections.
	FaultSiteOutage = 0
	// FaultSiteWrite: KillProb closed a connection mid-write.
	FaultSiteWrite = 1
	// FaultSiteAccept: a connection was accepted and dropped while down.
	FaultSiteAccept = 2
)

// Config selects which faults an Injector applies.
type Config struct {
	// Seed drives every stochastic fault decision.
	Seed int64
	// Latency is a fixed delay added to every Write; Jitter adds a
	// uniform extra in [0, Jitter).
	Latency time.Duration
	Jitter  time.Duration
	// BandwidthMbps throttles both directions by sleeping proportionally
	// to the bytes moved; 0 means unlimited. When Trace is non-empty it
	// takes precedence: the live rate is the trace sample for the current
	// TraceStep-sized time slot, so throughput follows a nettrace
	// mobility regime over the injector's lifetime.
	BandwidthMbps float64
	Trace         nettrace.Trace
	// TraceStep is the wall-clock duration of one trace sample
	// (default 1s).
	TraceStep time.Duration
	// MaxWriteBytes splits writes into chunks of at most this many bytes
	// (partial writes as seen by the peer); 0 disables splitting.
	MaxWriteBytes int
	// KillProb is the per-write probability that the connection is killed
	// (closed mid-stream) instead of completing the write.
	KillProb float64
}

// Validate checks the fault configuration.
func (c Config) Validate() error {
	switch {
	case c.Latency < 0 || c.Jitter < 0:
		return fmt.Errorf("chaos: negative latency/jitter")
	case !(c.BandwidthMbps >= 0) || math.IsInf(c.BandwidthMbps, 1):
		return fmt.Errorf("chaos: BandwidthMbps %v must be finite and >= 0", c.BandwidthMbps)
	case c.TraceStep < 0:
		return fmt.Errorf("chaos: TraceStep must be >= 0")
	case c.MaxWriteBytes < 0:
		return fmt.Errorf("chaos: MaxWriteBytes %d must be >= 0", c.MaxWriteBytes)
	case !(c.KillProb >= 0 && c.KillProb <= 1):
		return fmt.Errorf("chaos: KillProb %v outside [0,1]", c.KillProb)
	}
	return nil
}

// specKeys lists every key ParseSpec accepts, for error messages.
const specKeys = "latency, jitter, bw, chunk, kill, seed, regime"

// ParseSpec parses a compact comma-separated fault spec, e.g.
//
//	latency=5ms,jitter=2ms,bw=20,chunk=4096,kill=0.001,seed=7,regime=train
//
// Keys: latency/jitter (durations), bw (Mbps), chunk (bytes), kill
// (probability), seed (int), regime (nettrace regime name; samples a
// 1h bandwidth trace at 1s steps from the spec's seed). An empty spec
// yields the zero Config. Parse errors quote the offending token and list
// the valid keys, so a typo'd chaos spec is diagnosable from the message
// alone.
func ParseSpec(spec string) (Config, error) {
	var cfg Config
	regime := ""
	if strings.TrimSpace(spec) == "" {
		return cfg, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return cfg, fmt.Errorf("chaos: spec entry %q is not key=value (valid keys: %s)", kv, specKeys)
		}
		var err error
		switch k {
		case "latency":
			cfg.Latency, err = time.ParseDuration(v)
		case "jitter":
			cfg.Jitter, err = time.ParseDuration(v)
		case "bw":
			cfg.BandwidthMbps, err = strconv.ParseFloat(v, 64)
		case "chunk":
			cfg.MaxWriteBytes, err = strconv.Atoi(v)
		case "kill":
			cfg.KillProb, err = strconv.ParseFloat(v, 64)
		case "seed":
			cfg.Seed, err = strconv.ParseInt(v, 10, 64)
		case "regime":
			regime = v
		default:
			return cfg, fmt.Errorf("chaos: unknown spec key %q in %q (valid keys: %s)", k, kv, specKeys)
		}
		if err != nil {
			return cfg, fmt.Errorf("chaos: spec value %s=%q: %w", k, v, err)
		}
	}
	if regime != "" {
		r, err := nettrace.ParseRegime(regime)
		if err != nil {
			return cfg, fmt.Errorf("chaos: spec value regime=%q: %w", regime, err)
		}
		tr, err := nettrace.Generate(r, 3600, rand.New(rand.NewSource(cfg.Seed+77)))
		if err != nil {
			return cfg, err
		}
		cfg.Trace = tr
		cfg.TraceStep = time.Second
	}
	return cfg, cfg.Validate()
}

// Injector owns one participant's fault schedule: it wraps that
// participant's listener, tracks the live connections, and can take the
// participant down (killing every connection and refusing new ones) and
// bring it back up — the mid-run churn the lifecycle state machine is
// built to survive.
type Injector struct {
	cfg Config

	mu    sync.Mutex
	rng   *rand.Rand
	start time.Time
	down  bool
	seq   int64
	conns map[*faultConn]struct{}
	met   telemetry.ChaosMetrics

	// tracer + spanOf tag injected faults with the trace context of the
	// round they disrupted (see TraceWith).
	tracer *telemetry.Tracer
	spanOf func() wire.SpanContext
}

// New builds an injector for cfg. Metrics default to unobserved; attach a
// registry with Observe.
func New(cfg Config) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.TraceStep <= 0 {
		cfg.TraceStep = time.Second
	}
	return &Injector{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		start: time.Now(),
		conns: make(map[*faultConn]struct{}),
		met:   telemetry.NewDisabledChaosMetrics(),
	}, nil
}

// Observe routes the injector's fault counters into reg. Injectors sharing
// one registry share the counters (reg handles are idempotent by name).
func (in *Injector) Observe(reg *telemetry.Registry) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.met = telemetry.NewChaosMetrics(reg)
}

// TraceWith attaches a tracer so every injected fault also emits a
// chaos.fault span event. spanOf (optional) supplies the trace context of
// the round being disrupted — typically ParticipantService.CurrentSpan — so
// the fault lands under that round's span in a stitched timeline; a nil
// spanOf (or a zero context) logs the fault without correlation fields.
func (in *Injector) TraceWith(tracer *telemetry.Tracer, spanOf func() wire.SpanContext) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.tracer = tracer
	in.spanOf = spanOf
}

// traceFault emits one chaos.fault event tagged with the active round span.
func (in *Injector) traceFault(site int) {
	in.mu.Lock()
	tracer, spanOf := in.tracer, in.spanOf
	in.mu.Unlock()
	if tracer == nil {
		return
	}
	var ctx wire.SpanContext
	if spanOf != nil {
		ctx = spanOf()
	}
	tracer.ChaosFault(ctx, site)
}

// Metrics returns the injector's current counter handles.
func (in *Injector) Metrics() telemetry.ChaosMetrics {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.met
}

// counters snapshots the handles under the lock (Observe may swap them
// concurrently with live connections).
func (in *Injector) counters() telemetry.ChaosMetrics {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.met
}

// SetDown switches the participant's availability. Going down kills every
// live connection and makes the listener close new ones on accept; coming
// back up restores normal (fault-injected) service.
func (in *Injector) SetDown(down bool) {
	in.mu.Lock()
	in.down = down
	var victims []*faultConn
	if down {
		for c := range in.conns {
			victims = append(victims, c)
		}
	}
	met := in.met
	in.mu.Unlock()
	for _, c := range victims {
		c.kill()
		met.Kills.Inc()
		met.Faults.Inc()
		in.traceFault(FaultSiteOutage)
	}
}

// Down reports whether the participant is currently down.
func (in *Injector) Down() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.down
}

// Listener wraps ln so every accepted connection runs through the fault
// schedule.
func (in *Injector) Listener(ln net.Listener) net.Listener {
	return &faultListener{Listener: ln, in: in}
}

// bandwidthMbps returns the live throttle rate (0 = unlimited).
func (in *Injector) bandwidthMbps() float64 {
	if len(in.cfg.Trace.Mbps) > 0 {
		slot := int(time.Since(in.start) / in.cfg.TraceStep)
		return in.cfg.Trace.At(slot)
	}
	return in.cfg.BandwidthMbps
}

// adopt registers a new connection and hands it a private RNG stream split
// deterministically from the injector seed.
func (in *Injector) adopt(conn net.Conn) *faultConn {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.seq++
	c := &faultConn{
		Conn: conn,
		in:   in,
		rng:  rand.New(rand.NewSource(in.cfg.Seed + 1000003*in.seq)),
	}
	in.conns[c] = struct{}{}
	return c
}

func (in *Injector) forget(c *faultConn) {
	in.mu.Lock()
	delete(in.conns, c)
	in.mu.Unlock()
}

type faultListener struct {
	net.Listener
	in *Injector
}

// Accept passes connections through the injector; while the participant is
// down, new connections are accepted and immediately closed (the TCP
// handshake still completes, as with a real crashed process behind a load
// balancer, so the failure surfaces on first I/O).
func (l *faultListener) Accept() (net.Conn, error) {
	for {
		conn, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		if l.in.Down() {
			_ = conn.Close()
			met := l.in.counters()
			met.Kills.Inc()
			met.Faults.Inc()
			l.in.traceFault(FaultSiteAccept)
			continue
		}
		return l.in.adopt(conn), nil
	}
}

// faultConn applies the injector's fault schedule to one connection.
// Read and Write run on different goroutines (net/rpc's receive loop vs.
// reply writers), so the RNG and kill state are mutex-guarded.
type faultConn struct {
	net.Conn
	in     *Injector
	mu     sync.Mutex
	rng    *rand.Rand
	killed bool
}

// draw runs fn under the connection lock against the private RNG.
func (c *faultConn) draw(fn func(*rand.Rand)) {
	c.mu.Lock()
	fn(c.rng)
	c.mu.Unlock()
}

// kill closes the connection mid-stream (both peers see a reset/EOF).
func (c *faultConn) kill() {
	c.mu.Lock()
	already := c.killed
	c.killed = true
	c.mu.Unlock()
	if !already {
		_ = c.Conn.Close()
	}
}

// Close unregisters the connection before closing it.
func (c *faultConn) Close() error {
	c.in.forget(c)
	return c.Conn.Close()
}

// throttle sleeps long enough that n bytes respect the live bandwidth.
func (c *faultConn) throttle(n int) {
	if n <= 0 {
		return
	}
	mbps := c.in.bandwidthMbps()
	if mbps <= 0 {
		return
	}
	d := time.Duration(float64(n) * 8 / (mbps * 1e6) * float64(time.Second))
	if d <= 0 {
		return
	}
	met := c.in.counters()
	met.Faults.Inc()
	met.DelayNs.Add(d.Nanoseconds())
	time.Sleep(d)
}

func (c *faultConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.throttle(n)
	return n, err
}

func (c *faultConn) Write(p []byte) (int, error) {
	cfg := &c.in.cfg
	if cfg.KillProb > 0 {
		var die bool
		c.draw(func(r *rand.Rand) { die = r.Float64() < cfg.KillProb })
		if die {
			c.kill()
			met := c.in.counters()
			met.Kills.Inc()
			met.Faults.Inc()
			c.in.traceFault(FaultSiteWrite)
			return 0, fmt.Errorf("chaos: connection killed")
		}
	}
	if cfg.Latency > 0 || cfg.Jitter > 0 {
		d := cfg.Latency
		if cfg.Jitter > 0 {
			var extra time.Duration
			c.draw(func(r *rand.Rand) { extra = time.Duration(r.Int63n(int64(cfg.Jitter))) })
			d += extra
		}
		met := c.in.counters()
		met.Faults.Inc()
		met.DelayNs.Add(d.Nanoseconds())
		time.Sleep(d)
	}
	// Partial writes: the peer sees the frame dribble in across several
	// smaller segments, exercising every ReadFull/short-read path.
	written := 0
	for written < len(p) {
		chunk := p[written:]
		if cfg.MaxWriteBytes > 0 && len(chunk) > cfg.MaxWriteBytes {
			chunk = chunk[:cfg.MaxWriteBytes]
			c.in.counters().Faults.Inc()
		}
		n, err := c.Conn.Write(chunk)
		written += n
		c.throttle(n)
		if err != nil {
			return written, err
		}
	}
	return written, nil
}
