package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"fedrlnas/internal/nas"
	"fedrlnas/internal/tensor"
)

// ErrClosed is returned by Infer once the model has been closed (drain or
// explicit shutdown).
var ErrClosed = errors.New("serve: model closed")

// BatchConfig is the micro-batching policy for one served model.
type BatchConfig struct {
	// MaxBatch caps a dispatch: the dispatcher takes up to MaxBatch of the
	// queued requests whenever the model is free. 1 disables coalescing
	// (every request is its own forward). A part-full batch forwards only
	// the requests it holds; nas.ForwardBatch stages any fill without
	// allocating.
	MaxBatch int
	// MaxWait is ignored: a batch never waits for company (see dispatch).
	// The field stays only for callers that still set it; a negative value
	// is refused.
	MaxWait time.Duration
	// QueueCap is the admission queue capacity; submitters beyond it block
	// (closed-loop backpressure) rather than being dropped. <= 0 defaults
	// to 4×MaxBatch.
	QueueCap int
}

func (c *BatchConfig) normalize() error {
	if c.MaxBatch < 1 {
		return fmt.Errorf("serve: MaxBatch %d, want >= 1", c.MaxBatch)
	}
	if c.MaxWait < 0 {
		return fmt.Errorf("serve: negative MaxWait %v", c.MaxWait)
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 4 * c.MaxBatch
	}
	return nil
}

// Inference owns one served model and its admission queue. All forwards run
// on the single dispatcher goroutine, so the model needs no locking and its
// ForwardBatch scratch is reused safely across dispatches.
type Inference struct {
	model *nas.FixedModel
	cfg   BatchConfig
	met   *Metrics

	reqs chan *inferReq
	// mu guards admission: Infer sends while holding the read side, Close
	// flips closed and closes reqs under the write side, so a send can
	// never race the close. Sends may block inside the read lock when the
	// queue is full; the dispatcher keeps draining, so they finish and
	// Close's write lock eventually acquires.
	mu     sync.RWMutex
	closed bool
	done   chan struct{}

	// Dispatcher-owned batch assembly scratch: the requests not yet
	// forwarded, and the requests and examples of the shape group being
	// forwarded.
	pending, group []*inferReq
	xs             []*tensor.Tensor
}

type inferReq struct {
	x      *tensor.Tensor
	logits []float64
	err    error
	done   chan struct{}
}

// NewInference starts serving model under the given policy. The model is
// switched to eval mode here — batched inference requires it (training-mode
// batch norm would couple rows) — and must not be used elsewhere while
// served.
func NewInference(model *nas.FixedModel, cfg BatchConfig, met *Metrics) (*Inference, error) {
	inf, err := newInference(model, cfg, met)
	if err != nil {
		return nil, err
	}
	go inf.dispatch()
	return inf, nil
}

// newInference is NewInference without the dispatcher, which the caller
// starts.
func newInference(model *nas.FixedModel, cfg BatchConfig, met *Metrics) (*Inference, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	model.SetTraining(false)
	return &Inference{
		model:   model,
		cfg:     cfg,
		met:     met,
		reqs:    make(chan *inferReq, cfg.QueueCap),
		done:    make(chan struct{}),
		pending: make([]*inferReq, 0, cfg.MaxBatch),
		group:   make([]*inferReq, 0, cfg.MaxBatch),
		xs:      make([]*tensor.Tensor, 0, cfg.MaxBatch),
	}, nil
}

// Config returns the model's micro-batching policy.
func (inf *Inference) Config() BatchConfig { return inf.cfg }

// NumClasses returns the served model's output width.
func (inf *Inference) NumClasses() int { return inf.model.Net.Cfg.NumClasses }

// InChannels returns the channel count C an example [C, H, W] must have.
// The model pins nothing else: H and W are free, so requests of different
// sizes may share a batch (runBatch forwards each size on its own).
func (inf *Inference) InChannels() int { return inf.model.Net.Cfg.InChannels }

// Infer submits one example ([C,H,W] or [1,C,H,W]) and blocks until its
// batch completes, returning a caller-owned logits slice.
func (inf *Inference) Infer(x *tensor.Tensor) ([]float64, error) {
	req := &inferReq{x: x, done: make(chan struct{})}
	start := time.Now()
	inf.mu.RLock()
	if inf.closed {
		inf.mu.RUnlock()
		inf.met.Rejected.Inc()
		return nil, ErrClosed
	}
	inf.reqs <- req
	inf.mu.RUnlock()
	<-req.done
	inf.met.Requests.Inc()
	inf.met.InferSeconds.Observe(time.Since(start).Seconds())
	return req.logits, req.err
}

// Close stops admission, lets the dispatcher flush every already-admitted
// request (the in-flight batch and the queued backlog), and returns once
// the dispatcher has exited. Idempotent.
func (inf *Inference) Close() {
	inf.mu.Lock()
	if !inf.closed {
		inf.closed = true
		close(inf.reqs)
	}
	inf.mu.Unlock()
	<-inf.done
}

// dispatch is the batching loop, work-conserving: block for a first
// request, take whatever else is already queued (up to MaxBatch) and run it
// at once. Requests that arrive during a forward make up the next batch, so
// under load the queue fills batches to MaxBatch by itself, and a lone
// request never waits on a timer: a batch costs its own fill, so waiting
// for company would save a few microseconds per request and cost the wait.
// Channel-close semantics do the drain for free — after Close, receives
// keep yielding the queued backlog until it is empty, and only then report
// closed.
func (inf *Inference) dispatch() {
	defer close(inf.done)
	batch := make([]*inferReq, 0, inf.cfg.MaxBatch)
	for {
		req, ok := <-inf.reqs
		if !ok {
			return
		}
		batch = append(batch[:0], req)
	take:
		for len(batch) < inf.cfg.MaxBatch {
			select {
			case r, ok := <-inf.reqs:
				if !ok {
					break take
				}
				batch = append(batch, r)
			default:
				break take
			}
		}
		inf.met.QueueDepth.Set(float64(len(inf.reqs)))
		inf.runBatch(batch)
		// Co-scheduling: hand the processor to resident search jobs after
		// every dispatch. Without this, a closed-loop inference ping-pong
		// keeps the dispatcher and its clients in the scheduler's handoff
		// fast path and training starves outright. The yield donates one
		// scheduling quantum per *batch*. With no timer, light load runs
		// small batches and yields more often; under load the queue fills
		// batches to MaxBatch, which amortizes the yield across them.
		runtime.Gosched()
	}
}

// runBatch forwards exactly the requests of one dispatch and demultiplexes
// the logits into request-owned slices. Requests whose examples differ in
// shape cannot share a forward, so each distinct shape runs as its own
// ForwardBatch, in order of first admission; an error then fails only the
// requests of that shape. ForwardBatch's outputs are model scratch,
// overwritten by the next call, so each group's logits are copied out
// before the next group runs — the copy is also what hands each caller a
// stable result.
func (inf *Inference) runBatch(batch []*inferReq) {
	start := time.Now()
	pending := append(inf.pending[:0], batch...)
	for len(pending) > 0 {
		// Split pending stably into the group shaped like its first request
		// and the rest, compacted in place: the write index never passes
		// the read index. Malformed examples share the zero shape, and
		// their group's ForwardBatch reports the error.
		shape, _ := nas.ExampleShape(pending[0].x)
		group, xs, rest := inf.group[:0], inf.xs[:0], pending[:0]
		for _, r := range pending {
			if s, _ := nas.ExampleShape(r.x); s == shape {
				group, xs = append(group, r), append(xs, r.x)
			} else {
				rest = append(rest, r)
			}
		}
		inf.group, inf.xs = group, xs
		outs, err := inf.model.ForwardBatch(xs, 0)
		for i, r := range group {
			if err != nil {
				r.err = err
			} else {
				r.logits = append([]float64(nil), outs[i].Data()...)
			}
		}
		pending = rest
	}
	inf.pending = pending
	inf.met.Batches.Inc()
	inf.met.BatchSize.Observe(float64(len(batch)))
	inf.met.BatchSeconds.Observe(time.Since(start).Seconds())
	for _, r := range batch {
		close(r.done)
	}
}
