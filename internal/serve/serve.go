package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"fedrlnas/internal/nas"
	"fedrlnas/internal/search"
	"fedrlnas/internal/telemetry"
)

// ErrDraining is returned for admission attempts (new jobs, new models, new
// inference requests) once Drain has begun.
var ErrDraining = errors.New("serve: server draining")

// Options configures a Server.
type Options struct {
	// CheckpointDir receives job checkpoints (job-<id>.ckpt). Empty
	// disables job checkpointing — pause/drain then skip the write.
	CheckpointDir string
	// CheckpointEvery streams a checkpoint every N completed rounds while
	// a job runs (0 = only at lifecycle events).
	CheckpointEvery int
	// DefaultBatch is the micro-batching policy applied when a serve
	// request leaves fields unset.
	DefaultBatch BatchConfig
	// Registry receives the serving metrics; nil creates a private one.
	Registry *telemetry.Registry
}

// Server hosts concurrent search jobs and served models. It is the
// process-resident core of cmd/fedserve, but embeds cleanly in tests and
// the repo benchmark's serve workload without any networking.
type Server struct {
	opts Options
	reg  *telemetry.Registry
	met  *Metrics

	mu     sync.Mutex
	jobs   map[string]*Job
	models map[string]*Inference
	nextID int

	draining atomic.Bool
}

// NewServer constructs an idle server.
func NewServer(opts Options) *Server {
	if opts.DefaultBatch.MaxBatch < 1 {
		opts.DefaultBatch.MaxBatch = 8
	}
	reg := opts.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	return &Server{
		opts:   opts,
		reg:    reg,
		met:    NewMetrics(reg),
		jobs:   make(map[string]*Job),
		models: make(map[string]*Inference),
	}
}

// Registry exposes the server's metric registry (the debug mux exports it).
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// Metrics exposes the serving instruments.
func (s *Server) Metrics() *Metrics { return s.met }

// CreateJob starts a search job; resume, when non-empty, loads that
// checkpoint before stepping. Construction happens on the job's goroutine,
// so this returns immediately with the job in Pending state.
func (s *Server) CreateJob(cfg search.Config, resume string) (*Job, error) {
	if s.draining.Load() {
		return nil, ErrDraining
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	id := fmt.Sprintf("j%d", s.nextID)
	path := ""
	if s.opts.CheckpointDir != "" {
		path = filepath.Join(s.opts.CheckpointDir, "job-"+id+".ckpt")
	}
	j := newJob(id, cfg, path, s.opts.CheckpointEvery, resume, s.met)
	s.jobs[id] = j
	return j, nil
}

// Job looks up a job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs snapshots every job's status, ordered by ID for stable output.
func (s *Server) Jobs() []JobStatus {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].ID < jobs[b].ID })
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	return out
}

// ServeModel materializes genotype g under netCfg with weights seeded by
// seed and starts serving it with the given policy (zero-valued fields fall
// back to the server default). The explicit seed makes served logits a pure
// function of (netCfg, g, seed) — benchmark configs compare checksums on
// exactly that property. It returns the model ID used by Infer.
func (s *Server) ServeModel(netCfg nas.Config, g nas.Genotype, seed int64, bc BatchConfig) (string, *Inference, error) {
	if s.draining.Load() {
		return "", nil, ErrDraining
	}
	if bc.MaxBatch < 1 {
		bc.MaxBatch = s.opts.DefaultBatch.MaxBatch
	}
	if bc.MaxWait == 0 {
		bc.MaxWait = s.opts.DefaultBatch.MaxWait
	}
	if bc.QueueCap <= 0 {
		bc.QueueCap = s.opts.DefaultBatch.QueueCap
	}
	model, err := nas.NewFixedModel(rand.New(rand.NewSource(seed)), netCfg, g)
	if err != nil {
		return "", nil, fmt.Errorf("serve: %w", err)
	}
	inf, err := NewInference(model, bc, s.met)
	if err != nil {
		return "", nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	id := fmt.Sprintf("m%d", s.nextID)
	s.models[id] = inf
	return id, inf, nil
}

// ServeDerived derives job jobID's current genotype and serves it (the
// "what has the search found so far" endpoint).
func (s *Server) ServeDerived(jobID string, seed int64, bc BatchConfig) (string, *Inference, error) {
	j, ok := s.Job(jobID)
	if !ok {
		return "", nil, fmt.Errorf("serve: no job %s", jobID)
	}
	g, err := j.Derive()
	if err != nil {
		return "", nil, err
	}
	return s.ServeModel(j.Config().Net, g, seed, bc)
}

// Model looks up a served model by ID.
func (s *Server) Model(id string) (*Inference, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	inf, ok := s.models[id]
	return inf, ok
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain is the graceful-shutdown path (SIGINT/SIGTERM in cmd/fedserve):
// stop admitting work, flush every served model's in-flight and queued
// requests, then suspend every live job — each writes a final checkpoint —
// and wait for their loops to exit. After Drain the process can exit and a
// successor can resume every job from its checkpoint. The first error is
// reported but the drain always runs to completion.
func (s *Server) Drain() error {
	s.draining.Store(true)
	s.mu.Lock()
	models := make([]*Inference, 0, len(s.models))
	for _, inf := range s.models {
		models = append(models, inf)
	}
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, inf := range models {
		inf.Close()
	}
	var firstErr error
	for _, j := range jobs {
		if j.State().Terminal() {
			continue
		}
		if err := j.Suspend(); err != nil && firstErr == nil {
			firstErr = err
		}
		<-j.Done()
	}
	return firstErr
}
