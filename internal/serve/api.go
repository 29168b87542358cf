package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"fedrlnas/internal/nas"
	"fedrlnas/internal/scenario"
	"fedrlnas/internal/search"
	"fedrlnas/internal/telemetry"
	"fedrlnas/internal/tensor"
)

// JobSpec is the POST /v1/jobs request body. Config fields overlay
// search.DefaultConfig, so a spec only states what differs from the paper
// defaults; Resume points at a checkpoint to continue from; Scenario runs
// the job under a full device-population scenario (profile mix, skew,
// personalization) and takes precedence over a Scenario inside Config.
type JobSpec struct {
	Config   json.RawMessage `json:"config,omitempty"`
	Resume   string          `json:"resume,omitempty"`
	Scenario *scenario.Spec  `json:"scenario,omitempty"`
}

// ModelSpec is the POST /v1/jobs/{id}/serve and POST /v1/models request body.
// The jobs variant derives the genotype from the live job and takes Net
// from the job config; the models variant states both explicitly.
type ModelSpec struct {
	Net      *nas.Config   `json:"net,omitempty"`
	Genotype *nas.Genotype `json:"genotype,omitempty"`
	// Seed fixes the served model's weight initialization, making logits a
	// pure function of (net, genotype, seed) — checksum-comparable across
	// servers and batch policies.
	Seed      int64 `json:"seed"`
	MaxBatch  int   `json:"max_batch,omitempty"`
	MaxWaitMS int   `json:"max_wait_ms,omitempty"`
	QueueCap  int   `json:"queue_cap,omitempty"`
}

func (m *ModelSpec) batchConfig() BatchConfig {
	return BatchConfig{
		MaxBatch: m.MaxBatch,
		MaxWait:  time.Duration(m.MaxWaitMS) * time.Millisecond,
		QueueCap: m.QueueCap,
	}
}

// InferRequest is the POST /v1/models/{id}/infer request body: one example in
// row-major [C,H,W] order.
type InferRequest struct {
	Shape []int     `json:"shape"`
	Input []float64 `json:"input"`
}

// InferResponse carries the example's logits.
type InferResponse struct {
	Logits []float64 `json:"logits"`
}

// ModelInfo is the POST /v1/models response.
type ModelInfo struct {
	ID       string `json:"id"`
	Classes  int    `json:"classes"`
	MaxBatch int    `json:"max_batch"`
}

// APIHandler returns the job/model HTTP API, versioned under /v1 (an
// unversioned path is a 404):
//
//	GET  /v1/jobs                  all job statuses
//	POST /v1/jobs                  create a job (JobSpec, incl. scenario)
//	GET  /v1/jobs/{id}             one job's status
//	POST /v1/jobs/{id}/pause       checkpoint + halt stepping
//	POST /v1/jobs/{id}/resume      continue a paused job
//	POST /v1/jobs/{id}/cancel      checkpoint + terminate
//	POST /v1/jobs/{id}/checkpoint  checkpoint between rounds
//	GET  /v1/jobs/{id}/genotype    current argmax genotype
//	POST /v1/jobs/{id}/serve       derive + serve the job's genotype (ModelSpec)
//	POST /v1/models                serve an explicit genotype (ModelSpec)
//	POST /v1/models/{id}/infer     batched single-example inference
//
// Mounted on the telemetry debug mux via Endpoints, so one listener carries
// /metrics, pprof and the serving API.
func (s *Server) APIHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Jobs())
	})
	mux.HandleFunc("POST /v1/jobs", s.handleCreateJob)
	mux.HandleFunc("GET /v1/jobs/{id}", s.withJob(func(w http.ResponseWriter, r *http.Request, j *Job) {
		writeJSON(w, http.StatusOK, j.Status())
	}))
	mux.HandleFunc("POST /v1/jobs/{id}/pause", s.withJob(jobAction((*Job).Pause)))
	mux.HandleFunc("POST /v1/jobs/{id}/resume", s.withJob(jobAction((*Job).Resume)))
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.withJob(jobAction((*Job).Cancel)))
	mux.HandleFunc("POST /v1/jobs/{id}/checkpoint", s.withJob(jobAction((*Job).Checkpoint)))
	mux.HandleFunc("GET /v1/jobs/{id}/genotype", s.withJob(func(w http.ResponseWriter, r *http.Request, j *Job) {
		g, err := j.Derive()
		if err != nil {
			writeError(w, http.StatusConflict, err)
			return
		}
		writeJSON(w, http.StatusOK, g)
	}))
	mux.HandleFunc("POST /v1/jobs/{id}/serve", s.withJob(s.handleServeDerived))
	mux.HandleFunc("POST /v1/models", s.handleServeModel)
	mux.HandleFunc("POST /v1/models/{id}/infer", s.handleInfer)
	return mux
}

// Endpoints mounts the API's /v1/ surface on a telemetry debug mux.
func (s *Server) Endpoints() []telemetry.Endpoint {
	return []telemetry.Endpoint{{Path: "/v1/", Handler: s.APIHandler()}}
}

func (s *Server) handleCreateJob(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	cfg := search.DefaultConfig()
	if len(spec.Config) > 0 {
		if err := json.Unmarshal(spec.Config, &cfg); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	if spec.Scenario != nil {
		cfg.Scenario = spec.Scenario
	}
	if err := cfg.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	j, err := s.CreateJob(cfg, spec.Resume)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	writeJSON(w, http.StatusCreated, j.Status())
}

func (s *Server) withJob(fn func(http.ResponseWriter, *http.Request, *Job)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j, ok := s.Job(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
			return
		}
		fn(w, r, j)
	}
}

func jobAction(act func(*Job) error) func(http.ResponseWriter, *http.Request, *Job) {
	return func(w http.ResponseWriter, r *http.Request, j *Job) {
		if err := act(j); err != nil {
			writeError(w, http.StatusConflict, err)
			return
		}
		writeJSON(w, http.StatusOK, j.Status())
	}
}

func (s *Server) handleServeDerived(w http.ResponseWriter, r *http.Request, j *Job) {
	var spec ModelSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	id, inf, err := s.ServeDerived(j.ID, spec.Seed, spec.batchConfig())
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusCreated, ModelInfo{ID: id, Classes: inf.NumClasses(), MaxBatch: inf.Config().MaxBatch})
}

func (s *Server) handleServeModel(w http.ResponseWriter, r *http.Request) {
	var spec ModelSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if spec.Net == nil || spec.Genotype == nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("net and genotype are required"))
		return
	}
	id, inf, err := s.ServeModel(*spec.Net, *spec.Genotype, spec.Seed, spec.batchConfig())
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusCreated, ModelInfo{ID: id, Classes: inf.NumClasses(), MaxBatch: inf.Config().MaxBatch})
}

func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	inf, ok := s.Model(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no model %q", r.PathValue("id")))
		return
	}
	if s.Draining() {
		writeError(w, http.StatusServiceUnavailable, ErrDraining)
		return
	}
	var req InferRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Shape) != 3 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("shape %v, want [C,H,W]", req.Shape))
		return
	}
	n := 1
	for _, d := range req.Shape {
		if d < 1 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("shape %v has a non-positive dim", req.Shape))
			return
		}
		n *= d
	}
	if n != len(req.Input) {
		writeError(w, http.StatusBadRequest, fmt.Errorf("shape %v needs %d values, got %d", req.Shape, n, len(req.Input)))
		return
	}
	if req.Shape[0] != inf.InChannels() {
		writeError(w, http.StatusBadRequest, fmt.Errorf("%d channels, model expects %d", req.Shape[0], inf.InChannels()))
		return
	}
	x := tensor.New(req.Shape[0], req.Shape[1], req.Shape[2])
	copy(x.Data(), req.Input)
	logits, err := inf.Infer(x)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	writeJSON(w, http.StatusOK, InferResponse{Logits: logits})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
