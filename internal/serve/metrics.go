// Package serve is the resident model-search service: a Server hosts
// concurrent search jobs (create / pause / resume / cancel / checkpoint
// over an HTTP JSON API layered on the telemetry debug mux) alongside
// batched inference on derived genotypes. The serving path's perf headline
// is the admission queue in batch.go: concurrent single-example requests
// coalesce into one batch that runs a single ForwardBatch per example shape
// through the GEMM kernels, at the batch's own fill, then demultiplexes —
// the batched rows are bit-identical to per-request forwards (see
// nas.ForwardBatch), so batching changes throughput, never answers.
package serve

import "fedrlnas/internal/telemetry"

// Metrics is the serving-plane instrument set, registered on the same
// Registry the debug mux exports at /metrics.
type Metrics struct {
	// Requests counts admitted inference requests; Rejected counts
	// requests refused because the server was draining or the model was
	// closed.
	Requests *telemetry.Counter
	Rejected *telemetry.Counter
	// Batches counts dispatched batches; BatchSize observes how full each
	// was (the micro-batching policy's effectiveness at a glance).
	Batches   *telemetry.Counter
	BatchSize *telemetry.Histogram
	// InferSeconds observes end-to-end request latency (queueing + batch
	// wait + forward); BatchSeconds observes the forward alone.
	InferSeconds *telemetry.Histogram
	BatchSeconds *telemetry.Histogram
	// QueueDepth gauges the admission queue backlog at dispatch time.
	QueueDepth *telemetry.Gauge
	// JobsRunning gauges live (non-terminal) jobs; JobsTotal counts every
	// job ever created; JobRounds counts search rounds stepped across all
	// jobs.
	JobsRunning *telemetry.Gauge
	JobsTotal   *telemetry.Counter
	JobRounds   *telemetry.Counter
}

// NewMetrics registers the serving metrics on reg.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	return &Metrics{
		Requests:     reg.Counter("serve_requests_total", "Admitted inference requests."),
		Rejected:     reg.Counter("serve_rejected_total", "Inference requests refused (draining or model closed)."),
		Batches:      reg.Counter("serve_batches_total", "Dispatched inference batches."),
		BatchSize:    reg.Histogram("serve_batch_size", "Requests coalesced per dispatched batch."),
		InferSeconds: reg.Histogram("serve_infer_seconds", "End-to-end inference request latency in seconds."),
		BatchSeconds: reg.Histogram("serve_batch_seconds", "Batched forward duration in seconds."),
		QueueDepth:   reg.Gauge("serve_queue_depth", "Admission queue backlog observed at dispatch."),
		JobsRunning:  reg.Gauge("serve_jobs_running", "Search jobs in a non-terminal state."),
		JobsTotal:    reg.Counter("serve_jobs_total", "Search jobs ever created."),
		JobRounds:    reg.Counter("serve_job_rounds_total", "Search rounds stepped across all jobs."),
	}
}
