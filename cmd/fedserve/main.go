// Command fedserve is the resident federated-search service: it hosts
// concurrent search jobs (created, paused, resumed, cancelled and
// checkpointed over an HTTP JSON API) next to batched inference on derived
// genotypes, all on one listener that also exposes /metrics, /healthz and
// pprof. SIGINT/SIGTERM triggers a graceful drain: inference admission
// stops, in-flight batches flush, and every running job writes a final
// checkpoint before the process exits — a successor resumes each job by
// POSTing its checkpoint path as "resume".
//
// Example:
//
//	fedserve -addr 127.0.0.1:7070 -checkpoint-dir ./ckpt -max-batch 32
//	curl -X POST localhost:7070/v1/jobs -d '{"config":{"K":8,"SearchSteps":200}}'
//	curl localhost:7070/v1/jobs/j1
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fedrlnas/internal/serve"
	"fedrlnas/internal/telemetry"
)

func main() {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	stop := make(chan struct{})
	go func() {
		<-sigs
		close(stop)
	}()
	if err := run(os.Args[1:], stop, nil); err != nil {
		fmt.Fprintln(os.Stderr, "fedserve:", err)
		os.Exit(1)
	}
}

// run starts the service and blocks until stop closes, then drains. ready,
// when non-nil, receives the bound address once the listener is up (tests
// use it with port 0).
func run(args []string, stop <-chan struct{}, ready func(addr string)) error {
	fs := flag.NewFlagSet("fedserve", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:7070", "HTTP address for the job API, /metrics, /healthz and pprof (port 0 picks a free port)")
		ckptDir   = fs.String("checkpoint-dir", "checkpoints", "directory for job checkpoints (job-<id>.ckpt); empty disables checkpointing")
		ckptEvery = fs.Int("checkpoint-every", 25, "stream a checkpoint every N rounds while a job runs (0 = lifecycle events only)")
		maxBatch  = fs.Int("max-batch", 8, "default inference dispatch size: a batch launches when full")
		maxWait   = fs.Duration("max-wait", 2*time.Millisecond, "default time the first queued request waits for the batch to fill before dispatching part-full")
		queueCap  = fs.Int("queue-cap", 0, "default admission queue capacity (0 = 4x max-batch); full queues apply backpressure")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *maxBatch < 1 {
		return fmt.Errorf("-max-batch %d, want >= 1", *maxBatch)
	}
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			return err
		}
	}

	srv := serve.NewServer(serve.Options{
		CheckpointDir:   *ckptDir,
		CheckpointEvery: *ckptEvery,
		DefaultBatch: serve.BatchConfig{
			MaxBatch: *maxBatch,
			MaxWait:  *maxWait,
			QueueCap: *queueCap,
		},
	})
	dbg, err := telemetry.StartDebugServer(*addr, srv.Registry(), srv.Endpoints()...)
	if err != nil {
		return err
	}
	defer dbg.Close()
	fmt.Printf("fedserve on http://%s (/v1/jobs, /v1/models, /metrics, /healthz, /debug/pprof/)\n", dbg.Addr())
	if ready != nil {
		ready(dbg.Addr())
	}

	<-stop
	fmt.Println("fedserve: draining (flushing inference, checkpointing jobs)…")
	if err := srv.Drain(); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Println("fedserve: drained")
	return nil
}
