package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestRunRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{"-nope"},
		{"-max-batch", "0"},
		{"-max-wait", "1ms"}, // deleted: a batch never waits for company
		{"-addr", "999.999.999.999:0"},
	}
	for _, args := range cases {
		stop := make(chan struct{})
		close(stop)
		if err := run(args, stop, nil); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestServeJobAndDrain boots the full service on a free port, creates a
// search job over HTTP, serves a model and infers against it, then stops
// the service and verifies the drain checkpointed the still-running job.
func TestServeJobAndDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	stop := make(chan struct{})
	addrCh := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-checkpoint-dir", filepath.Join(dir, "ckpt"),
			"-max-batch", "4",
		}, stop, func(addr string) { addrCh <- addr })
	}()
	var base string
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case err := <-done:
		t.Fatalf("run exited early: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("server never became ready")
	}

	// A long job on a tiny config: still running when the drain hits.
	cfgJSON := `{"config":{"Dataset":{"Name":"tiny","NumClasses":5,"Channels":2,"Height":6,"Width":6,` +
		`"TrainPerClass":40,"TestPerClass":10,"Noise":1.0,"Confusion":0.3,"Seed":91},` +
		`"Net":{"InChannels":2,"NumClasses":5,"C":4,"Layers":2,"Nodes":1,"Candidates":[5,2,3,4]},` +
		`"K":4,"BatchSize":8,"WarmupSteps":1,"SearchSteps":100000}}`
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader([]byte(cfgJSON)))
	if err != nil {
		t.Fatal(err)
	}
	var job struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || job.ID == "" {
		t.Fatalf("create job: %d %+v", resp.StatusCode, job)
	}
	// Only the /v1 surface is mounted on the debug listener.
	resp, err = http.Get(base + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /jobs -> %d, want 404", resp.StatusCode)
	}

	// Wait for the job to step at least one round.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + job.ID)
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			Round int    `json:"round"`
			State string `json:"state"`
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st.Round >= 1 {
			break
		}
		if st.State == "failed" || time.Now().After(deadline) {
			t.Fatalf("job stuck: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}

	// Serve the job's current genotype and infer against it.
	resp, err = http.Post(base+"/v1/jobs/"+job.ID+"/serve", "application/json",
		bytes.NewReader([]byte(`{"seed":7,"max_batch":4}`)))
	if err != nil {
		t.Fatal(err)
	}
	var model struct {
		ID      string `json:"id"`
		Classes int    `json:"classes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&model); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || model.Classes != 5 {
		t.Fatalf("serve model: %d %+v", resp.StatusCode, model)
	}
	in := make([]float64, 2*8*8)
	for i := range in {
		in[i] = float64(i%7) * 0.1
	}
	inferBody, _ := json.Marshal(map[string]any{"shape": []int{2, 8, 8}, "input": in})
	resp, err = http.Post(base+"/v1/models/"+model.ID+"/infer", "application/json", bytes.NewReader(inferBody))
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Logits []float64 `json:"logits"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(out.Logits) != 5 {
		t.Fatalf("infer: %d logits, want 5", len(out.Logits))
	}

	// Stop → drain: run returns cleanly and the job's checkpoint exists.
	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("drain never completed")
	}
	ckpt := filepath.Join(dir, "ckpt", fmt.Sprintf("job-%s.ckpt", job.ID))
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("drain left no checkpoint: %v", err)
	}
}
