package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"fedrlnas/internal/data"
	"fedrlnas/internal/search"
	"fedrlnas/internal/tensor"
)

func tinySearchConfig(warmup, steps int) search.Config {
	cfg := search.DefaultConfig()
	cfg.Dataset = data.Spec{
		Name: "tiny", NumClasses: 5, Channels: 2, Height: 6, Width: 6,
		TrainPerClass: 40, TestPerClass: 10, Noise: 1.0, Confusion: 0.3, Seed: 91,
	}
	cfg.Net = testNetConfig()
	cfg.K = 4
	cfg.BatchSize = 8
	cfg.WarmupSteps = warmup
	cfg.SearchSteps = steps
	return cfg
}

func waitState(t *testing.T, j *Job, want JobState) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for j.State() != want {
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", j.ID, j.State(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func waitRound(t *testing.T, j *Job, round int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for int(j.round.Load()) < round {
		if st := j.State(); st.Terminal() {
			t.Fatalf("job %s reached terminal %s at round %d before round %d (%s)",
				j.ID, st, j.round.Load(), round, j.Status().Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck at round %d, want %d", j.ID, j.round.Load(), round)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestJobLifecycle walks the state machine: run → pause (checkpointed) →
// resume → completed, with Derive available throughout.
func TestJobLifecycle(t *testing.T) {
	dir := t.TempDir()
	s := NewServer(Options{CheckpointDir: dir})
	j, err := s.CreateJob(tinySearchConfig(2, 30), "")
	if err != nil {
		t.Fatal(err)
	}
	waitRound(t, j, 2)
	if err := j.Pause(); err != nil {
		t.Fatal(err)
	}
	waitState(t, j, JobPaused)
	// Pausing must have checkpointed.
	if _, err := os.Stat(j.Status().Checkpoint); err != nil {
		t.Fatalf("pause did not checkpoint: %v", err)
	}
	pausedRound := j.Status().Round
	time.Sleep(10 * time.Millisecond)
	if got := j.Status().Round; got != pausedRound {
		t.Fatalf("paused job advanced from round %d to %d", pausedRound, got)
	}
	if _, err := j.Derive(); err != nil {
		t.Fatalf("derive while paused: %v", err)
	}
	if err := j.Resume(); err != nil {
		t.Fatal(err)
	}
	waitState(t, j, JobCompleted)
	st := j.Status()
	if st.Round != st.Total {
		t.Fatalf("completed at round %d of %d", st.Round, st.Total)
	}
	if _, err := j.Derive(); err != nil {
		t.Fatalf("derive after completion: %v", err)
	}
	// Illegal transitions are rejected, not ignored.
	if err := j.Pause(); err == nil {
		t.Error("pausing a completed job should fail")
	}
	if err := j.Resume(); err == nil {
		t.Error("resuming a completed job should fail")
	}
}

// TestJobFailureSurfacesError: a config that builds but cannot run must land
// in Failed with the error in the status.
func TestJobFailureSurfacesError(t *testing.T) {
	cfg := tinySearchConfig(1, 1)
	cfg.K = 0 // invalid: search.New rejects it
	s := NewServer(Options{})
	j, err := s.CreateJob(cfg, "")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, JobFailed)
	if j.Status().Error == "" {
		t.Fatal("failed job has no error in status")
	}
}

// A job whose θ step diverges ends Failed with round.ErrDiverged in its
// status, instead of training on NaN.
func TestDivergedJobFails(t *testing.T) {
	cfg := tinySearchConfig(1, 50)
	cfg.ThetaLR = 1e308
	s := NewServer(Options{})
	j, err := s.CreateJob(cfg, "")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, JobFailed)
	if msg := j.Status().Error; !strings.Contains(msg, "θ diverged") {
		t.Fatalf("failed job's error %q does not report the divergence", msg)
	}
}

// TestDrainSuspendsAndCheckpoints is the graceful-shutdown satellite: after
// Drain, every live job is suspended with a checkpoint on disk, inference
// is refused, and a new server can resume the job from the checkpoint and
// finish the schedule.
func TestDrainSuspendsAndCheckpoints(t *testing.T) {
	dir := t.TempDir()
	s := NewServer(Options{CheckpointDir: dir})
	j, err := s.CreateJob(tinySearchConfig(1, 1000), "")
	if err != nil {
		t.Fatal(err)
	}
	_, inf, err := s.ServeModel(testNetConfig(), testGenotype(), 5, BatchConfig{MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	waitRound(t, j, 3)
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if j.State() != JobSuspended {
		t.Fatalf("after drain job is %s, want suspended", j.State())
	}
	ckpt := j.Status().Checkpoint
	ckptRound := j.Status().Round
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("drain did not checkpoint: %v", err)
	}
	rng := rand.New(rand.NewSource(1))
	if _, err := inf.Infer(tensor.Randn(rng, 1, 1, 2, 8, 8)); err != ErrClosed {
		t.Fatalf("post-drain Infer = %v, want ErrClosed", err)
	}
	if _, err := s.CreateJob(tinySearchConfig(1, 1), ""); err != ErrDraining {
		t.Fatalf("post-drain CreateJob = %v, want ErrDraining", err)
	}

	// A successor process resumes the suspended job from its checkpoint.
	cfg := tinySearchConfig(1, 1000)
	cfg.SearchSteps = 9 // shorten the schedule so the revived job completes
	s2 := NewServer(Options{CheckpointDir: t.TempDir()})
	j2, err := s2.CreateJob(cfg, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j2, JobCompleted)
	// The job keeps stepping between waitRound and Drain, so on a loaded
	// machine the checkpoint may already be past the shortened schedule;
	// the revived job then completes at the checkpoint round.
	want := 10
	if ckptRound > want {
		want = ckptRound
	}
	if got := j2.Status().Round; got != want {
		t.Fatalf("revived job completed at round %d, want %d", got, want)
	}
}

// TestConcurrentInferenceWhileJobSteps is the -race hammer: closed-loop
// inference clients pound a served model while a search job steps rounds on
// the same server, with lifecycle churn (pause/resume/derive) mixed in.
func TestConcurrentInferenceWhileJobSteps(t *testing.T) {
	dir := t.TempDir()
	s := NewServer(Options{CheckpointDir: dir})
	j, err := s.CreateJob(tinySearchConfig(1, 200), "")
	if err != nil {
		t.Fatal(err)
	}
	_, inf, err := s.ServeModel(testNetConfig(), testGenotype(), 5, BatchConfig{MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	waitRound(t, j, 1)
	// Serving must not starve training: every client keeps issuing
	// requests until the job has stepped at least two rounds past where it
	// stood when the client started, and fails if that takes too long.
	deadline := time.Now().Add(30 * time.Second)
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + c)))
			target := j.round.Load() + 2
			for i := 0; i < 25 || j.round.Load() < target; i++ {
				if time.Now().After(deadline) {
					t.Errorf("client %d: job stuck at round %d under inference load, want %d",
						c, j.round.Load(), target)
					return
				}
				if _, err := inf.Infer(tensor.Randn(rng, 1, 1, 2, 8, 8)); err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
			}
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if err := j.Pause(); err != nil {
				return // job may have completed
			}
			if _, err := j.Derive(); err != nil {
				t.Errorf("derive: %v", err)
			}
			if err := j.Resume(); err != nil {
				t.Errorf("resume: %v", err)
			}
		}
	}()
	wg.Wait()
	if err := j.Cancel(); err != nil && !j.State().Terminal() {
		t.Fatalf("cancel: %v (state %s)", err, j.State())
	}
	<-j.Done()
	inf.Close()
}

// TestHTTPAPI exercises the full JSON API over a real listener: create a
// job, watch it step, pause/resume, derive a genotype, serve a model from
// the job, and run batched inference against it.
func TestHTTPAPI(t *testing.T) {
	dir := t.TempDir()
	s := NewServer(Options{CheckpointDir: dir, DefaultBatch: BatchConfig{MaxBatch: 4}})
	ts := httptest.NewServer(s.APIHandler())
	defer ts.Close()

	cfgJSON, err := json.Marshal(tinySearchConfig(1, 100000))
	if err != nil {
		t.Fatal(err)
	}
	var created JobStatus
	postJSON(t, ts.URL+"/v1/jobs", JobSpec{Config: cfgJSON}, http.StatusCreated, &created)
	if created.ID == "" {
		t.Fatal("no job id")
	}
	jobURL := ts.URL + "/v1/jobs/" + created.ID

	// Wait for rounds via the status endpoint.
	deadline := time.Now().Add(30 * time.Second)
	var st JobStatus
	for {
		getJSON(t, jobURL, &st)
		if st.Round >= 2 {
			break
		}
		if st.State == "failed" || time.Now().After(deadline) {
			t.Fatalf("job stuck: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}

	postJSON(t, jobURL+"/pause", struct{}{}, http.StatusOK, &st)
	if st.State != "paused" {
		t.Fatalf("state %s after pause", st.State)
	}
	var listed []JobStatus
	getJSON(t, ts.URL+"/v1/jobs", &listed)
	if len(listed) != 1 || listed[0].ID != created.ID {
		t.Fatalf("job list %+v", listed)
	}
	var geno json.RawMessage
	getJSON(t, jobURL+"/genotype", &geno)
	if len(geno) == 0 {
		t.Fatal("empty genotype")
	}
	var model ModelInfo
	postJSON(t, jobURL+"/serve", ModelSpec{Seed: 7, MaxBatch: 4}, http.StatusCreated, &model)
	if model.Classes != 5 || model.MaxBatch != 4 {
		t.Fatalf("model info %+v", model)
	}

	rng := rand.New(rand.NewSource(31))
	in := make([]float64, 2*8*8)
	for i := range in {
		in[i] = rng.NormFloat64()
	}
	var out InferResponse
	postJSON(t, ts.URL+"/v1/models/"+model.ID+"/infer",
		InferRequest{Shape: []int{2, 8, 8}, Input: in}, http.StatusOK, &out)
	if len(out.Logits) != 5 {
		t.Fatalf("%d logits, want 5", len(out.Logits))
	}

	// Bad requests are rejected with 4xx, not 500s or hangs.
	resp, err := http.Post(ts.URL+"/v1/models/"+model.ID+"/infer", "application/json",
		bytes.NewReader([]byte(`{"shape":[2,8,8],"input":[1,2,3]}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("short input -> %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job -> %d, want 404", resp.StatusCode)
	}

	postJSON(t, jobURL+"/resume", struct{}{}, http.StatusOK, &st)
	postJSON(t, jobURL+"/cancel", struct{}{}, http.StatusOK, &st)
	if st.State != "cancelled" {
		t.Fatalf("state %s after cancel", st.State)
	}
	if _, err := os.Stat(filepath.Join(dir, "job-"+created.ID+".ckpt")); err != nil {
		t.Fatalf("cancel left no checkpoint: %v", err)
	}
}

func postJSON(t *testing.T, url string, body any, wantCode int, out any) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		var msg bytes.Buffer
		_, _ = msg.ReadFrom(resp.Body)
		t.Fatalf("POST %s -> %d, want %d: %s", url, resp.StatusCode, wantCode, msg.String())
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decode: %v", url, err)
		}
	}
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var msg bytes.Buffer
		_, _ = msg.ReadFrom(resp.Body)
		t.Fatalf("GET %s -> %d: %s", url, resp.StatusCode, msg.String())
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}
