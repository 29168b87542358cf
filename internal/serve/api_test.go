package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"fedrlnas/internal/scenario"
)

func jsonBody(t *testing.T, v any) io.Reader {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(buf)
}

// TestV1APIAndScenarioJob pins the versioned surface: every route lives
// under /v1/, an unversioned path is a 404, and POST /v1/jobs accepts a
// full scenario.Spec.
func TestV1APIAndScenarioJob(t *testing.T) {
	dir := t.TempDir()
	s := NewServer(Options{CheckpointDir: dir, DefaultBatch: BatchConfig{MaxBatch: 4}})
	ts := httptest.NewServer(s.APIHandler())
	defer ts.Close()

	// A job created through /v1 with a personalized mixed-population
	// scenario.
	var created JobStatus
	postJSON(t, ts.URL+"/v1/jobs", JobSpec{
		Scenario: &scenario.Spec{
			Population: []scenario.Share{
				{Profile: "phone-urban", Fraction: 0.7},
				{Profile: "iot-rural", Fraction: 0.3},
			},
			Personalize: true,
		},
	}, http.StatusCreated, &created)
	if created.ID == "" {
		t.Fatal("no job id from /v1/jobs")
	}

	var listed []JobStatus
	getJSON(t, ts.URL+"/v1/jobs", &listed)
	if len(listed) != 1 || listed[0].ID != created.ID {
		t.Fatalf("/v1/jobs listed %+v", listed)
	}
	var status JobStatus
	getJSON(t, ts.URL+"/v1/jobs/"+created.ID, &status)
	if status.ID != created.ID {
		t.Fatalf("/v1 status %+v", status)
	}
	// The unversioned aliases are gone.
	for _, path := range []string{"/jobs", "/jobs/" + created.ID} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s -> %d, want 404", path, resp.StatusCode)
		}
	}

	// Actions work through /v1 too.
	var st JobStatus
	postJSON(t, ts.URL+"/v1/jobs/"+created.ID+"/pause", struct{}{}, http.StatusOK, &st)
	if st.State != "paused" {
		t.Fatalf("state %s after /v1 pause", st.State)
	}
	postJSON(t, ts.URL+"/v1/jobs/"+created.ID+"/cancel", struct{}{}, http.StatusOK, &st)

	// An invalid scenario is rejected with 400, not accepted or 500.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		jsonBody(t, JobSpec{Scenario: &scenario.Spec{
			Population: []scenario.Share{{Profile: "no-such-profile"}},
		}}))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid scenario -> %d, want 400", resp.StatusCode)
	}
}

// TestCreateJobRejectsUnknownKeys: a misspelled knob, in the job spec or in
// its config overlay, is a 400 naming the key, not a job run on defaults.
func TestCreateJobRejectsUnknownKeys(t *testing.T) {
	s := NewServer(Options{CheckpointDir: t.TempDir()})
	ts := httptest.NewServer(s.APIHandler())
	defer ts.Close()
	for body, key := range map[string]string{
		`{"config":{"SearchStep":10}}`: "SearchStep",
		`{"confg":{"SearchSteps":10}}`: "confg",
		`{"config":{"Precision":1}}`:   "Precision",
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), key) {
			t.Errorf("POST %s -> %d %s, want 400 naming %q", body, resp.StatusCode, msg, key)
		}
	}
	if jobs := s.Jobs(); len(jobs) != 0 {
		t.Fatalf("rejected specs created %d jobs", len(jobs))
	}
}

// TestServeModelRejectsUnknownKeys: the two routes that start a served
// model refuse a misspelled or deleted batching knob (max_wait_ms), at the
// top level or inside net, with a 400 naming the key instead of serving on
// the default policy.
func TestServeModelRejectsUnknownKeys(t *testing.T) {
	s := NewServer(Options{CheckpointDir: t.TempDir()})
	ts := httptest.NewServer(s.APIHandler())
	defer ts.Close()
	j, err := s.CreateJob(tinySearchConfig(1, 1), "")
	if err != nil {
		t.Fatal(err)
	}
	defer waitState(t, j, JobCompleted)
	net, geno := testNetConfig(), testGenotype()
	valid, err := json.Marshal(ModelSpec{Net: &net, Genotype: &geno})
	if err != nil {
		t.Fatal(err)
	}
	withKey := func(kv string) string { return string(valid[:len(valid)-1]) + "," + kv + "}" }
	cases := []struct{ route, body, key string }{
		{"/v1/models", withKey(`"maxbatch":4`), "maxbatch"},
		{"/v1/models", withKey(`"max_wait_ms":1`), "max_wait_ms"},
		{"/v1/models", strings.Replace(string(valid), `"InChannels"`, `"Channels":2,"InChannels"`, 1), "Channels"},
		{"/v1/jobs/" + j.ID + "/serve", `{"seed":7,"maxbatch":4}`, "maxbatch"},
		{"/v1/jobs/" + j.ID + "/serve", `{"seed":7,"max_wait_ms":1}`, "max_wait_ms"},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+tc.route, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		msg, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), tc.key) {
			t.Errorf("POST %s %s -> %d %s, want 400 naming %q", tc.route, tc.body, resp.StatusCode, msg, tc.key)
		}
	}
	s.mu.Lock()
	served := len(s.models)
	s.mu.Unlock()
	if served != 0 {
		t.Fatalf("rejected specs served %d models", served)
	}
}
