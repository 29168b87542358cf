package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

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
	s := NewServer(Options{CheckpointDir: dir, DefaultBatch: BatchConfig{MaxBatch: 4, MaxWait: time.Millisecond}})
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
