package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// inferHandler serves the test model on a fresh server and returns the API
// handler and the model's infer route.
func inferHandler(tb testing.TB) (http.Handler, string) {
	tb.Helper()
	s := NewServer(Options{CheckpointDir: tb.TempDir()})
	id, _, err := s.ServeModel(testNetConfig(), testGenotype(), 5, BatchConfig{MaxBatch: 4})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = s.Drain() })
	return s.APIHandler(), "/v1/models/" + id + "/infer"
}

func postInfer(h http.Handler, route, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, strings.NewReader(body)))
	return rec
}

// validInferBody is one [2,8,8] example for the test model.
func validInferBody() string {
	in := make([]float64, 2*8*8)
	for i := range in {
		in[i] = float64(i%7) - 3
	}
	b, _ := json.Marshal(InferRequest{Shape: []int{2, 8, 8}, Input: in})
	return string(b)
}

// overflowInferBody's shape multiplies to 2⁶⁵, which a wrapping product
// reads as 0, the length of its empty input.
const overflowInferBody = `{"shape":[2,4294967296,4294967296],"input":[]}`

// A shape whose element count overflows an int is a 400, and the served
// model keeps answering: the request never reaches the dispatcher, where it
// would panic and take the process down.
func TestInferRejectsOverflowingShape(t *testing.T) {
	h, route := inferHandler(t)
	if rec := postInfer(h, route, overflowInferBody); rec.Code != http.StatusBadRequest {
		t.Fatalf("overflowing shape -> %d %s, want 400", rec.Code, rec.Body)
	}
	rec := postInfer(h, route, validInferBody())
	var out InferResponse
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &out) != nil || len(out.Logits) != 5 {
		t.Fatalf("valid request after the rejected one -> %d %s", rec.Code, rec.Body)
	}
}

// FuzzInferBody posts arbitrary bodies to a served model's infer route:
// every one is answered 200 or 400, and none panics the handler or the
// dispatcher. Its seed corpus runs with the tests; go test -fuzz explores
// from it.
func FuzzInferBody(f *testing.F) {
	valid := validInferBody()
	for _, seed := range []string{
		valid,
		overflowInferBody,
		`{"shape":[2,0,8],"input":[]}`,
		`{"shape":[2,-8,-8],"input":[1,2,3]}`,
		`{"shape":[2,8,8],"input":[1,2,3]}`,
		strings.Replace(valid, `[2,8,8]`, `[3,8,8]`, 1),
		strings.Replace(valid, `"shape"`, `"batch":4,"shape"`, 1),
		valid[:len(valid)/2],
		`{"shape":[2,1,1],"input":[0.5,-0.5]}`,
	} {
		f.Add([]byte(seed))
	}
	h, route := inferHandler(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, bytes.NewReader(body)))
		if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
			t.Fatalf("body %q -> %d %s, want 200 or 400", body, rec.Code, rec.Body)
		}
	})
}
