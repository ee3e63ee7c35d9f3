package etap

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	obstrace "etap/internal/obs/trace"
)

// TestSweepJobSetupSpans: a sweep job's trace accounts for its setup
// work. The Lab lookup (lab.build) and the campaign setup with its
// golden pass (campaign.new) appear as children of job.run in
// GET /traces/{id}.
func TestSweepJobSetupSpans(t *testing.T) {
	srv, err := NewServer(WithServeWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	resp, err := http.Post(hs.URL+"/api/v1/jobs", "application/json",
		strings.NewReader(`{"benchmark":"adpcm","errors":[1],"trials":4,"seed":3}`))
	if err != nil {
		t.Fatal(err)
	}
	var ack struct{ ID string }
	err = json.NewDecoder(resp.Body).Decode(&ack)
	resp.Body.Close()
	if err != nil || ack.ID == "" {
		t.Fatalf("submit: %d, %v", resp.StatusCode, err)
	}
	// The event stream ends after the job's terminal event.
	resp, err = http.Get(hs.URL + "/api/v1/jobs/" + ack.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining only
	resp.Body.Close()

	var snap struct {
		State   string
		TraceID string `json:"trace_id"`
	}
	getJSON(t, hs.URL+"/api/v1/jobs/"+ack.ID, &snap)
	if snap.State != "done" || snap.TraceID == "" {
		t.Fatalf("job snapshot %+v, want a done job with a trace", snap)
	}

	// The trace completes when its last span ends, just after the job.
	var td obstrace.TraceData
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if getJSON(t, hs.URL+"/traces/"+snap.TraceID, &td) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s never completed", snap.TraceID)
		}
	}
	run := ""
	for _, sp := range td.Spans {
		if sp.Name == "job.run" {
			run = sp.SpanID
		}
	}
	if run == "" {
		t.Fatalf("trace has no job.run span: %+v", td.Spans)
	}
	for _, name := range []string{"lab.build", "campaign.new"} {
		found := false
		for _, sp := range td.Spans {
			found = found || (sp.Name == name && sp.ParentID == run)
		}
		if !found {
			t.Errorf("no %s span under job.run", name)
		}
	}
}

// getJSON decodes a 200 response from url into v and reports whether
// the status was 200.
func getJSON(t *testing.T, url string, v any) bool {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("%s: %v", url, err)
	}
	return true
}
