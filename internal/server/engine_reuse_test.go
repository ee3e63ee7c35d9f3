package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"testing"

	"etap"
	"etap/internal/server"
)

// trialPayloads streams a job's events to the end and returns its trial
// payloads with the per-job identifiers (request and trace IDs) removed.
func trialPayloads(t *testing.T, base, id string) []map[string]any {
	t.Helper()
	resp, err := http.Get(base + "/api/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out []map[string]any
	var bad error
	if err := parseSSE(resp.Body, func(ev sseEvent) bool {
		if ev.name != "trial" {
			return true
		}
		var m map[string]any
		if bad = json.Unmarshal([]byte(ev.data), &m); bad != nil {
			return false
		}
		delete(m, "request_id")
		delete(m, "trace_id")
		out = append(out, m)
		return true
	}); err != nil || bad != nil {
		t.Fatalf("events of %s: %v %v", id, err, bad)
	}
	return out
}

// TestEngineReuseRepeatJob: a second identical benchmark job takes the
// first job's campaign engine from the Lab instead of repeating the
// golden pass, and serves a byte-identical report and the same trial
// events, identifiers aside.
func TestEngineReuseRepeatJob(t *testing.T) {
	lab := etap.NewLab()
	_, hs := newTestServer(t, etap.WithServeLab(lab), etap.WithServeWorkers(1))
	body := `{"benchmark":"adpcm","errors":[1,4],"trials":8,"seed":3}`
	var reports [][]byte
	var trials [][]map[string]any
	for i := 0; i < 2; i++ {
		id := submitJob(t, hs.URL, body)
		trials = append(trials, trialPayloads(t, hs.URL, id))
		waitForState(t, hs.URL, id, server.StateDone)
		resp, data := doJSON(t, http.MethodGet, hs.URL+"/api/v1/jobs/"+id+"/report", "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("report %d: %d: %s", i, resp.StatusCode, data)
		}
		reports = append(reports, data)
		if got, want := lab.EngineBuilds(), int64(1); got != want {
			t.Fatalf("after job %d the Lab built %d engines, want %d", i, got, want)
		}
		if got, want := lab.EngineHits(), int64(i); got != want {
			t.Fatalf("after job %d the Lab counted %d engine hits, want %d", i, got, want)
		}
	}
	if !bytes.Equal(reports[0], reports[1]) {
		t.Fatalf("reused engine served a different report:\n%s\nvs\n%s", reports[0], reports[1])
	}
	if len(trials[0]) != 16 || !reflect.DeepEqual(trials[0], trials[1]) {
		t.Fatalf("reused engine streamed different trial events (%d and %d events)", len(trials[0]), len(trials[1]))
	}
}

// TestEngineReuseConcurrentJobs: eight concurrent jobs of one key share
// one engine build, and every report is the same.
func TestEngineReuseConcurrentJobs(t *testing.T) {
	lab := etap.NewLab()
	_, hs := newTestServer(t, etap.WithServeLab(lab), etap.WithServeWorkers(4), etap.WithServeQueueDepth(16))
	body := fmt.Sprintf(`{"source":%s,"input":%s,"errors":[1,2],"trials":8,"seed":5,"workers":2}`,
		jsonStr(fastSource), jsonStr(fastInput()))
	const n = 8
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, data := postJob(hs.URL, body)
			if resp != http.StatusAccepted {
				t.Errorf("submit %d: status %d: %s", i, resp, data)
				return
			}
			var ack struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(data, &ack); err != nil {
				t.Errorf("submit %d ack: %v", i, err)
			}
			ids[i] = ack.ID
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	var first []byte
	for i, id := range ids {
		waitForState(t, hs.URL, id, server.StateDone)
		_, data := doJSON(t, http.MethodGet, hs.URL+"/api/v1/jobs/"+id+"/report", "")
		if i == 0 {
			first = data
		} else if !bytes.Equal(data, first) {
			t.Fatalf("job %d report differs from job 0", i)
		}
	}
	if got := lab.EngineBuilds(); got != 1 {
		t.Fatalf("%d concurrent jobs of one key built %d engines, want 1", n, got)
	}
	if got := lab.EngineHits(); got != n-1 {
		t.Fatalf("%d concurrent jobs of one key counted %d engine hits, want %d", n, got, n-1)
	}
}

// postJob submits a job body from any goroutine, returning the status
// code and body.
func postJob(base, body string) (int, []byte) {
	resp, err := http.Post(base+"/api/v1/jobs", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		return 0, []byte(err.Error())
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body) //nolint:errcheck // a short body fails the ack decode
	return resp.StatusCode, buf.Bytes()
}
