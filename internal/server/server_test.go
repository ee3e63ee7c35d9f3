// Package server_test drives the HTTP characterization service
// end-to-end: the real etap.NewServer handler (compiles, campaigns,
// reports) behind httptest, exercised the way a remote client would —
// submit, poll, stream SSE, fetch reports, disconnect mid-stream.
package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"etap"
	"etap/internal/server"
)

// fastSource is a small tolerant program: cheap golden pass, cheap
// trials.
const fastSource = `
char data[64];

tolerant void scale(char *p, int n) {
    int i;
    for (i = 0; i < n; i = i + 1) {
        p[i] = p[i] * 2;
    }
}

int main() {
    int i;
    for (i = 0; i < 64; i = i + 1) { data[i] = inb(); }
    scale(data, 64);
    for (i = 0; i < 64; i = i + 1) { outb(data[i]); }
    return 0;
}
`

// slowSource retires enough instructions per trial that a campaign with
// a large trial budget outlives the test's cancellation window.
const slowSource = `
char buf[128];

tolerant void churn(char *p, int n, int rounds) {
    int r;
    int i;
    for (r = 0; r < rounds; r = r + 1) {
        for (i = 0; i < n; i = i + 1) {
            p[i] = p[i] + r;
        }
    }
}

int main() {
    int i;
    for (i = 0; i < 128; i = i + 1) { buf[i] = inb(); }
    churn(buf, 128, 64);
    for (i = 0; i < 128; i = i + 1) { outb(buf[i]); }
    return 0;
}
`

func fastInput() string { return strings.Repeat("abcdefgh", 8) }
func slowInput() string { return strings.Repeat("abcdefgh", 16) }
func jsonStr(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// newTestServer starts the real service over httptest and tears it down
// with the test.
func newTestServer(t *testing.T, opts ...etap.ServeOption) (*etap.Server, *httptest.Server) {
	t.Helper()
	s, err := etap.NewServer(opts...)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, hs
}

func doJSON(t *testing.T, method, url, body string) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// submitJob posts a job body and returns its id.
func submitJob(t *testing.T, base, body string) string {
	t.Helper()
	resp, data := doJSON(t, http.MethodPost, base+"/api/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, data)
	}
	var ack struct {
		ID    string            `json:"id"`
		State server.State      `json:"state"`
		Links map[string]string `json:"links"`
	}
	if err := json.Unmarshal(data, &ack); err != nil {
		t.Fatalf("submit ack does not parse: %v: %s", err, data)
	}
	if ack.ID == "" || ack.State != server.StateQueued {
		t.Fatalf("submit ack: %s", data)
	}
	if ack.Links["report"] == "" || ack.Links["events"] == "" {
		t.Fatalf("submit ack lacks links: %s", data)
	}
	return ack.ID
}

// jobStatus fetches one job's status object.
func jobStatus(t *testing.T, base, id string) map[string]any {
	t.Helper()
	resp, data := doJSON(t, http.MethodGet, base+"/api/v1/jobs/"+id, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status: %d: %s", resp.StatusCode, data)
	}
	var out map[string]any
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("status does not parse: %v", err)
	}
	return out
}

// waitForState polls until the job reaches one of the wanted states,
// failing fast when it lands in an unexpected terminal state.
func waitForState(t *testing.T, base, id string, want ...server.State) map[string]any {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st := jobStatus(t, base, id)
		state := server.State(st["state"].(string))
		for _, w := range want {
			if state == w {
				return st
			}
		}
		if terminal(state) {
			t.Fatalf("job %s ended as %s (error: %v), wanted %v", id, state, st["error"], want)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %v", id, want)
	return nil
}

// terminal mirrors the manager's end-state test for polling loops.
func terminal(s server.State) bool {
	return s == server.StateDone || s == server.StateFailed || s == server.StateCancelled
}

// sseEvent is one parsed text/event-stream frame.
type sseEvent struct {
	id   int
	name string
	data string
}

// parseSSE reads frames from r, calling each per event; each returning
// false stops the read.
func parseSSE(r io.Reader, each func(sseEvent) bool) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var ev sseEvent
	has := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if has && !each(ev) {
				return nil
			}
			ev, has = sseEvent{}, false
		case strings.HasPrefix(line, ":"):
		case strings.HasPrefix(line, "id: "):
			ev.id, _ = strconv.Atoi(strings.TrimPrefix(line, "id: "))
			has = true
		case strings.HasPrefix(line, "event: "):
			ev.name = strings.TrimPrefix(line, "event: ")
			has = true
		case strings.HasPrefix(line, "data: "):
			ev.data = strings.TrimPrefix(line, "data: ")
			has = true
		}
	}
	return sc.Err()
}

// TestSubmitPollReportRoundTrip: an experiment job round-trips through
// submit → poll → report, and the served report JSON is byte-identical
// to WriteReportsJSON of a direct Experiment.Run with the same options.
func TestSubmitPollReportRoundTrip(t *testing.T) {
	_, hs := newTestServer(t)
	id := submitJob(t, hs.URL, `{"experiment":"table1"}`)
	st := waitForState(t, hs.URL, id, server.StateDone)
	if ready, _ := st["report_ready"].(bool); !ready {
		t.Fatalf("done job has no report: %v", st)
	}

	resp, got := doJSON(t, http.MethodGet, hs.URL+"/api/v1/jobs/"+id+"/report", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report: %d: %s", resp.StatusCode, got)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("report content type %q", ct)
	}
	if state := resp.Header.Get("X-Etap-Job-State"); state != "done" {
		t.Fatalf("report job state header %q", state)
	}

	e, ok := etap.ExperimentByID("table1")
	if !ok {
		t.Fatal("no table1 experiment")
	}
	direct, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := etap.WriteReportsJSON(&want, []*etap.Report{direct}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("served report differs from direct run:\nserved:\n%s\ndirect:\n%s", got, want.Bytes())
	}

	// The CSV and text renderings come from the same report.
	resp, csv := doJSON(t, http.MethodGet, hs.URL+"/api/v1/jobs/"+id+"/report?format=csv", "")
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(string(csv), "report,") {
		t.Fatalf("csv report: %d: %.80s", resp.StatusCode, csv)
	}
	resp, text := doJSON(t, http.MethodGet, hs.URL+"/api/v1/jobs/"+id+"/report?format=text", "")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(text), "applications and fidelity measures") {
		t.Fatalf("text report: %d: %.80s", resp.StatusCode, text)
	}
}

// TestSourceJobSweepReport: an ad-hoc source characterization runs the
// sweep and reports one row per error count with consistent tallies.
func TestSourceJobSweepReport(t *testing.T) {
	_, hs := newTestServer(t)
	id := submitJob(t, hs.URL, fmt.Sprintf(
		`{"source":%s,"input":%s,"errors":[1,3],"trials":24,"seed":7,"workers":2}`,
		jsonStr(fastSource), jsonStr(fastInput())))
	waitForState(t, hs.URL, id, server.StateDone)

	resp, data := doJSON(t, http.MethodGet, hs.URL+"/api/v1/jobs/"+id+"/report", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report: %d: %s", resp.StatusCode, data)
	}
	var reports []struct {
		ID      string `json:"id"`
		Policy  string `json:"policy"`
		Trials  int    `json:"trials"`
		Seed    int64  `json:"seed"`
		Columns []struct {
			Name string `json:"name"`
		} `json:"columns"`
		Rows [][]struct {
			Text string   `json:"text"`
			Num  *float64 `json:"num"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(data, &reports); err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	if len(reports) != 1 {
		t.Fatalf("got %d reports", len(reports))
	}
	r := reports[0]
	if r.ID != "characterize" || r.Policy != "control+addr" || r.Trials != 24 || r.Seed != 7 {
		t.Fatalf("report metadata: %+v", r)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(r.Rows))
	}
	for i, row := range r.Rows {
		if got := *row[0].Num; got != float64([]int{1, 3}[i]) {
			t.Fatalf("row %d errors = %v", i, got)
		}
		if got := *row[1].Num; got != 24 {
			t.Fatalf("row %d trials = %v, want 24", i, got)
		}
		// crashes+timeouts+detected+recovered+completed == trials
		sum := *row[2].Num + *row[3].Num + *row[4].Num + *row[5].Num + *row[6].Num
		if sum != 24 {
			t.Fatalf("row %d outcome tallies sum to %v", i, sum)
		}
		// tolerated+detected+untolerated == trials (availability partition)
		if part := *row[9].Num + *row[4].Num + *row[10].Num; part != 24 {
			t.Fatalf("row %d availability partition sums to %v", i, part)
		}
		if row[19].Text != "ok" {
			t.Fatalf("row %d status %q", i, row[19].Text)
		}
	}
}

// TestSSEMonotonicTrials: the event stream replays from the start and
// delivers strictly increasing sequence numbers, one trial event per
// executed trial, point by point in order with trials 0..n-1 within each
// point, ending with a terminal state event. The experiment job pins the
// service's point inference for registry runs: bits measures 16 points
// (2 apps x 2 protection modes x 4 lanes), and each point restarts its
// trial indices at 0.
func TestSSEMonotonicTrials(t *testing.T) {
	_, hs := newTestServer(t)
	bitsErrors := make([]int, 16)
	for i := range bitsErrors {
		bitsErrors[i] = -1
	}
	for _, tc := range []struct {
		name   string
		body   string
		trials int
		errors []int // per point, in order
	}{
		{"source", fmt.Sprintf(`{"source":%s,"input":%s,"errors":[1,2],"trials":48,"workers":2}`,
			jsonStr(fastSource), jsonStr(fastInput())), 48, []int{1, 2}},
		{"experiment", `{"experiment":"bits","trials":2}`, 2, bitsErrors},
	} {
		t.Run(tc.name, func(t *testing.T) {
			id := submitJob(t, hs.URL, tc.body)
			resp, err := http.Get(hs.URL + "/api/v1/jobs/" + id + "/events")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
				t.Fatalf("events content type %q", ct)
			}

			var events []sseEvent
			if err := parseSSE(resp.Body, func(ev sseEvent) bool {
				events = append(events, ev)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if len(events) == 0 {
				t.Fatal("no events")
			}

			lastSeq := -1
			trialCount := 0
			point, nextTrial := 0, 0
			for _, ev := range events {
				if ev.id <= lastSeq {
					t.Fatalf("seq went %d -> %d (not increasing)", lastSeq, ev.id)
				}
				lastSeq = ev.id
				switch ev.name {
				case "trial":
					var tr struct {
						Seq     int    `json:"seq"`
						Point   int    `json:"point"`
						Errors  int    `json:"errors"`
						Trial   int    `json:"trial"`
						Outcome string `json:"outcome"`
					}
					if err := json.Unmarshal([]byte(ev.data), &tr); err != nil {
						t.Fatalf("trial event does not parse: %v: %s", err, ev.data)
					}
					if tr.Seq != ev.id {
						t.Fatalf("payload seq %d != frame id %d", tr.Seq, ev.id)
					}
					if nextTrial == tc.trials {
						point, nextTrial = point+1, 0
					}
					if tr.Point != point || tr.Trial != nextTrial {
						t.Fatalf("event %d is point %d trial %d, want point %d trial %d",
							trialCount, tr.Point, tr.Trial, point, nextTrial)
					}
					if point >= len(tc.errors) || tr.Errors != tc.errors[point] {
						t.Fatalf("point %d reports errors %d, want %v", tr.Point, tr.Errors, tc.errors)
					}
					nextTrial++
					if tr.Outcome == "" {
						t.Fatalf("trial event without outcome: %s", ev.data)
					}
					trialCount++
				case "state":
				default:
					t.Fatalf("unknown event %q", ev.name)
				}
			}
			if want := tc.trials * len(tc.errors); trialCount != want {
				t.Fatalf("streamed %d trial events, want %d", trialCount, want)
			}
			last := events[len(events)-1]
			if last.name != "state" || !strings.Contains(last.data, `"done"`) {
				t.Fatalf("stream did not end with a done state event: %s %s", last.name, last.data)
			}
		})
	}
}

// TestClientDisconnectCancelsJob: killing a ?cancel=1 streaming client
// cancels the campaign between trials; the job lands in cancelled with
// its partial aggregates intact and servable.
func TestClientDisconnectCancelsJob(t *testing.T) {
	_, hs := newTestServer(t)
	id := submitJob(t, hs.URL, fmt.Sprintf(
		`{"source":%s,"input":%s,"errors":[1],"trials":100000,"workers":2}`,
		jsonStr(slowSource), jsonStr(slowInput())))

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		hs.URL+"/api/v1/jobs/"+id+"/events?cancel=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	trialsSeen := 0
	parseSSE(resp.Body, func(ev sseEvent) bool { //nolint:errcheck // ends by ctx cancel
		if ev.name == "trial" {
			trialsSeen++
		}
		return trialsSeen < 3
	})
	if trialsSeen < 3 {
		t.Fatalf("saw only %d trial events before disconnecting", trialsSeen)
	}
	// Kill the streaming client.
	cancel()
	resp.Body.Close()

	st := waitForState(t, hs.URL, id, server.StateCancelled)
	if done, _ := st["trials_done"].(float64); done <= 0 {
		t.Fatalf("cancelled job kept no partial aggregates: %v", st)
	}
	if msg, _ := st["error"].(string); !strings.Contains(msg, "partial aggregates") {
		t.Fatalf("cancelled job error: %v", st["error"])
	}

	resp2, data := doJSON(t, http.MethodGet, hs.URL+"/api/v1/jobs/"+id+"/report", "")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("partial report: %d: %s", resp2.StatusCode, data)
	}
	if state := resp2.Header.Get("X-Etap-Job-State"); state != "cancelled" {
		t.Fatalf("partial report state header %q", state)
	}
	if !strings.Contains(string(data), "cancelled (partial)") {
		t.Fatalf("partial report rows not flagged cancelled:\n%s", data)
	}
}

// TestConcurrentJobsShareOneLab: 8 concurrent submissions of the same
// (source, policy) against one shared Lab pay exactly one compile
// (singleflight), and every job's report is byte-identical regardless of
// worker scheduling. This is the service-level race/load test — run it
// under -race.
func TestConcurrentJobsShareOneLab(t *testing.T) {
	lab := etap.NewLab()
	s, hs := newTestServer(t,
		etap.WithServeLab(lab),
		etap.WithServeWorkers(4),
		etap.WithServeQueueDepth(16))
	if s.Lab() != lab {
		t.Fatal("server did not adopt the shared lab")
	}

	const n = 8
	body := fmt.Sprintf(
		`{"source":%s,"input":%s,"errors":[1,2],"trials":16,"seed":9,"workers":2}`,
		jsonStr(fastSource), jsonStr(fastInput()))

	ids := make([]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(hs.URL+"/api/v1/jobs", "application/json", strings.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			data, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusAccepted {
				errs[i] = fmt.Errorf("submit %d: status %d: %s", i, resp.StatusCode, data)
				return
			}
			var ack struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(data, &ack); err != nil || ack.ID == "" {
				errs[i] = fmt.Errorf("submit %d ack: %v: %s", i, err, data)
				return
			}
			ids[i] = ack.ID
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	var first []byte
	for i, id := range ids {
		waitForState(t, hs.URL, id, server.StateDone)
		resp, data := doJSON(t, http.MethodGet, hs.URL+"/api/v1/jobs/"+id+"/report", "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("report %d: %d: %s", i, resp.StatusCode, data)
		}
		if i == 0 {
			first = data
			continue
		}
		if !bytes.Equal(data, first) {
			t.Fatalf("job %d report differs from job 0:\n%s\nvs\n%s", i, data, first)
		}
	}
	if got := lab.Builds(); got != 1 {
		t.Fatalf("%d concurrent identical submissions paid %d compiles, want exactly 1", n, got)
	}
}

// TestCancelEndpoint: DELETE cancels a running job.
func TestCancelEndpoint(t *testing.T) {
	_, hs := newTestServer(t)
	id := submitJob(t, hs.URL, fmt.Sprintf(
		`{"source":%s,"input":%s,"errors":[1],"trials":100000,"workers":2}`,
		jsonStr(slowSource), jsonStr(slowInput())))
	waitForState(t, hs.URL, id, server.StateRunning)
	resp, data := doJSON(t, http.MethodDelete, hs.URL+"/api/v1/jobs/"+id, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d: %s", resp.StatusCode, data)
	}
	waitForState(t, hs.URL, id, server.StateCancelled)
}

// TestRestartServesPersistedJobs: a server restarted on the same state
// file still lists finished jobs and serves their reports byte-for-byte.
func TestRestartServesPersistedJobs(t *testing.T) {
	state := filepath.Join(t.TempDir(), "jobs.json")
	s1, err := etap.NewServer(etap.WithServeStateFile(state))
	if err != nil {
		t.Fatal(err)
	}
	hs1 := httptest.NewServer(s1.Handler())
	id := submitJob(t, hs1.URL, `{"experiment":"table1"}`)
	waitForState(t, hs1.URL, id, server.StateDone)
	_, before := doJSON(t, http.MethodGet, hs1.URL+"/api/v1/jobs/"+id+"/report", "")
	hs1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	_, hs2 := newTestServer(t, etap.WithServeStateFile(state))
	st := jobStatus(t, hs2.URL, id)
	if st["state"] != "done" {
		t.Fatalf("restarted job state: %v", st)
	}
	resp, after := doJSON(t, http.MethodGet, hs2.URL+"/api/v1/jobs/"+id+"/report", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restarted report: %d: %s", resp.StatusCode, after)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("report changed across restart:\nbefore:\n%s\nafter:\n%s", before, after)
	}

	// The restored job's event stream still honors the contract: the
	// replay ends with a terminal state frame (not an empty stream).
	sresp, err := http.Get(hs2.URL + "/api/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var events []sseEvent
	if err := parseSSE(sresp.Body, func(ev sseEvent) bool {
		events = append(events, ev)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("restored job streams no events")
	}
	last := events[len(events)-1]
	if last.name != "state" || !strings.Contains(last.data, `"done"`) {
		t.Fatalf("restored stream does not end with the terminal state: %s %s", last.name, last.data)
	}
}

// TestSubmitAckAlwaysQueued: a 202 reports the job as Submit enqueued
// it, even when the single worker has already picked it up (or finished
// it) by the time the handler writes the ack.
func TestSubmitAckAlwaysQueued(t *testing.T) {
	_, hs := newTestServer(t, etap.WithServeWorkers(1))
	const n = 24
	states := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(hs.URL+"/api/v1/jobs", "application/json",
				strings.NewReader(`{"experiment":"table1"}`))
			if err != nil {
				states[i] = err.Error()
				return
			}
			defer resp.Body.Close()
			var ack struct {
				State string `json:"state"`
			}
			if resp.StatusCode != http.StatusAccepted || json.NewDecoder(resp.Body).Decode(&ack) != nil {
				states[i] = "status " + resp.Status
				return
			}
			states[i] = ack.State
		}(i)
	}
	wg.Wait()
	for i, st := range states {
		if st != string(server.StateQueued) {
			t.Errorf("submit %d acked %q, want %q", i, st, server.StateQueued)
		}
	}
}

// TestHardenedRecoveryJob: a hardened job with recovery enabled reports
// the availability columns, recovers trials, and streams "recovered"
// outcomes over SSE.
func TestHardenedRecoveryJob(t *testing.T) {
	_, hs := newTestServer(t)
	id := submitJob(t, hs.URL,
		`{"benchmark":"adpcm","harden":{"dup_compare":true,"signatures":true},"errors":[1],"trials":24,"seed":9,"workers":2,"recovery":3}`)
	waitForState(t, hs.URL, id, server.StateDone)

	resp, data := doJSON(t, http.MethodGet, hs.URL+"/api/v1/jobs/"+id+"/report", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report: %d: %s", resp.StatusCode, data)
	}
	var reports []struct {
		Columns []struct {
			Name string `json:"name"`
		} `json:"columns"`
		Rows [][]struct {
			Text string   `json:"text"`
			Num  *float64 `json:"num"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(data, &reports); err != nil || len(reports) != 1 {
		t.Fatalf("report does not parse: %v: %s", err, data)
	}
	col := map[string]int{}
	for i, c := range reports[0].Columns {
		col[c.Name] = i
	}
	for _, name := range []string{"recovered", "tolerated", "untolerated", "availability", "recover latency p50"} {
		if _, ok := col[name]; !ok {
			t.Fatalf("report missing %q column (have %v)", name, col)
		}
	}
	if len(reports[0].Rows) != 1 {
		t.Fatalf("got %d rows", len(reports[0].Rows))
	}
	row := reports[0].Rows[0]
	recovered := *row[col["recovered"]].Num
	if recovered == 0 {
		t.Fatal("hardened recovery job recovered no trial")
	}
	if part := *row[col["tolerated"]].Num + *row[col["detected"]].Num + *row[col["untolerated"]].Num; part != 24 {
		t.Fatalf("availability partition sums to %v", part)
	}

	// The event stream labels recovered trials with the public outcome
	// string.
	resp, events := doJSON(t, http.MethodGet, hs.URL+"/api/v1/jobs/"+id+"/events", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: %d", resp.StatusCode)
	}
	if n := strings.Count(string(events), `"recovered"`); float64(n) < recovered {
		t.Fatalf("SSE stream has %d recovered outcomes, report says %v", n, recovered)
	}
}

// TestSubmitRejections: malformed submissions are structured 4xx and
// never occupy a job slot.
func TestSubmitRejections(t *testing.T) {
	_, hs := newTestServer(t, etap.WithServeMaxBody(16<<10))
	cases := []struct {
		name, body string
		status     int
		code       string
	}{
		{"empty body", ``, http.StatusBadRequest, "bad_json"},
		{"not json", `{nope`, http.StatusBadRequest, "bad_json"},
		{"trailing garbage", `{"experiment":"table1"} extra`, http.StatusBadRequest, "bad_json"},
		{"unknown field", `{"experiment":"table1","bogus":1}`, http.StatusBadRequest, "bad_json"},
		{"no subject", `{"trials":4}`, http.StatusBadRequest, "invalid_job"},
		{"two subjects", `{"experiment":"table1","benchmark":"adpcm"}`, http.StatusBadRequest, "invalid_job"},
		{"unknown experiment", `{"experiment":"table9"}`, http.StatusBadRequest, "invalid_job"},
		{"unknown benchmark", `{"benchmark":"quake"}`, http.StatusBadRequest, "invalid_job"},
		{"unknown policy", `{"benchmark":"adpcm","policy":"strict"}`, http.StatusBadRequest, "invalid_job"},
		{"trials out of range", `{"benchmark":"adpcm","trials":1000001}`, http.StatusBadRequest, "invalid_job"},
		{"experiment with sweep", `{"experiment":"table1","errors":[1]}`, http.StatusBadRequest, "invalid_job"},
		{"experiment with stop_ci", `{"experiment":"table1","stop_ci":0.1,"min_trials":8}`, http.StatusBadRequest, "invalid_job"},
		{"empty harden", fmt.Sprintf(`{"source":%s,"harden":{}}`, jsonStr(fastSource)), http.StatusBadRequest, "invalid_job"},
		{"experiment with recovery", `{"experiment":"table1","recovery":2}`, http.StatusBadRequest, "invalid_job"},
		{"recovery without harden", `{"benchmark":"adpcm","recovery":2}`, http.StatusBadRequest, "invalid_job"},
		{"recovery out of range", fmt.Sprintf(`{"source":%s,"harden":{"dup_compare":true},"recovery":65}`, jsonStr(fastSource)), http.StatusBadRequest, "invalid_job"},
		{"source does not compile", `{"source":"int main() { return x; }"}`, http.StatusBadRequest, "bad_source"},
		{"source crashes clean", `{"source":"int main() { int a; a = 1 / 0; return a; }"}`, http.StatusBadRequest, "bad_source"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := doJSON(t, http.MethodPost, hs.URL+"/api/v1/jobs", tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, data)
			}
			var body struct {
				Error server.RequestError `json:"error"`
			}
			if err := json.Unmarshal(data, &body); err != nil {
				t.Fatalf("error body does not parse: %v: %s", err, data)
			}
			if body.Error.Code != tc.code || body.Error.Message == "" {
				t.Fatalf("error %+v, want code %q", body.Error, tc.code)
			}
		})
	}

	// Oversized bodies are 413.
	big := fmt.Sprintf(`{"source":%s}`, jsonStr(strings.Repeat("x", 32<<10)))
	resp, data := doJSON(t, http.MethodPost, hs.URL+"/api/v1/jobs", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d: %.120s", resp.StatusCode, data)
	}

	// No jobs were created by any rejection.
	resp, data = doJSON(t, http.MethodGet, hs.URL+"/api/v1/jobs", "")
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(data)) != "[]" {
		t.Fatalf("rejections left jobs behind: %s", data)
	}
}

// TestDiscoveryEndpoints: healthz, experiments and benchmarks answer.
func TestDiscoveryEndpoints(t *testing.T) {
	_, hs := newTestServer(t)
	resp, data := doJSON(t, http.MethodGet, hs.URL+"/api/v1/healthz", "")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), `"status": "ok"`) {
		t.Fatalf("healthz: %d: %s", resp.StatusCode, data)
	}
	if !strings.Contains(string(data), `"lab"`) {
		t.Fatalf("healthz lacks lab stats: %s", data)
	}
	resp, data = doJSON(t, http.MethodGet, hs.URL+"/api/v1/experiments", "")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), `"table2"`) {
		t.Fatalf("experiments: %d: %s", resp.StatusCode, data)
	}
	resp, data = doJSON(t, http.MethodGet, hs.URL+"/api/v1/benchmarks", "")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), `"susan"`) {
		t.Fatalf("benchmarks: %d: %s", resp.StatusCode, data)
	}
	resp, data = doJSON(t, http.MethodGet, hs.URL+"/api/v1/nope", "")
	if resp.StatusCode != http.StatusNotFound || !strings.Contains(string(data), "not_found") {
		t.Fatalf("unknown endpoint: %d: %s", resp.StatusCode, data)
	}
}
