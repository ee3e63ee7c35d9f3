package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"etap"
	"etap/internal/analysis"
	"etap/internal/apps"
	"etap/internal/apps/all"
	"etap/internal/campaign"
	"etap/internal/core"
	"etap/internal/harden"
	"etap/internal/isa"
	"etap/internal/minic"
	"etap/internal/obs"
	obstrace "etap/internal/obs/trace"
	"etap/internal/server"
	"etap/internal/sim"
)

// serviceTrials is the per-point trial count of a service-mix job: small
// jobs, so Lab misses, golden passes, queueing and SSE dominate.
const serviceTrials = 2

// serviceSetupReps is how many servers an untraced run starts; setup_s
// is the median.
const serviceSetupReps = 5

// serviceMinRounds is how many rounds of the mix an untraced run
// measures at least.
const serviceMinRounds = 3

// serviceErrors is every service-mix job's error sweep.
var serviceErrors = []int{1, 4}

// registeredKinds are the registered-benchmark job kinds of the mix,
// one of each per app per round: the three policies, protected,
// unprotected and hardened (dup+cfs). Recovery is left to
// harden-recover: its replays would make job cost depend on the seed.
var registeredKinds = []struct {
	policy      string
	unprotected bool
	hardened    bool
}{
	{"control", false, false},
	{"control", true, false},
	{"control+addr", false, false},
	{"control+addr", false, true},
	{"conservative", false, false},
}

// mixJobs is round r of the service mix: per app, the registered kinds
// and one minic.GenProgram source run unprotected. Every round draws
// fresh campaign seeds and fresh sources, so sources always miss the
// Lab and a run samples many plans per job kind. Conservative and
// generated jobs finish in milliseconds; keeping them a third of the mix
// puts the latency median and p75 among the larger jobs rather than
// between the two sizes. The seed picks every campaign seed and every
// generated source.
func mixJobs(seed int64, round int) []server.SubmitRequest {
	unprotected := false
	var jobs []server.SubmitRequest
	for ai, app := range all.Apps() {
		for k, kind := range registeredKinds {
			j := server.SubmitRequest{Benchmark: app.Name(), Policy: kind.policy,
				Errors: serviceErrors, Trials: serviceTrials, Seed: mix(seed, round, ai, k), Workers: 1}
			if kind.unprotected {
				j.Protected = &unprotected
			}
			if kind.hardened {
				j.Harden = &server.HardenSpec{DupCompare: true, Signatures: true}
			}
			jobs = append(jobs, j)
		}
		jobs = append(jobs, server.SubmitRequest{Source: minic.GenProgram(mix(seed, round, ai, 10)),
			Policy: registeredKinds[ai%len(registeredKinds)].policy, Protected: &unprotected,
			Errors: serviceErrors, Trials: serviceTrials, Seed: mix(seed, round, ai, 11), Workers: 1})
	}
	return jobs
}

// service is one in-process server with its HTTP client.
type service struct {
	srv    *etap.Server
	hs     *httptest.Server
	client *http.Client
}

// startService starts the server (workers = nproc) behind an httptest
// listener and warms its Lab with the registered subjects jobs name, so
// only ad-hoc sources miss it.
func startService(warm []server.SubmitRequest) (*service, error) {
	workers := runtime.GOMAXPROCS(0)
	srv, err := etap.NewServer(etap.WithServeWorkers(workers),
		etap.WithServeLogger(slog.New(slog.NewTextHandler(io.Discard, nil))))
	if err != nil {
		return nil, err
	}
	lab := srv.Lab()
	for _, j := range warm {
		if j.Benchmark == "" {
			continue
		}
		b, _ := etap.BenchmarkByName(j.Benchmark)
		policy, _ := etap.ParsePolicy(j.Policy)
		if j.Policy == "" {
			policy = etap.PolicyControlAddr
		}
		if j.Harden != nil {
			_, err = lab.Harden(b.Source(), policy, etap.HardenOptions{DupCompare: j.Harden.DupCompare, Signatures: j.Harden.Signatures})
		} else {
			_, err = lab.Build(b.Source(), policy)
		}
		if err != nil {
			srv.Close()
			return nil, fmt.Errorf("warming the Lab with %s: %w", j.Benchmark, err)
		}
	}
	hs := httptest.NewServer(srv.Handler())
	// One connection per client: the closed loop never has more than
	// nproc requests in flight.
	tr := &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers}
	return &service{srv: srv, hs: hs, client: &http.Client{Transport: tr}}, nil
}

func (s *service) close() {
	s.client.CloseIdleConnections()
	s.hs.Close()
	s.srv.Close()
}

// jobOut is what one client observed for one job.
type jobOut struct {
	state      string
	latency    float64   // submit until the stream ended in done (s)
	points     []float64 // campaign.point span durations from the job's trace (s)
	trace      *obstrace.TraceData
	trials     int    // from the report
	events     int    // trial events on the stream
	instr      uint64 // sum of trial-event instructions
	report     []byte
	rowsOK     bool
	submit     float64 // ms
	fetch      float64 // ms
	traceFetch float64 // s spent fetching the job's trace
	streamEnd  time.Time
	id         string
	traceID    string
}

// request issues one HTTP call; any transport error or non-2xx status is
// a failed operation.
func (s *service) request(ctx context.Context, rep *report, mu *sync.Mutex, method, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, s.hs.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err == nil && (resp.StatusCode < 200 || resp.StatusCode > 299) {
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		err = fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	mu.Lock()
	rep.op(err)
	mu.Unlock()
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// runJob is one client iteration: submit, stream events to the terminal
// state, fetch the report; then fetch the job's trace for its point
// times.
func (s *service) runJob(ctx context.Context, rep *report, mu *sync.Mutex, job server.SubmitRequest) (jobOut, error) {
	var out jobOut
	body, err := json.Marshal(job)
	if err != nil {
		return out, err
	}
	start := time.Now()
	span(ctx, "http.submit", func(ctx context.Context) {
		var resp *http.Response
		resp, err = s.request(ctx, rep, mu, "POST", "/api/v1/jobs", body)
		if err != nil {
			return
		}
		defer resp.Body.Close()
		var ack struct {
			ID      string `json:"id"`
			TraceID string `json:"trace_id"`
		}
		err = json.NewDecoder(resp.Body).Decode(&ack)
		out.id, out.traceID = ack.ID, ack.TraceID
	})
	out.submit = ms(time.Since(start))
	if err != nil {
		return out, err
	}
	span(ctx, "sse.stream", func(ctx context.Context) { err = s.stream(ctx, rep, mu, &out) })
	out.streamEnd = time.Now()
	out.latency = out.streamEnd.Sub(start).Seconds()
	if err != nil {
		return out, err
	}
	fetchStart := time.Now()
	span(ctx, "http.report", func(ctx context.Context) {
		var resp *http.Response
		resp, err = s.request(ctx, rep, mu, "GET", "/api/v1/jobs/"+out.id+"/report", nil)
		if err != nil {
			return
		}
		defer resp.Body.Close()
		out.report, err = io.ReadAll(resp.Body)
	})
	out.fetch = ms(time.Since(fetchStart))
	if err != nil {
		return out, err
	}
	out.trials, out.rowsOK = checkReport(out.report, job)
	traceStart := time.Now()
	err = s.fetchTrace(ctx, rep, mu, &out)
	out.traceFetch = time.Since(traceStart).Seconds()
	return out, err
}

// stream reads the job's SSE stream to its end, recording the terminal
// state and the trial events.
func (s *service) stream(ctx context.Context, rep *report, mu *sync.Mutex, out *jobOut) error {
	resp, err := s.request(ctx, rep, mu, "GET", "/api/v1/jobs/"+out.id+"/events", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var event string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			var d struct {
				State        string `json:"state"`
				Instructions uint64 `json:"instructions"`
			}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &d); err != nil {
				return fmt.Errorf("job %s: bad SSE payload: %w", out.id, err)
			}
			switch event {
			case "state":
				out.state = d.State
			case "trial":
				out.events++
				out.instr += d.Instructions
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("job %s: reading SSE: %w", out.id, err)
	}
	return nil
}

// fetchTrace reads the job's completed trace from the server's flight
// recorder (always on in the service). Its campaign.point spans time
// each RunPoint call, the service-mix point latency. The trace completes
// when the job's last span ends, just after the terminal event, so a
// brief retry covers the gap.
func (s *service) fetchTrace(ctx context.Context, rep *report, mu *sync.Mutex, out *jobOut) error {
	var resp *http.Response
	var err error
	for attempt := 0; attempt < 200; attempt++ {
		if resp != nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for connection reuse
			resp.Body.Close()
			time.Sleep(time.Millisecond)
		}
		var req *http.Request
		if req, err = http.NewRequestWithContext(ctx, "GET", s.hs.URL+"/traces/"+out.traceID, nil); err != nil {
			break
		}
		if resp, err = s.client.Do(req); err != nil || resp.StatusCode != http.StatusNotFound {
			break
		}
	}
	if err == nil && resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		err = fmt.Errorf("GET /traces/%s: HTTP %d", out.traceID, resp.StatusCode)
	}
	mu.Lock()
	rep.op(err)
	mu.Unlock()
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	out.trace = new(obstrace.TraceData)
	if err := json.NewDecoder(resp.Body).Decode(out.trace); err != nil {
		return fmt.Errorf("job %s: decoding trace: %w", out.id, err)
	}
	for _, sp := range out.trace.Spans {
		if sp.Name == "campaign.point" {
			out.points = append(out.points, sp.End.Sub(sp.Start).Seconds())
		}
	}
	return nil
}

// cell is one report cell as served.
type cell struct {
	Text string   `json:"text"`
	Num  *float64 `json:"num"`
}

// checkReport verifies one row per requested point, each with the
// requested trials, status ok, and tolerated+detected+untolerated equal
// to trials. It returns the report's total trials.
func checkReport(raw []byte, job server.SubmitRequest) (int, bool) {
	var reports []struct {
		Rows [][]cell `json:"rows"`
	}
	if json.Unmarshal(raw, &reports) != nil || len(reports) != 1 || len(reports[0].Rows) != len(job.Errors) {
		return 0, false
	}
	num := func(c cell) int {
		if c.Num == nil {
			return -1
		}
		return int(*c.Num)
	}
	total, ok := 0, true
	for _, r := range reports[0].Rows {
		// Columns: errors, trials, crashes, timeouts, detected, recovered,
		// completed, masked, accepted, tolerated, untolerated, ... status.
		if len(r) < 11 {
			return total, false
		}
		trials := num(r[1])
		total += trials
		ok = ok && trials == job.Trials && num(r[9])+num(r[4])+num(r[10]) == trials && r[len(r)-1].Text == "ok"
	}
	return total, ok
}

// serviceResult aggregates a closed-loop pass over rounds of the same
// job shapes.
type serviceResult struct {
	wall       float64 // timed wall clock, trace fetches taken out
	rounds     int
	jobTimes   []float64 // every job of every round
	pointTimes []float64 // every point of every round
	trials     int
	instr      uint64
	jobs       int // per round
	digest     string
	traceFetch float64 // s, summed over clients
	submitMS   []float64
	queueMS    []float64
	runMS      []float64
	sseMS      []float64
	fetchMS    []float64
	labBuilds  int64
	labHits    int64
	pruned     float64
	campTrials float64
}

// closedLoop runs rounds of jobs with `clients` closed-loop clients
// (each submits its next job only after the previous report arrived).
// With log set, each job gets a benchmark-side trace, its server-side
// status and its server trace from GET /traces/{id}.
func (s *service) closedLoop(ctx context.Context, rep *report, jobsOf func(round int) []server.SubmitRequest, clients int, budget float64, min int, log *spanLog) serviceResult {
	var res serviceResult
	var mu sync.Mutex
	builds0, hits0 := s.srv.Lab().Builds(), s.srv.Lab().Hits()
	pruned0, trials0 := campaignCounters()
	res.wall, _ = rounds(budget, min, func(round int) {
		jobs := jobsOf(round)
		outs := make([]jobOut, len(jobs))
		var next atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= len(jobs) {
						return
					}
					jctx, end := log.root(ctx, "bench.job", obstrace.String("subject", jobs[i].Subject()))
					out, err := s.runJob(jctx, rep, &mu, jobs[i])
					end()
					if err == nil && log != nil {
						err = s.serverSide(ctx, rep, &mu, &out, &res, log)
					}
					mu.Lock()
					if err != nil {
						rep.fail("job %d (%s): %v", i, jobs[i].Subject(), err)
					}
					outs[i] = out
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		res.rounds++
		dig := newDigester()
		for i, out := range outs {
			rep.check(out.state == "done", "job %d (%s) ended %q, want done", i, jobs[i].Subject(), out.state)
			rep.check(out.rowsOK, "job %d (%s): report rows fail the point checks", i, jobs[i].Subject())
			rep.check(out.events == out.trials, "job %d: %d trial events for %d report trials", i, out.events, out.trials)
			rep.check(len(out.points) == len(jobs[i].Errors), "job %d: %d points timed, want %d", i, len(out.points), len(jobs[i].Errors))
			dig.add(i, string(out.report))
			res.jobTimes = append(res.jobTimes, out.latency)
			res.pointTimes = append(res.pointTimes, out.points...)
			res.trials += out.trials
			res.instr += out.instr
			res.traceFetch += out.traceFetch
			res.submitMS = append(res.submitMS, out.submit)
			res.fetchMS = append(res.fetchMS, out.fetch)
		}
		if round == 0 {
			res.digest, res.jobs = dig.sum(), len(outs)
		}
	})
	// The trace fetch only serves the point latency; it is not part of
	// the submit → stream → report traffic. A client fetching a trace
	// submits nothing, so with the clients alike each spent
	// traceFetch/clients of the wall clock outside that traffic.
	res.wall -= res.traceFetch / float64(clients)
	res.labBuilds = s.srv.Lab().Builds() - builds0
	res.labHits = s.srv.Lab().Hits() - hits0
	pruned1, trials1 := campaignCounters()
	res.pruned, res.campTrials = pruned1-pruned0, trials1-trials0
	return res
}

// campaignCounters reads the engine's own pruned and total trial
// counters (the engines live inside the server's jobs).
func campaignCounters() (pruned, trials float64) {
	reg := obs.Default()
	pruned = reg.Counter("etap_campaign_trials_pruned_total", "").Value()
	vec := reg.CounterVec("etap_campaign_trials_total", "", "outcome")
	for _, o := range []sim.Outcome{sim.OK, sim.Crash, sim.Timeout, sim.Detected, sim.Recovered} {
		trials += vec.With(o.String()).Value()
	}
	return pruned, trials
}

// serverSide fetches the job's lifecycle timestamps and folds its
// server trace into the span log.
func (s *service) serverSide(ctx context.Context, rep *report, mu *sync.Mutex, out *jobOut, res *serviceResult, log *spanLog) error {
	resp, err := s.request(ctx, rep, mu, "GET", "/api/v1/jobs/"+out.id, nil)
	if err != nil {
		return err
	}
	var snap server.Snapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil || snap.Started == nil || snap.Finished == nil {
		return fmt.Errorf("job %s: status without lifecycle times (%v)", out.id, err)
	}
	mu.Lock()
	res.queueMS = append(res.queueMS, ms(snap.Started.Sub(snap.Created)))
	res.runMS = append(res.runMS, ms(snap.Finished.Sub(*snap.Started)))
	res.sseMS = append(res.sseMS, ms(out.streamEnd.Sub(*snap.Finished)))
	mu.Unlock()
	log.add(out.trace)
	return nil
}

// serviceMetrics reports a closed-loop pass's end-to-end figures: work
// per wall-second over the timed phase, latency percentiles pooled over
// its rounds.
func serviceMetrics(rep *report, r serviceResult) {
	note := fmt.Sprintf("%d rounds of %d jobs, %.2f s timed (trace fetches taken out)", r.rounds, r.jobs, r.wall)
	rep.metric(true, "trials_per_s", float64(r.trials)/r.wall, "1/s", fmt.Sprintf("%d trials; %s", r.trials, note))
	rep.metric(true, "trial_minstr_per_s", float64(r.instr)/1e6/r.wall, "Minstr/s", "from SSE trial events")
	latencyMetrics(rep, "point_latency", r.pointTimes, serviceMinRounds*r.jobs*len(serviceErrors), "points")
	latencyMetrics(rep, "job_latency", r.jobTimes, serviceMinRounds*r.jobs, "jobs")
	rep.metric(true, "jobs_per_s", float64(r.rounds*r.jobs)/r.wall, "1/s", fmt.Sprintf("closed loop, %d clients", runtime.GOMAXPROCS(0)))
	rep.metric(true, "peak_rss_mb", peakRSSMB(), "MB", rssNote)
}

// serverLayerMetrics reports the server.* and etap.lab_* rows of a
// traced closed-loop pass.
func serverLayerMetrics(rep *report, r serviceResult) {
	for _, m := range []struct {
		name string
		vs   []float64
	}{
		{"server.submit_ms", r.submitMS},
		{"server.queue_wait_ms", r.queueMS},
		{"server.job_run_ms", r.runMS},
		{"server.sse_delivery_ms", r.sseMS},
		{"server.report_fetch_ms", r.fetchMS},
	} {
		rep.metric(false, m.name, median(m.vs), "ms", fmt.Sprintf("p50 of n=%d jobs", len(m.vs)))
	}
	rep.metric(false, "etap.lab_builds", float64(r.labBuilds), "count", "Lab misses in the pass")
	rep.metric(false, "etap.lab_hits", float64(r.labHits), "count", "Lab hits in the pass")
}

func runServiceMix(ctx context.Context, o options, rep *report) error {
	clients := runtime.GOMAXPROCS(0)
	jobsOf := func(round int) []server.SubmitRequest { return mixJobs(o.seed, round) }
	warm := mixJobs(o.seed, 0)
	reps := serviceSetupReps
	if o.trace {
		reps = 1
	}
	// restart replaces the server with a freshly warmed one.
	var svc *service
	defer func() {
		if svc != nil {
			svc.close()
		}
	}()
	var setups []float64
	restart := func() error {
		if svc != nil {
			svc.close()
			svc = nil
		}
		runtime.GC()
		start := time.Now()
		s, err := startService(warm)
		setups = append(setups, time.Since(start).Seconds())
		rep.op(err)
		svc = s
		return err
	}
	for i := 0; i < reps; i++ {
		if err := restart(); err != nil {
			return err
		}
	}
	rep.metric(true, "setup_s", median(setups), "s", fmt.Sprintf("median of %d server starts with Lab warm-up", len(setups)))

	if !o.trace {
		r := svc.closedLoop(ctx, rep, jobsOf, clients, o.seconds, serviceMinRounds, nil)
		rep.digest = r.digest
		serviceMetrics(rep, r)
		return nil
	}
	// Traced: untraced, traced and untraced rounds of the same jobs, each
	// on a freshly warmed server, so their digests must match and their
	// times give the tracing overhead with linear host drift cancelled.
	log := newSpanLog()
	var passes [3]serviceResult
	for i := range passes {
		if i > 0 {
			if err := restart(); err != nil {
				return err
			}
		}
		var l *spanLog
		if i == 1 {
			l = log
		}
		passes[i] = svc.closedLoop(ctx, rep, jobsOf, clients, 0, 1, l)
	}
	traced := passes[1]
	rep.digest = traced.digest
	rep.check(passes[0].digest == traced.digest && passes[2].digest == traced.digest,
		"tracing changed results: digest %s traced vs %s, %s untraced", traced.digest, passes[0].digest, passes[2].digest)
	rep.metric(false, "obs.trace_overhead_frac", traceOverhead(passes[0].wall, traced.wall, passes[2].wall), "fraction", traceOverheadNote)
	serverLayerMetrics(rep, traced)
	rep.metric(false, "campaign.pruned_frac", traced.pruned/traced.campTrials, "fraction",
		fmt.Sprintf("%.0f of %.0f trials answered statically", traced.pruned, traced.campTrials))
	shardMetrics(rep, log, 1)

	// Layer drive over round 0's subjects, built by the benchmark itself.
	subs, bt, err := buildJobSubjects(warm)
	if err != nil {
		return err
	}
	for _, name := range []string{"minic.build", "core.analyze", "harden.harden", "analysis.verify"} {
		rep.metric(false, name+"_ms", bt[name], "ms", "summed over round 0's job subjects")
	}
	d := newDrive(o.seed)
	d.subjects(subs, serviceErrors)
	// The mix's hardened jobs run without recovery.
	rep.notExercised("count", "sim.recovery_attempts_per_trial")
	d.report(rep)
	return log.write(os.Stderr, o.outDir, rep.workload, o.seed)
}

// buildJobSubjects compiles, analyzes (and hardens and verifies) each
// job's program the way the server's Lab does, timing each layer.
func buildJobSubjects(jobs []server.SubmitRequest) ([]*subject, buildTimes, error) {
	bt := buildTimes{}
	var subs []*subject
	ctx := context.Background()
	for _, j := range jobs {
		// Ad-hoc sources read no input and have no fidelity measure: the
		// drive scores them bit-exactly, as the engine does without one.
		src, input, score := j.Source, []byte(j.Input), campaign.ScoreFunc(exactScore)
		if j.Benchmark != "" {
			app, _ := all.ByName(j.Benchmark)
			src, input, score = app.Source(), app.Input(), apps.Scorer(app)
		}
		var prog *isa.Program
		var rp *core.Report
		var err error
		pol, _ := core.ParsePolicy(j.Policy)
		bt.timed(ctx, "minic.build", func(context.Context) { prog, err = minic.Build(src) })
		if err == nil {
			bt.timed(ctx, "core.analyze", func(context.Context) { rp, err = core.Analyze(prog, pol) })
		}
		if err != nil {
			return nil, bt, fmt.Errorf("%s: %w", j.Subject(), err)
		}
		s := &subject{label: j.Subject(), input: input, score: score, prog: prog, mask: rp.Tagged}
		if j.Protected != nil && !*j.Protected {
			s.mask = core.EligibleAll(prog)
		}
		if j.Harden != nil {
			var hr *harden.Result
			bt.timed(ctx, "harden.harden", func(context.Context) {
				hr, err = harden.Harden(rp, harden.Options{DupCompare: true, Signatures: true})
				if err == nil {
					_, err = core.Analyze(hr.Prog, pol)
				}
			})
			if err == nil {
				bt.timed(ctx, "analysis.verify", func(context.Context) { _, err = analysis.Verify(hr) })
			}
			if err != nil {
				return nil, bt, fmt.Errorf("%s: %w", j.Subject(), err)
			}
			s.prog, s.mask, s.hard = hr.Prog, hr.PrimaryProtected, hr
		}
		subs = append(subs, s)
	}
	return subs, bt, nil
}

// exactScore accepts only output bit-identical to the golden run.
func exactScore(golden, output []byte) (float64, bool) {
	if bytes.Equal(golden, output) {
		return 1, true
	}
	return 0, false
}
