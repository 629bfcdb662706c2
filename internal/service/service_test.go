package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"astrasim"
)

// newTestServer builds a Server + httptest frontend with quotas off by
// default.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// trySubmit POSTs a submission body; goroutine-safe (no t.Fatal).
func trySubmit(ts *httptest.Server, body string, headers map[string]string) (*http.Response, []byte, error) {
	req, err := http.NewRequest("POST", ts.URL+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, nil, err
	}
	return resp, b, nil
}

// submit is trySubmit for the test goroutine: transport errors are
// fatal.
func submit(t *testing.T, ts *httptest.Server, body string, headers map[string]string) (*http.Response, []byte) {
	t.Helper()
	resp, b, err := trySubmit(ts, body, headers)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

const smallAllReduce = `{"topology": "1x4x1", "backend": "fast", "collective": {"op": "allreduce", "bytes": 65536}}`

func stats(t *testing.T, ts *httptest.Server) statsResponse {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestCacheHitByteIdentical submits the same job twice: the second
// response must be served from the cache with a byte-identical result
// payload, the cached marker set, and no second simulation run.
func TestCacheHitByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	resp1, body1 := submit(t, ts, smallAllReduce, nil)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first submission: %d %s", resp1.StatusCode, body1)
	}
	if got := resp1.Header.Get("X-Astrasim-Cache"); got != "miss" {
		t.Errorf("first submission cache header %q, want miss", got)
	}
	var env1 jobEnvelope
	if err := json.Unmarshal(body1, &env1); err != nil {
		t.Fatal(err)
	}
	if env1.Cached {
		t.Error("first submission marked cached")
	}

	resp2, body2 := submit(t, ts, smallAllReduce, nil)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second submission: %d %s", resp2.StatusCode, body2)
	}
	if got := resp2.Header.Get("X-Astrasim-Cache"); got != "hit" {
		t.Errorf("second submission cache header %q, want hit", got)
	}
	var env2 jobEnvelope
	if err := json.Unmarshal(body2, &env2); err != nil {
		t.Fatal(err)
	}
	if !env2.Cached {
		t.Error("second submission not marked cached: true")
	}
	if env1.ID != env2.ID {
		t.Errorf("content addresses differ: %s vs %s", env1.ID, env2.ID)
	}
	if !bytes.Equal(env1.Result, env2.Result) {
		t.Errorf("cached result payload not byte-identical:\n%s\n%s", env1.Result, env2.Result)
	}
	if st := stats(t, ts); st.Runs != 1 {
		t.Errorf("ran %d simulations for two identical submissions, want 1", st.Runs)
	}
}

// TestCacheKeyCanonicalization: reordered JSON keys and spelled-out
// defaults hash to the same content address.
func TestCacheKeyCanonicalization(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	reordered := `{"collective": {"bytes": 65536, "op": "allreduce"}, "backend": "fast", "topology": "1x4x1"}`

	_, body1 := submit(t, ts, smallAllReduce, nil)
	resp2, body2 := submit(t, ts, reordered, nil)
	if got := resp2.Header.Get("X-Astrasim-Cache"); got != "hit" {
		t.Errorf("reordered submission cache header %q, want hit (bodies: %s / %s)", got, body1, body2)
	}
}

// TestSingleFlight fires N identical concurrent submissions at a
// stalled worker: all must return the same result from exactly one
// simulation run.
func TestSingleFlight(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	s, ts := newTestServer(t, Config{Workers: 2})
	s.testHook = func(*compiled) { <-release }

	const n = 8
	results := make([][]byte, n)
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body, err := trySubmit(ts, smallAllReduce, nil)
			if err != nil {
				t.Error(err)
				return
			}
			codes[i] = resp.StatusCode
			var env jobEnvelope
			if err := json.Unmarshal(body, &env); err == nil {
				results[i] = env.Result
			}
		}(i)
	}
	// Hold the run until every submission has had time to attach, then
	// let the single worker finish it.
	time.Sleep(200 * time.Millisecond)
	once.Do(func() { close(release) })
	wg.Wait()

	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("submission %d: status %d", i, codes[i])
		}
		if !bytes.Equal(results[i], results[0]) {
			t.Errorf("submission %d result differs", i)
		}
	}
	if st := stats(t, ts); st.Runs != 1 {
		t.Errorf("ran %d simulations for %d concurrent identical submissions, want 1", st.Runs, n)
	}
}

// TestQuotaExhaustion pins the 429 + Retry-After path: distinct
// submissions beyond the burst are rejected until tokens refill, and
// other tenants are unaffected.
func TestQuotaExhaustion(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QuotaRate: 0.001, QuotaBurst: 2})
	now := time.Unix(1000, 0)
	s.now = func() time.Time { return now }

	sub := func(bytes int, key string) (*http.Response, []byte) {
		body := fmt.Sprintf(`{"topology": "1x4x1", "backend": "fast", "collective": {"op": "allreduce", "bytes": %d}}`, bytes)
		return submit(t, ts, body, map[string]string{"X-API-Key": key})
	}
	for i := 0; i < 2; i++ {
		if resp, body := sub(65536+i, "tenant-a"); resp.StatusCode != http.StatusOK {
			t.Fatalf("submission %d within burst: %d %s", i, resp.StatusCode, body)
		}
	}
	resp, body := sub(99999, "tenant-a")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-burst submission: %d %s, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	// Another tenant's bucket is untouched.
	if resp, body := sub(99999, "tenant-b"); resp.StatusCode != http.StatusOK {
		t.Errorf("tenant-b blocked by tenant-a's quota: %d %s", resp.StatusCode, body)
	}
	// A cache hit costs no token even for the throttled tenant.
	if resp, _ := sub(65536, "tenant-a"); resp.StatusCode != http.StatusOK {
		t.Errorf("cache hit charged against exhausted quota: %d", resp.StatusCode)
	}
}

// Inline graphs with an NPU out of range on 1x4x1 that pass
// graph.Validate: a SEND to NPU 77 with a valid RECV, and a replica past
// the last NPU.
const (
	graphEndpointOutOfRange = `{"topology": "1x4x1", "graph": {"version": 1, "nodes": [
		{"id": "s", "kind": "SEND", "src": 0, "dst": 77, "bytes": 1024, "peer": "r"},
		{"id": "r", "kind": "RECV", "peer": "s"}]}}`
	graphReplicaOutOfRange = `{"topology": "1x4x1", "graph": {"version": 1, "nodes": [
		{"id": "c", "kind": "COMP", "cycles": 10, "replica": 4}]}}`
)

// TestGraphRangesRejected400: both range errors are 400s, and the message
// is graph.Graph.CheckEndpoints's, the check the graph engine runs.
func TestGraphRangesRejected400(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for body, want := range map[string]string{
		graphEndpointOutOfRange: "graph submission: node s: endpoints 0->77 out of range (4 NPUs)",
		graphReplicaOutOfRange:  "graph submission: node c: replica 4 out of range (4 NPUs)",
	} {
		resp, out := submit(t, ts, body, nil)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(out), want) {
			t.Errorf("status %d (%s), want 400 with %q", resp.StatusCode, out, want)
		}
	}
}

// TestStragglerOutOfRange400: a fault plan's straggler node outside the
// submission's topology is a 400 naming the node and the NPU count, the
// message of cli.RunSpec.ValidateNPUs that the CLIs print too.
func TestStragglerOutOfRange400(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, out := submit(t, ts, `{"topology": "1x4x1",
		"faults": {"seed": 7, "stragglers": [{"node": 99, "factor": 2}]},
		"collective": {"op": "allreduce", "bytes": 65536}}`, nil)
	const want = "faults: straggler node 99 out of range (4 NPUs)"
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(out), want) {
		t.Errorf("status %d (%s), want 400 with %q", resp.StatusCode, out, want)
	}
}

// TestMalformedSubmissions4xx feeds the formerly-panicking input
// classes through the API: each must come back 4xx, and the server must
// keep serving afterwards.
func TestMalformedSubmissions4xx(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	cases := []struct {
		name string
		body string
	}{
		{"not json", `{"topology": `},
		{"unknown field", `{"topology": "1x4x1", "bogus": 1, "collective": {"op": "allreduce", "bytes": 1}}`},
		{"missing topology", `{"collective": {"op": "allreduce", "bytes": 65536}}`},
		{"bad topology spec", `{"topology": "yxz", "collective": {"op": "allreduce", "bytes": 65536}}`},
		{"bad op", `{"topology": "1x4x1", "collective": {"op": "gather", "bytes": 65536}}`},
		{"zero bytes", `{"topology": "1x4x1", "collective": {"op": "allreduce", "bytes": 0}}`},
		{"bad backend", `{"topology": "1x4x1", "backend": "warp", "collective": {"op": "allreduce", "bytes": 1}}`},
		{"no job kind", `{"topology": "1x4x1"}`},
		{"two job kinds", `{"topology": "1x4x1", "collective": {"op": "allreduce", "bytes": 1}, "workload": {"model": "resnet50"}}`},
		// The packet-size class that used to panic deep in noc.New.
		{"bad packet size", `{"topology": "1x4x1", "network": {"LocalPacketSize": -5}, "collective": {"op": "allreduce", "bytes": 65536}}`},
		// Straggler node outside the topology (library is lenient, the
		// service is strict).
		{"out-of-range straggler", `{"topology": "1x4x1",
			"faults": {"seed": 7, "stragglers": [{"node": 99, "factor": 2}]},
			"collective": {"op": "allreduce", "bytes": 65536}}`},
		// Fault windows that used to panic in noc.SetLinkFaults.
		{"empty fault window", `{"topology": "1x4x1",
			"faults": {"seed": 7, "degraded_links": [{"class": "inter", "start": 50, "end": 50, "bandwidth_factor": 0.5}]},
			"collective": {"op": "allreduce", "bytes": 65536}}`},
		{"negative straggler factor", `{"topology": "1x4x1",
			"faults": {"seed": 7, "stragglers": [{"node": 1, "factor": -3}]},
			"collective": {"op": "allreduce", "bytes": 65536}}`},
		{"faults on fast backend", `{"topology": "1x4x1", "backend": "fast",
			"faults": {"seed": 7, "stragglers": [{"node": 1, "factor": 2}]},
			"collective": {"op": "allreduce", "bytes": 65536}}`},
		{"unknown model", `{"topology": "1x4x1", "workload": {"model": "alexnet"}}`},
		{"graph endpoint out of range", graphEndpointOutOfRange},
		{"graph replica out of range", graphReplicaOutOfRange},
	}
	for _, tc := range cases {
		resp, body := submit(t, ts, tc.body, nil)
		if resp.StatusCode < 400 || resp.StatusCode >= 500 {
			t.Errorf("%s: status %d (%s), want 4xx", tc.name, resp.StatusCode, body)
		}
	}
	// The process is still up and serving.
	if resp, body := submit(t, ts, smallAllReduce, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("valid submission after malformed batch: %d %s", resp.StatusCode, body)
	}
}

// TestOverflowingTopology400 submits shapes whose NPU count overflows
// int: each is a 400 naming the overflow, never a handler panic (which
// the client sees as EOF) or a 500, and the daemon keeps serving.
func TestOverflowingTopology400(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	for _, topo := range []string{
		"hier:ring100000,ring100000,ring100000,ring100000",
		"100000x100000x100000x100000",
		"65536x65536x65536x65536x65536",
		"4294967296x4294967296x2",
	} {
		body := fmt.Sprintf(`{"topology": %q, "backend": "fast", "collective": {"op": "allreduce", "bytes": 65536}}`, topo)
		resp, out := submit(t, ts, body, nil)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(out), "overflows") {
			t.Errorf("%s: status %d (%s), want 400 naming the overflow", topo, resp.StatusCode, out)
		}
	}
	if resp, body := submit(t, ts, smallAllReduce, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("valid submission after overflowing shapes: %d %s", resp.StatusCode, body)
	}
}

// TestPanicBackstop injects a panic into a running job: the submitter
// gets a 500, and the daemon serves the next request normally.
func TestPanicBackstop(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	s.testHook = func(*compiled) { panic("injected failure") }
	resp, body := submit(t, ts, smallAllReduce, nil)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking job: %d %s, want 500", resp.StatusCode, body)
	}
	var env jobEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.State != stateFailed || !strings.Contains(env.Error, "injected failure") {
		t.Errorf("failure envelope %+v", env)
	}
	// A failed run must not poison the cache or the flight table.
	s.testHook = nil
	if resp, body := submit(t, ts, smallAllReduce, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("submission after panic: %d %s", resp.StatusCode, body)
	}
}

// TestAsyncSubmit covers wait=0: a 202 with polling URLs, then the
// result via GET and via the SSE stream.
func TestAsyncSubmit(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	release := make(chan struct{})
	s.testHook = func(*compiled) { <-release }

	req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs?wait=0", strings.NewReader(smallAllReduce))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("wait=0 submission: %d %s, want 202", resp.StatusCode, body)
	}
	var env jobEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.StatusURL == "" || env.EventsURL == "" {
		t.Fatalf("202 envelope missing polling URLs: %+v", env)
	}

	// Status while queued/running.
	st, _ := http.Get(ts.URL + env.StatusURL)
	if st.StatusCode != http.StatusOK {
		t.Fatalf("status poll: %d", st.StatusCode)
	}
	st.Body.Close()

	// Stream events while releasing the job.
	evReq, _ := http.NewRequest("GET", ts.URL+env.EventsURL, nil)
	evResp, err := http.DefaultClient.Do(evReq)
	if err != nil {
		t.Fatal(err)
	}
	defer evResp.Body.Close()
	close(release)

	var events []string
	var resultData string
	scanner := bufio.NewScanner(evResp.Body)
	var lastEvent string
	for scanner.Scan() {
		line := scanner.Text()
		if after, ok := strings.CutPrefix(line, "event: "); ok {
			lastEvent = after
			events = append(events, after)
		}
		if after, ok := strings.CutPrefix(line, "data: "); ok && lastEvent == "result" {
			resultData = after
		}
	}
	if len(events) == 0 || events[len(events)-1] != "result" {
		t.Fatalf("event stream %v, want terminal result event", events)
	}
	var res collectiveResult
	if err := json.Unmarshal([]byte(resultData), &res); err != nil {
		t.Fatalf("result event payload %q: %v", resultData, err)
	}
	if res.DurationCycles == 0 {
		t.Error("zero duration in streamed result")
	}

	// After completion the id resolves from the cache.
	st2, _ := http.Get(ts.URL + env.StatusURL)
	b2, _ := io.ReadAll(st2.Body)
	st2.Body.Close()
	if st2.StatusCode != http.StatusOK {
		t.Fatalf("status after completion: %d %s", st2.StatusCode, b2)
	}
	var done jobEnvelope
	if err := json.Unmarshal(b2, &done); err != nil {
		t.Fatal(err)
	}
	if done.State != stateDone || len(done.Result) == 0 {
		t.Errorf("completed status envelope %+v", done)
	}
}

// TestResultMatchesLibrary pins the service's numbers to a direct
// library run: same duration, byte for byte determinism across the
// HTTP boundary.
func TestResultMatchesLibrary(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	_, body := submit(t, ts, smallAllReduce, nil)
	var env jobEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	var res collectiveResult
	if err := json.Unmarshal(env.Result, &res); err != nil {
		t.Fatal(err)
	}

	p, err := astrasim.NewPlatformFromSpec("1x4x1", astrasim.WithBackend(astrasim.FastBackend))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := p.RunCollective(astrasim.AllReduce, 65536)
	if err != nil {
		t.Fatal(err)
	}
	if res.DurationCycles != uint64(direct.Duration()) {
		t.Errorf("service reported %d cycles, direct run %d", res.DurationCycles, direct.Duration())
	}
}

// TestWorkloadAndGraphJobs smoke-tests the two non-collective kinds
// end to end.
func TestWorkloadAndGraphJobs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	wl := `{"topology": "1x4x1", "backend": "fast",
		"workload": {"text": "DATA\n1\nL0\n64 64 64\nNONE NONE ALLREDUCE\n0 0 16384\n1\n", "passes": 1}}`
	resp, body := submit(t, ts, wl, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("workload job: %d %s", resp.StatusCode, body)
	}
	var env jobEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	var tr trainResult
	if err := json.Unmarshal(env.Result, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Kind != "train" || tr.TotalCycles == 0 {
		t.Errorf("train result %+v", tr)
	}

	gr := `{"topology": "1x4x1", "backend": "fast", "graph": {"version": 1, "nodes": [
		{"id": "c", "kind": "COMM", "op": "ALLREDUCE", "bytes": 65536}]}}`
	resp, body = submit(t, ts, gr, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("graph job: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(env.Result, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Kind != "graph" || tr.TotalCycles == 0 {
		t.Errorf("graph result %+v", tr)
	}
}

// TestModelJobs submits an inline model spec + parallelism plan: the
// server compiles the pair through internal/modelgen and runs the
// resulting graph like a graph submission.
func TestModelJobs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	model := `{"version": 1, "name": "svc-lm", "batch": 4, "transformer":
		{"layers": 2, "hidden": 32, "heads": 4, "seq": 16, "vocab": 64}}`
	plan := `{"version": 1, "name": "svc-dp2", "dp": 2, "zero_stage": 1, "microbatches": 2}`
	body := `{"topology": "1x4x1", "backend": "fast", "model": ` + model + `, "plan": ` + plan + `, "model_steps": 2}`
	resp, respBody := submit(t, ts, body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("model job: %d %s", resp.StatusCode, respBody)
	}
	var env jobEnvelope
	if err := json.Unmarshal(respBody, &env); err != nil {
		t.Fatal(err)
	}
	var tr trainResult
	if err := json.Unmarshal(env.Result, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Kind != "model" || tr.TotalCycles == 0 {
		t.Errorf("model result %+v", tr)
	}

	// Rejections: half a pair, invalid spec/plan fields (the 400 names
	// the offending field), a pipeline too deep for the topology, and
	// kind exclusivity with graph.
	cases := []struct {
		name, body, want string
	}{
		{"model without plan", `{"topology": "1x4x1", "model": ` + model + `}`, "plan"},
		{"plan without model", `{"topology": "1x4x1", "plan": ` + plan + `}`, "model"},
		{"invalid spec field", `{"topology": "1x4x1", "plan": ` + plan + `, "model":
			{"version": 1, "name": "bad", "batch": 4, "transformer":
			{"layers": 2, "hidden": 0, "heads": 4, "seq": 16, "vocab": 64}}}`, "transformer.hidden"},
		{"invalid plan field", `{"topology": "1x4x1", "model": ` + model + `, "plan":
			{"version": 1, "name": "bad", "dp": 2, "zero_stage": 7}}`, "zero_stage"},
		{"pipeline deeper than topology", `{"topology": "1x1x1", "model": ` + model + `, "plan":
			{"version": 1, "name": "pp2", "pp": 2, "microbatches": 2}}`, "out of range"},
		{"model plus graph", `{"topology": "1x4x1", "model": ` + model + `, "plan": ` + plan + `,
			"graph": {"version": 1, "nodes": [{"id": "c", "kind": "COMM", "op": "ALLREDUCE", "bytes": 65536}]}}`, "exactly one"},
	}
	for _, tc := range cases {
		resp, b := submit(t, ts, tc.body, nil)
		if resp.StatusCode < 400 || resp.StatusCode >= 500 {
			t.Errorf("%s: status %d (%s), want 4xx", tc.name, resp.StatusCode, b)
			continue
		}
		if !strings.Contains(string(b), tc.want) {
			t.Errorf("%s: error %q does not name %q", tc.name, b, tc.want)
		}
	}
}

// TestPriorityOrdering keeps one worker busy, queues a low- and a
// high-priority job, and asserts the high one executes first
// (observed server-side via the test hook).
func TestPriorityOrdering(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	release := make(chan struct{})
	var gate sync.Once
	var mu sync.Mutex
	var order []int64
	s.testHook = func(c *compiled) {
		gate.Do(func() { <-release }) // first job parks the worker
		mu.Lock()
		order = append(order, c.bytes)
		mu.Unlock()
	}

	// Occupy the single worker.
	var wg sync.WaitGroup
	enqueue := func(name, body string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, b, err := trySubmit(ts, body, nil)
			if err != nil {
				t.Error(err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s: %d %s", name, resp.StatusCode, b)
			}
		}()
	}
	enqueue("gate", smallAllReduce)
	time.Sleep(100 * time.Millisecond)
	enqueue("low", `{"topology": "1x4x1", "backend": "fast", "priority": 1, "collective": {"op": "allreduce", "bytes": 131072}}`)
	time.Sleep(100 * time.Millisecond)
	enqueue("high", `{"topology": "1x4x1", "backend": "fast", "priority": 10, "collective": {"op": "allreduce", "bytes": 262144}}`)
	time.Sleep(100 * time.Millisecond)
	close(release)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	want := []int64{65536, 262144, 131072} // gate, then high before low
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Errorf("execution order %v, want %v", order, want)
	}
}

// TestConcurrentDistinctSubmissions hammers the server with a mixed
// workload from many goroutines; run under -race in CI.
func TestConcurrentDistinctSubmissions(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"topology": "1x4x1", "backend": "fast", "collective": {"op": "allreduce", "bytes": %d}}`, 4096*(1+i%6))
			resp, b, err := trySubmit(ts, body, nil)
			if err != nil {
				t.Error(err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				t.Errorf("submission %d: %d %s", i, resp.StatusCode, b)
			}
		}(i)
	}
	wg.Wait()
	st := stats(t, ts)
	// 24 submissions over 6 distinct contents: exactly 6 simulations,
	// the rest cache hits or collapsed flights.
	if st.Runs != 6 {
		t.Errorf("ran %d simulations for 6 distinct contents, want 6", st.Runs)
	}
	if st.CacheHits+st.Collapsed != 18 {
		t.Errorf("hits %d + collapsed %d = %d, want 18", st.CacheHits, st.Collapsed, st.CacheHits+st.Collapsed)
	}
}

// TestHealthz pins the liveness endpoint.
func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
}

// TestCacheEviction keeps the LRU bound honest: the cache never exceeds
// its capacity and evicted entries rerun.
func TestCacheEviction(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, CacheEntries: 2})
	for i := 0; i < 4; i++ {
		body := fmt.Sprintf(`{"topology": "1x4x1", "backend": "fast", "collective": {"op": "allreduce", "bytes": %d}}`, 4096*(i+1))
		if resp, b := submit(t, ts, body, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("submission %d: %d %s", i, resp.StatusCode, b)
		}
	}
	st := stats(t, ts)
	if st.CacheSize > 2 {
		t.Errorf("cache holds %d entries, bound is 2", st.CacheSize)
	}
	// The oldest entry was evicted: resubmitting it runs again.
	body := `{"topology": "1x4x1", "backend": "fast", "collective": {"op": "allreduce", "bytes": 4096}}`
	resp, _ := submit(t, ts, body, nil)
	if got := resp.Header.Get("X-Astrasim-Cache"); got != "miss" {
		t.Errorf("evicted entry served as %q, want miss", got)
	}
	if st := stats(t, ts); st.Runs != 5 {
		t.Errorf("ran %d simulations, want 5 (4 distinct + 1 evicted rerun)", st.Runs)
	}
}

// TestIntraParallelSubmissions: intra_parallel is a scheduling knob —
// packet-mode results and the content address are identical with and
// without it (the second submission is a cache hit), while invalid
// combinations (faults, negative widths) are 400s.
func TestIntraParallelSubmissions(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	const serial = `{"topology": "1x4x1", "collective": {"op": "allreduce", "bytes": 65536}}`
	const par = `{"topology": "1x4x1", "intra_parallel": 2, "collective": {"op": "allreduce", "bytes": 65536}}`

	resp1, body1 := submit(t, ts, serial, nil)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("serial submission: %d %s", resp1.StatusCode, body1)
	}
	resp2, body2 := submit(t, ts, par, nil)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("intra_parallel submission: %d %s", resp2.StatusCode, body2)
	}
	if got := resp2.Header.Get("X-Astrasim-Cache"); got != "hit" {
		t.Errorf("intra_parallel submission cache header %q, want hit (same simulation, different width)", got)
	}
	var env1, env2 jobEnvelope
	if err := json.Unmarshal(body1, &env1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body2, &env2); err != nil {
		t.Fatal(err)
	}
	if env1.ID != env2.ID {
		t.Errorf("content addresses differ across widths: %s vs %s", env1.ID, env2.ID)
	}

	for name, bad := range map[string]string{
		"negative": `{"topology": "1x4x1", "intra_parallel": -1, "collective": {"op": "allreduce", "bytes": 65536}}`,
		"faults":   `{"topology": "1x4x1", "intra_parallel": 2, "collective": {"op": "allreduce", "bytes": 65536}, "faults": {"degraded": [{"class": "local", "factor": 0.5}]}}`,
	} {
		resp, body := submit(t, ts, bad, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, resp.StatusCode, body)
		}
	}
}
