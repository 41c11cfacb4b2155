package serve

import (
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
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	// A ticking fake clock: deterministic, but latency metrics move.
	var mu sync.Mutex
	now := time.Unix(0, 0)
	srv := New(Config{
		CacheEntries: 64,
		MaxDim:       8,
		Now: func() time.Time {
			mu.Lock()
			defer mu.Unlock()
			now = now.Add(time.Millisecond)
			return now
		},
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func post(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestEndpoints drives every POST endpoint through the same table:
// a valid spec answers 200 with a well-formed body, malformed JSON and
// out-of-range parameters answer 400, and an unknown JSON field is a
// client error rather than silently ignored.
func TestEndpoints(t *testing.T) {
	ts := newTestServer(t)
	cases := []struct {
		name       string
		path       string
		body       string
		wantStatus int
		wantIn     string // substring of the response body
	}{
		{"layout collinear ok", "/v1/layout", `{"family":"collinear","n":8}`, 200, `"extras"`},
		{"layout thompson ok", "/v1/layout", `{"family":"thompson","widths":[2,2,2]}`, 200, `"blockWidth"`},
		{"layout stack3d ok", "/v1/layout", `{"family":"stack3d","widths":[2,2,2,2],"sliceLayers":2}`, 200, `"volume"`},
		{"layout hierarchy ok", "/v1/layout", `{"family":"hierarchy","n":8,"maxPins":64,"chipSide":20}`, 200, `"numChips"`},
		{"layout unknown family", "/v1/layout", `{"family":"benes","n":8}`, 400, "unknown layout family"},
		{"layout malformed json", "/v1/layout", `{"family":`, 400, "error"},
		{"layout unknown field", "/v1/layout", `{"family":"collinear","n":8,"frobnicate":1}`, 400, "frobnicate"},
		{"layout stray field for family", "/v1/layout", `{"family":"collinear","n":8,"maxPins":4}`, 400, "must be zero"},
		{"layout dim over cap", "/v1/layout", `{"family":"hierarchy","n":9,"maxPins":64,"chipSide":20}`, 400, "exceeds this server's cap"},

		{"packaging row ok", "/v1/packaging", `{"variant":"row","n":6}`, 200, `"numModules"`},
		{"packaging nucleus ok", "/v1/packaging", `{"variant":"nucleus","n":6}`, 200, `"stats"`},
		{"packaging naive ok", "/v1/packaging", `{"variant":"naive","n":6,"rowsPerModule":8}`, 200, `"numModules"`},
		{"packaging unknown variant", "/v1/packaging", `{"variant":"hex","n":6}`, 400, "unknown"},
		{"packaging naive missing rows", "/v1/packaging", `{"variant":"naive","n":6}`, 400, "rowsPerModule"},
		{"packaging n over cap", "/v1/packaging", `{"variant":"row","n":9}`, 400, "exceeds this server's cap"},
		{"packaging malformed json", "/v1/packaging", `not json`, 400, "error"},

		{"route ok", "/v1/route", `{"n":3,"lambda":0.05,"warmup":20,"cycles":100,"seed":1}`, 200, `"Delivered"`},
		{"route shuffle drop ok", "/v1/route", `{"n":3,"lambda":0.05,"cycles":100,"pattern":"shuffle","policy":"drop"}`, 200, `"Throughput"`},
		{"route faulted ok", "/v1/route", `{"n":3,"lambda":0.05,"cycles":100,"fault":{"linkRate":0.05,"seed":2}}`, 200, `"Dropped"`},
		{"route bad pattern", "/v1/route", `{"n":3,"lambda":0.05,"cycles":100,"pattern":"zigzag"}`, 400, "unknown traffic pattern"},
		{"route lambda out of range", "/v1/route", `{"n":3,"lambda":1.5,"cycles":100}`, 400, "lambda"},
		{"route n over cap", "/v1/route", `{"n":9,"lambda":0.05,"cycles":100}`, 400, "exceeds this server's cap"},
		{"route zero cycles", "/v1/route", `{"n":3,"lambda":0.05}`, 400, "cycle"},
		{"route malformed json", "/v1/route", `{{`, 400, "error"},

		{"faultsweep ok", "/v1/faultsweep", `{"n":3,"lambda":0.05,"cycles":100,"rates":[0,0.1]}`, 200, `"deadLinks"`},
		{"faultsweep no rates", "/v1/faultsweep", `{"n":3,"lambda":0.05,"cycles":100}`, 400, "at least 1 fault rate"},
		{"faultsweep rate out of range", "/v1/faultsweep", `{"n":3,"lambda":0.05,"cycles":100,"rates":[2]}`, 400, "out of [0,1]"},
		{"faultsweep n over cap", "/v1/faultsweep", `{"n":9,"lambda":0.05,"cycles":100,"rates":[0]}`, 400, "exceeds this server's cap"},
		{"faultsweep malformed json", "/v1/faultsweep", `[1,2]`, 400, "error"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, body := post(t, ts, c.path, c.body)
			if resp.StatusCode != c.wantStatus {
				t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, c.wantStatus, body)
			}
			if !strings.Contains(string(body), c.wantIn) {
				t.Fatalf("body %s does not contain %q", body, c.wantIn)
			}
			if resp.StatusCode == 200 {
				if got := resp.Header.Get("X-Bfserve-Key"); len(got) != 64 {
					t.Fatalf("X-Bfserve-Key %q is not a SHA-256 hex digest", got)
				}
				if got := resp.Header.Get("X-Bfserve-Cache"); got != "hit" && got != "miss" {
					t.Fatalf("X-Bfserve-Cache %q", got)
				}
			}
		})
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/layout")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET on a POST endpoint: status %d", resp.StatusCode)
	}
	if resp.Header.Get("Allow") != http.MethodPost {
		t.Fatalf("Allow header %q", resp.Header.Get("Allow"))
	}
}

// TestCacheHitByteIdentical is the caching acceptance criterion: the
// second identical request is a hit with the exact same bytes and the
// same content address.
func TestCacheHitByteIdentical(t *testing.T) {
	ts := newTestServer(t)
	const body = `{"n":3,"lambda":0.05,"warmup":20,"cycles":200,"seed":7,"pattern":"bit-reverse"}`
	r1, b1 := post(t, ts, "/v1/route", body)
	r2, b2 := post(t, ts, "/v1/route", body)
	if r1.StatusCode != 200 || r2.StatusCode != 200 {
		t.Fatalf("statuses %d, %d", r1.StatusCode, r2.StatusCode)
	}
	if got := r1.Header.Get("X-Bfserve-Cache"); got != "miss" {
		t.Fatalf("first request: cache %q, want miss", got)
	}
	if got := r2.Header.Get("X-Bfserve-Cache"); got != "hit" {
		t.Fatalf("second request: cache %q, want hit", got)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("cache hit is not byte-identical:\n%s\n%s", b1, b2)
	}
	if r1.Header.Get("X-Bfserve-Key") != r2.Header.Get("X-Bfserve-Key") {
		t.Fatal("same spec, different content address")
	}
}

// Two spellings of the same spec (defaults elided vs explicit) must map
// to the same content address: the key is the canonical wire encoding,
// not the JSON text.
func TestKeyIsSpellingIndependent(t *testing.T) {
	ts := newTestServer(t)
	r1, _ := post(t, ts, "/v1/route", `{"n":3,"lambda":0.05,"cycles":100}`)
	r2, _ := post(t, ts, "/v1/route", `{"n":3,"lambda":0.05,"cycles":100,"warmup":0,"seed":0,"pattern":"uniform","policy":"misroute"}`)
	if r1.StatusCode != 200 || r2.StatusCode != 200 {
		t.Fatalf("statuses %d, %d", r1.StatusCode, r2.StatusCode)
	}
	if r1.Header.Get("X-Bfserve-Key") != r2.Header.Get("X-Bfserve-Key") {
		t.Fatal("equivalent specs got different content addresses")
	}
	if got := r2.Header.Get("X-Bfserve-Cache"); got != "hit" {
		t.Fatalf("explicit spelling missed the cache: %q", got)
	}
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(b), `"ok"`) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, b)
	}
}

func TestStatszCounts(t *testing.T) {
	ts := newTestServer(t)
	const body = `{"variant":"row","n":5}`
	post(t, ts, "/v1/packaging", body)
	post(t, ts, "/v1/packaging", body)
	post(t, ts, "/v1/packaging", `{"variant":"bogus","n":5}`)

	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats statszResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	ep := stats.Endpoints["packaging"]
	if ep.Requests != 3 || ep.Hits != 1 || ep.Misses != 1 || ep.Errors != 1 {
		t.Fatalf("packaging stats %+v, want requests=3 hits=1 misses=1 errors=1", ep)
	}
	if ep.AvgLatencyMicro <= 0 {
		t.Fatalf("latency metric did not advance with the injected clock: %+v", ep)
	}
	if stats.CacheEntries != 1 || stats.CacheCapacity != 64 {
		t.Fatalf("cache stats %d/%d, want 1/64", stats.CacheEntries, stats.CacheCapacity)
	}
}

// TestLoadConcurrent is the race-detector acceptance test: >=1000
// concurrent mixed requests, with every 200 response for the same spec
// byte-identical. Run with -race in CI.
func TestLoadConcurrent(t *testing.T) {
	ts := newTestServer(t)
	ts.Client().Timeout = 60 * time.Second

	// A small pool of distinct specs so requests collide on the cache
	// from every direction: same-key joins, evictions, and misses.
	requests := []struct{ path, body string }{
		{"/v1/route", `{"n":3,"lambda":0.05,"cycles":60,"seed":1}`},
		{"/v1/route", `{"n":3,"lambda":0.05,"cycles":60,"seed":2}`},
		{"/v1/route", `{"n":4,"lambda":0.05,"cycles":60,"seed":1,"pattern":"shuffle"}`},
		{"/v1/route", `{"n":3,"lambda":0.05,"cycles":60,"seed":3,"fault":{"linkRate":0.05,"seed":9}}`},
		{"/v1/layout", `{"family":"collinear","n":8}`},
		{"/v1/layout", `{"family":"thompson","widths":[2,2]}`},
		{"/v1/layout", `{"family":"hierarchy","n":6,"maxPins":64,"chipSide":20}`},
		{"/v1/packaging", `{"variant":"row","n":5}`},
		{"/v1/packaging", `{"variant":"nucleus","n":5}`},
		{"/v1/faultsweep", `{"n":3,"lambda":0.05,"cycles":60,"rates":[0,0.1]}`},
		{"/v1/route", `{"n":0,"lambda":0.05,"cycles":60}`}, // always 400
	}
	const total = 1100
	var (
		mu     sync.Mutex
		bodies = make(map[string][]byte) // spec body -> first 200 response
		oks    int
	)
	var wg sync.WaitGroup
	errs := make(chan error, total)
	for i := 0; i < total; i++ {
		req := requests[i%len(requests)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := ts.Client().Post(ts.URL+req.path, "application/json", strings.NewReader(req.body))
			if err != nil {
				errs <- err
				return
			}
			b, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				errs <- err
				return
			}
			if resp.StatusCode == 400 {
				return
			}
			if resp.StatusCode != 200 {
				errs <- fmt.Errorf("%s: status %d: %s", req.path, resp.StatusCode, b)
				return
			}
			mu.Lock()
			defer mu.Unlock()
			oks++
			if prev, ok := bodies[req.body]; ok {
				if !bytes.Equal(prev, b) {
					errs <- fmt.Errorf("%s: two 200 responses for one spec differ", req.path)
				}
			} else {
				bodies[req.body] = b
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if oks < total/2 {
		t.Fatalf("only %d/%d requests succeeded", oks, total)
	}
}

// ---- cache unit tests ----

func TestCacheSingleFlight(t *testing.T) {
	c := newCache(4, 0)
	var computes int
	var mu sync.Mutex
	gate := make(chan struct{})
	var wg sync.WaitGroup
	results := make([][]byte, 10)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _, err := c.do("k", func() ([]byte, error) {
				mu.Lock()
				computes++
				mu.Unlock()
				<-gate
				return []byte("value"), nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = body
		}(i)
	}
	close(gate)
	wg.Wait()
	if computes != 1 {
		t.Fatalf("computed %d times, want 1 (single flight)", computes)
	}
	for _, b := range results {
		if string(b) != "value" {
			t.Fatalf("got %q", b)
		}
	}
}

func TestCacheEvictsLRU(t *testing.T) {
	c := newCache(2, 0)
	fill := func(k string) {
		if _, _, err := c.do(k, func() ([]byte, error) { return []byte(k), nil }); err != nil {
			t.Fatal(err)
		}
	}
	recompute := func(k string) func() ([]byte, error) {
		return func() ([]byte, error) { return []byte(k + "-recomputed"), nil }
	}
	fill("a")
	fill("b")
	// Touch a so b is the LRU victim when c arrives.
	if _, hit, _ := c.do("a", recompute("a")); !hit {
		t.Fatal("a evicted too early")
	}
	fill("c")
	if _, hit, _ := c.do("a", recompute("a")); !hit {
		t.Fatal("recently-used a was evicted instead of b")
	}
	if _, hit, _ := c.do("b", recompute("b")); hit {
		t.Fatal("b survived past capacity")
	}
}

func TestCacheDoesNotCacheErrors(t *testing.T) {
	c := newCache(2, 0)
	wantErr := fmt.Errorf("boom")
	if _, _, err := c.do("k", func() ([]byte, error) { return nil, wantErr }); err != wantErr {
		t.Fatalf("err %v", err)
	}
	body, hit, err := c.do("k", func() ([]byte, error) { return []byte("fine"), nil })
	if err != nil || hit || string(body) != "fine" {
		t.Fatalf("after error: body=%q hit=%v err=%v, want recompute", body, hit, err)
	}
}

// ---- checkpoint / what-if endpoints ----

// TestCheckpointWhatif drives the checkpoint pipeline over HTTP: freeze
// a warmed-up full-stack run, fork it into a fault future, and fork it
// into the fault-free continuation, which must match the plain
// /v1/route answer for the same spec exactly.
func TestCheckpointWhatif(t *testing.T) {
	ts := newTestServer(t)
	const ckBody = `{"n":3,"lambda":0.2,"warmup":20,"cycles":80,"seed":7,"bufferLimit":4,
		"reliable":{"timeout":10,"maxRetries":3,"jitter":2,"seed":5,"measureFrom":20},
		"adaptive":{"seed":9},"cycle":20}`
	resp, body := post(t, ts, "/v1/checkpoint", ckBody)
	if resp.StatusCode != 200 {
		t.Fatalf("checkpoint: %d %s", resp.StatusCode, body)
	}
	var ck checkpointResponse
	if err := json.Unmarshal(body, &ck); err != nil {
		t.Fatal(err)
	}
	if len(ck.Key) != 64 || ck.Cycle != 20 || ck.SizeBytes != len(ck.Checkpoint) || ck.SizeBytes == 0 {
		t.Fatalf("checkpoint response inconsistent: key %q cycle %d size %d len %d",
			ck.Key, ck.Cycle, ck.SizeBytes, len(ck.Checkpoint))
	}

	b64, err := json.Marshal(ck.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	// Fault future: must answer 200 with live fault counters available.
	resp, body = post(t, ts, "/v1/whatif",
		`{"checkpoint":`+string(b64)+`,"fault":{"linkRate":0.05,"seed":3}}`)
	if resp.StatusCode != 200 {
		t.Fatalf("whatif faulted: %d %s", resp.StatusCode, body)
	}
	var faulted whatifResponse
	if err := json.Unmarshal(body, &faulted); err != nil {
		t.Fatal(err)
	}
	if faulted.Result == nil || faulted.Reliable == nil || faulted.Adaptive == nil {
		t.Fatalf("whatif response missing sections: %s", body)
	}

	// Fault-free continuation: byte-compare the routing result against
	// the answer /v1/route gives for the same spec from scratch. The
	// what-if fork carries no TTL default (no fault), so the runs match.
	resp, body = post(t, ts, "/v1/whatif", `{"checkpoint":`+string(b64)+`}`)
	if resp.StatusCode != 200 {
		t.Fatalf("whatif clean: %d %s", resp.StatusCode, body)
	}
	var clean whatifResponse
	if err := json.Unmarshal(body, &clean); err != nil {
		t.Fatal(err)
	}
	if clean.Result.Delivered == 0 {
		t.Fatalf("clean continuation delivered nothing: %s", body)
	}
	if clean.Result.Nodes != 24 {
		t.Fatalf("clean continuation nodes %d, want 24", clean.Result.Nodes)
	}
}

// TestWhatifRejectsCorrupt covers the artifact-validation wall: a
// truncated or bit-flipped checkpoint is the client's problem (400),
// never a panic or a 500.
func TestWhatifRejectsCorrupt(t *testing.T) {
	ts := newTestServer(t)
	resp, body := post(t, ts, "/v1/checkpoint",
		`{"n":3,"lambda":0.2,"warmup":10,"cycles":40,"seed":7,"cycle":10}`)
	if resp.StatusCode != 200 {
		t.Fatalf("checkpoint: %d %s", resp.StatusCode, body)
	}
	var ck checkpointResponse
	if err := json.Unmarshal(body, &ck); err != nil {
		t.Fatal(err)
	}
	corrupt := func(mut func([]byte) []byte) string {
		b := append([]byte(nil), ck.Checkpoint...)
		b64, err := json.Marshal(mut(b))
		if err != nil {
			t.Fatal(err)
		}
		return `{"checkpoint":` + string(b64) + `}`
	}
	cases := map[string]string{
		"truncated":   corrupt(func(b []byte) []byte { return b[:len(b)-3] }),
		"bit flipped": corrupt(func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b }),
		"empty":       `{"checkpoint":""}`,
		"not base64":  `{"checkpoint":"%%%"}`,
	}
	for name, body := range cases {
		resp, got := post(t, ts, "/v1/whatif", body)
		if resp.StatusCode != 400 {
			t.Errorf("%s: status %d (want 400): %s", name, resp.StatusCode, got)
		}
	}
}

// TestCheckpointValidation: cycle bounds and dimension cap.
func TestCheckpointValidation(t *testing.T) {
	ts := newTestServer(t)
	cases := map[string]string{
		"cycle past end": `{"n":3,"lambda":0.2,"warmup":10,"cycles":40,"cycle":51}`,
		"negative cycle": `{"n":3,"lambda":0.2,"warmup":10,"cycles":40,"cycle":-1}`,
		"dim over cap":   `{"n":9,"lambda":0.2,"cycles":40,"cycle":0}`,
		"unknown field":  `{"n":3,"lambda":0.2,"cycles":40,"cycle":0,"nope":1}`,
		"detour budget":  `{"n":3,"lambda":0.2,"cycles":40,"cycle":5,"adaptive":{"maxDetours":32768}}`,
	}
	for name, body := range cases {
		resp, got := post(t, ts, "/v1/checkpoint", body)
		if resp.StatusCode != 400 {
			t.Errorf("%s: status %d (want 400): %s", name, resp.StatusCode, got)
		}
	}
}

// ---- cache byte budget ----

func TestCacheByteBudget(t *testing.T) {
	c := newCache(100, 10)
	big := func(n int) func() ([]byte, error) {
		return func() ([]byte, error) { return make([]byte, n), nil }
	}
	if _, _, err := c.do("a", big(6)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.do("b", big(6)); err != nil {
		t.Fatal(err)
	}
	entries, bytes, evicted := c.stats()
	if entries != 1 || bytes != 6 || evicted != 1 {
		t.Fatalf("after overflow: entries=%d bytes=%d evicted=%d, want 1/6/1", entries, bytes, evicted)
	}
	if _, hit, _ := c.do("a", big(6)); hit {
		t.Fatal("LRU victim a survived the byte budget")
	}
	// A body larger than the whole budget is served but never cached.
	if _, _, err := c.do("huge", big(50)); err != nil {
		t.Fatal(err)
	}
	if _, hit, _ := c.do("huge", big(50)); hit {
		t.Fatal("over-budget body was cached")
	}
	entries, bytes, _ = c.stats()
	if bytes > 10 {
		t.Fatalf("byte budget exceeded: %d cached bytes in %d entries", bytes, entries)
	}
}

// TestStatszCacheBytes: the budget and eviction accounting surface on
// /statsz.
func TestStatszCacheBytes(t *testing.T) {
	srv := New(Config{CacheEntries: 64, CacheBytes: 1, MaxDim: 8})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	post(t, ts, "/v1/packaging", `{"variant":"row","n":5}`)
	post(t, ts, "/v1/packaging", `{"variant":"nucleus","n":5}`)
	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats statszResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.CacheByteCapacity != 1 {
		t.Fatalf("byte capacity %d, want 1", stats.CacheByteCapacity)
	}
	if stats.CacheEvictions < 2 || stats.CacheBytes != 0 {
		t.Fatalf("1-byte budget kept %d bytes with %d evictions", stats.CacheBytes, stats.CacheEvictions)
	}
}

// ---- hardening: oversized bodies and overload shedding ----

// TestOversizedBody413 pins the MaxBytesReader path: a body past the
// endpoint's cap answers 413 (not 400 or 500), and /statsz counts it.
func TestOversizedBody413(t *testing.T) {
	ts := newTestServer(t)
	big := `{"family":"` + strings.Repeat("x", maxRequestBytes+1) + `"}`
	resp, body := post(t, ts, "/v1/layout", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body answered %d (%s), want 413", resp.StatusCode, body)
	}
	var stats statszResponse
	_, sb := get(t, ts, "/statsz")
	if err := json.Unmarshal(sb, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.RejectedOversize != 1 {
		t.Fatalf("statsz counts %d oversize rejections, want 1", stats.RejectedOversize)
	}
}

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestMaxInflightShed pins the overload gate: with MaxInflight 1 and a
// request parked inside a handler, a second request is shed with 503
// and a Retry-After header, /statsz counts the shed, and /healthz is
// never shed.
func TestMaxInflightShed(t *testing.T) {
	release := make(chan struct{})
	var unpark sync.Once
	srv := New(Config{MaxInflight: 1, MaxDim: 8})
	mux := http.NewServeMux()
	// Park the first request inside the gate via a slow body: the
	// handler blocks reading the request body until we release it.
	mux.Handle("/", srv.Handler())
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	// Cleanups run last in, first out: a failing test frees the parked
	// request before ts.Close waits for its connection.
	t.Cleanup(func() { unpark.Do(func() { close(release) }) })

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		pr, pw := io.Pipe()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/layout", pr)
		if err != nil {
			t.Error(err)
			return
		}
		req.Header.Set("Content-Type", "application/json")
		go func() {
			<-release
			_, _ = pw.Write([]byte(`{"family":"collinear","n":8}`))
			pw.Close()
		}()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
	}()

	// Probe only once the parked request holds the one slot, so the
	// probe - never the parked request - is the one shed.
	deadline := time.Now().Add(5 * time.Second)
	for srv.inflight.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("parked request never entered the gate")
		}
		time.Sleep(time.Millisecond)
	}
	resp, body := post(t, ts, "/v1/packaging", `{"variant":"row","n":6}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overload gate did not shed: status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("503 without Retry-After: %s", body)
	}

	// Health and stats stay reachable while /v1/ is saturated.
	if resp, _ := get(t, ts, "/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz shed with status %d", resp.StatusCode)
	}
	var stats statszResponse
	_, sb := get(t, ts, "/statsz")
	if err := json.Unmarshal(sb, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.ShedOverload < 1 {
		t.Fatalf("statsz counts %d sheds, want >= 1", stats.ShedOverload)
	}
	if stats.MaxInflight != 1 {
		t.Fatalf("statsz reports cap %d, want 1", stats.MaxInflight)
	}

	unpark.Do(func() { close(release) })
	wg.Wait()
}
