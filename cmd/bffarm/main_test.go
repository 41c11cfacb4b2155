package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"bfvlsi/internal/dispatch"
	"bfvlsi/internal/serve"
	"bfvlsi/internal/sweepfarm"
)

// newTestFlagSet builds a non-exiting flag set for table-driven parses.
func newTestFlagSet(t *testing.T) *flag.FlagSet {
	t.Helper()
	set := flag.NewFlagSet("bffarm", flag.ContinueOnError)
	set.SetOutput(&bytes.Buffer{})
	return set
}

func TestParseValidation(t *testing.T) {
	w := []string{"-workers", "http://127.0.0.1:8417"}
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"minimal", w, ""},
		{"two workers", []string{"-workers", "http://a:1, http://b:2"}, ""},
		{"full knobs", append([]string{"-lease", "10s", "-timeout", "5s", "-attempts", "6",
			"-backoff", "10ms", "-backoffcap", "1s", "-jitter", "5ms", "-hedge", "100ms",
			"-breaker", "2", "-cooldown", "1s", "-inflight", "8", "-journaldir", "x"}, w...), ""},
		{"no workers", nil, "-workers is required"},
		{"blank workers", []string{"-workers", " , "}, "-workers is required"},
		{"bad scheme", []string{"-workers", "ftp://h:1"}, "not an http(s) URL"},
		{"bad dim", append([]string{"-n", "0"}, w...), "out of range"},
		{"bad lambda", append([]string{"-lambda", "0"}, w...), "outside (0,1]"},
		{"bad rate", append([]string{"-rates", "1.5"}, w...), "outside (0,1)"},
		{"bad rates syntax", append([]string{"-rates", "a,b"}, w...), "bad value"},
		{"no points", append([]string{"-rates", "", "-control=false"}, w...), "no sweep points"},
		{"zero lease", append([]string{"-lease", "0"}, w...), "must be positive"},
		{"negative hedge", append([]string{"-hedge", "-1s"}, w...), "negative duration"},
		{"zero attempts", append([]string{"-attempts", "0"}, w...), "at least 1"},
		{"zero breaker", append([]string{"-breaker", "0"}, w...), "at least 1"},
		{"negative inflight", append([]string{"-inflight", "-2"}, w...), "is negative"},
		{"bad fork", append([]string{"-fork", "-5"}, w...), "-fork"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			set := newTestFlagSet(t)
			o := newOptions(set)
			if err := set.Parse(c.args); err != nil {
				t.Fatalf("flag parse: %v", err)
			}
			err := o.validate()
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %v does not contain %q", err, c.wantErr)
			}
		})
	}
}

// startWorker runs an in-process bfserve and returns its URL.
func startWorker(t *testing.T) string {
	t.Helper()
	var mu sync.Mutex
	now := time.Unix(0, 0)
	srv := serve.New(serve.Config{
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
	return ts.URL
}

// farmArgs is a small, fast sweep shared by the end-to-end tests.
func farmArgs(workers string) []string {
	return []string{
		"-workers", workers,
		"-n", "3", "-lambda", "0.3", "-warmup", "20", "-cycles", "60",
		"-rates", "0.02,0.05", "-faultseeds", "1,2",
		"-backoff", "1ms", "-jitter", "1ms",
	}
}

// parseFor parses argv into validated options, failing the test on any
// error.
func parseFor(t *testing.T, args []string) *options {
	t.Helper()
	set := newTestFlagSet(t)
	o := newOptions(set)
	if err := set.Parse(args); err != nil {
		t.Fatalf("flag parse: %v", err)
	}
	if err := o.validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	return o
}

// TestFarmEndToEnd drives the full command against two in-process
// workers and checks the report matches a local serial sweep over the
// identical spec — the bfsweep/bffarm agreement the docs promise.
func TestFarmEndToEnd(t *testing.T) {
	workers := startWorker(t) + "," + startWorker(t)
	o := parseFor(t, farmArgs(workers))

	var out, errBuf bytes.Buffer
	if code := run(o, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errBuf.String())
	}
	text := out.String()
	if !strings.Contains(text, "B_3 lambda=0.3000, 5 points (0 from journals)") {
		t.Fatalf("missing header:\n%s", text)
	}
	if !strings.Contains(text, "control") || !strings.Contains(text, "0.0500") {
		t.Fatalf("missing table rows:\n%s", text)
	}
	if !strings.Contains(text, "fleet: 5 queries (0 deduped)") {
		t.Fatalf("missing fleet summary:\n%s", text)
	}

	// The distributed report and the serial farm agree byte for byte.
	spec := o.grid.Spec()
	rep, err := sweepfarm.Run(spec, sweepfarm.Options{Workers: 2})
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}
	serial, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	drep, _, err := dispatch.Run(spec, o.dispatchConfig())
	if err != nil {
		t.Fatalf("dispatch run: %v", err)
	}
	distributed, err := drep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial, distributed) {
		t.Fatal("bffarm and bfsweep disagree on the report bytes")
	}
}

// TestFarmResumes checks -journaldir: a second identical invocation
// replays every point without recomputing.
func TestFarmResumes(t *testing.T) {
	workers := startWorker(t)
	args := append(farmArgs(workers), "-journaldir", t.TempDir())

	var out, errBuf bytes.Buffer
	if code := run(parseFor(t, args), &out, &errBuf); code != 0 {
		t.Fatalf("first run exit %d, stderr: %s", code, errBuf.String())
	}
	out.Reset()
	if code := run(parseFor(t, args), &out, &errBuf); code != 0 {
		t.Fatalf("second run exit %d, stderr: %s", code, errBuf.String())
	}
	if !strings.Contains(out.String(), "(5 from journals)") {
		t.Fatalf("second run did not resume:\n%s", out.String())
	}
}

// TestStatszEndpoint drives serveStats directly: the endpoint answers
// GET /statsz with a JSON snapshot that tracks the hooks, and stop()
// tears the listener down.
func TestStatszEndpoint(t *testing.T) {
	live := dispatch.NewLive()
	bound, stop, err := serveStats("127.0.0.1:0", live)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	resp, err := http.Get("http://" + bound + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /statsz = %d", resp.StatusCode)
	}
	var snap dispatch.LiveStats
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("/statsz body does not decode: %v", err)
	}
	if snap.LeasesOutstanding != 0 || snap.Breakers == nil {
		t.Errorf("fresh snapshot = %+v, want zeroed counters and a non-null breaker list", snap)
	}
}

// TestFarmStatsAddr runs the whole command with -statsaddr and checks
// the farm still completes (the endpoint rides along without changing
// the report path).
func TestFarmStatsAddr(t *testing.T) {
	workers := startWorker(t)
	args := append(farmArgs(workers), "-statsaddr", "127.0.0.1:0")
	var out, errBuf bytes.Buffer
	if code := run(parseFor(t, args), &out, &errBuf); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "/statsz") {
		t.Fatalf("stderr does not announce the stats endpoint: %q", errBuf.String())
	}
	if !strings.Contains(out.String(), "fleet: 5 queries") {
		t.Fatalf("missing fleet summary:\n%s", out.String())
	}
}

// TestFarmReportsFailure pins the failure path: an unreachable fleet
// exits 1 with a diagnostic, not 0 with an empty table.
func TestFarmReportsFailure(t *testing.T) {
	args := append(farmArgs("http://127.0.0.1:1"), "-attempts", "1", "-lease", "2s")
	var out, errBuf bytes.Buffer
	if code := run(parseFor(t, args), &out, &errBuf); code != 1 {
		t.Fatalf("exit %d against an unreachable fleet, want 1", code)
	}
	if !strings.Contains(errBuf.String(), "bffarm:") {
		t.Fatalf("no diagnostic on stderr: %q", errBuf.String())
	}
}
