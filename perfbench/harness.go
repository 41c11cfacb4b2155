package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"bfvlsi/internal/serve"
)

// The header bfserve reports a cache hit or miss in, and the one the
// tracer adds to requests.
const (
	cacheHeader = "X-Bfserve-Cache"
	idHeader    = "X-Perfbench-Id"
)

// session is one set-up workload, ready for its timed phase.
type session interface {
	harness() *harness
	// measure runs the timed phase until the deadline has passed and the
	// outputs the digest covers are complete.
	measure(deadline time.Time) *phase
	// verify checks the timed phase's outputs, replaying a sample of its
	// requests through the layers' public functions into lt, and returns
	// the hex SHA-256 digest of the outputs.
	verify(lt *layerTimes) (string, error)
	// hitSample returns a few of the workload's own requests, to time
	// the serve layer answering them from the cache.
	hitSample() ([]request, error)
	close()
}

// request is one bfserve POST.
type request struct {
	path string
	body []byte
}

// phase is what a timed phase did.
type phase struct {
	ops       int // operations completed: requests, or sweep points
	attempted int
	failed    int
	errs      []error // the first few failures
	elapsed   time.Duration
	// Filled from the harness when the phase ends.
	lat          []latency
	hits, misses int64
	spans        []span
	dispatch     bool // the phase ran dispatch.Run sweeps
}

func (p *phase) fail(err error) {
	p.failed++
	if len(p.errs) < 5 {
		p.errs = append(p.errs, err)
	}
}

// harness is the in-process deployment a workload runs against: bfserve
// servers on loopback and one HTTP client whose transport times every
// call.
type harness struct {
	servers   []*httptest.Server
	transport *timedTransport
	client    *http.Client
	tracer    *tracer
}

func newHarness(o *options, tr *tracer, servers int, cfg serve.Config) *harness {
	h := &harness{tracer: tr}
	for i := 0; i < servers; i++ {
		handler := serve.New(cfg).Handler()
		if o.wrap != nil {
			handler = o.wrap(handler)
		}
		if tr != nil {
			handler = tr.middleware(handler)
		}
		h.servers = append(h.servers, httptest.NewServer(handler))
	}
	h.transport = &timedTransport{base: &http.Transport{MaxIdleConnsPerHost: 8}, tracer: tr}
	h.client = &http.Client{Transport: h.transport, Timeout: 2 * time.Minute}
	return h
}

func (h *harness) urls() []string {
	var out []string
	for _, s := range h.servers {
		out = append(out, s.URL)
	}
	return out
}

func (h *harness) close() {
	h.transport.base.CloseIdleConnections()
	for _, s := range h.servers {
		s.Close()
	}
}

// begin clears what set-up left in the transport and tracer.
func (h *harness) begin() {
	h.transport.reset()
	if h.tracer != nil {
		h.tracer.reset()
	}
}

// end copies the timed phase's latencies, cache counts and spans into p.
func (h *harness) end(p *phase) {
	p.lat, p.hits, p.misses = h.transport.snapshot()
	if h.tracer != nil {
		p.spans = h.tracer.snapshot()
	}
}

// post sends one JSON request to url and returns the answer's body; any
// status but 200 is an error.
func (h *harness) post(url string, body []byte) ([]byte, error) {
	resp, err := h.client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // read to EOF; a close error changes nothing
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s answered %d: %s", url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// drive runs a closed loop of the given number of clients over a request
// stream against the first server, until the deadline has passed and at
// least minOps requests have completed. req(i) gives request i's path
// and body; handle checks its answer and must be safe for concurrent use.
func (h *harness) drive(clients, minOps int, deadline time.Time,
	req func(i int) (string, []byte), handle func(i int, answer []byte) error) *phase {
	var next atomic.Int64
	var mu sync.Mutex
	ph := &phase{}
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= minOps && !time.Now().Before(deadline) {
					return
				}
				path, body := req(i)
				answer, err := h.post(h.servers[0].URL+path, body)
				if err == nil {
					err = handle(i, answer)
				}
				if err != nil {
					mu.Lock()
					ph.fail(fmt.Errorf("request %d: %w", i, err))
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	// Each client drew exactly one index past the last completed one.
	ph.ops = int(next.Load()) - clients
	ph.attempted = ph.ops
	return ph
}

// statsz is the part of bfserve's /statsz document the checks read.
type statsz struct {
	CacheEvictions int64 `json:"cacheEvictions"`
	Endpoints      map[string]struct {
		Hits int64 `json:"hits"`
	} `json:"endpoints"`
}

// statsz fetches server i's /statsz, bypassing the timed transport.
func (h *harness) statsz(i int) (*statsz, error) {
	c := &http.Client{Transport: h.transport.base, Timeout: time.Minute}
	resp, err := c.Get(h.servers[i].URL + "/statsz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st statsz
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("/statsz: %w", err)
	}
	return &st, nil
}

// latency is one HTTP call's duration, from sending the request to
// closing the answer's body.
type latency struct {
	d      time.Duration
	traced bool
}

// timedTransport times every call it carries and counts bfserve's cache
// hits and misses. With a tracer, a hashed half of the calls carry a
// request id to the server's tracing middleware and record a client
// span; the other half stay untraced, so one traced run measures both.
type timedTransport struct {
	base   *http.Transport
	tracer *tracer
	ids    atomic.Int64
	hits   atomic.Int64
	misses atomic.Int64

	mu  sync.Mutex
	lat []latency // guarded by mu
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := t.ids.Add(1)
	traced := t.tracer != nil && mix(0, int(id))&1 == 1
	if traced {
		req = req.Clone(req.Context())
		req.Header.Set(idHeader, strconv.FormatInt(id, 10))
	}
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	switch resp.Header.Get(cacheHeader) {
	case "hit":
		t.hits.Add(1)
	case "miss":
		t.misses.Add(1)
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		end := time.Now()
		t.mu.Lock()
		t.lat = append(t.lat, latency{end.Sub(start), traced})
		t.mu.Unlock()
		if traced {
			t.tracer.add(span{Name: "client", ID: id, Start: t.tracer.since(start), End: t.tracer.since(end)})
		}
	}}
	return resp, nil
}

func (t *timedTransport) reset() {
	t.mu.Lock()
	t.lat = nil
	t.mu.Unlock()
	t.hits.Store(0)
	t.misses.Store(0)
}

func (t *timedTransport) snapshot() ([]latency, int64, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]latency(nil), t.lat...), t.hits.Load(), t.misses.Load()
}

// timedBody calls done once, when the body is closed.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// span is one timed interval at a layer boundary. The client and server
// spans of one request share its ID; replay spans number the replayed
// layer calls.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	ID     int64  `json:"id"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Cache  string `json:"cache,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out only at the end.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// middleware records a server span for every request that carries a
// request id, with the cache outcome bfserve answered with.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseInt(r.Header.Get(idHeader), 10, 64)
		if err != nil {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		t.add(span{
			Name: "serve", Parent: "client", ID: id,
			Start: t.since(start), End: t.since(time.Now()),
			Cache: w.Header().Get(cacheHeader),
		})
	})
}

// write saves every span recorded since the timed phase began.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(struct {
		Epoch time.Time `json:"epoch"`
		Spans []span    `json:"spans"`
	}{t.epoch, t.snapshot()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// mix hashes (seed, i) to 64 well-mixed bits (splitmix64), so the i-th
// draw of a stream is the same whichever client makes it.
func mix(seed int64, i int) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)*0xd1b54a32d192ed03 + 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// unit maps mix output to [0,1).
func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// median returns the middle value of xs (the mean of the middle two for
// an even count); xs is not modified.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-quantile of the latencies, in
// seconds.
func percentile(lat []latency, p float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	d := make([]float64, len(lat))
	for i, l := range lat {
		d[i] = l.d.Seconds()
	}
	sort.Float64s(d)
	k := int(p*float64(len(d))+0.999999) - 1
	return d[min(max(k, 0), len(d)-1)]
}

// peakRSSMB is the process's peak resident set size in MiB (Linux
// reports it in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / (1 << 10)
}

// machine is the record of where a run was measured.
type machine struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Revision   string `json:"revision,omitempty"`
}

func currentMachine() machine {
	m := machine{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPU: "unknown",
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
				m.CPU = strings.TrimSpace(value)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				m.Revision = s.Value + m.Revision
			case s.Key == "vcs.modified" && s.Value == "true":
				m.Revision += "+modified"
			}
		}
	}
	return m
}
