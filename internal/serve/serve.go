// Package serve is the layout-and-routing query service behind
// cmd/bfserve: an HTTP/JSON front end over the repository's
// construction and simulation packages, with a content-addressed
// artifact cache.
//
// Every POST endpoint follows the same pipeline: decode the JSON
// request (unknown fields rejected), map it to the matching
// internal/wire spec, Validate, and use the SHA-256 of the spec's
// canonical wire encoding as the cache key. Because the wire encoding
// is canonical (one value, one byte string - see internal/wire), two
// requests describe the same artifact exactly when their keys match,
// and the cache can hand back the first computation's response bytes
// verbatim. Hits are therefore byte-identical, and concurrent misses
// for the same key share a single computation (single-flight).
//
// The service never reads the wall clock directly: Config.Now injects
// the clock, and the default frozen clock keeps responses a pure
// function of the request spec (the determinism contract bflint's
// detrand analyzer enforces on this package).
package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"bfvlsi/internal/adaptive"
	"bfvlsi/internal/grid"
	"bfvlsi/internal/packaging"
	"bfvlsi/internal/reliable"
	"bfvlsi/internal/routing"
	"bfvlsi/internal/snapshot"
	"bfvlsi/internal/wire"
)

// Default configuration values.
const (
	// DefaultCacheEntries is the artifact cache capacity.
	DefaultCacheEntries = 256
	// DefaultMaxDim caps the butterfly dimension a request may ask the
	// service to simulate or design (2^12 rows is ~53k nodes, the
	// largest size that answers interactively).
	DefaultMaxDim = 12
	// DefaultCacheBytes is the artifact cache's body-size budget.
	// Checkpoint responses are orders of magnitude larger than layout
	// responses, so the cache is bounded by bytes as well as entries.
	DefaultCacheBytes = 64 << 20
	// maxRequestBytes bounds a request body; real specs are well under
	// a kilobyte.
	maxRequestBytes = 1 << 20
	// maxWhatifRequestBytes bounds a /v1/whatif body, which carries a
	// whole base64 checkpoint rather than a spec.
	maxWhatifRequestBytes = 1 << 26
)

// Config parameterizes a Server.
type Config struct {
	// CacheEntries is the artifact cache capacity (0 = DefaultCacheEntries).
	CacheEntries int
	// CacheBytes bounds the total size of cached response bodies
	// (0 = DefaultCacheBytes, negative = entry bound only).
	CacheBytes int64
	// MaxDim caps the butterfly dimension of route, sweep, packaging,
	// and hierarchy requests (0 = DefaultMaxDim; never above the wire
	// format's own caps).
	MaxDim int
	// Timeout, when positive, bounds each request's total handling time
	// (http.TimeoutHandler semantics: the client gets 503 on expiry).
	Timeout time.Duration
	// MaxInflight, when positive, caps concurrently handled /v1/
	// requests: excess requests are shed immediately with 503 and a
	// Retry-After header, giving client backoff a real overload signal
	// instead of a queue that silently grows until the timeout reaps it.
	// 0 disables shedding. /healthz and /statsz are never shed.
	MaxInflight int
	// Now supplies the clock for the /statsz latency metrics. Leaving
	// it nil freezes the clock: the service stays deterministic and the
	// latency metrics read zero.
	Now func() time.Time
}

// Server answers layout, packaging, routing, and fault-sweep queries
// over HTTP, caching every constructed artifact by content address.
type Server struct {
	cfg   Config
	cache *cache
	stats map[string]*endpointStats
	// inflight tracks concurrently handled /v1/ requests for the
	// MaxInflight overload gate; shed and oversize count the two
	// hardening rejections (503 overload, 413 oversized body).
	inflight atomic.Int64
	shed     atomic.Int64
	oversize atomic.Int64
}

// endpointNames fixes the metric iteration order; /statsz reports
// endpoints in this (sorted) order.
var endpointNames = []string{"checkpoint", "faultsweep", "layout", "packaging", "route", "whatif"}

// endpointStats is one endpoint's atomic counter set.
type endpointStats struct {
	requests     atomic.Int64
	hits         atomic.Int64
	misses       atomic.Int64
	errors       atomic.Int64
	latencyMicro atomic.Int64
}

// New builds a Server from the config, applying defaults.
func New(cfg Config) *Server {
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = DefaultCacheEntries
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = DefaultCacheBytes
	}
	if cfg.MaxDim <= 0 {
		cfg.MaxDim = DefaultMaxDim
	}
	if cfg.Now == nil {
		frozen := time.Time{}
		cfg.Now = func() time.Time { return frozen }
	}
	s := &Server{
		cfg:   cfg,
		cache: newCache(cfg.CacheEntries, cfg.CacheBytes),
		stats: make(map[string]*endpointStats, len(endpointNames)),
	}
	for _, name := range endpointNames {
		s.stats[name] = &endpointStats{}
	}
	return s
}

// Handler returns the service's HTTP handler, with the configured
// request timeout applied.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/statsz", s.handleStatsz)
	mux.HandleFunc("/v1/layout", s.endpoint("layout", s.parseLayout))
	mux.HandleFunc("/v1/packaging", s.endpoint("packaging", s.parsePackaging))
	mux.HandleFunc("/v1/route", s.endpoint("route", s.parseRoute))
	mux.HandleFunc("/v1/faultsweep", s.endpoint("faultsweep", s.parseFaultSweep))
	mux.HandleFunc("/v1/checkpoint", s.endpoint("checkpoint", s.parseCheckpoint))
	mux.HandleFunc("/v1/whatif", s.endpointLimit("whatif", maxWhatifRequestBytes, s.parseWhatif))
	if s.cfg.Timeout > 0 {
		return http.TimeoutHandler(mux, s.cfg.Timeout, `{"error":"request timed out"}`)
	}
	return mux
}

// spec is what every parser produces: a validated, canonically
// encodable request plus the computation that builds its response.
type spec struct {
	// encoded is the canonical wire encoding; its SHA-256 is the cache key.
	encoded []byte
	// compute builds the response value; it runs at most once per key.
	compute func() (any, error)
}

// errBadRequest wraps client errors (malformed JSON, invalid specs) so
// the endpoint wrapper maps them to 400 rather than 500.
var errBadRequest = errors.New("bad request")

func badRequest(err error) error {
	return fmt.Errorf("%w: %w", errBadRequest, err)
}

// endpoint wraps one POST endpoint with the shared pipeline: metrics,
// method and body-size checks, parse, content-address, cache, respond.
func (s *Server) endpoint(name string, parse func(*http.Request) (*spec, error)) http.HandlerFunc {
	return s.endpointLimit(name, maxRequestBytes, parse)
}

// endpointLimit is endpoint with an explicit request body cap, for the
// endpoints whose requests carry artifacts rather than specs.
func (s *Server) endpointLimit(name string, limit int64, parse func(*http.Request) (*spec, error)) http.HandlerFunc {
	st := s.stats[name]
	return func(w http.ResponseWriter, r *http.Request) {
		st.requests.Add(1)
		start := s.cfg.Now()
		defer func() {
			st.latencyMicro.Add(s.cfg.Now().Sub(start).Microseconds())
		}()
		if r.Method != http.MethodPost {
			st.errors.Add(1)
			w.Header().Set("Allow", http.MethodPost)
			writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
			return
		}
		// Overload gate: shed beyond-capacity requests before any work,
		// with Retry-After so a well-behaved coordinator backs off
		// instead of hammering a server that is already saturated.
		n := s.inflight.Add(1)
		defer s.inflight.Add(-1)
		if max := s.cfg.MaxInflight; max > 0 && n > int64(max) {
			s.shed.Add(1)
			st.errors.Add(1)
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable,
				fmt.Errorf("server at its in-flight cap (%d); retry after backoff", max))
			return
		}
		r.Body = http.MaxBytesReader(w, r.Body, limit)
		sp, err := parse(r)
		if err != nil {
			st.errors.Add(1)
			status := http.StatusInternalServerError
			var mbe *http.MaxBytesError
			switch {
			case errors.As(err, &mbe):
				// MaxBytesReader tripped: the body exceeds this
				// endpoint's cap, which is the client's problem and has
				// its own status code.
				s.oversize.Add(1)
				status = http.StatusRequestEntityTooLarge
			case errors.Is(err, errBadRequest):
				status = http.StatusBadRequest
			}
			writeError(w, status, err)
			return
		}
		sum := sha256.Sum256(sp.encoded)
		key := hex.EncodeToString(sum[:])
		body, hit, err := s.cache.do(key, func() ([]byte, error) {
			v, err := sp.compute()
			if err != nil {
				return nil, err
			}
			return json.Marshal(v)
		})
		if err != nil {
			st.errors.Add(1)
			status := http.StatusInternalServerError
			if errors.Is(err, errBadRequest) {
				// Compute-time client errors: e.g. a structurally sound
				// checkpoint that fails semantic validation on restore.
				status = http.StatusBadRequest
			}
			writeError(w, status, err)
			return
		}
		if hit {
			st.hits.Add(1)
			w.Header().Set("X-Bfserve-Cache", "hit")
		} else {
			st.misses.Add(1)
			w.Header().Set("X-Bfserve-Cache", "miss")
		}
		w.Header().Set("X-Bfserve-Key", key)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(body)
	}
}

func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// decodeJSON strictly decodes one JSON object from the request body.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest(err)
	}
	if dec.More() {
		return badRequest(fmt.Errorf("trailing data after the JSON request"))
	}
	return nil
}

// checkDim applies the service-level butterfly dimension cap on top of
// the wire format's own bounds.
func (s *Server) checkDim(n int) error {
	if n > s.cfg.MaxDim {
		return badRequest(fmt.Errorf("dimension %d exceeds this server's cap %d", n, s.cfg.MaxDim))
	}
	return nil
}

// finishSpec validates and canonically encodes a wire spec.
func finishSpec(v interface {
	Validate() error
	MarshalBinary() ([]byte, error)
}, compute func() (any, error)) (*spec, error) {
	if err := v.Validate(); err != nil {
		return nil, badRequest(err)
	}
	encoded, err := v.MarshalBinary()
	if err != nil {
		return nil, badRequest(err)
	}
	return &spec{encoded: encoded, compute: compute}, nil
}

// ---- /v1/layout ----

type layoutRequest struct {
	Family         string `json:"family"`
	N              int    `json:"n,omitempty"`
	Widths         []int  `json:"widths,omitempty"`
	Layers         int    `json:"layers,omitempty"`
	Multilayer     bool   `json:"multilayer,omitempty"`
	NodeSide       int    `json:"nodeSide,omitempty"`
	NoTrackReorder bool   `json:"noTrackReorder,omitempty"`
	SliceLayers    int    `json:"sliceLayers,omitempty"`
	MaxPins        int    `json:"maxPins,omitempty"`
	ChipSide       int    `json:"chipSide,omitempty"`
}

type layoutResponse struct {
	Family string           `json:"family"`
	Stats  grid.Stats       `json:"stats"`
	Extras map[string]int64 `json:"extras"`
}

func (s *Server) parseLayout(r *http.Request) (*spec, error) {
	var req layoutRequest
	if err := decodeJSON(r, &req); err != nil {
		return nil, err
	}
	family, err := wire.ParseFamily(req.Family)
	if err != nil {
		return nil, badRequest(err)
	}
	ws := &wire.LayoutSpec{
		Family: family, N: req.N, Widths: req.Widths,
		Layers: req.Layers, Multilayer: req.Multilayer,
		NodeSide: req.NodeSide, NoTrackReorder: req.NoTrackReorder,
		SliceLayers: req.SliceLayers, MaxPins: req.MaxPins, ChipSide: req.ChipSide,
	}
	// The butterfly families answer in time exponential in the
	// dimension; collinear's N is a complete-graph size with its own
	// polynomial cap inside wire.
	dim := 0
	switch family {
	case wire.FamilyHierarchy:
		dim = req.N
	case wire.FamilyThompson, wire.FamilyStack3D:
		for _, w := range req.Widths {
			dim += w
		}
	}
	if err := s.checkDim(dim); err != nil {
		return nil, err
	}
	return finishSpec(ws, func() (any, error) {
		res, err := ws.Build()
		if err != nil {
			return nil, err
		}
		extras := make(map[string]int64, len(res.Extras))
		for _, x := range res.Extras {
			extras[x.Name] = x.Value
		}
		return layoutResponse{Family: res.Family.String(), Stats: res.Stats, Extras: extras}, nil
	})
}

// ---- /v1/packaging ----

type packagingRequest struct {
	Variant       string `json:"variant"`
	N             int    `json:"n"`
	RowsPerModule int    `json:"rowsPerModule,omitempty"`
}

type packagingResponse struct {
	Variant    string          `json:"variant"`
	Desc       string          `json:"desc"`
	NumModules int             `json:"numModules"`
	Stats      packaging.Stats `json:"stats"`
}

func (s *Server) parsePackaging(r *http.Request) (*spec, error) {
	var req packagingRequest
	if err := decodeJSON(r, &req); err != nil {
		return nil, err
	}
	variant, err := wire.ParseVariant(req.Variant)
	if err != nil {
		return nil, badRequest(err)
	}
	if err := s.checkDim(req.N); err != nil {
		return nil, err
	}
	ws := &wire.PackagingSpec{N: req.N, Variant: variant, RowsPerModule: req.RowsPerModule}
	return finishSpec(ws, func() (any, error) {
		plan, err := ws.Build()
		if err != nil {
			return nil, err
		}
		return packagingResponse{
			Variant:    variant.String(),
			Desc:       plan.Desc,
			NumModules: plan.NumModules,
			Stats:      plan.Stats,
		}, nil
	})
}

// ---- /v1/route ----

type faultRequest struct {
	LinkRate         float64             `json:"linkRate,omitempty"`
	NodeRate         float64             `json:"nodeRate,omitempty"`
	Seed             int64               `json:"seed,omitempty"`
	TransientCount   int                 `json:"transientCount,omitempty"`
	TransientHorizon int                 `json:"transientHorizon,omitempty"`
	TransientRepair  int                 `json:"transientRepair,omitempty"`
	Events           []faultEventRequest `json:"events,omitempty"`
}

type faultEventRequest struct {
	Node        int `json:"node"`
	Out         int `json:"out"`
	Start       int `json:"start"`
	RepairAfter int `json:"repairAfter,omitempty"`
}

type routeRequest struct {
	N           int           `json:"n"`
	Lambda      float64       `json:"lambda"`
	Warmup      int           `json:"warmup,omitempty"`
	Cycles      int           `json:"cycles"`
	Seed        int64         `json:"seed,omitempty"`
	BufferLimit int           `json:"bufferLimit,omitempty"`
	TTL         int           `json:"ttl,omitempty"`
	Pattern     string        `json:"pattern,omitempty"`
	Policy      string        `json:"policy,omitempty"`
	Fault       *faultRequest `json:"fault,omitempty"`
}

// parseRouting parses a request's traffic pattern and dead-link policy;
// an empty field selects uniform traffic and misrouting.
func parseRouting(pattern, policy string) (routing.Pattern, routing.Policy, error) {
	pat, pol := routing.Uniform, routing.Misroute
	var err error
	if pattern != "" {
		if pat, err = routing.ParsePattern(pattern); err != nil {
			return 0, 0, err
		}
	}
	if policy != "" {
		if pol, err = routing.ParsePolicy(policy); err != nil {
			return 0, 0, err
		}
	}
	return pat, pol, nil
}

func (f *faultRequest) toWire(n int) *wire.FaultSpec {
	fs := &wire.FaultSpec{
		N: n, LinkRate: f.LinkRate, NodeRate: f.NodeRate, Seed: f.Seed,
		TransientCount: f.TransientCount, TransientHorizon: f.TransientHorizon,
		TransientRepair: f.TransientRepair,
	}
	for _, ev := range f.Events {
		fs.Events = append(fs.Events, wire.FaultEvent{
			Node: ev.Node, Out: ev.Out, Start: ev.Start, RepairAfter: ev.RepairAfter,
		})
	}
	return fs
}

func (s *Server) parseRoute(r *http.Request) (*spec, error) {
	var req routeRequest
	if err := decodeJSON(r, &req); err != nil {
		return nil, err
	}
	pattern, policy, err := parseRouting(req.Pattern, req.Policy)
	if err != nil {
		return nil, badRequest(err)
	}
	if err := s.checkDim(req.N); err != nil {
		return nil, err
	}
	ws := &wire.RouteSpec{
		N: req.N, Lambda: req.Lambda, Warmup: req.Warmup, Cycles: req.Cycles,
		Seed: req.Seed, BufferLimit: req.BufferLimit, TTL: req.TTL,
		Pattern: pattern, Policy: policy,
	}
	if req.Fault != nil {
		ws.Fault = req.Fault.toWire(req.N)
	}
	return finishSpec(ws, func() (any, error) {
		return ws.Run()
	})
}

// ---- /v1/faultsweep ----

type faultSweepRequest struct {
	N           int       `json:"n"`
	Lambda      float64   `json:"lambda"`
	Warmup      int       `json:"warmup,omitempty"`
	Cycles      int       `json:"cycles"`
	Seed        int64     `json:"seed,omitempty"`
	BufferLimit int       `json:"bufferLimit,omitempty"`
	TTL         int       `json:"ttl,omitempty"`
	Rates       []float64 `json:"rates"`
}

type faultSweepResponse struct {
	Points []faultSweepPoint `json:"points"`
}

type faultSweepPoint struct {
	Rate      float64         `json:"rate"`
	DeadLinks int             `json:"deadLinks"`
	Result    *routing.Result `json:"result"`
}

func (s *Server) parseFaultSweep(r *http.Request) (*spec, error) {
	var req faultSweepRequest
	if err := decodeJSON(r, &req); err != nil {
		return nil, err
	}
	if err := s.checkDim(req.N); err != nil {
		return nil, err
	}
	ws := &wire.SweepSpec{
		N: req.N, Lambda: req.Lambda, Warmup: req.Warmup, Cycles: req.Cycles,
		Seed: req.Seed, BufferLimit: req.BufferLimit, TTL: req.TTL, Rates: req.Rates,
	}
	return finishSpec(ws, func() (any, error) {
		pts, err := ws.Run()
		if err != nil {
			return nil, err
		}
		resp := faultSweepResponse{Points: make([]faultSweepPoint, 0, len(pts))}
		for _, pt := range pts {
			if pt.Err != nil {
				return nil, fmt.Errorf("sweep rate %g: %w", pt.Rate, pt.Err)
			}
			resp.Points = append(resp.Points, faultSweepPoint{
				Rate: pt.Rate, DeadLinks: pt.DeadLinks, Result: pt.Result,
			})
		}
		return resp, nil
	})
}

// ---- /v1/checkpoint ----

type reliableRequest struct {
	Timeout     int   `json:"timeout"`
	MaxRetries  int   `json:"maxRetries,omitempty"`
	Jitter      int   `json:"jitter,omitempty"`
	MaxTimeout  int   `json:"maxTimeout,omitempty"`
	Seed        int64 `json:"seed,omitempty"`
	MeasureFrom int   `json:"measureFrom,omitempty"`
}

type adaptiveRequest struct {
	Threshold     int   `json:"threshold,omitempty"`
	ProbeInterval int   `json:"probeInterval,omitempty"`
	MaxDetours    int   `json:"maxDetours,omitempty"`
	Epoch         int   `json:"epoch,omitempty"`
	Seed          int64 `json:"seed,omitempty"`
}

// checkpointRequest is a routeRequest plus the optional hook recipes
// and the cycle boundary at which to freeze the run.
type checkpointRequest struct {
	routeRequest
	Reliable *reliableRequest `json:"reliable,omitempty"`
	Adaptive *adaptiveRequest `json:"adaptive,omitempty"`
	Cycle    int              `json:"cycle"`
}

type checkpointResponse struct {
	// Key is the checkpoint's content address (SHA-256 of its canonical
	// encoding); Checkpoint is the encoding itself (base64 in JSON),
	// ready to feed back to /v1/whatif.
	Key        string `json:"key"`
	Cycle      int    `json:"cycle"`
	SizeBytes  int    `json:"sizeBytes"`
	Checkpoint []byte `json:"checkpoint"`
}

// snapshotSpec assembles the internal/snapshot spec a checkpoint
// request describes.
func (req *checkpointRequest) snapshotSpec() (snapshot.Spec, error) {
	pattern, policy, err := parseRouting(req.Pattern, req.Policy)
	if err != nil {
		return snapshot.Spec{}, err
	}
	sp := snapshot.Spec{Route: wire.RouteSpec{
		N: req.N, Lambda: req.Lambda, Warmup: req.Warmup, Cycles: req.Cycles,
		Seed: req.Seed, BufferLimit: req.BufferLimit, TTL: req.TTL,
		Pattern: pattern, Policy: policy,
	}}
	if req.Fault != nil {
		sp.Route.Fault = req.Fault.toWire(req.N)
	}
	if req.Reliable != nil {
		sp.Reliable = &snapshot.ReliableSpec{
			Timeout: req.Reliable.Timeout, MaxRetries: req.Reliable.MaxRetries,
			Jitter: req.Reliable.Jitter, MaxTimeout: req.Reliable.MaxTimeout,
			Seed: req.Reliable.Seed, MeasureFrom: req.Reliable.MeasureFrom,
		}
	}
	if req.Adaptive != nil {
		sp.Adaptive = &snapshot.AdaptiveSpec{
			Threshold: req.Adaptive.Threshold, ProbeInterval: req.Adaptive.ProbeInterval,
			MaxDetours: req.Adaptive.MaxDetours, Epoch: req.Adaptive.Epoch,
			Seed: req.Adaptive.Seed,
		}
	}
	return sp, nil
}

func (s *Server) parseCheckpoint(r *http.Request) (*spec, error) {
	var req checkpointRequest
	if err := decodeJSON(r, &req); err != nil {
		return nil, err
	}
	if err := s.checkDim(req.N); err != nil {
		return nil, err
	}
	sp, err := req.snapshotSpec()
	if err != nil {
		return nil, badRequest(err)
	}
	if err := sp.Validate(); err != nil {
		return nil, badRequest(err)
	}
	if total := sp.Route.Warmup + sp.Route.Cycles; req.Cycle < 0 || req.Cycle > total {
		return nil, badRequest(fmt.Errorf("cycle %d outside [0,%d]", req.Cycle, total))
	}
	sb, err := sp.MarshalBinary()
	if err != nil {
		return nil, badRequest(err)
	}
	// The cache key covers spec AND cycle: the canonical spec frame with
	// the cycle appended is still one value, one byte string.
	encoded := binary.AppendUvarint(sb, uint64(req.Cycle))
	cycle := req.Cycle
	return &spec{encoded: encoded, compute: func() (any, error) {
		run, err := snapshot.Start(sp, nil)
		if err != nil {
			return nil, err
		}
		if err := run.StepTo(cycle); err != nil {
			return nil, err
		}
		b, err := run.Checkpoint().MarshalBinary()
		if err != nil {
			return nil, err
		}
		sum := sha256.Sum256(b)
		return checkpointResponse{
			Key: hex.EncodeToString(sum[:]), Cycle: cycle,
			SizeBytes: len(b), Checkpoint: b,
		}, nil
	}}, nil
}

// ---- /v1/whatif ----

// whatifRequest resumes a checkpoint under a different fault plan: the
// "what if this fault future hit a warmed-up machine" query. A null
// fault strips the plan (the fault-free continuation).
type whatifRequest struct {
	Checkpoint []byte        `json:"checkpoint"`
	Fault      *faultRequest `json:"fault,omitempty"`
}

type whatifResponse struct {
	Result   *routing.Result `json:"result"`
	Reliable *reliable.Stats `json:"reliable,omitempty"`
	Adaptive *adaptive.Stats `json:"adaptive,omitempty"`
}

func (s *Server) parseWhatif(r *http.Request) (*spec, error) {
	var req whatifRequest
	if err := decodeJSON(r, &req); err != nil {
		return nil, err
	}
	var ck snapshot.Checkpoint
	if err := ck.UnmarshalBinary(req.Checkpoint); err != nil {
		return nil, badRequest(fmt.Errorf("checkpoint: %w", err))
	}
	if err := s.checkDim(ck.Spec.Route.N); err != nil {
		return nil, err
	}
	var fault *wire.FaultSpec
	// A decoded checkpoint's bytes are its canonical encoding, so
	// checkpoint bytes + fault presence + canonical fault frame is a
	// canonical encoding of the whole what-if query.
	encoded := append([]byte(nil), req.Checkpoint...)
	if req.Fault != nil {
		fault = req.Fault.toWire(ck.Spec.Route.N)
		if err := fault.Validate(); err != nil {
			return nil, badRequest(err)
		}
		fb, err := fault.MarshalBinary()
		if err != nil {
			return nil, badRequest(err)
		}
		encoded = append(append(encoded, 1), fb...)
	} else {
		encoded = append(encoded, 0)
	}
	return &spec{encoded: encoded, compute: func() (any, error) {
		run, err := ck.Fork(fault, nil)
		if err != nil {
			// A structurally sound checkpoint can still fail semantic
			// validation (counters that break conservation, draws out of
			// range); that is the client's artifact, not a server fault.
			return nil, badRequest(err)
		}
		res, err := run.Finish()
		if err != nil {
			return nil, err
		}
		resp := whatifResponse{Result: res}
		if run.Transport != nil {
			st := run.Transport.Stats()
			resp.Reliable = &st
		}
		if run.Router != nil {
			st := run.Router.Stats()
			resp.Adaptive = &st
		}
		return resp, nil
	}}, nil
}

// ---- /healthz and /statsz ----

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write([]byte(`{"status":"ok"}` + "\n"))
}

type statszEndpoint struct {
	Requests        int64 `json:"requests"`
	Hits            int64 `json:"hits"`
	Misses          int64 `json:"misses"`
	Errors          int64 `json:"errors"`
	AvgLatencyMicro int64 `json:"avgLatencyMicros"`
}

type statszResponse struct {
	CacheEntries  int `json:"cacheEntries"`
	CacheCapacity int `json:"cacheCapacity"`
	// CacheBytes is the total size of cached response bodies;
	// CacheByteCapacity the configured budget (<= 0 means unbounded);
	// CacheEvictions counts entries dropped to satisfy either bound.
	CacheBytes        int64 `json:"cacheBytes"`
	CacheByteCapacity int64 `json:"cacheByteCapacity"`
	CacheEvictions    int64 `json:"cacheEvictions"`
	// Inflight is the instantaneous concurrent /v1/ request count and
	// MaxInflight the shedding cap (0 = unlimited); ShedOverload counts
	// 503s from the cap and RejectedOversize 413s from the body limits.
	Inflight         int64                     `json:"inflight"`
	MaxInflight      int                       `json:"maxInflight"`
	ShedOverload     int64                     `json:"shedOverload"`
	RejectedOversize int64                     `json:"rejectedOversize"`
	Endpoints        map[string]statszEndpoint `json:"endpoints"`
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	entries, cacheBytes, evicted := s.cache.stats()
	resp := statszResponse{
		CacheEntries:      entries,
		CacheCapacity:     s.cfg.CacheEntries,
		CacheBytes:        cacheBytes,
		CacheByteCapacity: s.cfg.CacheBytes,
		CacheEvictions:    evicted,
		Inflight:          s.inflight.Load(),
		MaxInflight:       s.cfg.MaxInflight,
		ShedOverload:      s.shed.Load(),
		RejectedOversize:  s.oversize.Load(),
		Endpoints:         make(map[string]statszEndpoint, len(endpointNames)),
	}
	// Iterate the fixed name list, not the stats map: encoding/json
	// sorts map keys on output, but the collection itself stays
	// order-insensitive this way.
	for _, name := range endpointNames {
		st := s.stats[name]
		ep := statszEndpoint{
			Requests: st.requests.Load(),
			Hits:     st.hits.Load(),
			Misses:   st.misses.Load(),
			Errors:   st.errors.Load(),
		}
		if ep.Requests > 0 {
			ep.AvgLatencyMicro = st.latencyMicro.Load() / ep.Requests
		}
		resp.Endpoints[name] = ep
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}
