package dispatch

import (
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
)

// Live is a live view of a running coordinator for a /statsz endpoint:
// cmd/bffarm creates one, hands it to the coordinator through
// Config.Live, and serves Handler while the farm runs. The final Stats
// returned by Run is the authoritative record; Live answers "what is
// the fleet doing right now" while Run is still in flight.
//
// The hot counters are typed atomics, so coordinator goroutines bump
// them without any coordinator lock and a plain access cannot be
// written; the lane table set once by Run is a //bflint:guardedby field
// behind its own mutex.
type Live struct {
	leasesOutstanding atomic.Int64 // leases granted and not yet settled
	leasesGranted     atomic.Int64
	calls             atomic.Int64
	retries           atomic.Int64
	hedges            atomic.Int64
	delivered         atomic.Int64

	mu    sync.Mutex
	lanes []*workerState //bflint:guardedby mu -- set by Run, read by Snapshot
}

// NewLive returns an empty sink ready to pass as Config.Live.
func NewLive() *Live { return &Live{} }

// LiveStats is one /statsz snapshot. Counters are monotone except
// LeasesOutstanding, which rises and falls with in-flight attempts.
type LiveStats struct {
	LeasesOutstanding int64           `json:"leases_outstanding"`
	LeasesGranted     int64           `json:"leases_granted"`
	Calls             int64           `json:"calls"`
	Retries           int64           `json:"retries"`
	Hedges            int64           `json:"hedges"`
	Delivered         int64           `json:"delivered"`
	Breakers          []BreakerStatus `json:"breakers"`
}

// BreakerStatus is one worker's circuit-breaker state in a snapshot.
type BreakerStatus struct {
	Worker string `json:"worker"`
	State  string `json:"state"` // "closed", "open", or "half-open"
}

// bind points the sink at the coordinator's worker lanes; Run calls it
// once before dispatching.
func (l *Live) bind(lanes []*workerState) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.lanes = lanes
	l.mu.Unlock()
}

// The per-event hooks are nil-safe so the coordinator calls them
// unconditionally on its hot path.

func (l *Live) leaseGranted() {
	if l == nil {
		return
	}
	l.leasesOutstanding.Add(1)
	l.leasesGranted.Add(1)
	l.calls.Add(1)
}

func (l *Live) leaseSettled() {
	if l == nil {
		return
	}
	l.leasesOutstanding.Add(-1)
}

func (l *Live) retry() {
	if l == nil {
		return
	}
	l.retries.Add(1)
}

func (l *Live) hedge() {
	if l == nil {
		return
	}
	l.hedges.Add(1)
}

func (l *Live) deliver() {
	if l == nil {
		return
	}
	l.delivered.Add(1)
}

// Snapshot reads the counters and every worker's breaker state. Safe to
// call at any time, including before Run binds the lanes (the breaker
// list is empty then) and after Run returns.
func (l *Live) Snapshot() LiveStats {
	st := LiveStats{
		LeasesOutstanding: l.leasesOutstanding.Load(),
		LeasesGranted:     l.leasesGranted.Load(),
		Calls:             l.calls.Load(),
		Retries:           l.retries.Load(),
		Hedges:            l.hedges.Load(),
		Delivered:         l.delivered.Load(),
		Breakers:          []BreakerStatus{},
	}
	l.mu.Lock()
	lanes := l.lanes
	l.mu.Unlock()
	for _, ws := range lanes {
		st.Breakers = append(st.Breakers, BreakerStatus{Worker: ws.url, State: ws.breaker.stateName()})
	}
	return st
}

// Handler serves GET /statsz: the current Snapshot as indented JSON.
func (l *Live) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(l.Snapshot()); err != nil {
			// The snapshot always marshals; a failure here is the client
			// hanging up mid-write, which an HTTP handler cannot repair.
			return
		}
	})
}
