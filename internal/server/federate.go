package server

// Metrics federation: GET /metrics?cluster=1 scrapes every peer's
// /internal/metrics through the cluster transport, merges the expositions
// with the local registry's (internal/metrics.Federate — counters and
// histogram series summed, gauges relabelled per peer), and serves one
// cluster-wide exposition. Scrapes are cached briefly so a dashboard
// polling the endpoint doesn't multiply cluster traffic, and a peer that
// stops answering keeps serving its last scrape until it goes stale — a
// flapping peer degrades to slightly-old numbers, not to a hole in the sum.

import (
	"bytes"
	"context"
	"net/http"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
)

const (
	// fedScrapeTimeout bounds one peer scrape: an exposition is a memory
	// render, so a slow peer is a down peer.
	fedScrapeTimeout = 2 * time.Second
	// fedFreshFor reuses a completed gather wholesale, absorbing dashboard
	// poll bursts.
	fedFreshFor = 2 * time.Second
	// fedStaleLimit is how long a failed peer's last good scrape keeps
	// counting before it drops out of the federation.
	fedStaleLimit = 30 * time.Second
	// maxFedScrapeBytes bounds one peer's exposition payload.
	maxFedScrapeBytes = 8 << 20
)

// peerScrape is the cached state of one peer's last scrape attempt.
type peerScrape struct {
	exp     *metrics.Exposition
	fetched time.Time // last successful scrape
	lastErr string
	errAt   time.Time
}

type federator struct {
	srv *Server

	mu       sync.Mutex
	scrapes  map[string]*peerScrape
	gathered time.Time
}

func newFederator(srv *Server) *federator {
	return &federator{srv: srv, scrapes: make(map[string]*peerScrape)}
}

// gather refreshes the per-peer scrape cache, fetching all peers in
// parallel. A failure keeps the previous exposition (until fedStaleLimit)
// and records the error.
func (f *federator) gather() {
	f.mu.Lock()
	if time.Since(f.gathered) < fedFreshFor {
		f.mu.Unlock()
		return
	}
	f.gathered = time.Now()
	f.mu.Unlock()

	peers := f.srv.cluster.Peers()
	var wg sync.WaitGroup
	for _, p := range peers {
		wg.Add(1)
		go func(p *cluster.Peer) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), fedScrapeTimeout)
			raw, err := f.srv.cluster.FetchMetrics(ctx, p, maxFedScrapeBytes)
			cancel()
			var exp *metrics.Exposition
			if err == nil {
				exp, err = metrics.ParseText(bytes.NewReader(raw))
			}
			f.mu.Lock()
			ps := f.scrapes[p.Addr()]
			if ps == nil {
				ps = &peerScrape{}
				f.scrapes[p.Addr()] = ps
			}
			if err != nil {
				ps.lastErr = err.Error()
				ps.errAt = time.Now()
			} else {
				ps.exp = exp
				ps.fetched = time.Now()
				ps.lastErr = ""
			}
			f.mu.Unlock()
		}(p)
	}
	wg.Wait()
}

// selfExposition renders and re-parses the local registry, so the local
// node federates through exactly the same path as its peers.
func (f *federator) selfExposition() (*metrics.Exposition, error) {
	var buf bytes.Buffer
	if err := f.srv.reg.WriteText(&buf); err != nil {
		return nil, err
	}
	return metrics.ParseText(&buf)
}

// nodes assembles the label → exposition map for Federate: self plus every
// peer whose last good scrape is still within the staleness limit.
func (f *federator) nodes() (map[string]*metrics.Exposition, error) {
	self, err := f.selfExposition()
	if err != nil {
		return nil, err
	}
	out := map[string]*metrics.Exposition{f.srv.cluster.Self(): self}
	f.mu.Lock()
	for addr, ps := range f.scrapes {
		if ps.exp != nil && time.Since(ps.fetched) < fedStaleLimit {
			out[addr] = ps.exp
		}
	}
	f.mu.Unlock()
	return out, nil
}

func (f *federator) serveFederated(w http.ResponseWriter, r *http.Request) {
	f.gather()
	nodes, err := f.nodes()
	if err != nil {
		f.srv.fail(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = metrics.Federate(w, nodes)
}

// rollup is the /healthz federation block: per-peer scrape freshness from
// the cache only — a liveness probe must not block on peer scrapes. It
// kicks an async refresh, which Shutdown waits for, when the cache has gone
// stale so a healthz-only consumer still converges.
func (f *federator) rollup() map[string]any {
	f.mu.Lock()
	stale := time.Since(f.gathered) >= fedStaleLimit
	peers := make([]map[string]any, 0, len(f.scrapes))
	included := 1 // self always federates
	for addr, ps := range f.scrapes {
		fresh := ps.exp != nil && time.Since(ps.fetched) < fedStaleLimit
		if fresh {
			included++
		}
		p := map[string]any{"addr": addr, "fresh": fresh}
		if !ps.fetched.IsZero() {
			p["scraped"] = ps.fetched.UTC().Format(time.RFC3339)
		}
		if ps.lastErr != "" {
			p["last_error"] = ps.lastErr
		}
		peers = append(peers, p)
	}
	f.mu.Unlock()
	if stale {
		f.srv.spawn(f.gather)
	}
	return map[string]any{
		"nodes_federated": included,
		"peer_scrapes":    peers,
	}
}
