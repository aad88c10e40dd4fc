package main

import (
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"bao/internal/core"
)

// traced is a traced run's per-layer view. Layers a workload does not
// exercise report 0.
type traced struct {
	l layers

	hop       series // ms: router handler − shard handler, per request
	handler   series // ms: the serving handler (server or shard)
	transport series // ms: round trip − outermost handler

	serverRetrains float64 // change in /v1/status train_count
	hitRatio       float64 // plan-cache hits / lookups in the measured phase
	poolHitRatio   float64
	explogBytesPQ  float64
	explogSegments float64
	nnRetrains     float64
	nnEpochs       float64
	nnSamples      float64
	overhead       float64 // traced throughput / untraced throughput − 1
	layerSum       float64 // ms: summed self time of the layers
	layerWall      float64 // ms: wall time the layers ran in
	sim            float64 // simulated execution seconds of the chosen plans
	simP99         float64 // ms: their p99
	optRatio       float64 // Bao ÷ native optimization time
}

// train sums the retrain events a run produced.
func (t *traced) train(events []core.TrainEvent) {
	for _, e := range events {
		t.nnRetrains++
		t.nnEpochs += float64(e.Epochs)
		t.nnSamples += float64(e.Samples)
	}
}

func (t *traced) emit(r *report) {
	t.l.addTo(r)
	r.add("router.hop_ms", "ms", t.hop.mean(), len(t.hop))
	r.add("server.handler_p50_ms", "ms", t.handler.pct(50), len(t.handler))
	r.add("server.handler_p99_ms", "ms", t.handler.pct(99), len(t.handler))
	r.add("http.transport_ms", "ms", t.transport.mean(), len(t.transport))
	r.add("server.retrains", "count", t.serverRetrains, 1)
	r.add("core.plancache_hit_ratio", "ratio", t.hitRatio, 1)
	r.add("bufferpool.hit_ratio", "ratio", t.poolHitRatio, 1)
	r.add("explog.bytes_per_query", "B", t.explogBytesPQ, 1)
	r.add("explog.segments", "count", t.explogSegments, 1)
	r.add("nn.retrains", "count", t.nnRetrains, 1)
	r.add("nn.epochs", "count", t.nnEpochs, int(t.nnRetrains))
	r.add("nn.samples", "count", t.nnSamples, int(t.nnRetrains))
	r.add("executor.sim_exec_s", "s", t.sim, 1)
	r.add("executor.sim_exec_p99_ms", "ms", t.simP99, 1)
	r.add("core.opt_time_ratio", "ratio", t.optRatio, 1)
	r.add("bench.trace_overhead", "ratio", t.overhead, 1)
	r.add("bench.layer_sum_ratio", "ratio", ratio(t.layerSum, t.layerWall), 1)
	r.add("bench.replay_ratio", "ratio", t.l.replay.median(), len(t.l.replay))
	// The router hop and the transport are what is left of an enclosing
	// HTTP span after the span nested in it, matched by request ID; below
	// zero, the nested span outlasted the one containing it.
	nested := len(t.hop) + len(t.transport)
	over := t.hop.negatives() + t.transport.negatives()
	r.add("bench.span_overrun_ratio", "ratio", ratio(float64(over), float64(nested)), nested)
}

// spanLog records handler spans by request ID, so a request's spans at
// different hops can be matched.
type spanLog struct {
	mu    sync.Mutex
	spans map[string]time.Duration
}

func newSpanLog() *spanLog { return &spanLog{spans: map[string]time.Duration{}} }

// wrap times h per request, keyed by the X-Bao-Request-Id header.
func (s *spanLog) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(t)
		if id := r.Header.Get("X-Bao-Request-Id"); id != "" {
			s.mu.Lock()
			s.spans[id] = d
			s.mu.Unlock()
		}
	})
}

func (s *spanLog) get(id string) (time.Duration, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.spans[id]
	return d, ok
}

// httpSwitch serves through traced while on is set and through plain
// otherwise, so one listener carries both the untraced and traced phases.
func httpSwitch(on *atomic.Bool, plain, traced http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if on.Load() {
			traced.ServeHTTP(w, r)
			return
		}
		plain.ServeHTTP(w, r)
	})
}

// traceWindows is how many untraced/traced window pairs a traced run of
// an HTTP workload alternates, so that drift over the run (a filling plan
// cache, a growing heap) lands on both sides of bench.trace_overhead.
const traceWindows = 4

// interleave splits the run's seconds into traceWindows pairs of an
// untraced and a traced window.
func interleave(cfg config, run func(traced bool, d time.Duration)) {
	d := time.Duration(cfg.Seconds) * time.Second / (2 * traceWindows)
	for i := 0; i < traceWindows; i++ {
		run(false, d)
		run(true, d)
	}
}
