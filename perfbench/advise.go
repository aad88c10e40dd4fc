package main

import (
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"bao/internal/core"
	"bao/internal/nn"
	baoserver "bao/internal/server"
	"bao/internal/workload"
)

// adviseStreamPerSec bounds how many distinct stream queries one measured
// second can consume; it is several times the rate the server reaches.
const adviseStreamPerSec = 3000

// adviseServer is a pre-trained baoserver-equivalent behind the
// benchmark's own listener.
type adviseServer struct {
	opt   *core.Bao
	srv   *baoserver.Server
	ln    *listener
	spans *spanLog
	trace atomic.Bool // record handler spans
}

func (a *adviseServer) close() {
	a.ln.close()
	a.srv.Shutdown(bg) //nolint:errcheck // teardown
}

// runAdvise measures read-only planning overhead (§6.2): a server with
// baoserver's defaults, pre-trained as `baoserver -train` is, answers
// POST /v1/select for the seeded stream's queries, in order, from two
// closed-loop connections. Nothing is observed, so the model
// stays frozen and the executor, observe path and explog stay idle.
func runAdvise(cfg config) (*outcome, error) {
	inst, err := imdb(cfg, adviseStreamPerSec*cfg.Seconds)
	if err != nil {
		return nil, err
	}
	train := baoserverTrain(cfg)
	setup := func() (*adviseServer, error) {
		eng, err := loadEngine(train, 2000)
		if err != nil {
			return nil, err
		}
		opt := core.New(eng, serverConfig())
		if err := pretrain(opt, train.Queries); err != nil {
			return nil, err
		}
		srv, err := baoserver.New(opt, baoserver.Config{})
		if err != nil {
			return nil, err
		}
		a := &adviseServer{opt: opt, srv: srv, spans: newSpanLog()}
		h, traced := srv.Handler(), a.spans.wrap(srv.Handler())
		a.ln, err = listen(httpSwitch(&a.trace, h, traced))
		if err != nil {
			srv.Shutdown(bg) //nolint:errcheck // listener never opened
			return nil, err
		}
		return a, nil
	}
	a, setups, err := repeatSetup(cfg, setup, (*adviseServer).close)
	if err != nil {
		return nil, err
	}
	defer a.close()
	out := &outcome{}
	c := newClient(callers)
	next := atomic.Int64{}
	qs := inst.Queries
	if !cfg.Trace {
		ph := newAdvisePhase()
		advisePhase(cfg, a, c, qs, &next, time.Duration(cfg.Seconds)*time.Second, out, ph)
		heap := heapInuseMB()
		r := &out.rep
		r.add("setup_s", "s", setups.median(), len(setups))
		r.add("throughput_qps", "1/s", float64(len(ph.rtt))/ph.wall.Seconds(), len(ph.rtt))
		r.add("latency_p50_ms", "ms", ph.rtt.pct(50), len(ph.rtt))
		r.add("latency_p99_ms", "ms", ph.rtt.pct(99), len(ph.rtt))
		r.add("heap_inuse_mb", "MiB", heap, 1)
		out.note("opt_time_ratio %.6g ratio n=%d", optTimeRatio(a.opt, ph.timed(qs, 4000)), min(len(ph.rtt), 4000))
		out.note("advise: %d selects, plan-cache hit ratio %.3f, decision digest %s over the first %d stream positions",
			len(ph.rtt), ratio(ph.hits, ph.lookups), decisionDigest(prefix(ph.arms, 1000)), 1000)
		return out, nil
	}
	trainBefore, _, err := status(c, a.ln.url, "")
	if err != nil {
		return nil, err
	}
	var mem memAcc
	plain, tr := newAdvisePhase(), newAdvisePhase()
	interleave(cfg, func(traced bool, d time.Duration) {
		if !traced {
			mem.begin()
			advisePhase(cfg, a, c, qs, &next, d, out, plain)
			mem.end()
			return
		}
		a.trace.Store(true)
		advisePhase(cfg, a, c, qs, &next, d, out, tr)
		a.trace.Store(false)
	})
	mem.addTo(&out.rep, len(plain.rtt))
	trainAfter, _, err := status(c, a.ln.url, "")
	if err != nil {
		return nil, err
	}
	t := &traced{}
	t.serverRetrains = float64(trainAfter - trainBefore)
	t.hitRatio = ratio(tr.hits, tr.lookups)
	t.handler, t.transport = tr.handler, tr.transport
	t.overhead = (float64(len(tr.rtt))/tr.wall.Seconds())/(float64(len(plain.rtt))/plain.wall.Seconds()) - 1
	t.layerSum = t.handler.sum() + t.transport.sum()
	t.layerWall = ms(tr.wall) * float64(callers)
	t.optRatio = optTimeRatio(a.opt, tr.timed(qs, 4000))
	// Sub-select layers: replay the traced phase's queries in stream
	// order through SelectCtx on a flushed plan cache, timing each
	// sub-layer call from outside.
	a.opt.FlushPlanCache()
	replaySelects(a.opt, &t.l, tr.timed(qs, 1000), map[*nn.Tree]bool{})
	t.emit(&out.rep)
	return out, nil
}

// advisePhaseResult accumulates measured stretches of /v1/select load.
type advisePhaseResult struct {
	wall      time.Duration
	rtt       series
	handler   series
	transport series
	arms      map[int]int     // stream position → chosen arm
	rttAt     map[int]float64 // stream position → round trip, ms
	hits      float64         // plan-cache hits
	lookups   float64         // plan-cache lookups
}

func newAdvisePhase() *advisePhaseResult {
	return &advisePhaseResult{arms: map[int]int{}, rttAt: map[int]float64{}}
}

// timed returns up to n of the phase's queries with their round trips, in
// stream order.
func (p *advisePhaseResult) timed(qs []workload.Query, n int) timings {
	idx := sortedKeys(p.arms)
	if len(idx) > n {
		idx = idx[:n]
	}
	out := make(timings, len(idx))
	for i, j := range idx {
		out[i] = timing{qs[j].SQL, p.rttAt[j]}
	}
	return out
}

// advisePhase runs d of load and adds what it measured to p.
func advisePhase(cfg config, a *adviseServer, c *http.Client, qs []workload.Query, next *atomic.Int64, d time.Duration, out *outcome, p *advisePhaseResult) {
	o := a.opt.Observer()
	hits, misses := o.PlanCacheHits.Value(), o.PlanCacheMisses.Value()
	tracing := a.trace.Load()
	arms := len(a.opt.Cfg.Arms)
	var mu sync.Mutex
	p.wall += closedLoop(callers, d, func(int) bool {
		i := int(next.Add(1) - 1)
		if i >= len(qs) {
			return false
		}
		var resp struct {
			ArmID       int `json:"arm_id"`
			UniquePlans int `json:"unique_plans"`
		}
		rtt, id, err := post(c, a.ln.url+"/v1/select", "", map[string]string{"sql": qs[i].SQL}, &resp)
		mu.Lock()
		defer mu.Unlock()
		out.attempted++
		switch {
		case err != nil:
			out.fail(false)
			out.note("select %d: %v", i, err)
		case resp.ArmID < 0 || resp.ArmID >= arms || resp.UniquePlans < 1:
			out.fail(true)
			out.note("select %d: arm %d, unique plans %d", i, resp.ArmID, resp.UniquePlans)
		default:
			p.rtt = append(p.rtt, ms(rtt))
			p.arms[i] = resp.ArmID
			p.rttAt[i] = ms(rtt)
			if h, ok := a.spans.get(id); tracing && ok {
				p.handler = append(p.handler, ms(h))
				p.transport = append(p.transport, ms(rtt-h))
			}
		}
		return true
	})
	h, m := o.PlanCacheHits.Value()-hits, o.PlanCacheMisses.Value()-misses
	p.hits += h
	p.lookups += h + m
}

// replaySelects runs qs through SelectCtx one at a time, replaying each
// selection's sub-layers. A plan-cache hit skips planning, and skips
// featurize and inference too unless it produced trees not in seen.
func replaySelects(opt *core.Bao, l *layers, qs timings, seen map[*nn.Tree]bool) {
	o := opt.Observer()
	for _, q := range qs {
		misses := o.PlanCacheMisses.Value()
		sel, d, err := l.timeSelect(opt, q.sql)
		if err != nil {
			continue
		}
		miss := o.PlanCacheMisses.Value() > misses
		fresh := false
		for _, t := range sel.Trees {
			if t != nil && !seen[t] {
				seen[t] = true
				fresh = true
			}
		}
		l.replaySelect(opt, sel, d, miss, miss || fresh, sel.Preds != nil && (miss || fresh))
	}
}

// prefix keeps the decisions at the first n stream positions.
func prefix(arms map[int]int, n int) map[int]int {
	out := map[int]int{}
	for i, a := range arms {
		if i < n {
			out[i] = a
		}
	}
	return out
}
