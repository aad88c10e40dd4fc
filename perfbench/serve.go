package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"bao/internal/bufferpool"
	"bao/internal/core"
	"bao/internal/nn"
	"bao/internal/obs"
	baorouter "bao/internal/router"
	baoserver "bao/internal/server"
	"bao/internal/workload"
)

// fleet is an in-process baorouter over the shards, each behind the
// benchmark's own listener, hosting Tenants pre-trained tenants.
type fleet struct {
	dir      string
	shards   map[string]*baoserver.Shard
	lns      []*listener
	router   *baorouter.Router
	url      string // router base URL
	tenants  []string
	shapes   map[string][]string // tenant → its repeated query shapes
	native   map[string]answer   // shape → the native plan's answer
	routerSp *spanLog
	shardSp  *spanLog
	trace    atomic.Bool
	// earlyRetrains counts the early retrains the frozen tenants skipped.
	earlyRetrains atomic.Int64
}

func (f *fleet) close() {
	for _, l := range f.lns {
		l.close()
	}
	if f.router != nil {
		f.router.Shutdown(bg) //nolint:errcheck // teardown
	}
	for _, s := range f.shards {
		s.Shutdown(bg) //nolint:errcheck // teardown
	}
}

// tenant returns a resident tenant's optimizer.
func (f *fleet) tenant(name string) (*core.Bao, error) {
	s := f.shards[f.router.Owner(name)]
	if s == nil {
		return nil, fmt.Errorf("tenant %s has no owning shard", name)
	}
	srv := s.Registry().Peek(name)
	if srv == nil {
		return nil, fmt.Errorf("tenant %s is not resident", name)
	}
	return srv.Bao(), nil
}

// namespaceBytes sums the bytes held in the tenant namespaces.
func (f *fleet) namespaceBytes() int64 {
	var n int64
	filepath.WalkDir(f.dir, func(_ string, d fs.DirEntry, err error) error { //nolint:errcheck // best-effort size
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// runServe measures reads beside writes through the fleet: two
// closed-loop connections POST /v1/query through the router, round-robin
// over every tenant's repeated shapes. Each tenant has baoserver's
// defaults, a durable explog in its namespace, and a model pre-trained as
// `baoserver -train` is and then frozen (scheduled retraining off), so the run measures the request path rather than when a trainer
// happens to run.
func runServe(cfg config) (*outcome, error) {
	train := baoserverTrain(cfg)
	fleets := 0
	setup := func() (*fleet, error) {
		fleets++
		return newFleet(cfg, train, filepath.Join(cfg.Dir, fmt.Sprintf("fleet-%d", fleets)))
	}
	f, setups, err := repeatSetup(cfg, setup, (*fleet).close)
	if err != nil {
		return nil, err
	}
	defer f.close()
	if err := f.pickShapes(cfg, train); err != nil {
		return nil, err
	}
	out := &outcome{}
	c := newClient(callers)
	var next atomic.Int64
	if !cfg.Trace {
		ph := &servePhaseResult{}
		servePhase(cfg, f, c, &next, time.Duration(cfg.Seconds)*time.Second, out, ph)
		heap := heapInuseMB()
		sel, err := serveProbe(f, nil, out)
		if err != nil {
			return nil, err
		}
		opt, err := f.tenant(f.tenants[0])
		if err != nil {
			return nil, err
		}
		r := &out.rep
		r.add("setup_s", "s", setups.median(), len(setups))
		r.add("throughput_qps", "1/s", float64(len(ph.rtt))/ph.wall.Seconds(), len(ph.rtt))
		r.add("latency_p50_ms", "ms", ph.rtt.pct(50), len(ph.rtt))
		r.add("latency_p99_ms", "ms", ph.rtt.pct(99), len(ph.rtt))
		r.add("heap_inuse_mb", "MiB", heap, 1)
		out.note("opt_time_ratio %.6g ratio n=%d", optTimeRatio(opt, sel), len(sel))
		out.note("serve: %d queries over %d tenants × %d shapes; %d early retrains skipped by the frozen models",
			len(ph.rtt), len(f.tenants), cfg.Shapes, f.earlyRetrains.Load())
		return out, nil
	}
	trainBefore, _, err := fleetStatus(c, f)
	if err != nil {
		return nil, err
	}
	bytesBefore := f.namespaceBytes()
	hits, lookups, pool, err := fleetCounters(f)
	if err != nil {
		return nil, err
	}
	var mem memAcc
	plain, tr := &servePhaseResult{}, &servePhaseResult{}
	interleave(cfg, func(traced bool, d time.Duration) {
		if !traced {
			mem.begin()
			servePhase(cfg, f, c, &next, d, out, plain)
			mem.end()
			return
		}
		f.trace.Store(true)
		servePhase(cfg, f, c, &next, d, out, tr)
		f.trace.Store(false)
	})
	mem.addTo(&out.rep, len(plain.rtt))
	hits2, lookups2, pool2, err := fleetCounters(f)
	if err != nil {
		return nil, err
	}
	trainAfter, segments, err := fleetStatus(c, f)
	if err != nil {
		return nil, err
	}
	t := &traced{}
	t.serverRetrains = float64(trainAfter - trainBefore)
	t.hitRatio = ratio(hits2-hits, lookups2-lookups)
	t.poolHitRatio = ratio(float64(pool2.Hits-pool.Hits), float64(pool2.Total()-pool.Total()))
	t.explogBytesPQ = ratio(float64(f.namespaceBytes()-bytesBefore), float64(len(plain.rtt)+len(tr.rtt)))
	t.explogSegments = float64(segments)
	t.hop, t.handler, t.transport = tr.hop, tr.handler, tr.transport
	t.overhead = (float64(len(tr.rtt))/tr.wall.Seconds())/(float64(len(plain.rtt))/plain.wall.Seconds()) - 1
	t.layerSum = t.hop.sum() + t.handler.sum() + t.transport.sum()
	t.layerWall = ms(tr.wall) * float64(callers)
	for _, tn := range f.tenants {
		opt, err := f.tenant(tn)
		if err != nil {
			return nil, err
		}
		t.train(opt.TrainEvents)
	}
	// Sub-select layers and the executor: probe every tenant's shapes in
	// process once the load has stopped.
	sel, err := serveProbe(f, &t.l, out)
	if err != nil {
		return nil, err
	}
	opt, err := f.tenant(f.tenants[0])
	if err != nil {
		return nil, err
	}
	t.optRatio = optTimeRatio(opt, sel)
	t.emit(&out.rep)
	return out, nil
}

// newFleet pre-trains one optimizer on train's queries, then starts the
// shards and router and activates every tenant from that model and
// window.
func newFleet(cfg config, train *workload.Instance, dir string) (*fleet, error) {
	eng, err := loadEngine(train, 2000)
	if err != nil {
		return nil, err
	}
	opt := core.New(eng, serverConfig())
	if err := pretrain(opt, train.Queries); err != nil {
		return nil, err
	}
	var model bytes.Buffer
	if err := opt.SaveModel(&model); err != nil {
		return nil, err
	}
	exps := opt.Experiences()
	factory := func(string) (*core.Bao, error) {
		eng, err := loadEngine(train, 2000)
		if err != nil {
			return nil, err
		}
		c := serverConfig()
		c.RetrainEvery = 1 << 30 // frozen: no scheduled retraining
		b := core.New(eng, c)
		b.RestoreExperiences(exps)
		if err := b.LoadModel(bytes.NewReader(model.Bytes())); err != nil {
			return nil, err
		}
		return b, nil
	}
	f := &fleet{dir: dir, shards: map[string]*baoserver.Shard{}, shapes: map[string][]string{},
		routerSp: newSpanLog(), shardSp: newSpanLog()}
	var infos []baorouter.ShardInfo
	for i := 0; i < shards; i++ {
		name := fmt.Sprintf("shard-%d", i)
		s, err := baoserver.NewShard(baoserver.ShardConfig{
			Name:     name,
			Tenants:  baoserver.TenantOptions{Dir: dir, NewBao: factory, MaxResident: cfg.Tenants},
			Observer: obs.NewObserver(obs.NewRegistry(), nil),
		})
		if err != nil {
			f.close()
			return nil, err
		}
		f.shards[name] = s
		ln, err := listen(httpSwitch(&f.trace, s.Handler(), f.shardSp.wrap(s.Handler())))
		if err != nil {
			f.close()
			return nil, err
		}
		f.lns = append(f.lns, ln)
		infos = append(infos, baorouter.ShardInfo{Name: name, URL: ln.url})
	}
	f.router, err = baorouter.New(baorouter.RouterConfig{Shards: infos,
		Observer: obs.NewObserver(obs.NewRegistry(), nil)})
	if err != nil {
		f.close()
		return nil, err
	}
	ln, err := listen(httpSwitch(&f.trace, f.router.Handler(), f.routerSp.wrap(f.router.Handler())))
	if err != nil {
		f.close()
		return nil, err
	}
	f.lns = append(f.lns, ln)
	f.url = ln.url
	c := newClient(1)
	for k := 0; k < cfg.Tenants; k++ {
		tn := fmt.Sprintf("tenant-%d", k)
		f.tenants = append(f.tenants, tn)
		if _, _, err := status(c, f.url, tn); err != nil { // activates the tenant
			f.close()
			return nil, fmt.Errorf("activate %s: %w", tn, err)
		}
		opt, err := f.tenant(tn)
		if err != nil {
			f.close()
			return nil, err
		}
		// RetrainEvery stops scheduled retrains; a grossly mispredicted
		// query would still schedule an early one through the server's
		// retrain hook. Replacing the hook freezes the model completely.
		opt.SetRetrainHook(func(obs.Cause) { f.earlyRetrains.Add(1) })
	}
	c.CloseIdleConnections()
	return f, nil
}

// shapeStream is the length of the seeded stream serve's shapes come
// from: long enough to hold every tenant's distinct shapes.
const shapeStream = 4000

// pickShapes gives every tenant cfg.Shapes repeated shapes, chosen by the
// query text alone: the first distinct single-table queries of a seeded
// stream, tenant k taking the k-th run of cfg.Shapes. Joins are left to
// learn and advise: with them a few slow shapes set serve's pace, and
// which shapes are slow changes with the seed. The native answers for the
// correctness gate come from a separate engine.
func (f *fleet) pickShapes(cfg config, inst *workload.Instance) error {
	stream, err := imdb(cfg, shapeStream)
	if err != nil {
		return err
	}
	native, err := loadEngine(inst, 2000)
	if err != nil {
		return err
	}
	f.native = map[string]answer{}
	var shapes []string
	for _, q := range stream.Queries {
		if len(shapes) == cfg.Tenants*cfg.Shapes {
			break
		}
		if _, ok := f.native[q.SQL]; ok {
			continue
		}
		pq, err := native.AnalyzeSQL(q.SQL)
		if err != nil {
			return err
		}
		if len(pq.Scans) > 1 {
			continue
		}
		res, err := native.Query(q.SQL)
		if err != nil {
			return fmt.Errorf("native %q: %w", q.SQL, err)
		}
		f.native[q.SQL] = answer{rows: len(res.Rows), sum: rowsChecksum(res.Rows)}
		shapes = append(shapes, q.SQL)
	}
	if len(shapes) < cfg.Tenants*cfg.Shapes {
		return fmt.Errorf("the seeded stream has %d distinct single-table queries, need %d", len(shapes), cfg.Tenants*cfg.Shapes)
	}
	for k, tn := range f.tenants {
		f.shapes[tn] = shapes[k*cfg.Shapes : (k+1)*cfg.Shapes]
	}
	return nil
}

// answer is a query's result as the correctness gate compares it.
type answer struct {
	rows int
	sum  []byte // rowsChecksum of the rows
}

// servePhaseResult accumulates measured stretches of /v1/query load.
type servePhaseResult struct {
	wall      time.Duration
	rtt       series
	hop       series
	handler   series
	transport series
}

// servePhase runs d of load and adds what it measured to p.
func servePhase(cfg config, f *fleet, c *http.Client, next *atomic.Int64, d time.Duration, out *outcome, p *servePhaseResult) {
	tracing := f.trace.Load()
	var mu sync.Mutex
	p.wall += closedLoop(callers, d, func(int) bool {
		k := int(next.Add(1) - 1)
		tn := f.tenants[k%len(f.tenants)]
		sql := f.shapes[tn][(k/len(f.tenants))%len(f.shapes[tn])]
		var resp struct {
			Rows int `json:"rows"`
		}
		rtt, id, err := post(c, f.url+"/v1/query", tn, map[string]string{"sql": sql}, &resp)
		mu.Lock()
		defer mu.Unlock()
		out.attempted++
		switch {
		case err != nil:
			out.fail(false)
			out.note("query %d (%s): %v", k, tn, err)
		case resp.Rows != f.native[sql].rows:
			out.fail(true)
			out.note("query %d (%s): %d rows, native %d", k, tn, resp.Rows, f.native[sql].rows)
		default:
			p.rtt = append(p.rtt, ms(rtt))
			if !tracing {
				break
			}
			rs, ok1 := f.routerSp.get(id)
			ss, ok2 := f.shardSp.get(id)
			if ok1 && ok2 {
				p.hop = append(p.hop, ms(rs-ss))
				p.handler = append(p.handler, ms(ss))
				p.transport = append(p.transport, ms(rtt-rs))
			}
		}
		return true
	})
}

// fleetStatus sums train_count and explog_segments over every tenant's
// /v1/status, read through the router.
func fleetStatus(c *http.Client, f *fleet) (train, segments int, err error) {
	for _, tn := range f.tenants {
		tc, sg, err := status(c, f.url, tn)
		if err != nil {
			return 0, 0, err
		}
		train += tc
		segments += sg
	}
	return train, segments, nil
}

// fleetCounters sums plan-cache hits and lookups and buffer-pool page
// accesses over the tenants.
func fleetCounters(f *fleet) (hits, lookups float64, pool poolStats, err error) {
	for _, tn := range f.tenants {
		opt, err := f.tenant(tn)
		if err != nil {
			return 0, 0, pool, err
		}
		o := opt.Observer()
		h, m := o.PlanCacheHits.Value(), o.PlanCacheMisses.Value()
		hits += h
		lookups += h + m
		st := opt.Eng.Pool.Stats()
		pool.Hits += st.Hits
		pool.Misses += st.Misses
	}
	return hits, lookups, pool, nil
}

// probeSelections is how many hit-path selections serveProbe times at
// least, in whole passes over the shapes: one takes about ten
// microseconds, so with fewer the timer and the scheduler would set the
// figures.
const probeSelections = 1000

// serveProbe runs in process once the load has stopped. It times SelectCtx
// over every tenant's shapes; these selections take the plan-cache hit
// path. It also checks the tenants' answers: /v1/query reports only a row
// count, and every shape is a one-row COUNT(*), so each tenant's chosen
// plan for each of its shapes is executed on the tenant's own engine and
// its rows' checksum must equal the native plan's. Each check counts in
// out's attempted and failed. With l set it also replays each selection's
// sub-layers.
func serveProbe(f *fleet, l *layers, out *outcome) (timings, error) {
	tl := l
	if tl == nil {
		tl = &layers{}
	}
	shapes := 0
	for _, qs := range f.shapes {
		shapes += len(qs)
	}
	passes := (probeSelections + shapes - 1) / shapes
	var sel timings
	for _, tn := range f.tenants {
		opt, err := f.tenant(tn)
		if err != nil {
			return nil, err
		}
		qs := make(timings, len(f.shapes[tn]))
		for i, sql := range f.shapes[tn] {
			qs[i] = timing{sql: sql}
		}
		// An untimed first pass marks the cached trees as seen, so the
		// timed pass counts featurize and inference only if they ran.
		seen := map[*nn.Tree]bool{}
		for _, q := range qs {
			sel, err := opt.SelectCtx(bg, q.sql)
			if err != nil {
				return nil, err
			}
			for _, t := range sel.Trees {
				seen[t] = true
			}
		}
		for pass := 0; pass < passes; pass++ {
			n := len(tl.selects)
			replaySelects(opt, tl, qs, seen)
			for i, d := range tl.selects[n:] {
				sel = append(sel, timing{qs[i].sql, d})
			}
		}
		for _, q := range qs {
			out.attempted++
			s, err := opt.SelectCtx(bg, q.sql)
			var sum []byte
			if err == nil {
				sum, _, err = tl.timeExecute(opt, s)
			}
			switch {
			case err != nil:
				out.fail(false)
				out.note("%s: %q: %v", tn, q.sql, err)
			case !bytes.Equal(sum, f.native[q.sql].sum):
				out.fail(true)
				out.note("%s: %q: rows differ from the native plan's", tn, q.sql)
			}
		}
	}
	return sel, nil
}

type poolStats = bufferpool.Stats
