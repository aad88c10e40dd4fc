package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"bao/internal/cloud"
	"bao/internal/core"
	"bao/internal/obs"
	"bao/internal/planner"
	"bao/internal/workload"
)

// runLearn is the paper's learning loop, in process and from cold: one
// caller runs SelectCtx → ExecuteCtx → Observe over the IMDb dynamic
// stream with FastConfig (49 arms, inline retrain every 50, plan cache
// off) over a buffer pool smaller than the data. A run learns
// LearnStreams independent streams, each from cold, of LearnPerSec
// queries per requested second between them, so the work, and with it the
// simulated execution time, is fixed for a seed; the wall time it takes is
// measured. Throughput is the median stream's: now and then a stream
// explores a plan that runs for seconds, and which streams do changes
// with the seed.
func runLearn(cfg config) (*outcome, error) {
	var streams []*workload.Instance
	for i := 0; i < cfg.LearnStreams; i++ {
		c := cfg
		c.Seed = cfg.Seed + int64(i)*1_000_003
		inst, err := imdb(c, cfg.LearnPerSec*cfg.Seconds/cfg.LearnStreams)
		if err != nil {
			return nil, err
		}
		streams = append(streams, inst)
	}
	setup := func() (*core.Bao, error) {
		eng, err := loadEngine(streams[0], cloud.PagesForVM(cloud.N1_2))
		if err != nil {
			return nil, err
		}
		c := core.FastConfig()
		c.Observer = obs.NewObserver(obs.NewRegistry(), nil)
		return core.New(eng, c), nil
	}
	opt, setups, err := repeatSetup(cfg, setup, func(*core.Bao) {})
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	if cfg.Trace {
		return out, traceLearn(opt, setup, streams[0], out)
	}
	var (
		qps series // per stream
		lat series
	)
	for i, inst := range streams {
		if i > 0 {
			if opt, err = setup(); err != nil {
				return nil, err
			}
		}
		run := learnLoop(opt, inst.Queries, nil)
		nativeSim, err := checkNative(inst, run, out)
		if err != nil {
			return nil, err
		}
		out.note("learn stream %d: %d queries, %d retrains, decision digest %s over %d decisions",
			i, len(inst.Queries), opt.TrainCount(), decisionDigest(run.arms), len(run.arms))
		out.note("learn stream %d: sim_exec_s %.9g (native plans %.9g), sim_exec_p99_ms %.6g",
			i, run.sim.sum(), nativeSim, run.sim.pct(99)*1000)
		qps = append(qps, float64(run.done)/run.wall.Seconds())
		lat = append(lat, run.lat...)
	}
	heap := heapInuseMB()
	r := &out.rep
	r.add("setup_s", "s", setups.median(), len(setups))
	r.add("throughput_qps", "1/s", qps.median(), len(qps))
	r.add("latency_p50_ms", "ms", lat.pct(50), len(lat))
	r.add("latency_p99_ms", "ms", lat.pct(99), len(lat))
	r.add("heap_inuse_mb", "MiB", heap, 1)
	probe := selectProbe(opt, streams[len(streams)-1].Queries, learnProbeStride)
	out.note("opt_time_ratio %.6g ratio n=%d", optTimeRatio(opt, probe), len(probe))
	return out, nil
}

// traceLearn is learn's traced run on the first stream: an untraced loop
// gives the baseline throughput and the runtime counters, and a second
// loop from cold records spans.
func traceLearn(opt *core.Bao, setup func() (*core.Bao, error), inst *workload.Instance, out *outcome) error {
	var mem memAcc
	mem.begin()
	run := learnLoop(opt, inst.Queries, nil)
	mem.end()
	mem.addTo(&out.rep, run.done)
	if _, err := checkNative(inst, run, out); err != nil {
		return err
	}
	opt2, err := setup()
	if err != nil {
		return err
	}
	t := &traced{}
	poolBefore := opt2.Eng.Pool.Stats()
	run2 := learnLoop(opt2, inst.Queries, &t.l)
	pool := opt2.Eng.Pool.Stats()
	if _, err := checkNative(inst, run2, out); err != nil {
		return err
	}
	t.poolHitRatio = ratio(float64(pool.Hits-poolBefore.Hits), float64(pool.Total()-poolBefore.Total()))
	t.train(opt2.TrainEvents)
	t.overhead = (float64(run2.done)/run2.wall.Seconds())/(float64(run.done)/run.wall.Seconds()) - 1
	t.layerSum, t.layerWall = t.l.selfSum(), ms(run2.wall)
	t.sim, t.simP99 = run2.sim.sum(), run2.sim.pct(99)*1000
	t.optRatio = optTimeRatio(opt2, selectProbe(opt2, inst.Queries, learnProbeStride))
	t.emit(&out.rep)
	out.note("learn traced: decision digest %s (untraced %s)", decisionDigest(run2.arms), decisionDigest(run.arms))
	return nil
}

// learnRun is one pass of the learning loop.
type learnRun struct {
	wall   time.Duration // loop wall time, excluding span replays
	done   int
	lat    series // ms per query: select + execute + observe
	sim    series // simulated execution seconds of the chosen plans
	sums   map[int][]byte
	arms   map[int]int
	failed map[int]error
}

// learnLoop runs the stream once. With l set, every call is wrapped in a
// span and the select stage's sub-layers are replayed after it.
func learnLoop(opt *core.Bao, qs []workload.Query, l *layers) *learnRun {
	run := &learnRun{sums: map[int][]byte{}, arms: map[int]int{}, failed: map[int]error{}}
	tl := l
	if tl == nil {
		tl = &layers{} // spans are kept but not reported
	}
	var paused time.Duration
	start := time.Now()
	for i, q := range qs {
		t0 := time.Now()
		sel, selDur, err := tl.timeSelect(opt, q.SQL)
		if err != nil {
			run.failed[i] = err
			continue
		}
		var replay time.Duration
		if l != nil {
			replay = l.replaySelect(opt, sel, selDur, true, true, sel.Preds != nil)
		}
		sum, c, err := tl.timeExecute(opt, sel)
		if err != nil {
			run.failed[i] = err
			opt.Abandon(sel, "execute failed")
			continue
		}
		tl.timeObserve(opt, sel, c)
		run.lat = append(run.lat, ms(time.Since(t0)-replay))
		run.sim = append(run.sim, cloud.ExecSeconds(c))
		run.sums[i] = sum
		run.arms[i] = sel.ArmID
		run.done++
		paused += replay
	}
	run.wall = time.Since(start) - paused
	return run
}

// checkNative is learn's correctness gate: the stream re-run on a fresh
// engine with the native optimizer must return the same rows, as an
// order-insensitive checksum, for every query; hints change plans, never
// answers. Failed and mismatched queries count as failures. It returns
// the native plans' simulated execution seconds.
func checkNative(inst *workload.Instance, run *learnRun, out *outcome) (float64, error) {
	eng, err := loadEngine(inst, cloud.PagesForVM(cloud.N1_2))
	if err != nil {
		return 0, err
	}
	sim := 0.0
	for i, q := range inst.Queries {
		out.attempted++
		if err := run.failed[i]; err != nil {
			out.fail(false)
			out.note("query %d failed: %v", i, err)
			continue
		}
		res, err := eng.Query(q.SQL)
		if err != nil {
			return 0, fmt.Errorf("native query %d: %w", i, err)
		}
		sim += cloud.ExecSeconds(res.Counters)
		if !bytes.Equal(rowsChecksum(res.Rows), run.sums[i]) {
			out.fail(true)
			out.note("query %d: rows differ from the native plan's", i)
		}
	}
	return sim, nil
}

// learnProbeStride samples every learnProbeStride-th stream query for
// learn's optimization-time probe.
const learnProbeStride = 4

// selectProbe times SelectCtx in process, three times each, on every
// stride-th query once the measured phase is over. In-loop selections
// share the CPU with inline retraining and its garbage collection, which
// would make the ratio measure the trainer rather than the optimizer.
func selectProbe(opt *core.Bao, qs []workload.Query, stride int) timings {
	var ts timings
	for i := 0; i < len(qs); i += stride {
		for try := 0; try < 3; try++ {
			t := time.Now()
			if _, err := opt.SelectCtx(bg, qs[i].SQL); err != nil {
				break
			}
			ts = append(ts, timing{qs[i].SQL, ms(time.Since(t))})
		}
	}
	return ts
}

// timing is one query's measured optimization time, in ms.
type timing struct {
	sql string
	ms  float64
}

type timings []timing

// optTimeRatio is Bao's optimization time ÷ native optimization time
// (AnalyzeSQL + Plan(AllOn), the fastest of five tries, timed after a
// garbage collection so no collection cycle overlaps) summed over the
// same queries, timed in process on opt's engine; a query timed several
// times counts with its fastest time, as on the native side. Sums rather than medians keep the ratio
// from jumping between query classes whose native planning times differ
// tenfold.
func optTimeRatio(opt *core.Bao, ts timings) float64 {
	var order []string
	bySQL := map[string]series{}
	for _, t := range ts {
		if _, ok := bySQL[t.sql]; !ok {
			order = append(order, t.sql)
		}
		bySQL[t.sql] = append(bySQL[t.sql], t.ms)
	}
	runtime.GC()
	var bao, native float64
	for _, sql := range order {
		best := time.Duration(0)
		for i := 0; i < 5; i++ {
			start := time.Now()
			q, err := opt.Eng.AnalyzeSQL(sql)
			if err != nil {
				break
			}
			if _, _, err := opt.Eng.Plan(q, planner.AllOn()); err != nil {
				break
			}
			if d := time.Since(start); best == 0 || d < best {
				best = d
			}
		}
		if best > 0 {
			bao += bySQL[sql].pct(0)
			native += ms(best)
		}
	}
	return ratio(bao, native)
}
