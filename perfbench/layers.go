package main

import (
	"time"

	"bao/internal/core"
	"bao/internal/executor"
	"bao/internal/nn"
	"bao/internal/planner"
)

// layers accumulates the benchmark-side spans of the in-process layers.
// Durations are in milliseconds; every series has one sample per call.
type layers struct {
	selects    series // Optimizer.SelectCtx
	selectSelf series // select minus the sub-layer spans it paid for
	analyze    series // Engine.AnalyzeSQL
	planArms   series // Engine.Plan over every arm, per planned selection
	native     series // Engine.AnalyzeSQL + Engine.Plan(AllOn)
	featurize  series // Featurizer.Vectorize over the unique plans
	infer      series // Model.Predict over the unique trees
	observe    series // Optimizer.Observe calls that did not retrain
	retrain    series // Optimizer.Observe calls during which TrainCount rose
	execute    series // Engine.ExecuteCtx

	candidates series // planner candidates per planned selection
	unique     series // unique plans per selection
	dedup      series // unique plans / arms
	inferNodes series // plan nodes per Predict call
	cpuOps     series
	pageMisses series

	// The optimizer's own stage timers over the replayed selections, to
	// check the replay against: lastStages is what they gained during the
	// last timeSelect.
	lastStages stages
	replay     series // per selection: replayed sub-layers ÷ the optimizer's timers for the same stages
}

// stages holds the optimizer's own stage timers, in ms. The benchmark
// reads them only to check its replay, never to report a layer.
type stages struct{ parse, plan, featurize, infer float64 }

func stageMS(opt *core.Bao) stages {
	o := opt.Observer()
	return stages{1000 * o.ParseSeconds.Sum(), 1000 * o.PlanSeconds.Sum(),
		1000 * o.FeatSeconds.Sum(), 1000 * o.InferSeconds.Sum()}
}

// timeSelect calls SelectCtx inside a span.
func (l *layers) timeSelect(opt *core.Bao, sql string) (*core.Selection, time.Duration, error) {
	before := stageMS(opt)
	t := time.Now()
	sel, err := opt.SelectCtx(bg, sql)
	d := time.Since(t)
	after := stageMS(opt)
	l.lastStages = stages{after.parse - before.parse, after.plan - before.plan,
		after.featurize - before.featurize, after.infer - before.infer}
	if err == nil {
		l.selects = append(l.selects, ms(d))
	}
	return sel, d, err
}

// replaySelect times the select stage's sub-layers from outside: it calls
// the same public functions SelectCtx calls, on the same inputs, right
// after the selection. planned says the selection planned every arm (a
// plan-cache miss), featurized that it vectorized its unique plans, and
// inferred that it ran a forward pass. The caller keeps the replay out of
// its own wall clock. It returns the replay's duration.
func (l *layers) replaySelect(opt *core.Bao, sel *core.Selection, selDur time.Duration, planned, featurized, inferred bool) time.Duration {
	start := time.Now()
	t := time.Now()
	q, err := opt.Eng.AnalyzeSQL(sel.SQL)
	analyze := time.Since(t)
	if err != nil {
		return time.Since(start)
	}
	l.analyze = append(l.analyze, ms(analyze))
	paid := analyze

	t = time.Now()
	if _, _, err := opt.Eng.Plan(q, planner.AllOn()); err == nil {
		l.native = append(l.native, ms(analyze+time.Since(t)))
	}

	uniqPlans, uniqTrees := uniqueOf(sel)
	l.unique = append(l.unique, float64(len(uniqTrees)))
	l.dedup = append(l.dedup, ratio(float64(len(uniqTrees)), float64(len(sel.Plans))))
	if planned {
		cands := 0
		t = time.Now()
		for _, arm := range opt.Cfg.Arms {
			_, c, _ := opt.Eng.Plan(q, arm.Hints)
			cands += c
		}
		d := time.Since(t)
		paid += d
		l.planArms = append(l.planArms, ms(d))
		l.candidates = append(l.candidates, float64(cands))
	}
	if featurized {
		t = time.Now()
		for _, p := range uniqPlans {
			opt.Feat.Vectorize(p)
		}
		d := time.Since(t)
		paid += d
		l.featurize = append(l.featurize, ms(d))
	}
	if inferred {
		nodes := 0
		for _, tr := range uniqTrees {
			nodes += tr.N
		}
		t = time.Now()
		opt.Model.Predict(uniqTrees)
		d := time.Since(t)
		paid += d
		l.infer = append(l.infer, ms(d))
		l.inferNodes = append(l.inferNodes, float64(nodes))
	}
	l.selectSelf = append(l.selectSelf, ms(selDur-paid))
	// Only the stages the replay repeated count on the optimizer's side:
	// on a full plan-cache hit its inference timer covers looking up the
	// cached predictions, which the replay has no call for.
	own := l.lastStages.parse
	if planned {
		own += l.lastStages.plan
	}
	if featurized {
		own += l.lastStages.featurize
	}
	if inferred {
		own += l.lastStages.infer
	}
	l.replay = append(l.replay, ratio(ms(paid), own))
	return time.Since(start)
}

// timeExecute calls ExecuteCtx inside a span and records its counters.
func (l *layers) timeExecute(opt *core.Bao, sel *core.Selection) ([]byte, executor.Counters, error) {
	t := time.Now()
	res, err := opt.Eng.ExecuteCtx(bg, sel.Plans[sel.ArmID])
	d := time.Since(t)
	if err != nil {
		return nil, executor.Counters{}, err
	}
	l.execute = append(l.execute, ms(d))
	l.cpuOps = append(l.cpuOps, float64(res.Counters.CPUOps))
	l.pageMisses = append(l.pageMisses, float64(res.Counters.PageMisses))
	return rowsChecksum(res.Rows), res.Counters, nil
}

// timeObserve calls Observe inside a span, filing it as a retrain when
// the model's train count rose during the call.
func (l *layers) timeObserve(opt *core.Bao, sel *core.Selection, c executor.Counters) {
	before := opt.TrainCount()
	t := time.Now()
	opt.Observe(sel, c)
	d := ms(time.Since(t))
	if opt.TrainCount() > before {
		l.retrain = append(l.retrain, d)
	} else {
		l.observe = append(l.observe, d)
	}
}

// uniqueOf returns one plan and one tree per dedup group of a selection:
// arms in one group share a tree.
func uniqueOf(sel *core.Selection) ([]*planner.Node, []*nn.Tree) {
	seen := make(map[*nn.Tree]bool, len(sel.Trees))
	var plans []*planner.Node
	var trees []*nn.Tree
	for i, t := range sel.Trees {
		if t == nil || seen[t] {
			continue
		}
		seen[t] = true
		plans = append(plans, sel.Plans[i])
		trees = append(trees, t)
	}
	return plans, trees
}

// addTo reports the in-process layer metrics.
func (l *layers) addTo(r *report) {
	n := len(l.selects)
	r.add("core.select_p50_ms", "ms", l.selects.pct(50), n)
	r.add("core.select_p99_ms", "ms", l.selects.pct(99), n)
	r.add("core.select_self_ms", "ms", l.selectSelf.mean(), len(l.selectSelf))
	r.add("planner.analyze_ms", "ms", l.analyze.mean(), len(l.analyze))
	r.add("planner.plan_arms_ms", "ms", l.planArms.mean(), len(l.planArms))
	r.add("planner.candidates", "count", l.candidates.mean(), len(l.candidates))
	r.add("planner.native_ms", "ms", l.native.pct(50), len(l.native))
	r.add("core.featurize_ms", "ms", l.featurize.mean(), len(l.featurize))
	r.add("core.unique_plans", "count", l.unique.mean(), len(l.unique))
	r.add("core.dedup_ratio", "ratio", l.dedup.mean(), len(l.dedup))
	r.add("core.observe_ms", "ms", l.observe.mean(), len(l.observe))
	r.add("nn.infer_ms", "ms", l.infer.mean(), len(l.infer))
	r.add("nn.infer_nodes", "count", l.inferNodes.mean(), len(l.inferNodes))
	r.add("nn.retrain_p50_ms", "ms", l.retrain.pct(50), len(l.retrain))
	r.add("nn.retrain_total_ms", "ms", l.retrain.sum(), len(l.retrain))
	r.add("executor.execute_p50_ms", "ms", l.execute.pct(50), len(l.execute))
	r.add("executor.execute_p99_ms", "ms", l.execute.pct(99), len(l.execute))
	r.add("executor.cpu_ops", "count", l.cpuOps.mean(), len(l.cpuOps))
	r.add("executor.page_misses", "count", l.pageMisses.mean(), len(l.pageMisses))
}

// selfSum is the summed self time of the in-process layers, in ms.
func (l *layers) selfSum() float64 {
	return l.selectSelf.sum() + l.analyze.sum() + l.planArms.sum() + l.featurize.sum() +
		l.infer.sum() + l.execute.sum() + l.observe.sum() + l.retrain.sum()
}
