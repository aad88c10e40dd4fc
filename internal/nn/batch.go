package nn

import "sync"

// Batcher coalesces concurrent Predict calls against the same model into
// shared forward passes — the cross-request analogue of per-query plan
// deduplication: where dedup amortizes tree-convolution setup across the
// arms of one query, the batcher amortizes it across the distinct plan
// tensors of queries in flight at the same time.
//
// The combining pattern needs no timer and adds zero latency under low
// concurrency: the first caller for a model key runs its own trees
// immediately, and callers arriving while that pass is in flight queue up
// and are drained by the pass owner in coalesced batches — the in-flight
// pass IS the gather window, so the wait is never longer than one forward
// pass. A coalesced pass concatenates the callers' trees, runs the
// predict function once over them, and splits the predictions back.
// Batches are bounded by MaxTrees per pass.
//
// The predict function is the TCNN's flat kernel, a pure function of
// read-only weights and per-call scratch, so correctness relies only on
// it being per-tree independent: a coalesced pass returns byte-identical
// results to the same calls made alone, at any concurrency. Callers key
// passes by model instance, so requests snapshotting different models —
// e.g. across a hot-swap — never share a pass.
type Batcher struct {
	// MaxTrees bounds the trees coalesced into one forward pass; a drain
	// round splits an oversized queue into several passes. Zero or
	// negative means 64.
	MaxTrees int
	// OnBatch, when non-nil, observes every forward pass the batcher
	// issues: the tree count and how many waiting calls it coalesced
	// (1 for a direct pass). Must be safe for concurrent use.
	OnBatch func(trees, calls int)

	mu    sync.Mutex
	busy  map[any]bool
	queue map[any][]*batchCall
}

// batchCall is one queued Predict awaiting a coalesced pass.
type batchCall struct {
	trees []*Tree
	done  chan batchResult
}

// batchResult delivers a pass's outcome to a waiter: its slice of the
// predictions, or the value the predict function panicked with (re-raised
// in the waiter's goroutine so a model bug surfaces at the caller, not in
// a stranded channel).
type batchResult struct {
	preds    []float64
	panicked any
}

// NewBatcher returns a batcher bounding passes to maxTrees trees.
func NewBatcher(maxTrees int) *Batcher {
	return &Batcher{
		MaxTrees: maxTrees,
		busy:     make(map[any]bool),
		queue:    make(map[any][]*batchCall),
	}
}

func (b *Batcher) maxTrees() int {
	if b.MaxTrees <= 0 {
		return 64
	}
	return b.MaxTrees
}

// Predict runs fn over trees, coalescing with concurrent Predict calls
// that share the same key. The result is exactly fn(trees) — order
// preserved, values byte-identical — however the trees were grouped into
// passes. fn must be safe for concurrent calls with the same key (the
// TCNN's Predict is) and per-tree independent.
func (b *Batcher) Predict(key any, fn func([]*Tree) []float64, trees []*Tree) []float64 {
	if len(trees) == 0 {
		return fn(trees)
	}
	b.mu.Lock()
	if b.busy[key] {
		// A pass for this model is in flight: queue behind it and let the
		// pass owner run us in a coalesced batch when it drains.
		call := &batchCall{trees: trees, done: make(chan batchResult, 1)}
		b.queue[key] = append(b.queue[key], call)
		b.mu.Unlock()
		res := <-call.done
		if res.panicked != nil {
			panic(res.panicked)
		}
		return res.preds
	}
	b.busy[key] = true
	b.mu.Unlock()
	// Direct path: the model is idle, so run immediately — no gather
	// delay — and afterwards drain whatever queued up behind this pass.
	// The drain runs in a defer so waiters are never stranded even when
	// fn panics for the direct caller.
	defer b.drain(key, fn)
	if b.OnBatch != nil {
		b.OnBatch(len(trees), 1)
	}
	return fn(trees)
}

// drain serves queued calls for key in coalesced passes until the queue
// is empty, then releases the busy flag. A panic inside one pass is
// delivered to that pass's waiters (each re-raises it) and draining
// continues, so one poisoned batch cannot wedge the model's queue.
func (b *Batcher) drain(key any, fn func([]*Tree) []float64) {
	for {
		b.mu.Lock()
		pending := b.queue[key]
		if len(pending) == 0 {
			delete(b.queue, key)
			delete(b.busy, key)
			b.mu.Unlock()
			return
		}
		// Take whole calls up to the tree bound (always at least one, so
		// a single oversized call still runs).
		batch := pending[:1]
		total := len(pending[0].trees)
		for _, c := range pending[1:] {
			if total+len(c.trees) > b.maxTrees() {
				break
			}
			batch = append(batch, c)
			total += len(c.trees)
		}
		b.queue[key] = pending[len(batch):]
		b.mu.Unlock()
		b.runBatch(batch, total, fn)
	}
}

// runBatch concatenates the calls' trees into one forward pass and fans
// the predictions back out per call.
func (b *Batcher) runBatch(batch []*batchCall, total int, fn func([]*Tree) []float64) {
	defer func() {
		if r := recover(); r != nil {
			for _, c := range batch {
				c.done <- batchResult{panicked: r}
			}
		}
	}()
	all := make([]*Tree, 0, total)
	for _, c := range batch {
		all = append(all, c.trees...)
	}
	if b.OnBatch != nil {
		b.OnBatch(total, len(batch))
	}
	preds := fn(all)
	off := 0
	for _, c := range batch {
		c.done <- batchResult{preds: preds[off : off+len(c.trees)]}
		off += len(c.trees)
	}
}
