package model

import (
	"math"
	"sort"
	"sync"

	"bao/internal/nn"
)

func log1p(x float64) float64 { return math.Log1p(x) }
func expm1(x float64) float64 { return math.Expm1(x) }

// TCNNModel is Bao's value model: the tree convolutional network of
// Figure 5, trained with Adam on log-space targets.
//
// Predict is safe for concurrent callers: inference is a pure function of
// the network's read-only weights and a scratch arena taken from a shared
// pool for the duration of the call. Fit and Load are NOT safe to run
// concurrently with Predict, so Bao never refits a published model: every
// retrain fits a detached instance and swaps it in whole.
type TCNNModel struct {
	net        *nn.TCNN
	cfg        nn.TCNNConfig
	train      nn.TrainConfig
	mean       float64
	std        float64
	yMin, yMax float64 // observed target range, in log space
	fit        bool
	lastFit    nn.TrainResult
	workers    int // inference fan-out; 0 = one per CPU
}

// arenas pools inference scratch across calls and models, so steady-state
// Predict calls allocate only their result.
var arenas = sync.Pool{New: func() any { return new(nn.Arena) }}

// NewTCNN builds an untrained TCNN model for the given input feature
// dimension. Each Fit reinitializes the network (Thompson sampling trains a
// fresh network per bootstrap).
func NewTCNN(inDim int, train nn.TrainConfig, seed int64) *TCNNModel {
	cfg := nn.DefaultTCNNConfig(inDim)
	cfg.Seed = seed
	return &TCNNModel{cfg: cfg, train: train}
}

// Name implements Model.
func (m *TCNNModel) Name() string { return "TCNN" }

// Fit implements Model: reinitializes and trains the network.
func (m *TCNNModel) Fit(trees []*nn.Tree, secs []float64) int {
	if len(trees) == 0 {
		m.fit = false
		return 0
	}
	ys := make([]float64, len(secs))
	var sum, sq float64
	m.yMax = math.Inf(-1)
	for i, s := range secs {
		ys[i] = logTransform(s)
		sum += ys[i]
		if ys[i] > m.yMax {
			m.yMax = ys[i]
		}
	}
	// The prediction floor is the 25th percentile of observed targets, not
	// the minimum: an unexplored plan then looks "decent" rather than
	// "best possible", so the bandit explores where its known arms are
	// slow (tail queries, where exploration pays) and exploits where they
	// are already fast.
	sorted := append([]float64(nil), ys...)
	sort.Float64s(sorted)
	m.yMin = sorted[len(sorted)/4]
	m.mean = sum / float64(len(ys))
	for _, y := range ys {
		sq += (y - m.mean) * (y - m.mean)
	}
	m.std = math.Sqrt(sq/float64(len(ys))) + 1e-6
	for i := range ys {
		ys[i] = (ys[i] - m.mean) / m.std
	}
	m.cfg.Seed++ // fresh initialization per bootstrap
	m.net = nn.NewTCNN(m.cfg)
	res := m.net.Train(trees, ys, m.train)
	m.fit = true
	m.lastFit = res
	return res.Epochs
}

// SetWorkers caps the goroutines Predict fans trees across (and, when the
// training config leaves Workers unset, the training data parallelism).
// Zero or negative means one worker per CPU; results are identical at any
// worker count.
func (m *TCNNModel) SetWorkers(n int) {
	m.workers = n
	if m.train.Workers == 0 {
		m.train.Workers = n
	}
}

// LastFit returns the training summary (epochs, final loss, wall time) of
// the most recent Fit. The observability layer reads it to export the
// bao_train_loss gauge.
func (m *TCNNModel) LastFit() nn.TrainResult { return m.lastFit }

// parallelPredictMin is the tree count below which Predict stays on the
// sequential path: with only a handful of trees the goroutine fan-out
// costs more than the forward passes it would overlap.
const parallelPredictMin = 8

// Predict implements Model. The trees run through the network as one
// flat batch, or, above parallelPredictMin trees with more than one
// worker, as one contiguous range per worker. Every tree's prediction
// depends only on that tree and the weights, so the result is identical
// at any worker count.
func (m *TCNNModel) Predict(trees []*nn.Tree) []float64 {
	out := make([]float64, len(trees))
	if !m.fit {
		return out
	}
	w := m.predictWorkers(len(trees))
	if w <= 1 {
		m.predictRange(trees, out)
		return out
	}
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for k := 1; k < w; k++ {
		lo, hi := k*len(trees)/w, (k+1)*len(trees)/w
		go func() {
			defer wg.Done()
			m.predictRange(trees[lo:hi], out[lo:hi])
		}()
	}
	m.predictRange(trees[:len(trees)/w], out[:len(trees)/w])
	wg.Wait()
	return out
}

// predictWorkers is the fan-out Predict uses for n trees.
func (m *TCNNModel) predictWorkers(n int) int {
	if n < parallelPredictMin {
		return 1
	}
	return min(nn.Workers(m.workers), n)
}

// predictRange predicts trees into out in one pass over a pooled arena.
func (m *TCNNModel) predictRange(trees []*nn.Tree, out []float64) {
	a := arenas.Get().(*nn.Arena)
	m.net.Predict(trees, out, a)
	arenas.Put(a)
	for i, raw := range out {
		out[i] = m.postprocess(raw)
	}
}

// postprocess maps a raw normalized network output back to seconds.
func (m *TCNNModel) postprocess(raw float64) float64 {
	y := raw*m.std + m.mean
	// Clamp to the observed target range: the model has no basis for
	// predicting performance outside what it has seen, and an argmin
	// over arms would otherwise chase wild extrapolations.
	if y < m.yMin {
		y = m.yMin
	}
	if y > m.yMax {
		y = m.yMax
	}
	return invTransform(y)
}

// Trained reports whether the model has been fit at least once.
func (m *TCNNModel) Trained() bool { return m.fit }
