package model

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"bao/internal/nn"
)

// goldenDim is the plan featurization width (core.FeatureDim; core imports
// this package, so the constant is repeated here).
const goldenDim = 14

// goldenTrees builds a reproducible set of plan-like trees: one-hot
// operator columns plus continuous estimate columns, in four shapes —
// preorder (the featurizer's layout), postorder (children stored before
// their parent), a single node, and a node with only a left child — so
// the pinned hashes cover every child-order and missing-child path.
func goldenTrees(n int, seed int64) ([]*nn.Tree, []float64) {
	rng := rand.New(rand.NewSource(seed))
	trees := make([]*nn.Tree, 0, n)
	secs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		var t *nn.Tree
		switch i % 4 {
		case 0: // preorder, strictly binary
			size := 3 + 2*rng.Intn(5)
			t = nn.NewTree(size, goldenDim)
			for j := 0; j+2 < size; j += 2 {
				t.Left[j/2], t.Right[j/2] = j+1, j+2
			}
		case 1: // postorder: root last, children before parents
			t = nn.NewTree(5, goldenDim)
			t.Left[2], t.Right[2] = 0, 1
			t.Left[4], t.Right[4] = 2, 3
		case 2: // a leaf-only plan
			t = nn.NewTree(1, goldenDim)
		case 3: // one-child node (tolerated, treated as a zero right child)
			t = nn.NewTree(4, goldenDim)
			t.Left[0], t.Right[0] = 1, 2
			t.Left[1] = 3
		}
		for node := 0; node < t.N; node++ {
			row := t.Row(node)
			row[rng.Intn(goldenDim-3)] = 1
			for j := goldenDim - 3; j < goldenDim; j++ {
				row[j] = rng.Float64()
			}
		}
		trees = append(trees, t)
		secs = append(secs, 0.001*math.Exp(4*rng.Float64())*float64(t.N))
	}
	return trees, secs
}

// hashFloats is the SHA-256 of the float64 bit patterns, in order.
func hashFloats(h [][]float64) string {
	sum := sha256.New()
	var b [8]byte
	for _, v := range h {
		for _, f := range v {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
			sum.Write(b[:])
		}
	}
	return hex.EncodeToString(sum.Sum(nil))
}

// goldenCase trains one model and hashes its weights and predictions.
type goldenCase struct {
	name          string
	cfg           func(int) nn.TCNNConfig
	trainN        int
	epochs        int
	weights, pred string // pinned SHA-256
}

var goldenCases = []goldenCase{
	{name: "default", cfg: nn.DefaultTCNNConfig, trainN: 40, epochs: 4,
		weights: "0a4fea08c140c9360d18575d41dc6c7528fc171199d53f1673aebc880d14e17f",
		pred:    "4ed23f59f1a46a2bf786354ea7fd66f2d20d6bbc8875c265a7d1f368599eba0d"},
	{name: "paper", cfg: nn.PaperTCNNConfig, trainN: 20, epochs: 2,
		weights: "4e11be44c456e6beda0b8d8cb7ae8be20b2fac7865238778572e7a14b41ded79",
		pred:    "b8075ea9b4cb292e01d29a4408070d7e4f1654eda08097b6f1696027829cc276"},
}

func (c goldenCase) run(t *testing.T, workers int) (weights, pred string) {
	trees, secs := goldenTrees(c.trainN+30, 17)
	tc := nn.DefaultTrainConfig()
	tc.MaxEpochs = c.epochs
	tc.Patience = c.epochs + 1 // fixed epoch count
	m := NewTCNN(goldenDim, tc, 5)
	m.cfg = c.cfg(goldenDim)
	m.cfg.Seed = 5
	m.SetWorkers(workers)
	m.Fit(trees[:c.trainN], secs[:c.trainN])
	// Predict a large batch (fanned out above one worker), a small one,
	// and the training set.
	preds := [][]float64{
		m.Predict(trees[c.trainN:]),
		m.Predict(trees[c.trainN : c.trainN+3]),
		m.Predict(trees[:c.trainN]),
	}
	// Predictions clamped to the target range would hide raw-output
	// differences; most must fall strictly inside it.
	lo, hi := invTransform(m.yMin), invTransform(m.yMax)
	inside := 0
	for _, p := range preds[0] {
		if p > lo && p < hi {
			inside++
		}
	}
	if inside < len(preds[0])/2 {
		t.Fatalf("only %d of %d predictions inside the clamp range", inside, len(preds[0]))
	}
	return hashFloats(m.net.Snapshot()), hashFloats(preds)
}

// TestGoldenTCNNHashes pins the SHA-256 of trained weights and of Predict
// outputs for the reproduction's model and a small paper-width model, at
// workers 1, 2 and 4. Any change to the kernels' floating-point operation
// order shows up here as a hash mismatch, so a kernel rewrite that claims
// bit-identical models is checked against the numbers the old kernels
// produced.
func TestGoldenTCNNHashes(t *testing.T) {
	for _, c := range goldenCases {
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(t *testing.T) {
				w, p := c.run(t, workers)
				if w != c.weights {
					t.Errorf("trained weights SHA-256 = %s, want %s", w, c.weights)
				}
				if p != c.pred {
					t.Errorf("Predict SHA-256 = %s, want %s", p, c.pred)
				}
			})
		}
	}
}

// TestKernelPredictConcurrentGoroutines runs many goroutines calling
// Predict on one trained model with batch sizes on both sides of the
// fan-out threshold; every result must equal the single-caller one. Under
// -race it checks that inference only reads the shared weights.
func TestKernelPredictConcurrentGoroutines(t *testing.T) {
	trees, secs := goldenTrees(80, 23)
	tc := nn.DefaultTrainConfig()
	tc.MaxEpochs = 2
	m := NewTCNN(goldenDim, tc, 29)
	m.SetWorkers(2)
	m.Fit(trees[:40], secs[:40])
	batches := [][]*nn.Tree{trees[40:], trees[40:43], trees[50:51], trees[:49]}
	want := make([][]float64, len(batches))
	for i, b := range batches {
		want[i] = m.Predict(b)
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 6; r++ {
				i := (g + r) % len(batches)
				got := m.Predict(batches[i])
				for k := range want[i] {
					if got[k] != want[i][k] {
						t.Errorf("goroutine %d batch %d: Predict[%d] = %g, want %g", g, i, k, got[k], want[i][k])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
