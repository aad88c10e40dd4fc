package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTreeValidate(t *testing.T) {
	tr := NewTree(3, 2)
	tr.Left[0], tr.Right[0] = 1, 2
	if err := tr.Validate(); err != nil {
		t.Fatalf("valid tree rejected: %v", err)
	}
	if !tr.IsBinary() {
		t.Fatal("tree with 0-or-2 children should be binary")
	}
	tr.Right[0] = -1
	if tr.IsBinary() {
		t.Fatal("one-child node should not be binary")
	}
	tr.Right[0] = 5
	if err := tr.Validate(); err == nil {
		t.Fatal("out-of-range child accepted")
	}
	tr.Right[0] = 0
	if err := tr.Validate(); err == nil {
		t.Fatal("self-child accepted")
	}
	tr.Right[0] = 1
	if err := tr.Validate(); err == nil {
		t.Fatal("duplicate child accepted")
	}
}

// predict1 runs one tree through the network.
func predict1(m *TCNN, t *Tree) float64 {
	out := make([]float64, 1)
	m.Predict([]*Tree{t}, out, &Arena{})
	return out[0]
}

// Laying trees out flat keeps each tree's shape: node counts add up,
// child links are shifted by the tree's offset, and a tree convolved
// inside a batch gets exactly the output it gets alone.
func TestTreeConvShapePreserving(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	conv := NewTreeConv("c", 4, 8, rng)
	first, second := randomTree(rng, 4), randomTree(rng, 4)
	a := flatOf(4, first, second)
	if a.n != first.N+second.N || a.off[1] != int32(first.N) || a.off[2] != int32(a.n) {
		t.Fatalf("layout has %d nodes, offsets %v", a.n, a.off)
	}
	for i := 0; i < second.N; i++ {
		g := first.N + i
		if a.left[g] != global(second.Left[i], first.N) || a.right[g] != global(second.Right[i], first.N) {
			t.Fatal("layout changed topology")
		}
	}
	y := make([]float64, a.n*8)
	conv.forward(a.x, a.left, a.right, 0, a.n, y)
	alone := flatOf(4, second)
	ya := make([]float64, alone.n*8)
	conv.forward(alone.x, alone.left, alone.right, 0, alone.n, ya)
	for i, v := range ya {
		if y[first.N*8+i] != v {
			t.Fatalf("batched conv output [%d] = %g, alone %g", i, y[first.N*8+i], v)
		}
	}
}

// Property: tree convolution is sensitive to which side a child is on
// (left vs right use different weights), which is what lets it recognize
// patterns like "merge join whose left child is a sort".
func TestTreeConvChildOrderSensitive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	conv := NewTreeConv("c", 3, 3, rng)
	a := NewTree(3, 3)
	a.Left[0], a.Right[0] = 1, 2
	for i := range a.Feat {
		a.Feat[i] = rng.NormFloat64()
	}
	b := NewTree(3, 3)
	b.Left[0], b.Right[0] = 2, 1 // swapped children
	copy(b.Feat, a.Feat)
	fa, fb := flatOf(3, a), flatOf(3, b)
	ya, yb := make([]float64, 9), make([]float64, 9)
	conv.forward(fa.x, fa.left, fa.right, 0, fa.n, ya)
	conv.forward(fb.x, fb.left, fb.right, 0, fb.n, yb)
	diff := 0.0
	for i := 0; i < 3; i++ {
		diff += math.Abs(ya[i] - yb[i])
	}
	if diff < 1e-9 {
		t.Fatal("tree conv output identical after swapping children; left/right weights must differ")
	}
}

func TestDynamicPoolMax(t *testing.T) {
	x := []float64{1, -5, 3, 2, -1, 7}
	out := make([]float64, 2)
	argmax := make([]int32, 2)
	poolMax(x, 0, 3, 2, out, argmax)
	if out[0] != 3 || out[1] != 7 {
		t.Fatalf("pool = %v, want [3 7]", out)
	}
	// Gradient must land on node 1 channel 0 and node 2 channel 1.
	if argmax[0] != 1 || argmax[1] != 2 {
		t.Fatalf("pool argmax = %v, want [1 2]", argmax)
	}
	// Pooling a later tree of a batch reports global node indices.
	x2 := append([]float64{9, 9}, x...)
	poolMax(x2, 1, 4, 2, out, argmax)
	if out[0] != 3 || out[1] != 7 || argmax[0] != 2 || argmax[1] != 3 {
		t.Fatalf("offset pool = %v argmax %v", out, argmax)
	}
}

// Property: pooling output is invariant to node storage order (max is
// commutative), checked with testing/quick.
func TestDynamicPoolPermutationInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		d := 1 + rng.Intn(5)
		feats := make([]float64, n*d)
		for i := range feats {
			feats[i] = rng.NormFloat64()
		}
		// Permute node order.
		perm := rng.Perm(n)
		permuted := make([]float64, n*d)
		for i, p := range perm {
			copy(permuted[p*d:p*d+d], feats[i*d:i*d+d])
		}
		o1, o2 := make([]float64, d), make([]float64, d)
		am := make([]int32, d)
		poolMax(feats, 0, n, d, o1, am)
		poolMax(permuted, 0, n, d, o2, am)
		for i := range o1 {
			if math.Abs(o1[i]-o2[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLayerNormNormalizes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ln := NewTreeLayerNorm("ln", 6)
	in := randomTree(rng, 6)
	// Scale input wildly; the normalized activations recorded for
	// backward must have ~zero mean and ~unit variance per node, and with
	// unit gain and zero bias the output is their ReLU.
	for i := range in.Feat {
		in.Feat[i] *= 100
	}
	y := append([]float64(nil), in.Feat...)
	z := make([]float64, len(y))
	istd := make([]float64, in.N)
	ln.forward(y, 0, in.N, z, istd)
	for i := 0; i < in.N; i++ {
		row := z[i*6 : i*6+6]
		mu, va := 0.0, 0.0
		for _, v := range row {
			mu += v
		}
		mu /= 6
		for _, v := range row {
			va += (v - mu) * (v - mu)
		}
		va /= 6
		if math.Abs(mu) > 1e-9 {
			t.Fatalf("node %d mean = %g, want ~0", i, mu)
		}
		if math.Abs(va-1) > 1e-3 {
			t.Fatalf("node %d var = %g, want ~1", i, va)
		}
		for j, v := range row {
			if want := math.Max(v, 0); y[i*6+j] != want {
				t.Fatalf("node %d output [%d] = %g, want ReLU(z) = %g", i, j, y[i*6+j], want)
			}
		}
	}
}

func TestAdamConvergesOnConvexProblem(t *testing.T) {
	// Minimize (w-3)^2 + (v+2)^2.
	p := NewZeroParam("p", 2, 1)
	opt := NewAdam(0.1)
	for i := 0; i < 500; i++ {
		p.G[0] = 2 * (p.W[0] - 3)
		p.G[1] = 2 * (p.W[1] + 2)
		opt.Step([]*Param{p})
	}
	if math.Abs(p.W[0]-3) > 1e-2 || math.Abs(p.W[1]+2) > 1e-2 {
		t.Fatalf("adam did not converge: %v", p.W)
	}
}

func TestTCNNLearnsSimpleFunction(t *testing.T) {
	// Target: sum of root features. The TCNN should fit this quickly.
	rng := rand.New(rand.NewSource(4))
	cfg := TCNNConfig{InDim: 3, Channels: [3]int{8, 8, 8}, Hidden: 8, Seed: 2}
	m := NewTCNN(cfg)
	var trees []*Tree
	var ys []float64
	for i := 0; i < 60; i++ {
		tr := randomTree(rng, 3)
		trees = append(trees, tr)
		s := 0.0
		for _, v := range tr.Row(0) {
			s += v
		}
		ys = append(ys, s)
	}
	tc := DefaultTrainConfig()
	tc.MaxEpochs = 200
	tc.Patience = 50
	res := m.Train(trees, ys, tc)
	if res.FinalLoss > 0.15 {
		t.Fatalf("TCNN failed to fit simple function: loss %g after %d epochs", res.FinalLoss, res.Epochs)
	}
}

func TestTCNNSnapshotRestore(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cfg := TCNNConfig{InDim: 3, Channels: [3]int{4, 4, 4}, Hidden: 4, Seed: 3}
	m := NewTCNN(cfg)
	in := randomTree(rng, 3)
	before := predict1(m, in)
	snap := m.Snapshot()
	// Perturb all weights.
	for _, p := range m.Params() {
		for i := range p.W {
			p.W[i] += 0.5
		}
	}
	if predict1(m, in) == before {
		t.Fatal("perturbation had no effect; test is vacuous")
	}
	m.Restore(snap)
	if got := predict1(m, in); got != before {
		t.Fatalf("restore did not recover prediction: %g != %g", got, before)
	}
}

func TestMLPLearnsLinearFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := NewMLP([]int{3, 16, 1}, 7)
	var xs [][]float64
	var ys []float64
	for i := 0; i < 100; i++ {
		x := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		xs = append(xs, x)
		ys = append(ys, 2*x[0]-x[1]+0.5*x[2])
	}
	tc := DefaultTrainConfig()
	tc.MaxEpochs = 300
	tc.Patience = 50
	res := m.FitScalar(xs, ys, tc)
	if res.FinalLoss > 0.05 {
		t.Fatalf("MLP failed to fit linear function: loss %g", res.FinalLoss)
	}
}

func TestTrainDeterministic(t *testing.T) {
	build := func() float64 {
		rng := rand.New(rand.NewSource(12))
		cfg := TCNNConfig{InDim: 3, Channels: [3]int{4, 4, 4}, Hidden: 4, Seed: 9}
		m := NewTCNN(cfg)
		var trees []*Tree
		var ys []float64
		for i := 0; i < 20; i++ {
			trees = append(trees, randomTree(rng, 3))
			ys = append(ys, rng.NormFloat64())
		}
		tc := DefaultTrainConfig()
		tc.MaxEpochs = 5
		m.Train(trees, ys, tc)
		return predict1(m, trees[0])
	}
	if a, b := build(), build(); a != b {
		t.Fatalf("training not deterministic: %g != %g", a, b)
	}
}

func TestLayerNormConstantInput(t *testing.T) {
	// Zero-variance rows must not divide by zero; eps keeps output finite.
	ln := NewTreeLayerNorm("ln", 4)
	y := []float64{3.14, 3.14, 3.14, 3.14, 3.14, 3.14, 3.14, 3.14}
	z := make([]float64, len(y))
	istd := make([]float64, 2)
	ln.forward(y, 0, 2, z, istd)
	for _, v := range y {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("layer norm produced %v on constant input", v)
		}
	}
	g := make([]float64, len(y))
	dIn := make([]float64, len(y))
	ln.backward(g, y, z, istd, 0, 2, dIn)
	for _, v := range dIn {
		if math.IsNaN(v) {
			t.Fatal("layer norm backward produced NaN on constant input")
		}
	}
}

func TestAdamWeightDecayShrinksUnusedWeights(t *testing.T) {
	// With zero gradients, decoupled weight decay must still pull weights
	// toward zero (the mechanism that tames extrapolation).
	p := NewConstParam("p", 4, 1, 1.0)
	opt := NewAdam(0.01)
	for i := 0; i < 100; i++ {
		opt.Step([]*Param{p})
	}
	for _, w := range p.W {
		if w >= 1.0 {
			t.Fatalf("weight decay had no effect: %v", w)
		}
		if w < 0 {
			t.Fatalf("weight decay overshot below zero: %v", w)
		}
	}
}

func TestSingleNodeTree(t *testing.T) {
	// A one-node "tree" (leaf-only plan) must flow through every layer,
	// forward and backward.
	cfg := TCNNConfig{InDim: 3, Channels: [3]int{4, 4, 4}, Hidden: 4, Seed: 8}
	m := NewTCNN(cfg)
	tr := NewTree(1, 3)
	tr.Feat[0], tr.Feat[1], tr.Feat[2] = 1, 2, 3
	out := predict1(m, tr)
	if math.IsNaN(out) {
		t.Fatal("single-node tree produced NaN")
	}
	newTrainer(m, 1).step([]*Tree{tr}, []float64{0}, []int{0}, 1) // must not panic
	for _, p := range m.Params() {
		for _, g := range p.G {
			if math.IsNaN(g) {
				t.Fatalf("single-node tree produced a NaN gradient in %s", p.Name)
			}
		}
	}
}
