package nn

import (
	"math"
	"math/rand"
	"testing"
)

// numericalGrad estimates dLoss/dw for a single weight by central
// differences, where loss() recomputes the full forward pass.
func numericalGrad(w *float64, loss func() float64) float64 {
	const h = 1e-6
	orig := *w
	*w = orig + h
	lp := loss()
	*w = orig - h
	lm := loss()
	*w = orig
	return (lp - lm) / (2 * h)
}

// randomTree builds a random strictly binary tree with n internal+leaf
// nodes and d-dimensional features.
func randomTree(rng *rand.Rand, d int) *Tree {
	// Build a small binary tree: root with two children, each child maybe
	// with two children.
	n := 7
	t := NewTree(n, d)
	t.Left[0], t.Right[0] = 1, 2
	t.Left[1], t.Right[1] = 3, 4
	t.Left[2], t.Right[2] = 5, 6
	for i := range t.Feat {
		t.Feat[i] = rng.NormFloat64()
	}
	return t
}

func checkParamGrads(t *testing.T, name string, params []*Param, loss func() float64, backward func()) {
	t.Helper()
	for _, p := range params {
		p.ZeroGrad()
	}
	backward()
	for _, p := range params {
		for i := range p.W {
			num := numericalGrad(&p.W[i], loss)
			got := p.G[i]
			tol := 1e-4 * (1 + math.Abs(num))
			if math.Abs(num-got) > tol {
				t.Fatalf("%s: param %s[%d]: analytic grad %g, numerical %g", name, p.Name, i, got, num)
			}
		}
	}
}

// flatOf lays trees out as one batch of d-dimensional node features.
func flatOf(d int, trees ...*Tree) *Arena {
	a := &Arena{}
	a.place(trees, d)
	return a
}

// mixedTrees is a batch covering every child-order and missing-child
// path: preorder, postorder (children before parents), a single node, and
// a node with only a left child.
func mixedTrees(rng *rand.Rand, d int) []*Tree {
	post := NewTree(5, d)
	post.Left[2], post.Right[2] = 0, 1
	post.Left[4], post.Right[4] = 2, 3
	oneChild := NewTree(4, d)
	oneChild.Left[0], oneChild.Right[0] = 1, 2
	oneChild.Left[1] = 3
	trees := []*Tree{randomTree(rng, d), post, NewTree(1, d), oneChild}
	for _, t := range trees[1:] {
		for i := range t.Feat {
			t.Feat[i] = rng.NormFloat64()
		}
	}
	return trees
}

func TestTreeConvGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	conv := NewTreeConv("c", 3, 4, rng)
	a := flatOf(3, mixedTrees(rng, 3)...)
	target := make([]float64, a.n*4)
	for i := range target {
		target[i] = rng.NormFloat64()
	}
	y := make([]float64, a.n*4)
	loss := func() float64 {
		conv.forward(a.x, a.left, a.right, 0, a.n, y)
		s := 0.0
		for i, v := range y {
			d := v - target[i]
			s += d * d
		}
		return s
	}
	backward := func() {
		conv.forward(a.x, a.left, a.right, 0, a.n, y)
		g := make([]float64, len(y))
		for i, v := range y {
			g[i] = 2 * (v - target[i])
		}
		var sc gradScratch
		for r := 0; r < conv.Out; r += gradRows {
			conv.weightGrad(r, min(r+gradRows, conv.Out), g, a.x, a.left, a.right, a.off, &sc)
		}
	}
	checkParamGrads(t, "treeconv", conv.Params(), loss, backward)
}

func TestTreeConvInputGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	conv := NewTreeConv("c", 3, 2, rng)
	a := flatOf(3, mixedTrees(rng, 3)...)
	y := make([]float64, a.n*2)
	loss := func() float64 {
		conv.forward(a.x, a.left, a.right, 0, a.n, y)
		s := 0.0
		for _, v := range y {
			s += v * v
		}
		return s
	}
	loss()
	g := make([]float64, len(y))
	for i, v := range y {
		g[i] = 2 * v
	}
	dIn := make([]float64, len(a.x))
	conv.inputGrad(g, a.left, a.right, 0, a.n, dIn)
	for i := range a.x {
		num := numericalGrad(&a.x[i], loss)
		if math.Abs(num-dIn[i]) > 1e-4*(1+math.Abs(num)) {
			t.Fatalf("input grad [%d]: analytic %g, numerical %g", i, dIn[i], num)
		}
	}
}

// The layer norm kernels fuse the ReLU that always follows it in the
// TCNN, so the check runs through both.
func TestLayerNormGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ln := NewTreeLayerNorm("ln", 5)
	a := flatOf(5, mixedTrees(rng, 5)...)
	// Move gain and shift off their initial values so their gradients
	// are exercised in general position.
	for j := range ln.Gain.W {
		ln.Gain.W[j] += 0.3 * rng.NormFloat64()
		ln.Bias.W[j] = 0.3 * rng.NormFloat64()
	}
	target := make([]float64, len(a.x))
	for i := range target {
		target[i] = rng.NormFloat64()
	}
	y := make([]float64, len(a.x))
	z := make([]float64, len(a.x))
	istd := make([]float64, a.n)
	loss := func() float64 {
		copy(y, a.x)
		ln.forward(y, 0, a.n, nil, nil)
		s := 0.0
		for i, v := range y {
			d := v - target[i]
			s += d * d
		}
		return s
	}
	dIn := make([]float64, len(a.x))
	backward := func() {
		copy(y, a.x)
		ln.forward(y, 0, a.n, z, istd)
		g := make([]float64, len(y))
		for i, v := range y {
			g[i] = 2 * (v - target[i])
		}
		ln.backward(g, y, z, istd, 0, a.n, dIn)
		ln.weightGrad(g, z, a.off)
	}
	checkParamGrads(t, "layernorm", ln.Params(), loss, backward)

	// Input gradients too.
	backward()
	for i := range a.x {
		num := numericalGrad(&a.x[i], loss)
		if math.Abs(num-dIn[i]) > 1e-3*(1+math.Abs(num)) {
			t.Fatalf("layernorm input grad [%d]: analytic %g, numerical %g", i, dIn[i], num)
		}
	}
}

func TestLinearGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	lin := NewLinear("l", 4, 3, rng)
	x := []float64{0.5, -1.2, 2.0, 0.1}
	target := []float64{1, -1, 0.5}
	loss := func() float64 {
		y := lin.Forward(x)
		s := 0.0
		for i, v := range y {
			d := v - target[i]
			s += d * d
		}
		return s
	}
	backward := func() {
		y := lin.Forward(x)
		g := make([]float64, len(y))
		for i, v := range y {
			g[i] = 2 * (v - target[i])
		}
		lin.Backward(g)
	}
	checkParamGrads(t, "linear", lin.Params(), loss, backward)
}

// The whole network's gradient, over a mixed-shape batch split across
// two workers, must match central differences of the batch's summed
// squared error.
func TestTCNNEndToEndGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cfg := TCNNConfig{InDim: 3, Channels: [3]int{4, 3, 3}, Hidden: 3, Seed: 5}
	m := NewTCNN(cfg)
	trees := mixedTrees(rng, 3)
	targets := []float64{1.5, -0.5, 0.25, 1}
	idx := []int{0, 1, 2, 3}
	out := make([]float64, len(trees))
	var a Arena
	loss := func() float64 {
		m.Predict(trees, out, &a)
		s := 0.0
		for i, p := range out {
			d := p - targets[i]
			s += d * d
		}
		return s
	}
	for _, p := range m.Params() {
		p.ZeroGrad()
	}
	newTrainer(m, 2).step(trees, targets, idx, 2)
	// Spot-check a subset of parameters (full check is slow); use every
	// conv layer, a layer norm, and the head.
	params := []*Param{m.conv[0].Wleft, m.conv[1].Wroot, m.conv[2].Wright, m.conv[2].B,
		m.norm[1].Gain, m.fc1.W, m.fc2.B}
	for _, p := range params {
		for i := 0; i < len(p.W); i += 3 {
			num := numericalGrad(&p.W[i], loss)
			got := p.G[i]
			if math.Abs(num-got) > 1e-3*(1+math.Abs(num)) {
				t.Fatalf("tcnn %s[%d]: analytic %g, numerical %g", p.Name, i, got, num)
			}
		}
	}
}
