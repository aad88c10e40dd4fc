package nn

import (
	"math"
	"math/rand"
)

// The tree layers are stateless: they hold only their parameters, and
// their kernels read a batch laid out flat by Arena.layout — one
// row-major node matrix for every tree in the batch, int32 left/right
// child arrays holding global node indices (-1 for none), and per-tree
// node offsets. A kernel runs over a node range [lo, hi) of that matrix,
// which is a whole batch for inference and one worker's contiguous tree
// range in training, and writes into buffers the caller owns. Weights are
// only ever read, so any number of passes may share one network.
//
// Every kernel keeps the floating-point operation order of a node-at-a-
// time pass: each dot product is s += w*x in column order from zero, a
// convolution output is bias + root + left + right in that order, input
// gradients accumulate node by node, and a weight gradient is one partial
// sum per example, over its nodes in order, added into Param.G in batch
// order. Results are therefore bit-identical for any batch grouping and
// any worker count.
//
// Linear and ReLU below are the plain-vector layers of MLP; they keep
// their pass buffers between calls and are not goroutine-safe.

// resize returns buf resized to n, reusing its capacity when possible.
// Contents are unspecified; callers must overwrite every element.
func resize[T float64 | int32](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// zero clears buf.
func zero(buf []float64) {
	for i := range buf {
		buf[i] = 0
	}
}

// TreeConv is a tree convolution layer (Mou et al.). For every node i with
// children l and r it computes
//
//	y_i = Wroot·x_i + Wleft·x_l + Wright·x_r + b
//
// where a missing child contributes nothing (equivalently, a zero vector).
// The output has one Out-dimensional row per input node.
type TreeConv struct {
	In, Out              int
	Wroot, Wleft, Wright *Param
	B                    *Param
}

// NewTreeConv constructs a tree convolution mapping In-dim node features to
// Out-dim node features.
func NewTreeConv(name string, in, out int, rng *rand.Rand) *TreeConv {
	return &TreeConv{
		In: in, Out: out,
		Wroot:  NewParam(name+".root", out, in, rng),
		Wleft:  NewParam(name+".left", out, in, rng),
		Wright: NewParam(name+".right", out, in, rng),
		B:      NewZeroParam(name+".bias", out, 1),
	}
}

// forward writes the convolution of nodes [lo, hi) of the node matrix x
// (rows of In) into y (rows of Out).
func (c *TreeConv) forward(x []float64, left, right []int32, lo, hi int, y []float64) {
	in, out := c.In, c.Out
	for i := lo; i < hi; i++ {
		yi := y[i*out:][:out]
		copy(yi, c.B.W)
		matVec(c.Wroot.W, out, in, x[i*in:][:in], yi)
		if l := int(left[i]); l >= 0 {
			matVec(c.Wleft.W, out, in, x[l*in:][:in], yi)
		}
		if r := int(right[i]); r >= 0 {
			matVec(c.Wright.W, out, in, x[r*in:][:in], yi)
		}
	}
}

// inputGrad accumulates into dx (rows of In, zeroed by the caller) the
// gradient with respect to the input of nodes [lo, hi), given the output
// gradient g (rows of Out). Nodes are visited in order and each pushes
// its gradient to itself, then its left child, then its right child. The
// range must hold whole trees, since children receive gradient from
// their parent.
func (c *TreeConv) inputGrad(g []float64, left, right []int32, lo, hi int, dx []float64) {
	in, out := c.In, c.Out
	for i := lo; i < hi; i++ {
		gi := g[i*out:][:out]
		matTVec(c.Wroot.W, out, in, gi, dx[i*in:][:in])
		if l := int(left[i]); l >= 0 {
			matTVec(c.Wleft.W, out, in, gi, dx[l*in:][:in])
		}
		if r := int(right[i]); r >= 0 {
			matTVec(c.Wright.W, out, in, gi, dx[r*in:][:in])
		}
	}
}

// weightGrad adds to output rows [r0, r1) — at most gradRows of them — of
// every weight matrix and the bias their gradient over the batch: for
// each tree in batch order, the sum over the tree's nodes, in node order
// and skipping zero gradients, of g_i[r]·x_i, g_i[r]·x_left(i) and
// g_i[r]·x_right(i). g is the output gradient (rows of Out), x the layer
// input (rows of In).
func (c *TreeConv) weightGrad(r0, r1 int, g, x []float64, left, right, off []int32, sc *gradScratch) {
	in, out, nr := c.In, c.Out, r1-r0
	// The unit's rows of the three weight gradients and the bias are
	// summed in private scratch and written back once: other workers'
	// units write the neighbouring rows of the same arrays.
	sc.grow(3*nr*in + nr)
	rows, bias := sc.buf[:3*nr*in], sc.buf[3*nr*in:][:nr]
	ws := [3]*Param{c.Wroot, c.Wleft, c.Wright}
	for m, p := range ws {
		copy(rows[m*nr*in:][:nr*in], p.G[r0*in:])
	}
	copy(bias, c.B.G[r0:r1])
	part := sc.part[:nr*in]
	for t := 0; t+1 < len(off); t++ {
		lo, hi := int(off[t]), int(off[t+1])
		for j := range bias {
			sum := 0.0
			for i := lo; i < hi; i++ {
				sum += g[i*out+r0+j]
			}
			bias[j] += sum
		}
		for m, child := range [3][]int32{nil, left, right} {
			// A tree whose gradient rows are all zero leaves part at +0,
			// and adding +0 leaves the sums unchanged (they start at +0,
			// so they are never -0).
			zero(part)
			for i := lo; i < hi; i++ {
				s := i
				if child != nil {
					if s = int(child[i]); s < 0 {
						continue
					}
				}
				nodeGrad(part, g[i*out+r0:][:nr], x[s*in:][:in])
			}
			dst := rows[m*nr*in:][:len(part)]
			for j, v := range part {
				dst[j] += v
			}
		}
	}
	for m, p := range ws {
		copy(p.G[r0*in:], rows[m*nr*in:][:nr*in])
	}
	copy(c.B.G[r0:r1], bias)
}

// nodeGrad adds g[j]·x to row j of acc (rows of len(x)) for every j with
// a nonzero g[j]. Four nonzero rows share one pass over x.
func nodeGrad(acc, g, x []float64) {
	in := len(x)
	if len(g) == 4 && g[0] != 0 && g[1] != 0 && g[2] != 0 && g[3] != 0 {
		g0, g1, g2, g3 := g[0], g[1], g[2], g[3]
		a0, a1, a2, a3 := acc[:in], acc[in:][:in], acc[2*in:][:in], acc[3*in:][:in]
		for c, v := range x {
			a0[c] += g0 * v
			a1[c] += g1 * v
			a2[c] += g2 * v
			a3[c] += g3 * v
		}
		return
	}
	for j, gv := range g {
		if gv == 0 {
			continue
		}
		a := acc[j*in:][:in]
		for c, v := range x {
			a[c] += gv * v
		}
	}
}

// gradScratch is one worker's scratch for weight gradients.
type gradScratch struct {
	buf  []float64 // a unit's gradient rows, summed over the batch
	part []float64 // one tree's partial sums of the unit's rows
}

// grow sizes both buffers for n floats, padding each by a cache line on
// both sides: workers' scratch buffers are heap objects that would
// otherwise share lines.
func (sc *gradScratch) grow(n int) {
	if len(sc.buf) < n {
		sc.buf = make([]float64, n+16)[8 : 8+n]
	}
	if len(sc.part) < n {
		sc.part = make([]float64, n+16)[8 : 8+n]
	}
}

// Params returns the layer's trainable parameters.
func (c *TreeConv) Params() []*Param { return []*Param{c.Wroot, c.Wleft, c.Wright, c.B} }

// TreeLayerNorm normalizes each node's feature vector to zero mean and unit
// variance across channels, then applies a learned gain and shift. This is
// the layer normalization Bao applies between tree convolutions; in the
// TCNN it is always followed by a ReLU, which its kernels fuse.
type TreeLayerNorm struct {
	D          int
	Gain, Bias *Param
	eps        float64
}

// NewTreeLayerNorm constructs a layer norm over d channels.
func NewTreeLayerNorm(name string, d int) *TreeLayerNorm {
	return &TreeLayerNorm{
		D:    d,
		Gain: NewConstParam(name+".gain", d, 1, 1),
		Bias: NewZeroParam(name+".bias", d, 1),
		eps:  1e-5,
	}
}

// forward normalizes rows [lo, hi) of y in place and applies gain, shift
// and ReLU. When z is non-nil it records each node's normalized
// activations (rows of D) and inverse deviation istd for backward.
func (n *TreeLayerNorm) forward(y []float64, lo, hi int, z, istd []float64) {
	d := n.D
	var mu, is [4]float64
	for i := lo; i < hi; i += 4 {
		k := min(4, hi-i)
		n.moments(y[i*d:][:k*d], &mu, &is)
		for j := 0; j < k; j++ {
			x := y[(i+j)*d:][:d]
			var zi []float64
			if z != nil {
				istd[i+j] = is[j]
				zi = z[(i+j)*d:][:d]
			}
			n.apply(x, zi, mu[j], is[j])
		}
	}
}

// moments computes the mean and inverse deviation of each of the up to
// four rows in x. Each row's sums run in column order; four rows are
// summed side by side so their dependency chains overlap.
func (n *TreeLayerNorm) moments(x []float64, mu, is *[4]float64) {
	d := n.D
	df := float64(d)
	if len(x) < 4*d {
		for j := 0; j*d < len(x); j++ {
			mu[j], is[j] = n.moments1(x[j*d:][:d])
		}
		return
	}
	x0, x1, x2, x3 := x[:d], x[d:][:d], x[2*d:][:d], x[3*d:][:d]
	var m0, m1, m2, m3 float64
	for c, v := range x0 {
		m0 += v
		m1 += x1[c]
		m2 += x2[c]
		m3 += x3[c]
	}
	m0 /= df
	m1 /= df
	m2 /= df
	m3 /= df
	var v0, v1, v2, v3 float64
	for c, v := range x0 {
		d0 := v - m0
		d1 := x1[c] - m1
		d2 := x2[c] - m2
		d3 := x3[c] - m3
		v0 += d0 * d0
		v1 += d1 * d1
		v2 += d2 * d2
		v3 += d3 * d3
	}
	*mu = [4]float64{m0, m1, m2, m3}
	is[0] = 1.0 / math.Sqrt(v0/df+n.eps)
	is[1] = 1.0 / math.Sqrt(v1/df+n.eps)
	is[2] = 1.0 / math.Sqrt(v2/df+n.eps)
	is[3] = 1.0 / math.Sqrt(v3/df+n.eps)
}

// moments1 is moments for one row.
func (n *TreeLayerNorm) moments1(x []float64) (mu, is float64) {
	for _, v := range x {
		mu += v
	}
	mu /= float64(n.D)
	va := 0.0
	for _, v := range x {
		dv := v - mu
		va += dv * dv
	}
	va /= float64(n.D)
	return mu, 1.0 / math.Sqrt(va+n.eps)
}

// apply normalizes row x in place given its moments, recording the
// normalized values in z when z is non-nil.
func (n *TreeLayerNorm) apply(x, z []float64, mu, is float64) {
	gain, bias := n.Gain.W[:len(x)], n.Bias.W[:len(x)]
	for j, v := range x {
		zv := (v - mu) * is
		if z != nil {
			z[j] = zv
		}
		x[j] = relu(zv*gain[j] + bias[j])
	}
}

// backward takes g, the gradient with respect to the fused output of rows
// [lo, hi), gates it in place by the ReLU (a is the forward output), and
// writes the gradient with respect to the layer input into dx.
func (n *TreeLayerNorm) backward(g, a, z, istd []float64, lo, hi int, dx []float64) {
	d := n.D
	df := float64(d)
	gain := n.Gain.W[:d]
	for i := lo; i < hi; i++ {
		gi, ai, zi, dxi := g[i*d:][:d], a[i*d:][:d], z[i*d:][:d], dx[i*d:][:d]
		var sumDz, sumDzZ float64
		for j, av := range ai {
			gi[j] = gate(gi[j], av)
			dz := gi[j] * gain[j]
			sumDz += dz
			sumDzZ += dz * zi[j]
		}
		is := istd[i]
		for j, gv := range gi {
			dz := gv * gain[j]
			dxi[j] = is * (dz - sumDz/df - zi[j]*sumDzZ/df)
		}
	}
}

// weightGrad adds the gain and shift gradients over the batch: for each
// tree in batch order, the per-channel sum over its nodes in order. g is
// the ReLU-gated output gradient backward left behind.
func (n *TreeLayerNorm) weightGrad(g, z []float64, off []int32) {
	d := n.D
	for t := 0; t+1 < len(off); t++ {
		lo, hi := int(off[t]), int(off[t+1])
		for j := 0; j < d; j++ {
			sg, sb := 0.0, 0.0
			for i := lo; i < hi; i++ {
				gv := g[i*d+j]
				sg += gv * z[i*d+j]
				sb += gv
			}
			n.Gain.G[j] += sg
			n.Bias.G[j] += sb
		}
	}
}

// Params returns the learned gain and shift.
func (n *TreeLayerNorm) Params() []*Param { return []*Param{n.Gain, n.Bias} }

// relu is max(v, 0) with the rectifier's exact semantics — v when v > 0,
// else +0, so NaN and -0 map to +0 — computed without a data-dependent
// branch: activations sit on both sides of zero at random, and a
// mispredicted branch per element costs more than the arithmetic.
func relu(v float64) float64 { return gate(v, v) }

// gate returns g where a > 0 and +0 elsewhere, branch-free.
func gate(g, a float64) float64 {
	// a > 0 exactly when a's bits, less one, lie below +Inf's bits:
	// zero wraps around, negatives have the sign bit, NaN sits above.
	var m uint64
	if math.Float64bits(a)-1 < 0x7ff0000000000000 {
		m = ^uint64(0)
	}
	return math.Float64frombits(math.Float64bits(g) & m)
}

// poolMax is dynamic pooling: it flattens nodes [lo, hi) of x (rows of
// d) into out by taking the channel-wise maximum, recording in argmax the
// node that supplied each maximum. It makes the network applicable to
// trees of any size.
func poolMax(x []float64, lo, hi, d int, out []float64, argmax []int32) {
	copy(out, x[lo*d:][:d])
	for j := range argmax[:d] {
		argmax[j] = int32(lo)
	}
	for i := lo + 1; i < hi; i++ {
		for j, v := range x[i*d:][:d] {
			if v > out[j] {
				out[j] = v
				argmax[j] = int32(i)
			}
		}
	}
}

// Linear is a fully connected layer y = W·x + b on plain vectors.
type Linear struct {
	In, Out        int
	W, B           *Param
	lastIn         []float64
	outBuf, dInBuf []float64
}

// NewLinear constructs a fully connected layer.
func NewLinear(name string, in, out int, rng *rand.Rand) *Linear {
	return &Linear{In: in, Out: out,
		W: NewParam(name+".w", out, in, rng),
		B: NewZeroParam(name+".b", out, 1)}
}

// Forward computes the affine map, caching the input.
func (l *Linear) Forward(x []float64) []float64 {
	l.lastIn = x
	l.outBuf = resize(l.outBuf, l.Out)
	y := l.outBuf
	copy(y, l.B.W)
	matVec(l.W.W, l.Out, l.In, x, y)
	return y
}

// Backward returns the input gradient and accumulates parameter gradients.
func (l *Linear) Backward(dOut []float64) []float64 {
	l.dInBuf = resize(l.dInBuf, l.In)
	dIn := l.dInBuf
	zero(dIn)
	matTVec(l.W.W, l.Out, l.In, dOut, dIn)
	outerAccum(l.W.G, l.Out, l.In, dOut, l.lastIn)
	for k, g := range dOut {
		l.B.G[k] += g
	}
	return dIn
}

// Params returns the weight matrix and bias.
func (l *Linear) Params() []*Param { return []*Param{l.W, l.B} }

// ReLU is an elementwise rectifier on plain vectors.
type ReLU struct {
	mask           []bool
	outBuf, dInBuf []float64
}

// Forward zeroes negative entries.
func (r *ReLU) Forward(x []float64) []float64 {
	r.outBuf = resize(r.outBuf, len(x))
	y := r.outBuf
	if cap(r.mask) < len(x) {
		r.mask = make([]bool, len(x))
	}
	r.mask = r.mask[:len(x)]
	for i, v := range x {
		if v > 0 {
			y[i] = v
			r.mask[i] = true
		} else {
			y[i] = 0
			r.mask[i] = false
		}
	}
	return y
}

// Backward gates the gradient by the forward mask.
func (r *ReLU) Backward(dOut []float64) []float64 {
	r.dInBuf = resize(r.dInBuf, len(dOut))
	dIn := r.dInBuf
	for i, m := range r.mask {
		if m {
			dIn[i] = dOut[i]
		} else {
			dIn[i] = 0
		}
	}
	return dIn
}
