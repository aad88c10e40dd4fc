package nn

import (
	"math"
	"math/rand"
	"testing"
)

// sameBits reports whether a and b are the same float64, treating any two
// NaNs as equal.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// poison sets a few entries of v to zero, NaN or ±Inf.
func poison(rng *rand.Rand, v []float64, zeros, nonFinite int) {
	for i := 0; i < zeros; i++ {
		v[rng.Intn(len(v))] = 0
	}
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for i := 0; i < nonFinite; i++ {
		v[rng.Intn(len(v))] = bad[rng.Intn(len(bad))]
	}
}

// The conv kernels reorder loops and block rows but must add exactly the
// products a node-at-a-time pass adds, in its order, skipping zero output
// gradients as it does. Against naive references they must agree bit for
// bit, including with zeros, NaNs and infinities in the inputs, weights
// and gradients.
func TestKernelConvMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 40; trial++ {
		in, out := 1+rng.Intn(9), 1+rng.Intn(9)
		conv := NewTreeConv("c", in, out, rng)
		trees := mixedTrees(rng, in)
		a := flatOf(in, trees...)
		poison(rng, a.x, len(a.x)/2, trial%3)
		if trial%4 == 0 {
			poison(rng, conv.Wleft.W, 0, 1)
		}
		g := make([]float64, a.n*out)
		for i := range g {
			g[i] = rng.NormFloat64()
		}
		poison(rng, g, len(g)/3, trial%2)

		// Forward.
		y := make([]float64, a.n*out)
		conv.forward(a.x, a.left, a.right, 0, a.n, y)
		for i := 0; i < a.n; i++ {
			want := append([]float64(nil), conv.B.W...)
			for m, src := range []int{i, int(a.left[i]), int(a.right[i])} {
				if src < 0 {
					continue
				}
				w := [3]*Param{conv.Wroot, conv.Wleft, conv.Wright}[m].W
				for r := 0; r < out; r++ {
					s := 0.0
					for c := 0; c < in; c++ {
						s += w[r*in+c] * a.x[src*in+c]
					}
					want[r] += s
				}
			}
			for r := range want {
				if !sameBits(y[i*out+r], want[r]) {
					t.Fatalf("trial %d: forward node %d row %d = %g, naive %g", trial, i, r, y[i*out+r], want[r])
				}
			}
		}

		// Weight gradients: one zeroed slot per example, node-at-a-time
		// outer products, added in batch order.
		wantG := make([][]float64, 4)
		for m, p := range conv.Params() {
			wantG[m] = make([]float64, len(p.W))
			p.ZeroGrad()
		}
		for ti := 0; ti+1 < len(a.off); ti++ {
			slot := make([][]float64, 4)
			for m := range slot {
				slot[m] = make([]float64, len(wantG[m]))
			}
			for i := int(a.off[ti]); i < int(a.off[ti+1]); i++ {
				gi := g[i*out : i*out+out]
				for r, gv := range gi {
					slot[3][r] += gv
				}
				for m, src := range []int{i, int(a.left[i]), int(a.right[i])} {
					if src >= 0 {
						outerAccum(slot[m], out, in, gi, a.x[src*in:src*in+in])
					}
				}
			}
			for m := range slot {
				for k, v := range slot[m] {
					wantG[m][k] += v
				}
			}
		}
		var sc gradScratch
		for r := 0; r < out; r += gradRows {
			conv.weightGrad(r, min(r+gradRows, out), g, a.x, a.left, a.right, a.off, &sc)
		}
		for m, p := range conv.Params() {
			for k := range p.G {
				if !sameBits(p.G[k], wantG[m][k]) {
					t.Fatalf("trial %d: %s grad [%d] = %g, naive %g", trial, p.Name, k, p.G[k], wantG[m][k])
				}
			}
		}

		// Input gradients, node by node.
		dx := make([]float64, len(a.x))
		conv.inputGrad(g, a.left, a.right, 0, a.n, dx)
		wantDx := make([]float64, len(a.x))
		for i := 0; i < a.n; i++ {
			gi := g[i*out : i*out+out]
			for m, dst := range []int{i, int(a.left[i]), int(a.right[i])} {
				if dst < 0 {
					continue
				}
				w := [3]*Param{conv.Wroot, conv.Wleft, conv.Wright}[m].W
				for r, gv := range gi {
					if gv == 0 {
						continue
					}
					for c := 0; c < in; c++ {
						wantDx[dst*in+c] += w[r*in+c] * gv
					}
				}
			}
		}
		for k := range dx {
			if !sameBits(dx[k], wantDx[k]) {
				t.Fatalf("trial %d: input grad [%d] = %g, naive %g", trial, k, dx[k], wantDx[k])
			}
		}
	}
}
