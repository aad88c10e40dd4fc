// Package nn is a from-scratch neural network library built on the Go
// standard library. It provides exactly the operators Bao's value model
// needs — tree convolution (Mou et al., AAAI '16), dynamic pooling, fully
// connected layers, ReLU, layer normalization — together with manual
// backpropagation and the Adam optimizer. All math is float64 and all
// randomness flows through an explicit *rand.Rand so experiments are
// deterministic.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Param is a trainable weight matrix with its accumulated gradient. A
// vector parameter is represented with Cols == 1. Layers share Params with
// the optimizer by pointer, so the optimizer can keep per-parameter state
// (Adam moments) keyed on identity.
type Param struct {
	Name string
	Rows int
	Cols int
	W    []float64 // row-major Rows×Cols
	G    []float64 // accumulated gradient, same shape as W
}

// NewParam allocates a parameter initialized with Glorot/Xavier uniform
// scaling, which keeps activations stable across the stacked tree
// convolution layers.
func NewParam(name string, rows, cols int, rng *rand.Rand) *Param {
	p := &Param{Name: name, Rows: rows, Cols: cols,
		W: make([]float64, rows*cols), G: make([]float64, rows*cols)}
	limit := math.Sqrt(6.0 / float64(rows+cols))
	for i := range p.W {
		p.W[i] = (rng.Float64()*2 - 1) * limit
	}
	return p
}

// NewZeroParam allocates a zero-initialized parameter (for biases and
// layer-norm shifts).
func NewZeroParam(name string, rows, cols int) *Param {
	return &Param{Name: name, Rows: rows, Cols: cols,
		W: make([]float64, rows*cols), G: make([]float64, rows*cols)}
}

// NewConstParam allocates a parameter filled with a constant (for
// layer-norm gains, which start at 1).
func NewConstParam(name string, rows, cols int, v float64) *Param {
	p := NewZeroParam(name, rows, cols)
	for i := range p.W {
		p.W[i] = v
	}
	return p
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() {
	for i := range p.G {
		p.G[i] = 0
	}
}

// Size returns the number of scalar weights in the parameter.
func (p *Param) Size() int { return len(p.W) }

// Clone returns a deep copy of the parameter values (gradients are not
// copied). Used to snapshot model weights for Thompson sampling.
func (p *Param) Clone() []float64 {
	c := make([]float64, len(p.W))
	copy(c, p.W)
	return c
}

// Restore overwrites the parameter values from a snapshot taken by Clone.
func (p *Param) Restore(w []float64) {
	if len(w) != len(p.W) {
		panic(fmt.Sprintf("nn: restore %s: snapshot size %d != param size %d", p.Name, len(w), len(p.W)))
	}
	copy(p.W, w)
}

// matVec computes y = W·x for a Rows×Cols matrix W and a Cols-vector x,
// accumulating into y (callers zero y when they need assignment). Rows
// are taken four at a time with independent accumulators, so x is read
// once per block; each row's dot product still runs s += w*x in column
// order from zero, so the result is bit-identical to one row at a time.
func matVec(w []float64, rows, cols int, x, y []float64) {
	x = x[:cols]
	r := 0
	for ; r+4 <= rows; r += 4 {
		w0 := w[r*cols:][:cols]
		w1 := w[(r+1)*cols:][:cols]
		w2 := w[(r+2)*cols:][:cols]
		w3 := w[(r+3)*cols:][:cols]
		var s0, s1, s2, s3 float64
		for c, xv := range x {
			s0 += w0[c] * xv
			s1 += w1[c] * xv
			s2 += w2[c] * xv
			s3 += w3[c] * xv
		}
		y[r] += s0
		y[r+1] += s1
		y[r+2] += s2
		y[r+3] += s3
	}
	for ; r < rows; r++ {
		row := w[r*cols:][:cols]
		s := 0.0
		for c, xv := range x {
			s += row[c] * xv
		}
		y[r] += s
	}
}

// matTVec computes x += Wᵀ·g: the backward pass through a linear map.
// Rows with a zero gradient are skipped. Runs of four nonzero rows are
// folded into x in one pass, adding row r before row r+1 to each x[c],
// which is the row-at-a-time addition order.
func matTVec(w []float64, rows, cols int, g, x []float64) {
	x = x[:cols]
	r := 0
	for r < rows {
		if r+4 <= rows && g[r] != 0 && g[r+1] != 0 && g[r+2] != 0 && g[r+3] != 0 {
			g0, g1, g2, g3 := g[r], g[r+1], g[r+2], g[r+3]
			w0 := w[r*cols:][:cols]
			w1 := w[(r+1)*cols:][:cols]
			w2 := w[(r+2)*cols:][:cols]
			w3 := w[(r+3)*cols:][:cols]
			for c, v := range x {
				v += w0[c] * g0
				v += w1[c] * g1
				v += w2[c] * g2
				v += w3[c] * g3
				x[c] = v
			}
			r += 4
			continue
		}
		if gv := g[r]; gv != 0 {
			row := w[r*cols:][:cols]
			for c := range x {
				x[c] += row[c] * gv
			}
		}
		r++
	}
}

// outerAccum accumulates dW += g ⊗ x (outer product) into a Rows×Cols
// gradient buffer.
func outerAccum(dw []float64, rows, cols int, g, x []float64) {
	for r := 0; r < rows; r++ {
		gv := g[r]
		if gv == 0 {
			continue
		}
		row := dw[r*cols : r*cols+cols]
		for c, xv := range x {
			row[c] += gv * xv
		}
	}
}
