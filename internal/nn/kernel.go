package nn

import "fmt"

// Arena is the scratch memory of TCNN passes over one batch of trees: the
// batch's flat node layout and every layer's activations (and, in
// training, what backward needs). A pass grows the buffers as needed and
// never shrinks them, so an arena reused across calls stops allocating.
// An arena serves one pass at a time; the zero value is ready to use.
type Arena struct {
	n           int       // nodes in the batch
	x           []float64 // n×InDim input features
	left, right []int32   // global child indices, -1 for none
	off         []int32   // tree t owns nodes off[t]:off[t+1]

	act    [3][]float64 // layer k's LayerNorm+ReLU output, n×Channels[k]
	pooled []float64    // per tree, Channels[2]
	argmax []int32      // per tree, Channels[2]: node behind each pooled max
	hidden []float64    // per tree, Hidden: fc1 output after ReLU
	pred   []float64    // per tree, raw network output

	// Training only.
	z     [3][]float64 // normalized activations, n×Channels[k]
	istd  [3][]float64 // per node inverse deviation
	gAct  [3][]float64 // gradient w.r.t. act[k] (ReLU-gated in place)
	gConv [3][]float64 // gradient w.r.t. conv k's output, n×Channels[k]
	dPool []float64    // per tree, Channels[2]
	dHid  []float64    // per tree, Hidden
	dOut  []float64    // per tree, d(loss)/d(pred)
	loss  []float64    // per tree, squared error
}

// layout lays trees out as one node matrix and sizes the buffers a pass
// of m needs (train adds the backward buffers).
func (a *Arena) layout(m *TCNN, trees []*Tree, train bool) {
	a.place(trees, m.Cfg.InDim)
	n := a.n
	nt := len(trees)
	c3, h := m.Cfg.Channels[2], m.Cfg.Hidden
	for k, c := range m.Cfg.Channels {
		a.act[k] = resize(a.act[k], n*c)
		if train {
			a.z[k] = resize(a.z[k], n*c)
			a.istd[k] = resize(a.istd[k], n)
			a.gAct[k] = resize(a.gAct[k], n*c)
			a.gConv[k] = resize(a.gConv[k], n*c)
		}
	}
	a.pooled = resize(a.pooled, nt*c3)
	a.argmax = resize(a.argmax, nt*c3)
	a.hidden = resize(a.hidden, nt*h)
	a.pred = resize(a.pred, nt)
	if train {
		a.dPool = resize(a.dPool, nt*c3)
		a.dHid = resize(a.dHid, nt*h)
		a.dOut = resize(a.dOut, nt)
		a.loss = resize(a.loss, nt)
	}
}

// place lays trees of feature dimension d out as one node matrix.
func (a *Arena) place(trees []*Tree, d int) {
	n := 0
	for _, t := range trees {
		if t.D != d {
			panic(fmt.Sprintf("nn: tree feature dimension %d != network input %d", t.D, d))
		}
		n += t.N
	}
	a.n = n
	a.x = resize(a.x, n*d)
	a.left = resize(a.left, n)
	a.right = resize(a.right, n)
	a.off = resize(a.off, len(trees)+1)
	o := 0
	for ti, t := range trees {
		a.off[ti] = int32(o)
		copy(a.x[o*d:], t.Feat[:t.N*d])
		for i := 0; i < t.N; i++ {
			a.left[o+i] = global(t.Left[i], o)
			a.right[o+i] = global(t.Right[i], o)
		}
		o += t.N
	}
	a.off[len(trees)] = int32(o)
}

// global maps a tree-local child index to its row in the node matrix.
func global(child, off int) int32 {
	if child < 0 {
		return -1
	}
	return int32(child + off)
}

// Predict writes the network's raw output for every tree into out
// (len(out) == len(trees)), laying the trees out in a as one flat batch.
// It only reads the weights, so concurrent calls on one network are safe
// as long as each passes its own arena.
func (m *TCNN) Predict(trees []*Tree, out []float64, a *Arena) {
	if len(trees) == 0 {
		return
	}
	a.layout(m, trees, false)
	m.forward(a, 0, len(trees), false)
	copy(out, a.pred[:len(trees)])
}

// forward runs trees [t0, t1) of a's layout through the network, leaving
// each tree's output in a.pred. With train set it also records what
// backward needs.
func (m *TCNN) forward(a *Arena, t0, t1 int, train bool) {
	lo, hi := int(a.off[t0]), int(a.off[t1])
	in := a.x
	for k := 0; k < 3; k++ {
		m.conv[k].forward(in, a.left, a.right, lo, hi, a.act[k])
		var z, istd []float64
		if train {
			z, istd = a.z[k], a.istd[k]
		}
		m.norm[k].forward(a.act[k], lo, hi, z, istd)
		in = a.act[k]
	}
	c3, h := m.Cfg.Channels[2], m.Cfg.Hidden
	w2 := m.fc2.W.W[:h]
	for t := t0; t < t1; t++ {
		p := a.pooled[t*c3:][:c3]
		poolMax(a.act[2], int(a.off[t]), int(a.off[t+1]), c3, p, a.argmax[t*c3:][:c3])
		hid := a.hidden[t*h:][:h]
		copy(hid, m.fc1.B.W)
		matVec(m.fc1.W.W, h, c3, p, hid)
		for j, v := range hid {
			hid[j] = relu(v)
		}
		y, s := m.fc2.B.W[0], 0.0
		for j, v := range hid {
			s += w2[j] * v
		}
		a.pred[t] = y + s
	}
}

// backward propagates a.dOut for trees [t0, t1) down to the gradient of
// every conv layer's output (a.gConv), the head's input gradients
// (a.dHid, a.dPool) and the ReLU-gated activation gradients (a.gAct).
// Parameter gradients are left to weightGrad. The first conv layer's
// input gradient is never needed, so it is not computed.
func (m *TCNN) backward(a *Arena, t0, t1 int) {
	c3, h := m.Cfg.Channels[2], m.Cfg.Hidden
	w2 := m.fc2.W.W[:h]
	lo, hi := int(a.off[t0]), int(a.off[t1])
	g3 := a.gAct[2]
	zero(g3[lo*c3 : hi*c3])
	for t := t0; t < t1; t++ {
		d := a.dOut[t]
		dh := a.dHid[t*h:][:h]
		hid := a.hidden[t*h:][:h]
		for j := range dh {
			dh[j] = 0
			if d != 0 {
				dh[j] += w2[j] * d
			}
			dh[j] = gate(dh[j], hid[j])
		}
		dp := a.dPool[t*c3:][:c3]
		zero(dp)
		matTVec(m.fc1.W.W, h, c3, dh, dp)
		for j, am := range a.argmax[t*c3:][:c3] {
			g3[int(am)*c3+j] = dp[j]
		}
	}
	for k := 2; k >= 0; k-- {
		m.norm[k].backward(a.gAct[k], a.act[k], a.z[k], a.istd[k], lo, hi, a.gConv[k])
		if k == 0 {
			break
		}
		cin := m.Cfg.Channels[k-1]
		g := a.gAct[k-1]
		zero(g[lo*cin : hi*cin])
		m.conv[k].inputGrad(a.gConv[k], a.left, a.right, lo, hi, g)
	}
}

// trainer is one Train call's gradient machinery: the mini-batch arena
// (it lives only as long as the trainer), the worker count, and the
// weight-gradient work units.
type trainer struct {
	m       *TCNN
	workers int
	arena   Arena
	batch   []*Tree
	units   []gradUnit
	scratch []gradScratch // per worker
}

// gradUnit is one independent piece of the weight-gradient pass: output
// rows [row, end) of conv layer layer (all three matrices and the bias),
// a layer norm (row -1), or the fully connected head (layer 3).
type gradUnit struct{ layer, row, end int }

// gradRows is the number of conv output rows in one gradient unit: they
// share one pass over each node's input, and lie adjacent in memory, so
// workers rarely write the same cache line.
const gradRows = 4

func newTrainer(m *TCNN, workers int) *trainer {
	tr := &trainer{m: m, workers: workers}
	for k, c := range m.Cfg.Channels {
		for r := 0; r < c; r += gradRows {
			tr.units = append(tr.units, gradUnit{k, r, min(r+gradRows, c)})
		}
		tr.units = append(tr.units, gradUnit{k, -1, 0})
	}
	tr.units = append(tr.units, gradUnit{3, 0, 0})
	tr.scratch = make([]gradScratch, workers)
	return tr
}

// step computes the gradient of one mini-batch — the examples idx picks
// out of (trees, targets) — adds it into the network's Param.G, and
// returns the batch's summed squared error. scale is d(loss)/d(pred) per
// unit of error (2/batchSize for batch-mean MSE).
//
// Forward and backward passes are split over contiguous tree ranges, one
// per worker; the weight gradients are then split by parameter row, each
// row summing its examples in batch order. Neither split changes any
// floating-point operation, so the result is identical at every worker
// count.
func (tr *trainer) step(trees []*Tree, targets []float64, idx []int, scale float64) float64 {
	m, a := tr.m, &tr.arena
	tr.batch = tr.batch[:0]
	for _, ex := range idx {
		tr.batch = append(tr.batch, trees[ex])
	}
	a.layout(m, tr.batch, true)
	nt := len(idx)
	w := tr.workers
	if w > nt {
		w = nt
	}
	parallel(w, w, func(_, u int) {
		t0, t1 := u*nt/w, (u+1)*nt/w
		m.forward(a, t0, t1, true)
		for t := t0; t < t1; t++ {
			diff := a.pred[t] - targets[idx[t]]
			a.loss[t] = diff * diff
			a.dOut[t] = scale * diff
		}
		m.backward(a, t0, t1)
	})
	loss := 0.0
	for _, l := range a.loss[:nt] {
		loss += l
	}
	parallel(tr.workers, len(tr.units), func(wk, u int) {
		tr.weightGrad(tr.units[u], &tr.scratch[wk])
	})
	return loss
}

// weightGrad runs one gradient unit over the laid-out batch.
func (tr *trainer) weightGrad(u gradUnit, sc *gradScratch) {
	m, a := tr.m, &tr.arena
	switch {
	case u.layer == 3:
		tr.headGrad()
	case u.row < 0:
		m.norm[u.layer].weightGrad(a.gAct[u.layer], a.z[u.layer], a.off)
	default:
		in := a.x
		if u.layer > 0 {
			in = a.act[u.layer-1]
		}
		m.conv[u.layer].weightGrad(u.row, u.end, a.gConv[u.layer], in, a.left, a.right, a.off, sc)
	}
}

// headGrad adds the fully connected head's gradients, one example at a
// time in batch order; rows with a zero output gradient get no weight
// gradient. An example contributes one term per weight here, and a
// one-term partial sum is the term itself (G starts at +0 and so is never
// -0), so the terms are added into G directly.
func (tr *trainer) headGrad() {
	m, a := tr.m, &tr.arena
	c3, h := m.Cfg.Channels[2], m.Cfg.Hidden
	for t := 0; t+1 < len(a.off); t++ {
		p, hid, dh := a.pooled[t*c3:][:c3], a.hidden[t*h:][:h], a.dHid[t*h:][:h]
		outerAccum(m.fc1.W.G, h, c3, dh, p)
		for r, gv := range dh {
			m.fc1.B.G[r] += gv
		}
		d := a.dOut[t]
		outerAccum(m.fc2.W.G, 1, h, a.dOut[t:t+1], hid)
		m.fc2.B.G[0] += d
	}
}
