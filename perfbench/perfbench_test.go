package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"testing"
)

// tinyConfig shrinks every workload to a few seconds of work.
func tinyConfig(t *testing.T, trace bool) config {
	c := defaultConfig()
	c.Seed = 3
	c.Seconds = 1
	c.Trace = trace
	c.Scale = 0.06
	c.LearnStreams = 2
	c.LearnPerSec = 120
	c.Pretrain = 60
	c.SetupRepeats = 1
	c.SetupSeconds = 0
	c.Tenants = 2
	c.Shapes = 2
	c.Dir = t.TempDir() + "/run"
	return c
}

// benchmarkNames reads the metric names BENCHMARK.json promises for the
// end-to-end (trace 0) and per-layer (trace 1) runs.
func benchmarkNames(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// Reconciliation tolerances of the traced run.
//
// layerSumTolerance is how far the summed self time of the traced layers
// may fall from the wall time they ran in. The learn loop's unspanned
// work is its own bookkeeping and the row checksums; on the HTTP
// workloads it is the client's request encoding and response decoding.
// Residual spans (select self, router hop, transport) make the sum
// telescope to the enclosing spans, so this checks the enclosing spans
// against wall time, not how they split.
//
// replayTolerance is how far the replayed select sub-layers (analyze,
// plan arms, featurize, infer) may fall from the optimizer's own timers
// for the same stages of the same selection, as the median ratio over
// the replayed selections. The residual core.select_self_ms hides a
// sub-layer timed wrongly; this check does not. A sub-layer left out or
// timed twice moves the ratio by its share of the select stage: planning
// is most of it, inference about a third on advise. The replay runs on
// warm caches and outside the optimizer's own bookkeeping, which keeps
// the ratio near 0.88.
//
// spanOverrunTolerance is the largest share of router hops and transports
// that may come out negative, a nested HTTP span outlasting the span
// containing it. That happens only when the client has read the whole
// response before the handler returned; spans matched to the wrong
// request would make it common.
const (
	layerSumTolerance    = 0.1
	replayTolerance      = 0.25
	spanOverrunTolerance = 0.001
)

// TestEveryMetricEmitted runs each workload at a tiny size, untraced and
// traced, and checks that exactly the promised metrics come out, each
// finite and with its promised unit, that the correctness gate passed,
// and, in the traced run, that the layers reconcile: their self times
// add up to the wall time they ran in, the replayed select sub-layers
// match the optimizer's own stage timers, and nested HTTP spans fit
// inside the spans containing them.
func TestEveryMetricEmitted(t *testing.T) {
	endToEnd, perLayer := benchmarkNames(t)
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, trace), func(t *testing.T) {
				want := endToEnd
				if trace {
					want = perLayer
				}
				out, err := execute(workloads[name], tinyConfig(t, trace))
				if err != nil {
					t.Fatal(err)
				}
				if out.failed != 0 {
					t.Errorf("%d of %d operations failed: %v", out.failed, out.attempted, out.notes)
				}
				got := map[string]float64{}
				for _, m := range out.rep.metrics {
					if _, dup := got[m.Name]; dup {
						t.Errorf("%s emitted twice", m.Name)
					}
					got[m.Name] = m.Value
					unit, ok := want[m.Name]
					switch {
					case !ok:
						t.Errorf("unexpected metric %s", m.Name)
					case m.Unit != unit:
						t.Errorf("%s has unit %q, want %q", m.Name, m.Unit, unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("%s = %v", m.Name, m.Value)
					}
				}
				for n := range want {
					if _, ok := got[n]; !ok {
						t.Errorf("%s not emitted", n)
					}
				}
				if !trace {
					return
				}
				if r := got["bench.layer_sum_ratio"]; math.Abs(r-1) > layerSumTolerance {
					t.Errorf("layers sum to %.3f of wall time, want within %.2f of 1", r, layerSumTolerance)
				}
				if r := got["bench.replay_ratio"]; math.Abs(r-1) > replayTolerance {
					t.Errorf("replayed select sub-layers are %.3f of the optimizer's stage timers, want within %.2f of 1", r, replayTolerance)
				}
				if r := got["bench.span_overrun_ratio"]; r > spanOverrunTolerance {
					t.Errorf("%.4f of nested HTTP spans outlast their enclosing span, want at most %g", r, spanOverrunTolerance)
				}
				t.Logf("layer_sum_ratio %.3f replay_ratio %.3f span_overrun_ratio %.4f",
					got["bench.layer_sum_ratio"], got["bench.replay_ratio"], got["bench.span_overrun_ratio"])
			})
		}
	}
}
