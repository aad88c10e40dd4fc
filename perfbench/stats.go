package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// series is a set of timing or count samples.
type series []float64

// pct returns the p-th percentile (0..100) by the nearest-rank method; 0
// for an empty series.
func (s series) pct(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	xs := append([]float64(nil), s...)
	sort.Float64s(xs)
	i := int(math.Ceil(p/100*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func (s series) sum() float64 {
	t := 0.0
	for _, x := range s {
		t += x
	}
	return t
}

// median returns the middle sample, or the mean of the two middle ones;
// 0 for an empty series.
func (s series) median() float64 {
	if len(s) == 0 {
		return 0
	}
	xs := append([]float64(nil), s...)
	sort.Float64s(xs)
	n := len(xs)
	return (xs[(n-1)/2] + xs[n/2]) / 2
}

// negatives counts the samples below zero.
func (s series) negatives() int {
	n := 0
	for _, x := range s {
		if x < 0 {
			n++
		}
	}
	return n
}

// mean returns the arithmetic mean; 0 for an empty series.
func (s series) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	return s.sum() / float64(len(s))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// metric is one reported figure with the number of samples behind it.
type metric struct {
	Name    string
	Unit    string
	Value   float64
	Samples int
}

// report collects a run's metrics in emission order.
type report struct {
	metrics []metric
}

func (r *report) add(name, unit string, v float64, samples int) {
	r.metrics = append(r.metrics, metric{Name: name, Unit: unit, Value: v, Samples: samples})
}

// memAcc accumulates the Go runtime's allocation and GC activity over
// one or more phases, each bracketed by begin and end.
type memAcc struct {
	start                        runtime.MemStats
	mallocs, bytes, gcs, pauseNs uint64
}

func (m *memAcc) begin() { runtime.ReadMemStats(&m.start) }

func (m *memAcc) end() {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	m.mallocs += now.Mallocs - m.start.Mallocs
	m.bytes += now.TotalAlloc - m.start.TotalAlloc
	m.gcs += uint64(now.NumGC - m.start.NumGC)
	m.pauseNs += now.PauseTotalNs - m.start.PauseTotalNs
}

// addTo reports allocations per operation, GC cycles and GC pause time.
func (m *memAcc) addTo(r *report, ops int) {
	n := float64(ops)
	if n == 0 {
		n = 1
	}
	r.add("runtime.allocs_per_op", "count", float64(m.mallocs)/n, ops)
	r.add("runtime.alloc_bytes_per_op", "B", float64(m.bytes)/n, ops)
	r.add("runtime.gc_cycles", "count", float64(m.gcs), ops)
	r.add("runtime.gc_pause_ms", "ms", float64(m.pauseNs)/1e6, int(m.gcs))
}

// heapInuseMB collects garbage and reads the live heap, in MiB.
func heapInuseMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapInuse) / (1 << 20)
}
