package model

import (
	"bytes"
	"sync"
	"testing"

	"bao/internal/nn"
)

// Parallel Predict must return exactly the sequential result: workers
// share weights read-only and each output index is written by one worker.
// Run under -race this also exercises the fan-out for data races.
func TestPredictParallelMatchesSequential(t *testing.T) {
	trees, secs := syntheticData(120, 3)
	tc := nn.DefaultTrainConfig()
	tc.MaxEpochs = 3
	m := NewTCNN(4, tc, 7)
	m.Fit(trees[:60], secs[:60])

	m.SetWorkers(1)
	want := m.Predict(trees[60:])
	m.SetWorkers(4)
	got := m.Predict(trees[60:])
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parallel Predict[%d] = %g, sequential = %g", i, got[i], want[i])
		}
	}
	// Predictions must follow a refit and a reload.
	m.Fit(trees[:60], secs[:60])
	_ = m.Predict(trees[60:])
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2 := NewTCNN(4, tc, 7)
	m2.SetWorkers(4)
	if err := m2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	reloaded := m2.Predict(trees[60:])
	m2.SetWorkers(1)
	seq := m2.Predict(trees[60:])
	for i := range seq {
		if reloaded[i] != seq[i] {
			t.Fatalf("reloaded parallel Predict[%d] = %g, sequential = %g", i, reloaded[i], seq[i])
		}
	}
}

// Small batches must stay on the caller's goroutine: below
// parallelPredictMin trees the fan-out costs more than the pass it would
// split, and the result must still equal the fanned-out one.
func TestPredictSmallBatchSequential(t *testing.T) {
	trees, secs := syntheticData(40, 5)
	tc := nn.DefaultTrainConfig()
	tc.MaxEpochs = 2
	m := NewTCNN(4, tc, 11)
	m.Fit(trees, secs)
	m.SetWorkers(8)
	if w := m.predictWorkers(parallelPredictMin - 1); w != 1 {
		t.Fatalf("%d trees fan out across %d workers", parallelPredictMin-1, w)
	}
	if w := m.predictWorkers(parallelPredictMin); w != 8 {
		t.Fatalf("%d trees use %d workers, want 8", parallelPredictMin, w)
	}
	small := m.Predict(trees[:parallelPredictMin-1])
	all := m.Predict(trees)
	for i, p := range small {
		if p != all[i] {
			t.Fatalf("small-batch Predict[%d] = %g, fanned-out batch has %g", i, p, all[i])
		}
	}
}

// Concurrent Predict calls on one trained model must be race-free and
// agree with the sequential result (the serving layer's read-mostly fast
// path shares the current model across in-flight selects).
func TestPredictConcurrentCallers(t *testing.T) {
	trees, secs := syntheticData(64, 5)
	tc := nn.DefaultTrainConfig()
	tc.MaxEpochs = 2
	m := NewTCNN(4, tc, 13)
	m.Fit(trees[:40], secs[:40])
	m.SetWorkers(2)
	want := m.Predict(trees[40:])
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 5; r++ {
				got := m.Predict(trees[40:])
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("concurrent Predict[%d] = %g, want %g", i, got[i], want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
