package executor

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"bao/internal/catalog"
	"bao/internal/planner"
	"bao/internal/storage"
)

// sortRows must order rows exactly as a sort.SliceStable over the same
// comparator would: same permutation (ties keep input order), the same
// number of comparisons (one cancellation tick each, so cancellation
// points do not move), and the same 2·n·log2(n) CPUOps charge. Keys mix
// duplicates, NULLs, and ascending and descending columns.
func TestSortRowsMatchesSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(60)
		if trial%50 == 0 {
			n = 300 + rng.Intn(700)
		}
		rows := make([]storage.Row, n)
		for i := range rows {
			iv := storage.IntVal(int64(rng.Intn(5)))
			if rng.Intn(4) == 0 {
				iv = storage.NullVal(catalog.Int)
			}
			sv := storage.StrVal(strconv.Itoa(rng.Intn(4)))
			if rng.Intn(5) == 0 {
				sv = storage.NullVal(catalog.Str)
			}
			rows[i] = storage.Row{iv, sv, storage.IntVal(int64(i))} // column 2 tags input order
		}
		node := &planner.Node{Op: planner.OpSort}
		for _, col := range rng.Perm(2)[:1+rng.Intn(2)] {
			node.SortCols = append(node.SortCols, col)
			node.SortDesc = append(node.SortDesc, rng.Intn(2) == 0)
		}

		want := append([]storage.Row(nil), rows...)
		compares := 0
		sort.SliceStable(want, func(a, b int) bool {
			compares++
			for k, col := range node.SortCols {
				c := compareNullable(want[a][col], want[b][col])
				if c == 0 {
					continue
				}
				if node.SortDesc[k] {
					return c > 0
				}
				return c < 0
			}
			return false
		})

		e := &Executor{}
		got := append([]storage.Row(nil), rows...)
		e.sortRows(node, got)
		for i := range want {
			if got[i][2].I != want[i][2].I {
				t.Fatalf("trial %d (n=%d, cols %v desc %v): position %d holds input row %d, want %d",
					trial, n, node.SortCols, node.SortDesc, i, got[i][2].I, want[i][2].I)
			}
		}
		if e.sinceCheck != compares%cancelCheckInterval {
			t.Fatalf("trial %d: %d ticks since the last check, want %d compares mod %d",
				trial, e.sinceCheck, compares, cancelCheckInterval)
		}
		var ops int64
		if n > 1 {
			ops = 2 * int64(n) * int64(math.Log2(float64(n)))
		}
		if e.C.CPUOps != ops {
			t.Fatalf("trial %d: CPUOps %d, want %d", trial, e.C.CPUOps, ops)
		}
	}
}
