package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"bao/internal/core"
	"bao/internal/engine"
	"bao/internal/obs"
	"bao/internal/storage"
	"bao/internal/workload"
)

var bg = context.Background()

// dataSeed fixes the IMDb dataset and the template schedule of the query
// stream to the instance baoserver loads.
const dataSeed = 42

// imdb generates the IMDb dynamic workload as a fixed query mix with
// seeded parameters: the dataset and the order in which templates appear
// (including the dynamic workload's rotation) come from dataSeed, and each
// query's literals come from a stream drawn from the run's seed: position
// i takes the next unused seeded query of the template the schedule has
// there. Every seed thus runs the same mix, and only the parameters vary.
func imdb(cfg config, queries int) (*workload.Instance, error) {
	inst := workload.IMDb(workload.Config{Scale: cfg.Scale, Queries: queries, Seed: dataSeed})
	if len(inst.Events) > 0 {
		return nil, fmt.Errorf("IMDb stream has %d data events; the benchmark assumes static data", len(inst.Events))
	}
	seeded := map[string][]workload.Query{}
	for _, q := range workload.IMDbStable(workload.Config{Scale: cfg.Scale, Queries: 2 * queries, Seed: cfg.Seed}).Queries {
		seeded[q.Template] = append(seeded[q.Template], q)
	}
	used := map[string]int{}
	for i, q := range inst.Queries {
		pool := seeded[q.Template]
		if len(pool) == 0 {
			return nil, fmt.Errorf("no seeded query for template %s", q.Template)
		}
		inst.Queries[i] = pool[used[q.Template]%len(pool)]
		used[q.Template]++
	}
	return inst, nil
}

// loadEngine builds an engine with poolPages buffer pages and loads the
// workload's data into it.
func loadEngine(inst *workload.Instance, poolPages int) (*engine.Engine, error) {
	eng := engine.New(engine.GradePostgreSQL, poolPages)
	if err := inst.Setup(eng); err != nil {
		return nil, fmt.Errorf("load %s: %w", inst.Spec.Name, err)
	}
	return eng, nil
}

// serverConfig is baoserver's default optimizer configuration: the fast
// training schedule, plan cache on, combining inference batcher, and the
// guard (validation-gated swaps plus the default-plan breaker). Each
// optimizer gets a private observer so counts never mix between runs.
func serverConfig() core.Config {
	c := core.FastConfig()
	c.PlanCache = true
	c.PlanCacheSize = 512
	c.InferBatch = 64
	c.Breaker.Enabled = true
	c.Validate.Enabled = true
	c.Observer = obs.NewObserver(obs.NewRegistry(), nil)
	return c
}

// baoserverTrain is the instance `baoserver -train n` loads for
// n = cfg.Pretrain: the data, and the data seed's own stream of n queries
// as the pre-training set. It does not depend on --seed, so pre-training
// does the same work on every seed; only the measured queries vary.
func baoserverTrain(cfg config) *workload.Instance {
	return workload.IMDb(workload.Config{Scale: cfg.Scale, Queries: cfg.Pretrain, Seed: dataSeed})
}

// pretrain runs the select-execute-observe loop over qs, as baoserver
// -train does.
func pretrain(opt *core.Bao, qs []workload.Query) error {
	for _, q := range qs {
		if _, _, err := opt.Run(q.SQL); err != nil {
			return fmt.Errorf("pre-train: %w", err)
		}
	}
	if !opt.Trained() {
		return fmt.Errorf("pre-training on %d queries left the model untrained", len(qs))
	}
	return nil
}

// rowsChecksum is an order-insensitive digest of a result: the row count
// and the wrapping sum of per-row FNV-1a hashes.
func rowsChecksum(rows []storage.Row) []byte {
	var sum uint64
	for _, r := range rows {
		h := fnv.New64a()
		for _, v := range r {
			fmt.Fprintf(h, "%d|%v|%d|%s;", v.Kind, v.Null, v.I, v.S)
		}
		sum += h.Sum64()
	}
	out := make([]byte, 16)
	binary.LittleEndian.PutUint64(out, uint64(len(rows)))
	binary.LittleEndian.PutUint64(out[8:], sum)
	return out
}

// decisionDigest hashes (query index, chosen arm) pairs in index order.
func decisionDigest(arms map[int]int) string {
	h := fnv.New64a()
	for _, i := range sortedKeys(arms) {
		fmt.Fprintf(h, "%d:%d;", i, arms[i])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// repeatSetup runs setup at least cfg.SetupRepeats times and until the
// set-ups have taken cfg.SetupSeconds, tearing down all but the last
// result, and returns that result with every set-up's seconds; setup_s is
// their median. The time floor repeats a set-up of tens of milliseconds
// often enough that its median stops following the host's noise.
func repeatSetup[T any](cfg config, setup func() (T, error), teardown func(T)) (T, series, error) {
	var last T
	var secs series
	for len(secs) < cfg.SetupRepeats || secs.sum() < cfg.SetupSeconds {
		if len(secs) > 0 {
			teardown(last)
		}
		t := time.Now()
		v, err := setup()
		if err != nil {
			return last, nil, err
		}
		secs = append(secs, time.Since(t).Seconds())
		last = v
	}
	return last, secs, nil
}

// sortedKeys returns a map's integer keys in increasing order.
func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
