// Command perfbench is the repository benchmark: three closed-loop
// workloads over the Bao reproduction (learn, advise, serve), each
// reporting end-to-end metrics, or, with -trace 1, per-layer metrics taken
// from benchmark-side spans around the layers' public functions. See
// README.md in this directory.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload learn --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": u}, ...}}
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// config sizes one run. Tests shrink it; the command line sets the seed,
// the measured seconds and tracing.
type config struct {
	Seed    int64
	Seconds int
	Trace   bool

	Scale        float64 // IMDb dataset scale
	LearnStreams int     // learn's independent cold streams per run
	LearnPerSec  int     // learn queries per requested second, over all streams
	Pretrain     int     // advise/serve pre-training stream length
	SetupRepeats int     // least set-ups per run; setup_s is their median
	SetupSeconds float64 // least seconds of set-ups per run
	Tenants      int     // serve tenants, spread over the shards by the router
	Shapes       int     // serve repeated shapes per tenant
	Dir          string
}

func defaultConfig() config {
	return config{
		Scale:        0.25,
		LearnStreams: 12,
		LearnPerSec:  90,
		Pretrain:     200,
		SetupRepeats: 3,
		SetupSeconds: 2,
		Tenants:      8,
		Shapes:       24,
		Dir:          filepath.Join(".bench_build", "perfbench-tmp"),
	}
}

// outcome is one workload run's result.
type outcome struct {
	attempted int
	failed    int // errors, non-200 responses and wrong answers
	wrong     int // the subset of failed that were wrong answers
	rep       report
	notes     []string // digest and workload facts, printed before the JSON line
}

func (o *outcome) fail(wrong bool) {
	o.failed++
	if wrong {
		o.wrong++
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// callers is the number of closed-loop callers (connections) on advise
// and serve, one per core of the 2-vCPU reference machine; shards is the
// number of serve's shards.
const (
	callers = 2
	shards  = 2
)

var workloads = map[string]func(config) (*outcome, error){
	"learn":  runLearn,
	"advise": runAdvise,
	"serve":  runServe,
}

func main() {
	cfg := defaultConfig()
	name := flag.String("workload", "", "workload to run: learn, advise or serve")
	flag.Int64Var(&cfg.Seed, "seed", 1, "workload seed")
	flag.IntVar(&cfg.Seconds, "seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	cfg.Trace = *trace == 1
	run, ok := workloads[*name]
	if !ok || cfg.Seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload learn|advise|serve, --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}
	out, err := execute(run, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	w := bufio.NewWriter(os.Stdout)
	printOutcome(w, *name, cfg, out)
	if err := w.Flush(); err != nil {
		os.Exit(1)
	}
}

// execute runs one workload inside a private scratch directory that is
// removed afterwards.
func execute(run func(config) (*outcome, error), cfg config) (*outcome, error) {
	if err := os.MkdirAll(filepath.Dir(cfg.Dir), 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(filepath.Dir(cfg.Dir), filepath.Base(cfg.Dir)+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg.Dir = dir
	out, err := run(cfg)
	if err != nil {
		return nil, err
	}
	if out.attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	return out, nil
}

// printOutcome writes the provenance, every metric with its unit and
// sample count, the workload notes, and finally the JSON result line.
func printOutcome(w io.Writer, name string, cfg config, out *outcome) {
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%d trace=%v commit=%s gomaxprocs=%d nproc=%d go=%s\n",
		name, cfg.Seed, cfg.Seconds, cfg.Trace, commit(), runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	for _, n := range out.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	fmt.Fprintf(w, "# fail_ratio %.6g ratio n=%d (wrong answers %d)\n",
		ratio(float64(out.failed), float64(out.attempted)), out.attempted, out.wrong)
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]val, len(out.rep.metrics))
	for _, m := range out.rep.metrics {
		fmt.Fprintf(w, "# %-28s %14.6g %-6s n=%d\n", m.Name, m.Value, m.Unit, m.Samples)
		metrics[m.Name] = val{m.Value, m.Unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, metrics})
	fmt.Fprintf(w, "%s\n", line)
}

// commit reads the checked-out commit from the nearest .git directory
// with the standard library; "unknown" outside a git checkout.
func commit() string {
	dir, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	for {
		gitDir := filepath.Join(dir, ".git")
		if head, err := os.ReadFile(filepath.Join(gitDir, "HEAD")); err == nil {
			ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
			if !isRef {
				return ref
			}
			if id, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
				return strings.TrimSpace(string(id))
			}
			if packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs")); err == nil {
				for _, l := range strings.Split(string(packed), "\n") {
					if id, r, ok := strings.Cut(l, " "); ok && r == ref {
						return id
					}
				}
			}
			return "unknown"
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "unknown"
		}
		dir = parent
	}
}
