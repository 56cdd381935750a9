// Command perfbench is the repository's benchmark. It drives the same
// public entry points the commands use — core.NewStaticStudy(...).Run,
// core.NewDynamicStudyFleet(...).ClassifyTopApps/ProbeIABs,
// crawler.NewFleet(...).Run and the report renderers — in closed-loop
// rounds over inputs generated from a seed, checks every round's rendered
// tables, and prints its metrics as one JSON object on the last line of
// standard output.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload scan|analyze|dynamic --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs a separate traced run and reports the per-layer metrics, writing
// the span JSONL and the per-layer table under .bench_build/perfbench/.
// See README.md beside this file for the workloads and metrics.
package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workload builds a benchmark instance from a seed.
type workload interface {
	setup(seed int64) (instance, error)
}

// instance is a set-up workload: its inputs are generated and its
// backends started.
type instance interface {
	// round runs one closed-loop round; tr is nil outside traced rounds.
	round(tr *tracer) (*roundOut, error)
	// layerPass times the layers' public functions over what the round
	// processed, after the round.
	layerPass(tr *tracer, out *roundOut) error
	// coverage is the share of the traced rounds' wall time (times the
	// callers' concurrency) that layer busy time accounts for.
	coverage(tr *tracer, wall time.Duration) float64
	inputs() map[string]any
	inputDigest() (string, error)
	close()
}

// roundOut is what one round produced.
type roundOut struct {
	artefact string // the rendered tables and figures
	items    int    // items the round attempted
	failed   int    // items that failed
	check    error  // ground-truth mismatch, if any
	images   map[string][]byte
	sites    []string
}

// workloads are the benchmark's workloads by name.
func workloads() map[string]workload {
	return map[string]workload{
		"scan":    &staticWorkload{scale: 200, http: true},
		"analyze": &staticWorkload{scale: 20},
		"dynamic": &dynamicWorkload{scale: 100, top: 1000, sites: 500, workers: 2, rateLimit: 40},
	}
}

//go:embed digests.json
var digestsJSON []byte

// defaultSeed is the seed the checked-in digests were recorded for.
const defaultSeed = 1

// checkedInDigest returns the recorded artefact digest for the workload
// at seed, or "" when none is recorded.
func checkedInDigest(name string, seed int64) (string, error) {
	if seed != defaultSeed {
		return "", nil
	}
	var m map[string]string
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		return "", fmt.Errorf("digests.json: %w", err)
	}
	return m[name], nil
}

// gate is the correctness gate every round passes through: its rendered
// artefacts must hash to the warm-up round's digest (and the checked-in
// one for the default seed), and its funnel or counts must match ground
// truth from the generated inputs.
type gate struct {
	want string // checked-in digest, or ""
	warm string // digest of the first warm-up round
}

func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

func (g *gate) check(out *roundOut, err error) error {
	switch {
	case err != nil:
		return err
	case out.check != nil:
		return out.check
	}
	d := digest(out.artefact)
	if g.warm == "" {
		if g.want != "" && d != g.want {
			return fmt.Errorf("artefact digest %s differs from the checked-in %s", d, g.want)
		}
		g.warm = d
		return nil
	}
	if d != g.warm {
		return fmt.Errorf("artefact digest %s differs from the warm-up round's %s", d, g.warm)
	}
	return nil
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	setups   int
	outDir   string
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one benchmark run in progress.
type bench struct {
	opts    options
	inst    instance
	gate    gate
	log     io.Writer
	correct bool
	attempt int
	failed  int
}

// record charges a measured round's items and gate outcome.
func (b *bench) record(label string, out *roundOut, err error) {
	if out != nil {
		b.attempt += out.items
		b.failed += out.failed
	}
	if gerr := b.gate.check(out, err); gerr != nil {
		b.correct = false
		if out != nil && err == nil {
			// A round whose output fails the gate counts wholly as failed.
			b.failed += out.items - out.failed
		}
		fmt.Fprintf(b.log, "%s: FAILED: %v\n", label, gerr)
	}
}

// setUp runs the workload's set-up (inputs, backends and one warm-up
// round) opts.setups times, keeping the last instance, and returns each
// set-up's duration.
func (b *bench) setUp(w workload) ([]float64, error) {
	var durs []float64
	for i := 0; i < b.opts.setups; i++ {
		if b.inst != nil {
			b.inst.close()
			b.inst = nil
		}
		runtime.GC() // each set-up starts from the same heap, not the last one's garbage
		t0 := time.Now()
		inst, err := w.setup(b.opts.seed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		b.inst = inst
		out, err := inst.round(nil)
		durs = append(durs, time.Since(t0).Seconds())
		// Warm-up rounds pass the gate but are not charged as items.
		if gerr := b.gate.check(out, err); gerr != nil {
			b.correct = false
			fmt.Fprintf(b.log, "warm-up %d: FAILED: %v\n", i+1, gerr)
		}
	}
	return durs, nil
}

// measured runs rounds until the time budget is spent (and at least min
// rounds), returning their costs.
func (b *bench) measured(label string, budget time.Duration, min int, tr *tracer, after func(*roundOut) error) ([]roundCost, error) {
	var costs []roundCost
	start := time.Now()
	for r := 0; r < min || time.Since(start) < budget; r++ {
		tr.setRound(r)
		var out *roundOut
		cost, err := measureRound(func() error {
			var err error
			out, err = b.inst.round(tr)
			return err
		})
		b.record(fmt.Sprintf("%s round %d", label, r+1), out, err)
		fmt.Fprintf(b.log, "%s round %d: wall %.3fs cpu %.3fs alloc %.1fMB heap %.1fMB gc %d\n",
			label, r+1, cost.wall.Seconds(), cost.cpu.Seconds(), float64(cost.allocBytes)/1e6,
			float64(cost.heapPeak)/1e6, cost.gcCycles)
		costs = append(costs, cost)
		if after != nil && err == nil {
			if err := after(out); err != nil {
				return nil, err
			}
		}
	}
	return costs, nil
}

func collect(costs []roundCost, f func(roundCost) float64) []float64 {
	v := make([]float64, len(costs))
	for i, c := range costs {
		v[i] = f(c)
	}
	return v
}

// endToEnd reports the end-to-end metrics: set-up time as the median of
// several set-ups, then the medians of the measured rounds.
func endToEnd(setup []float64, costs []roundCost, items int) map[string]metric {
	wall := collect(costs, func(c roundCost) float64 { return c.wall.Seconds() })
	return map[string]metric{
		"setup_s":      {median(setup), "s"},
		"wall_s":       {median(wall), "s"},
		"items_per_s":  {median(collect(costs, func(c roundCost) float64 { return float64(items) / c.wall.Seconds() })), "1/s"},
		"cpu_s":        {median(collect(costs, func(c roundCost) float64 { return c.cpu.Seconds() })), "s"},
		"alloc_mb":     {median(collect(costs, func(c roundCost) float64 { return float64(c.allocBytes) / 1e6 })), "MB"},
		"heap_peak_mb": {median(collect(costs, func(c roundCost) float64 { return float64(c.heapPeak) / 1e6 })), "MB"},
	}
}

// run performs one benchmark run and returns its result.
func run(opts options, w workload, log io.Writer) (*result, map[string]any, error) {
	want, err := checkedInDigest(opts.workload, opts.seed)
	if err != nil {
		return nil, nil, err
	}
	b := &bench{opts: opts, gate: gate{want: want}, log: log, correct: true}
	ctx := hostContext(opts)
	ctx["time_wait_start"] = timeWaitSockets()
	defer func() {
		if b.inst != nil {
			b.inst.close()
		}
	}()
	setup, err := b.setUp(w)
	if err != nil {
		return nil, nil, err
	}
	ctx["inputs"] = b.inst.inputs()
	budget := time.Duration(opts.seconds * float64(time.Second))
	res := &result{}
	if !opts.trace {
		costs, err := b.measured("measured", budget, 3, nil, nil)
		if err != nil {
			return nil, nil, err
		}
		items := b.attempt / len(costs)
		res.Metrics = endToEnd(setup, costs, items)
		res.Metrics["failed_frac"] = metric{failedFrac(b.failed, b.attempt), "ratio"}
		ctx["measured_rounds"] = len(costs)
	} else {
		res.Metrics, err = b.tracedRun(budget)
		if err != nil {
			return nil, nil, err
		}
	}
	res.Correct, res.Attempted, res.Failed = b.correct, b.attempt, b.failed
	ctx["artefact_sha256"] = b.gate.warm
	ctx["time_wait_end"] = timeWaitSockets()
	ctx["load_average_end"] = loadAverage()
	return res, ctx, nil
}

func failedFrac(failed, attempted int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// tracedRun measures untraced rounds for a baseline, then traced rounds
// each followed by its layer pass, and reports the per-layer metrics.
func (b *bench) tracedRun(budget time.Duration) (map[string]metric, error) {
	plain, err := b.measured("untraced", budget*2/5, 2, nil, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, err := b.measured("traced", budget*3/5, 2, tr, func(out *roundOut) error {
		return b.inst.layerPass(tr, out)
	})
	if err != nil {
		return nil, err
	}
	plainWall := median(collect(plain, func(c roundCost) float64 { return c.wall.Seconds() }))
	tracedWalls := collect(traced, func(c roundCost) float64 { return c.wall.Seconds() })
	var tracedTotal time.Duration
	for _, c := range traced {
		tracedTotal += c.wall
	}
	m := layerMetrics(tr, float64(len(traced)))
	m["runtime.gc_cpu_frac"] = metric{median(collect(plain, func(c roundCost) float64 { return c.gcCPUFrac })), "ratio"}
	m["runtime.gc_cycles"] = metric{median(collect(plain, func(c roundCost) float64 { return float64(c.gcCycles) })), "count"}
	m["runtime.goroutines_peak"] = metric{median(collect(plain, func(c roundCost) float64 { return float64(c.goroutines) })), "count"}
	m["trace.overhead"] = metric{median(tracedWalls)/plainWall - 1, "ratio"}
	m["trace.coverage"] = metric{b.inst.coverage(tr, tracedTotal), "ratio"}

	if err := os.MkdirAll(b.opts.outDir, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(b.opts.outDir, fmt.Sprintf("%s-seed%d", b.opts.workload, b.opts.seed))
	if err := tr.writeSpans(base + ".spans.jsonl.gz"); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	table := tr.layerTable(len(traced))
	if err := os.WriteFile(base+".layers.txt", []byte(table+metricLines(m)), 0o644); err != nil {
		return nil, err
	}
	fmt.Fprint(b.log, table)
	fmt.Fprintf(b.log, "spans: %s.spans.jsonl.gz\n", base)
	return m, nil
}

// metricLines renders metrics one per line, by name, with units.
func metricLines(m map[string]metric) string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "metric %-34s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
	return b.String()
}

func main() {
	var opts options
	flag.StringVar(&opts.workload, "workload", "scan", "workload: scan, analyze or dynamic")
	flag.Int64Var(&opts.seed, "seed", defaultSeed, "input generation seed")
	flag.Float64Var(&opts.seconds, "seconds", 25, "measuring time per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	opts.trace = *trace == 1
	opts.setups = 3 // setup_s is their median
	if opts.trace {
		opts.setups = 1 // the traced run reports no setup_s
	}
	opts.outDir = filepath.Join(".bench_build", "perfbench")
	w, ok := workloads()[opts.workload]
	if !ok || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, trace %d)\n", opts.workload, *trace)
		os.Exit(2)
	}
	res, ctx, err := run(opts, w, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(metricLines(res.Metrics))
	if !opts.trace {
		// failed_frac is printed with the other end-to-end metrics but is
		// carried in the result line by "attempted" and "failed": a metric
		// that reads 0 has no relative bound.
		delete(res.Metrics, "failed_frac")
	}
	ctxLine, _ := json.Marshal(map[string]any{"context": ctx})
	fmt.Println(string(ctxLine))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
