package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/retry"
)

// Small variants of the benchmark's workloads, so the self-tests run in
// seconds.
func smallWorkloads() map[string]workload {
	return map[string]workload{
		"scan":    &staticWorkload{scale: 2500, http: true},
		"analyze": &staticWorkload{scale: 2500},
		"dynamic": &dynamicWorkload{scale: 100, top: 50, sites: 5, workers: 2, rateLimit: 2},
	}
}

func inputDigestOf(t *testing.T, w workload, seed int64) string {
	t.Helper()
	inst, err := w.setup(seed)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	d, err := inst.inputDigest()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSameSeedSameInputs(t *testing.T) {
	for name, w := range smallWorkloads() {
		a, b := inputDigestOf(t, w, 7), inputDigestOf(t, w, 7)
		if a != b {
			t.Errorf("%s: seed 7 generated different inputs: %s vs %s", name, a, b)
		}
		if name != "dynamic" && inputDigestOf(t, w, 8) == a {
			// The crawl's sites carry no seed; only the static corpora must
			// differ by seed at this size.
			t.Errorf("%s: seeds 7 and 8 generated identical inputs", name)
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestMetricNames checks every metric name the benchmark emits and that
// BENCHMARK.json declares exactly those metrics.
func TestMetricNames(t *testing.T) {
	e2e := endToEnd([]float64{1}, []roundCost{{wall: 1}}, 1)
	var perLayer []string
	for _, lm := range layerMetricTable {
		perLayer = append(perLayer, lm.name)
	}
	for n := range runMetricUnits {
		perLayer = append(perLayer, n)
	}
	var e2eNames []string
	for n := range e2e {
		e2eNames = append(e2eNames, n)
	}
	for _, n := range append(append([]string{"failed_frac"}, e2eNames...), perLayer...) {
		if !metricName.MatchString(n) {
			t.Errorf("metric name %q does not match %s", n, metricName)
		}
	}

	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	declared := func(ms []struct{ Name, Unit string }, units func(string) string) []string {
		var names []string
		for _, m := range ms {
			names = append(names, m.Name)
			if u := units(m.Name); u != m.Unit {
				t.Errorf("%s: BENCHMARK.json unit %q, benchmark emits %q", m.Name, m.Unit, u)
			}
		}
		sort.Strings(names)
		return names
	}
	layerUnits := map[string]string{}
	for _, lm := range layerMetricTable {
		layerUnits[lm.name] = lm.unit
	}
	for n, u := range runMetricUnits {
		layerUnits[n] = u
	}
	sort.Strings(e2eNames)
	sort.Strings(perLayer)
	if got := declared(spec.EndToEnd, func(n string) string { return e2e[n].Unit }); !equal(got, e2eNames) {
		t.Errorf("BENCHMARK.json end_to_end %v, benchmark emits %v", got, e2eNames)
	}
	if got := declared(spec.PerLayer, func(n string) string { return layerUnits[n] }); !equal(got, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, benchmark emits %v", got, perLayer)
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestGateRejectsPerturbedTable(t *testing.T) {
	w := smallWorkloads()["analyze"]
	inst, err := w.setup(3)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	out, err := inst.round(nil)
	if err != nil {
		t.Fatal(err)
	}
	var g gate
	if err := g.check(out, nil); err != nil {
		t.Fatalf("warm-up round failed the gate: %v", err)
	}
	if err := g.check(out, nil); err != nil {
		t.Fatalf("identical round failed the gate: %v", err)
	}
	perturbed := *out
	b := []byte(out.artefact)
	b[len(b)/2] ^= 1
	perturbed.artefact = string(b)
	if err := g.check(&perturbed, nil); err == nil {
		t.Error("gate passed a round whose rendered table was perturbed")
	}
	if err := (&gate{want: digest("other")}).check(out, nil); err == nil {
		t.Error("gate passed a warm-up round that differs from the checked-in digest")
	}
	wrongFunnel := *out
	wrongFunnel.check = errors.New("funnel mismatch")
	if err := g.check(&wrongFunnel, nil); err == nil {
		t.Error("gate passed a round whose funnel missed ground truth")
	}
}

// failOnce fails its first download with a permanent error.
type failOnce struct {
	pipeline.Repository
	failed atomic.Bool
}

func (f *failOnce) Download(ctx context.Context, pkg string) ([]byte, error) {
	if f.failed.CompareAndSwap(false, true) {
		return nil, retry.Permanent(errors.New("injected download failure"))
	}
	return f.Repository.Download(ctx, pkg)
}

func TestFailingBackendCountsFailures(t *testing.T) {
	rounds := 0
	w := &staticWorkload{scale: 2500, wrapRepo: func(r pipeline.Repository) pipeline.Repository {
		// Round 1 is the warm-up; the error lands in the first measured round.
		if rounds++; rounds == 2 {
			return &failOnce{Repository: r}
		}
		return r
	}}
	res, _, err := run(options{workload: "analyze", seed: 5, seconds: 0, setups: 1, outDir: t.TempDir()}, w, io.Discard)
	if err != nil {
		t.Fatalf("run crashed on one backend error: %v", err)
	}
	frac := failedFrac(res.Failed, res.Attempted)
	if frac <= 0 || res.Correct {
		t.Errorf("one backend error: failed_frac %v (failed %d of %d), correct %v; want failed_frac > 0 and correct false",
			frac, res.Failed, res.Attempted, res.Correct)
	}
	if res.Metrics["failed_frac"].Value != frac {
		t.Errorf("failed_frac metric %v, want %v", res.Metrics["failed_frac"].Value, frac)
	}
}

// TestTracedRunEmitsEveryLayerMetric runs each small workload traced and
// checks the per-layer metrics, the span file and the layer table.
func TestTracedRunEmitsEveryLayerMetric(t *testing.T) {
	for name, w := range smallWorkloads() {
		dir := t.TempDir()
		res, _, err := run(options{workload: name, seed: 2, seconds: 0, setups: 1, trace: true, outDir: dir}, w, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s: traced run correct=%v failed=%d", name, res.Correct, res.Failed)
		}
		for _, lm := range layerMetricTable {
			if _, ok := res.Metrics[lm.name]; !ok {
				t.Errorf("%s: missing per-layer metric %s", name, lm.name)
			}
		}
		for n := range runMetricUnits {
			if _, ok := res.Metrics[n]; !ok {
				t.Errorf("%s: missing metric %s", name, n)
			}
		}
		for _, f := range []string{name + "-seed2.spans.jsonl.gz", name + "-seed2.layers.txt"} {
			if st, err := os.Stat(filepath.Join(dir, f)); err != nil || st.Size() == 0 {
				t.Errorf("%s: %s missing or empty (%v)", name, f, err)
			}
		}
		busy := map[string]string{"scan": "http.dials", "analyze": "pipeline.analyze_one.busy_s", "dynamic": "browsersim.load.busy_s"}[name]
		if res.Metrics[busy].Value <= 0 {
			t.Errorf("%s: %s = %v, want > 0", name, busy, res.Metrics[busy].Value)
		}
	}
}

func TestUnionWithin(t *testing.T) {
	iv := [][2]int64{{0, 10}, {5, 15}, {20, 30}, {-5, 2}}
	if got := unionWithin(iv, 0, 25); got != 20 {
		t.Errorf("unionWithin = %d, want 20", got)
	}
}
