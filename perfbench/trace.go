package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files around the program's public functions. Spans of one item (an APK
// package or a crawled site) share Item; LayerPass marks spans recorded by
// a layer pass after the round, so they are never read as in-round time.
type span struct {
	ID        int64  `json:"id"`
	Parent    int64  `json:"parent,omitempty"`
	Name      string `json:"name"`
	Item      string `json:"item,omitempty"`
	Round     int    `json:"round"`
	LayerPass bool   `json:"layer_pass,omitempty"`
	StartNS   int64  `json:"start_ns"`
	EndNS     int64  `json:"end_ns"`
}

// layerStat accumulates one layer's calls within the traced rounds.
type layerStat struct {
	calls int
	busy  time.Duration
	durs  []float64 // per-call durations in ms, for percentiles
}

// tracer keeps every span of a traced run in memory and aggregates busy
// time per layer name. A nil *tracer records nothing, so untraced rounds
// run the same code with no bookkeeping.
type tracer struct {
	origin time.Time
	nextID atomic.Int64
	// runSpan is the id of the in-flight pipeline.run (or round) span that
	// backend calls made by the program nest under.
	runSpan atomic.Int64

	mu     sync.Mutex
	round  int
	spans  []span
	layers map[string]*layerStat
	counts map[string]float64 // per-layer counters (findings, units, ...)
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), layers: map[string]*layerStat{}, counts: map[string]float64{}}
}

// openSpan is a started span; end records it.
type openSpan struct {
	t      *tracer
	id     int64
	parent int64
	name   string
	item   string
	pass   bool
	start  time.Time
}

// begin starts a span named after the layer call it times.
func (t *tracer) begin(name string, parent int64, item string) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{t: t, id: t.nextID.Add(1), parent: parent, name: name, item: item, start: time.Now()}
}

// beginPass starts a layer-pass span.
func (t *tracer) beginPass(name string, parent int64, item string) openSpan {
	sp := t.begin(name, parent, item)
	sp.pass = true
	return sp
}

// end records the span and returns its duration.
func (sp openSpan) end() time.Duration {
	if sp.t == nil {
		return 0
	}
	now := time.Now()
	d := now.Sub(sp.start)
	t := sp.t
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: sp.id, Parent: sp.parent, Name: sp.name, Item: sp.item, Round: t.round, LayerPass: sp.pass,
		StartNS: sp.start.Sub(t.origin).Nanoseconds(), EndNS: now.Sub(t.origin).Nanoseconds(),
	})
	ls := t.layers[sp.name]
	if ls == nil {
		ls = &layerStat{}
		t.layers[sp.name] = ls
	}
	ls.calls++
	ls.busy += d
	ls.durs = append(ls.durs, float64(d)/float64(time.Millisecond))
	t.mu.Unlock()
	return d
}

// add accumulates a per-layer counter (findings, units, megabytes, ...).
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// parent returns the span id backend calls currently nest under.
func (t *tracer) parent() int64 {
	if t == nil {
		return 0
	}
	return t.runSpan.Load()
}

func (t *tracer) setRound(r int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.round = r
	t.mu.Unlock()
}

func (t *tracer) layer(name string) layerStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ls := t.layers[name]; ls != nil {
		return *ls
	}
	return layerStat{}
}

func (t *tracer) count(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// selfTimes returns, per layer name, the summed self time of its spans: a
// span's duration minus the part of its interval its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNS, s.EndNS})
		}
	}
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		covered := unionWithin(children[s.ID], s.StartNS, s.EndNS)
		self[s.Name] += time.Duration(s.EndNS - s.StartNS - covered)
	}
	return self
}

// unionWithin is the length of the union of the intervals, clipped to
// [lo, hi].
func unionWithin(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, v := range iv {
		s, e := max(v[0], lo), min(v[1], hi)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// writeSpans writes every span as one JSON object per line, gzip
// compressed (a traced analyze run holds several hundred thousand spans).
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	if err := t.encodeSpans(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (t *tracer) encodeSpans(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return err
		}
	}
	return nil
}

// layerRow is one line of the traced run's per-layer table.
type layerRow struct {
	name      string
	calls     int
	busy      time.Duration
	self      time.Duration
	p50, p99  float64
	n         int // samples behind the percentiles
	predicted string
}

func (r layerRow) String() string {
	pct := "-"
	if r.n > 0 {
		pct = fmt.Sprintf("%.3f / %.3f", r.p50, r.p99)
	}
	return fmt.Sprintf("%-28s %9d %11.4f %11.4f %21s %8d  %s",
		r.name, r.calls, r.busy.Seconds(), r.self.Seconds(), pct, r.n, r.predicted)
}

// layerTable renders every recorded layer with its calls, busy and self
// time, percentiles with their sample counts and the end-to-end metric and
// workload its change is predicted to move.
func (t *tracer) layerTable(rounds int) string {
	self := t.selfTimes()
	t.mu.Lock()
	names := make([]string, 0, len(t.layers))
	for n := range t.layers {
		names = append(names, n)
	}
	t.mu.Unlock()
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "per-layer table over %d traced round(s); times are totals across those rounds\n", rounds)
	fmt.Fprintf(&b, "%-28s %9s %11s %11s %21s %8s  %s\n", "layer", "calls", "busy_s", "self_s", "p50 / p99 ms", "samples", "predicted to move")
	for _, n := range names {
		ls := t.layer(n)
		row := layerRow{name: n, calls: ls.calls, busy: ls.busy, self: self[n], n: len(ls.durs), predicted: prediction(n)}
		row.p50, row.p99 = quantile(ls.durs, 0.50), quantile(ls.durs, 0.99)
		b.WriteString(row.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// prediction names the end-to-end metric and workload a change to the
// layer should move; the other workloads are predicted not to move.
func prediction(layer string) string {
	switch {
	case strings.HasPrefix(layer, "playstore."), strings.HasPrefix(layer, "androzoo."), strings.HasPrefix(layer, "http."):
		return "wall_s, cpu_s on scan; none on analyze, dynamic"
	case layer == "round", strings.HasPrefix(layer, "pipeline.run"):
		return "wall_s, heap_peak_mb on scan, analyze"
	case strings.HasPrefix(layer, "core."), strings.HasPrefix(layer, "crawler."):
		return "wall_s on dynamic"
	case strings.HasPrefix(layer, "browsersim."), strings.HasPrefix(layer, "dom."), strings.HasPrefix(layer, "jsvm."):
		return "wall_s, cpu_s on dynamic; none on scan, analyze"
	case strings.HasPrefix(layer, "layerpass."):
		return "(layer-pass frame, not in-round time)"
	default:
		return "wall_s, items_per_s, alloc_mb on analyze; few % on scan; none on dynamic"
	}
}

// countingTransport counts the requests a client sends and, through
// httptrace, whether each one dialed a new connection or reused an idle
// one.
type countingTransport struct {
	base                    http.RoundTripper
	requests, dials, reused atomic.Int64
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.requests.Add(1)
	ct := &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) {
		if info.Reused {
			t.reused.Add(1)
		} else {
			t.dials.Add(1)
		}
	}}
	return t.base.RoundTrip(req.WithContext(httptrace.WithClientTrace(req.Context(), ct)))
}
