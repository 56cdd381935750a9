package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/androzoo"
	"repro/internal/apk"
	"repro/internal/callgraph"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/decompiler"
	"repro/internal/javaparser"
	"repro/internal/pipeline"
	"repro/internal/playstore"
	"repro/internal/report"
	"repro/internal/retry"
	"repro/internal/sdkindex"
	"repro/internal/urlextract"
	"repro/internal/webviewlint"
)

// staticWorkload is one of the two static-study workloads. scan serves the
// corpus over loopback HTTP exactly as `staticscan -lint -urls` does;
// analyze feeds the same study from in-memory backends, so HTTP does no
// work and the analysis chain does nearly all of it.
type staticWorkload struct {
	scale int
	http  bool
	// wrapRepo, when set, wraps the repository the study receives on every
	// round (the self-tests inject a failing backend through it).
	wrapRepo func(pipeline.Repository) pipeline.Repository
}

func (w *staticWorkload) setup(seed int64) (instance, error) {
	c, err := corpus.Generate(corpus.Config{Seed: seed, Scale: w.scale})
	if err != nil {
		return nil, err
	}
	inst := &staticInst{w: w, truth: groundTruth(c), workers: runtime.GOMAXPROCS(0)}
	if w.http {
		inst.corpus = c
		inst.az = httptest.NewServer(androzoo.NewServer(c).Handler())
		inst.ps = httptest.NewServer(playstore.NewServer(c).Handler())
		return inst, nil
	}
	if inst.mem, err = buildMemBackends(c); err != nil {
		return nil, err
	}
	return inst, nil
}

// groundTruth counts the funnel from the generated specs themselves —
// not from corpus.Counts, whose Broken figure the generator does not
// always plant (see the benchmark's README).
func groundTruth(c *corpus.Corpus) pipeline.Funnel {
	f := pipeline.Funnel{Snapshot: len(c.Apps)}
	for _, s := range c.Apps {
		if !s.OnPlayStore {
			continue
		}
		f.OnPlay++
		if s.Downloads < corpus.MinDownloads {
			continue
		}
		f.Popular++
		if !s.LastUpdated.After(corpus.UpdateCutoff) {
			continue
		}
		f.Filtered++
		if s.Broken {
			f.Broken++
		}
	}
	f.Analyzed = f.Filtered - f.Broken
	return f
}

// memBackends serves a pre-generated snapshot from memory, in the style
// of the repository's bench_test.go fixtures: every filter-passing APK
// image is built once during set-up.
type memBackends struct {
	pkgs []string
	md   map[string]playstore.Metadata
	imgs map[string][]byte
}

func buildMemBackends(c *corpus.Corpus) (*memBackends, error) {
	m := &memBackends{
		pkgs: make([]string, 0, len(c.Apps)),
		md:   map[string]playstore.Metadata{},
		imgs: map[string][]byte{},
	}
	for _, s := range c.Apps {
		m.pkgs = append(m.pkgs, s.Package)
		if !s.OnPlayStore {
			continue
		}
		m.md[s.Package] = playstore.Metadata{
			Package: s.Package, Title: s.Title, Category: s.PlayCategory,
			Downloads: s.Downloads, LastUpdated: s.LastUpdated,
		}
		if s.Eligible(corpus.MinDownloads, corpus.UpdateCutoff) {
			img, err := corpus.BuildAPK(s)
			if err != nil {
				return nil, fmt.Errorf("build %s: %w", s.Package, err)
			}
			m.imgs[s.Package] = img
		}
	}
	return m, nil
}

func (m *memBackends) List(ctx context.Context) ([]string, error) { return m.pkgs, nil }

func (m *memBackends) Download(ctx context.Context, pkg string) ([]byte, error) {
	img, ok := m.imgs[pkg]
	if !ok {
		return nil, retry.Permanent(fmt.Errorf("perfbench repo: unknown package %s", pkg))
	}
	return img, nil
}

func (m *memBackends) Metadata(ctx context.Context, pkg string) (playstore.Metadata, error) {
	md, ok := m.md[pkg]
	if !ok {
		return playstore.Metadata{}, retry.Permanent(fmt.Errorf("%w: %s", playstore.ErrNotFound, pkg))
	}
	return md, nil
}

// digest hashes every input the study can read: the snapshot list, each
// metadata record and each APK image, in snapshot order.
func (m *memBackends) digest() string {
	h := sha256.New()
	var n [8]byte
	for _, p := range m.pkgs {
		h.Write([]byte(p))
		h.Write([]byte{0})
		if md, ok := m.md[p]; ok {
			fmt.Fprintf(h, "%s|%s|%d|%s|", md.Title, md.Category, md.Downloads, md.LastUpdated.UTC().Format(time.RFC3339))
		}
		img := m.imgs[p]
		binary.LittleEndian.PutUint64(n[:], uint64(len(img)))
		h.Write(n[:])
		h.Write(img)
	}
	return hex.EncodeToString(h.Sum(nil))
}

type staticInst struct {
	w       *staticWorkload
	truth   pipeline.Funnel
	workers int
	// scan: the corpus behind the two loopback services.
	corpus *corpus.Corpus
	az, ps *httptest.Server
	// analyze: the in-memory snapshot.
	mem *memBackends
}

func (s *staticInst) close() {
	if s.az != nil {
		s.az.Close()
		s.ps.Close()
	}
}

func (s *staticInst) inputs() map[string]any {
	return map[string]any{
		"scale": s.w.scale, "snapshot_entries": s.truth.Snapshot, "on_play": s.truth.OnPlay,
		"filter_passing_apks": s.truth.Filtered, "broken_planted": s.truth.Broken,
		"workers": s.workers, "backends": map[bool]string{true: "loopback httptest", false: "in-memory"}[s.w.http],
	}
}

func (s *staticInst) inputDigest() (string, error) {
	if s.mem != nil {
		return s.mem.digest(), nil
	}
	m, err := buildMemBackends(s.corpus)
	if err != nil {
		return "", err
	}
	return m.digest(), nil
}

// expectedItems is a round's item count: snapshot entries for scan,
// analysed APKs for analyze.
func (s *staticInst) expectedItems() int {
	if s.w.http {
		return s.truth.Snapshot
	}
	return s.truth.Analyzed
}

// round runs what `staticscan -scale N -seed S -lint -urls` does once its
// corpus and services are up: a retrying client pair, the core static
// study with lint and URL extraction, and the rendered report.
func (s *staticInst) round(tr *tracer) (*roundOut, error) {
	pol := &retry.Policy{MaxAttempts: 4, Metrics: &retry.Metrics{}}
	var repo pipeline.Repository
	var meta pipeline.MetadataSource
	var transports []*countingTransport
	var clients []*http.Client
	if s.w.http {
		azHC, psHC := s.az.Client(), s.ps.Client()
		clients = append(clients, azHC, psHC)
		if tr != nil {
			azT, psT := &countingTransport{base: azHC.Transport}, &countingTransport{base: psHC.Transport}
			transports = append(transports, azT, psT)
			azHC, psHC = &http.Client{Transport: azT}, &http.Client{Transport: psT}
		}
		repo = androzoo.NewClient(s.az.URL, azHC).WithRetry(pol)
		meta = playstore.NewClient(s.ps.URL, psHC).WithRetry(pol)
	} else {
		repo, meta = s.mem, s.mem
	}
	if s.w.wrapRepo != nil {
		repo = s.w.wrapRepo(repo)
	}
	var traced *tracedRepo
	if tr != nil {
		traced = &tracedRepo{inner: repo, tr: tr, images: map[string][]byte{}}
		repo, meta = traced, &tracedMeta{inner: meta, tr: tr}
	}
	study, err := core.NewStaticStudy(repo, meta, core.StaticConfig{
		Workers: s.workers, Lint: true, URLs: true, Retry: pol,
	})
	if err != nil {
		return nil, err
	}
	sp := tr.begin("pipeline.run", 0, "")
	if tr != nil {
		tr.runSpan.Store(sp.id)
	}
	res, err := study.Run(context.Background())
	sp.end()
	for _, hc := range clients {
		// The command exits after one run; dropping idle connections makes
		// every round start from the same cold connection state.
		hc.CloseIdleConnections()
	}
	out := &roundOut{items: s.expectedItems()}
	if err != nil {
		out.failed = out.items
		return out, err
	}
	if tr != nil {
		for _, t := range transports {
			tr.add("http.requests", float64(t.requests.Load()))
			tr.add("http.dials", float64(t.dials.Load()))
			tr.add("http.reused", float64(t.reused.Load()))
		}
		tr.add("pipeline.analyzed", float64(res.Funnel.Analyzed))
		tr.add("pipeline.retries", float64(res.Stats.Retries))
		tr.add("pipeline.quarantined", float64(len(res.Quarantined)))
		tr.add("pipeline.peak_inflight_kb", float64(res.Stats.PeakInFlightBytes)/1024)
		out.images = traced.images
	}
	out.failed = len(res.Quarantined)
	out.artefact = renderStatic(res, s.w.scale)
	if res.Funnel != s.truth {
		out.check = fmt.Errorf("funnel %+v does not match ground truth %+v counted from the generated specs", res.Funnel, s.truth)
	}
	return out, nil
}

// renderStatic renders the report `staticscan -lint -urls` prints: Tables
// 2-5/7, Figures 3/4, the lint prevalence and static-endpoint tables.
func renderStatic(res *core.StaticResult, scale int) string {
	var b strings.Builder
	b.WriteString(report.Table2(res.Funnel, scale))
	b.WriteString(report.Table3(res.Aggregates))
	b.WriteString(report.TopSDKTable(res.Aggregates, false, scale))
	b.WriteString(report.TopSDKTable(res.Aggregates, true, scale))
	b.WriteString(report.Table7(res.Aggregates, scale))
	b.WriteString(report.Figure3(res.Aggregates))
	b.WriteString(report.Figure4(res.Aggregates))
	b.WriteString(report.LintTable(res.Aggregates))
	b.WriteString(report.URLTable(res.Apps))
	return b.String()
}

// layerPass re-runs the analysis chain's public functions, in
// analyzeImage's order, over every image the round downloaded, then
// pipeline.AnalyzeAndExtract per image as the total the parts must account
// for. It runs on the study's worker count, after the round.
func (s *staticInst) layerPass(tr *tracer, out *roundOut) error {
	idx := sdkindex.Default()
	lint, err := webviewlint.New(webviewlint.Config{})
	if err != nil {
		return err
	}
	ex := urlextract.New(urlextract.Config{})
	pkgs := make([]string, 0, len(out.images))
	for p := range out.images {
		pkgs = append(pkgs, p)
	}
	sort.Strings(pkgs)
	work := make(chan string)
	errs := make(chan error, s.workers)
	var wg sync.WaitGroup
	for i := 0; i < s.workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var first error
			for pkg := range work {
				if err := analyzeParts(tr, idx, lint, ex, pkg, out.images[pkg]); err != nil && first == nil {
					first = err
				}
			}
			errs <- first
		}()
	}
	for _, p := range pkgs {
		work <- p
	}
	close(work)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// analyzeParts times each analysis layer on one image under a
// layerpass.image frame, then the whole per-image analysis.
func analyzeParts(tr *tracer, idx *sdkindex.Index, lint *webviewlint.Analyzer, ex *urlextract.Extractor, pkg string, img []byte) error {
	frame := tr.beginPass("layerpass.image", 0, pkg)
	err := func() error {
		sp := tr.beginPass("apk.open", frame.id, pkg)
		a, err := apk.Open(img)
		sp.end()
		if err != nil {
			if errors.Is(err, apk.ErrBroken) {
				return nil
			}
			return err
		}
		sp = tr.beginPass("decompiler.decompile", frame.id, pkg)
		units := decompiler.Decompile(a.Dex)
		sp.end()
		parsed := make([]*javaparser.CompilationUnit, 0, len(units))
		sp = tr.beginPass("javaparser.parse", frame.id, pkg)
		for _, u := range units {
			cu, err := javaparser.Parse(u.Source)
			if err != nil {
				break // the pipeline counts the APK as broken here
			}
			parsed = append(parsed, cu)
		}
		sp.end()
		tr.add("javaparser.parse.units", float64(len(parsed)))
		if len(parsed) < len(units) {
			return nil
		}
		excl := map[string]bool{}
		for _, dl := range a.Manifest.DeepLinkActivities() {
			excl[dl] = true
		}
		sp = tr.beginPass("callgraph.build", frame.id, pkg)
		g := callgraph.Build(a.Dex)
		sp.end()
		sp = tr.beginPass("callgraph.usage", frame.id, pkg)
		g.AnalyzeUsage(excl)
		sp.end()
		sp = tr.beginPass("webviewlint.analyze", frame.id, pkg)
		findings := lint.Analyze(webviewlint.App{Units: parsed, Graph: g, Index: idx})
		sp.end()
		tr.add("webviewlint.analyze.findings", float64(len(findings)))
		sp = tr.beginPass("urlextract.extract", frame.id, pkg)
		eps := ex.Extract(g, excl, idx)
		sp.end()
		tr.add("urlextract.extract.endpoints", float64(len(eps)))
		return nil
	}()
	frame.end()
	if err != nil {
		return fmt.Errorf("layer pass %s: %w", pkg, err)
	}
	sp := tr.beginPass("pipeline.analyze_one", 0, pkg)
	_, err = pipeline.AnalyzeAndExtract(idx, lint, ex, img)
	sp.end()
	return err
}

// coverage is the share of the traced rounds' wall time × workers that
// in-round backend calls plus the per-image analysis time account for.
// The pipeline runs every stage with Workers goroutines, so overlapping
// stages can take it past 1.
func (s *staticInst) coverage(tr *tracer, wall time.Duration) float64 {
	var busy time.Duration
	for _, l := range []string{"androzoo.list", "androzoo.download", "playstore.metadata", "pipeline.analyze_one"} {
		busy += tr.layer(l).busy
	}
	return busy.Seconds() / (wall.Seconds() * float64(s.workers))
}

// tracedRepo times every repository call the study makes and keeps the
// downloaded images for the layer pass.
type tracedRepo struct {
	inner  pipeline.Repository
	tr     *tracer
	mu     sync.Mutex
	images map[string][]byte
}

func (r *tracedRepo) List(ctx context.Context) ([]string, error) {
	sp := r.tr.begin("androzoo.list", r.tr.parent(), "")
	pkgs, err := r.inner.List(ctx)
	sp.end()
	return pkgs, err
}

func (r *tracedRepo) Download(ctx context.Context, pkg string) ([]byte, error) {
	sp := r.tr.begin("androzoo.download", r.tr.parent(), pkg)
	img, err := r.inner.Download(ctx, pkg)
	sp.end()
	if err != nil {
		r.tr.add("androzoo.download.errors", 1)
		return img, err
	}
	r.tr.add("androzoo.download.mb", float64(len(img))/1e6)
	r.mu.Lock()
	r.images[pkg] = img
	r.mu.Unlock()
	return img, nil
}

// tracedMeta times every metadata lookup, counting not-found answers
// apart from errors.
type tracedMeta struct {
	inner pipeline.MetadataSource
	tr    *tracer
}

func (m *tracedMeta) Metadata(ctx context.Context, pkg string) (playstore.Metadata, error) {
	sp := m.tr.begin("playstore.metadata", m.tr.parent(), pkg)
	md, err := m.inner.Metadata(ctx, pkg)
	sp.end()
	switch {
	case errors.Is(err, playstore.ErrNotFound):
		m.tr.add("playstore.metadata.not_found", 1)
	case err != nil:
		m.tr.add("playstore.metadata.errors", 1)
	}
	return md, err
}
