package main

// layerMetric is one per-layer metric a traced run reports.
type layerMetric struct {
	name, unit string
	value      func(tr *tracer, rounds float64) float64
}

// Value helpers: per-round means of calls, busy time and counters, and
// percentiles pooled over every call in the traced rounds.
func calls(layer string) func(*tracer, float64) float64 {
	return func(tr *tracer, n float64) float64 { return float64(tr.layer(layer).calls) / n }
}

func busy(layer string) func(*tracer, float64) float64 {
	return func(tr *tracer, n float64) float64 { return tr.layer(layer).busy.Seconds() / n }
}

func pct(layer string, q float64) func(*tracer, float64) float64 {
	return func(tr *tracer, _ float64) float64 { return quantile(tr.layer(layer).durs, q) }
}

func counter(name string) func(*tracer, float64) float64 {
	return func(tr *tracer, n float64) float64 { return tr.count(name) / n }
}

// layerMetricTable lists every per-layer metric, named <module>.<metric>.
// Every traced run reports all of them; a layer its workload does not
// exercise reads 0. The runtime.* and trace.* metrics are added by the
// traced run itself.
var layerMetricTable = []layerMetric{
	{"playstore.metadata.calls", "count", calls("playstore.metadata")},
	{"playstore.metadata.busy_s", "s", busy("playstore.metadata")},
	{"playstore.metadata.p50_ms", "ms", pct("playstore.metadata", 0.50)},
	{"playstore.metadata.p99_ms", "ms", pct("playstore.metadata", 0.99)},
	{"playstore.metadata.not_found", "count", counter("playstore.metadata.not_found")},
	{"playstore.metadata.errors", "count", counter("playstore.metadata.errors")},
	{"androzoo.list.busy_s", "s", busy("androzoo.list")},
	{"androzoo.download.calls", "count", calls("androzoo.download")},
	{"androzoo.download.busy_s", "s", busy("androzoo.download")},
	{"androzoo.download.p50_ms", "ms", pct("androzoo.download", 0.50)},
	{"androzoo.download.p99_ms", "ms", pct("androzoo.download", 0.99)},
	{"androzoo.download.mb", "MB", counter("androzoo.download.mb")},
	{"androzoo.download.errors", "count", counter("androzoo.download.errors")},
	{"http.requests", "count", counter("http.requests")},
	{"http.dials", "count", counter("http.dials")},
	{"http.conn_reuse_ratio", "ratio", func(tr *tracer, _ float64) float64 {
		if r := tr.count("http.requests"); r > 0 {
			return tr.count("http.reused") / r
		}
		return 0
	}},
	{"pipeline.run_s", "s", busy("pipeline.run")},
	{"pipeline.analyzed", "count", counter("pipeline.analyzed")},
	{"pipeline.retries", "count", counter("pipeline.retries")},
	{"pipeline.quarantined", "count", counter("pipeline.quarantined")},
	{"pipeline.peak_inflight_kb", "KB", counter("pipeline.peak_inflight_kb")},
	{"apk.open.busy_s", "s", busy("apk.open")},
	{"decompiler.decompile.busy_s", "s", busy("decompiler.decompile")},
	{"javaparser.parse.busy_s", "s", busy("javaparser.parse")},
	{"javaparser.parse.units", "count", counter("javaparser.parse.units")},
	{"callgraph.build.busy_s", "s", busy("callgraph.build")},
	{"callgraph.usage.busy_s", "s", busy("callgraph.usage")},
	{"webviewlint.analyze.busy_s", "s", busy("webviewlint.analyze")},
	{"webviewlint.analyze.findings", "count", counter("webviewlint.analyze.findings")},
	{"urlextract.extract.busy_s", "s", busy("urlextract.extract")},
	{"urlextract.extract.endpoints", "count", counter("urlextract.extract.endpoints")},
	{"pipeline.analyze_one.busy_s", "s", busy("pipeline.analyze_one")},
	{"pipeline.analyze_one.p50_ms", "ms", pct("pipeline.analyze_one", 0.50)},
	{"pipeline.analyze_one.p99_ms", "ms", pct("pipeline.analyze_one", 0.99)},
	{"core.classify.busy_s", "s", busy("core.classify")},
	{"core.classify.apps", "count", counter("core.classify.apps")},
	{"core.probe.busy_s", "s", busy("core.probe")},
	{"core.probe.iabs", "count", counter("core.probe.iabs")},
	{"measure.beacons", "count", counter("measure.beacons")},
	{"crawler.run_s", "s", busy("crawler.run")},
	{"crawler.visits", "count", counter("crawler.visits")},
	{"crawler.failures", "count", counter("crawler.failures")},
	{"crawler.account_resets", "count", counter("crawler.account_resets")},
	{"adb.commands", "count", counter("adb.commands")},
	{"browsersim.load.calls", "count", calls("browsersim.load")},
	{"browsersim.load.busy_s", "s", busy("browsersim.load")},
	{"browsersim.load.p50_ms", "ms", pct("browsersim.load", 0.50)},
	{"browsersim.load.p99_ms", "ms", pct("browsersim.load", 0.99)},
	{"browsersim.load_noscript.busy_s", "s", busy("browsersim.load_noscript")},
	{"dom.parse.busy_s", "s", busy("dom.parse")},
	{"jsvm.compile.busy_s", "s", busy("jsvm.compile")},
	{"jsvm.execute.busy_s", "s", busy("jsvm.execute")},
	{"jsvm.programs", "count", counter("jsvm.programs")},
}

// Metrics the traced run computes outside the table.
var runMetricUnits = map[string]string{
	"runtime.gc_cpu_frac":     "ratio",
	"runtime.gc_cycles":       "count",
	"runtime.goroutines_peak": "count",
	"trace.overhead":          "ratio",
	"trace.coverage":          "ratio",
}

// layerMetrics evaluates the table over a traced run of the given number
// of rounds.
func layerMetrics(tr *tracer, rounds float64) map[string]metric {
	m := make(map[string]metric, len(layerMetricTable)+len(runMetricUnits))
	for _, lm := range layerMetricTable {
		m[lm.name] = metric{lm.value(tr, rounds), lm.unit}
	}
	return m
}
