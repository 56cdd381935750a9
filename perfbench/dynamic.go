package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	neturl "net/url"
	"strings"
	"time"

	"repro/internal/adb"
	"repro/internal/browsersim"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/crawler"
	"repro/internal/crux"
	"repro/internal/device"
	"repro/internal/dom"
	"repro/internal/internet"
	"repro/internal/jsvm"
	"repro/internal/report"
	"repro/internal/telemetry"
)

// dynamicWorkload is `dynprobe -scale 100` (Table 6 over the top apps,
// then Tables 8/9 over the WebView IABs) followed by `crawlsites -sites
// 500 -workers 2 -devices 1` (Figure 6). No waits are modelled: the adb
// servers run with WaitScale 0.
type dynamicWorkload struct {
	scale     int
	top       int
	sites     int
	workers   int
	rateLimit int
}

func (w *dynamicWorkload) setup(seed int64) (instance, error) {
	c, err := corpus.Generate(corpus.Config{Seed: seed, Scale: w.scale})
	if err != nil {
		return nil, err
	}
	d := &dynamicInst{w: w, corpus: c, top: c.Top(w.top), sites: crux.TopSites(w.sites)}
	// The crawl apps: the ten WebView IABs plus the System WebView Shell
	// baseline, as crawlsites installs them.
	for i := range corpus.NamedApps {
		n := &corpus.NamedApps[i]
		if n.Dynamic.LinkOpens != corpus.LinkWebView {
			continue
		}
		d.crawlApps = append(d.crawlApps, &corpus.Spec{Package: n.Package, Title: n.Title,
			Downloads: n.Downloads, OnPlayStore: true, Dynamic: n.Dynamic})
	}
	d.crawlApps = append(d.crawlApps, core.BaselineShellSpec())
	return d, nil
}

type dynamicInst struct {
	w         *dynamicWorkload
	corpus    *corpus.Corpus
	top       []*corpus.Spec
	sites     []crux.Site
	crawlApps []*corpus.Spec
}

func (d *dynamicInst) close() {}

func (d *dynamicInst) inputs() map[string]any {
	return map[string]any{
		"scale": d.w.scale, "top_apps": len(d.top), "sites": len(d.sites), "crawl_apps": len(d.crawlApps),
		"crawl_visits": len(d.sites) * len(d.crawlApps), "crawl_workers": d.w.workers, "devices": 1,
		"probe_workers": 1, "rate_limit": d.w.rateLimit, "account_resets_allowed": d.maxResets(),
	}
}

// maxResets lets the rate-limited app replace its account as often as the
// crawl needs (crawlsites' default of 5 covers its 100-site crawl), so no
// visit fails on the restriction the paper worked around by hand.
func (d *dynamicInst) maxResets() int {
	if d.w.rateLimit <= 0 {
		return 0
	}
	return (len(d.sites) + d.w.rateLimit - 1) / d.w.rateLimit
}

func (d *dynamicInst) inputDigest() (string, error) {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, v := range []any{d.top, d.sites, d.crawlApps} {
		if err := enc.Encode(v); err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func (d *dynamicInst) expectedItems() int {
	return len(d.top) + len(d.sites)*len(d.crawlApps)
}

func (d *dynamicInst) round(tr *tracer) (*roundOut, error) {
	ctx := context.Background()
	out := &roundOut{items: d.expectedItems()}
	var b strings.Builder
	failAll := func(err error) (*roundOut, error) {
		out.failed = out.items
		return out, err
	}

	study := core.NewDynamicStudyFleet(1, 1)
	sp := tr.begin("core.classify", 0, "")
	t6, err := study.ClassifyTopApps(ctx, d.top)
	sp.end()
	if err != nil {
		return failAll(err)
	}
	b.WriteString(report.Table6(t6))
	var iabSpecs []*corpus.Spec
	for _, pkg := range t6.WebViewIABApps {
		if spec := d.corpus.AppByPackage(pkg); spec != nil {
			iabSpecs = append(iabSpecs, spec)
		}
	}
	sp = tr.begin("core.probe", 0, "")
	rows, srv, err := study.ProbeIABs(ctx, iabSpecs)
	sp.end()
	if err != nil {
		return failAll(err)
	}
	b.WriteString(report.Table8(rows))
	b.WriteString(report.Table9(rows))

	var hub *telemetry.Hub
	if tr != nil {
		hub = telemetry.New(telemetry.Options{})
	}
	sp = tr.begin("crawler.run", 0, "")
	res, err := d.crawl(hub)
	sp.end()
	if err != nil {
		return failAll(err)
	}
	b.WriteString(report.Figure6(res, "com.linkedin.android", "LinkedIn"))
	b.WriteString(report.Figure6(res, "kik.android", "Kik"))
	b.WriteString(report.Figure6(res, core.BaselineShellSpec().Package, "System WebView Shell (baseline)"))
	out.artefact = b.String()
	out.failed = len(res.Failures)

	classified := t6.CanPostLinks + t6.NoUserContent + t6.BrowserApps + t6.Unclassifiable
	switch {
	case classified != len(d.top):
		out.check = fmt.Errorf("table 6 classifies %d apps, want %d", classified, len(d.top))
	case len(rows) != len(t6.WebViewIABApps) || len(iabSpecs) != len(rows):
		out.check = fmt.Errorf("probed %d IABs, table 6 found %d", len(rows), len(t6.WebViewIABApps))
	case len(res.Visits)+len(res.Failures) != len(d.sites)*len(d.crawlApps):
		out.check = fmt.Errorf("crawl accounted %d visits, want %d", len(res.Visits)+len(res.Failures), len(d.sites)*len(d.crawlApps))
	}

	if tr != nil {
		tr.add("core.classify.apps", float64(classified))
		tr.add("core.probe.iabs", float64(len(rows)))
		tr.add("measure.beacons", float64(len(srv.Traces())))
		tr.add("crawler.visits", float64(len(res.Visits)))
		tr.add("crawler.failures", float64(len(res.Failures)))
		resets := 0
		for _, n := range res.AccountResets {
			resets += n
		}
		tr.add("crawler.account_resets", float64(resets))
		tr.add("adb.commands", float64(hub.Registry().Snapshot().Family("adb_commands_total").Total()))
		for _, s := range d.sites {
			out.sites = append(out.sites, "https://"+s.Host+"/")
		}
	}
	return out, nil
}

// crawl is what crawlsites does after parsing its flags: a fresh internet
// serving the top sites, one device with every crawl app installed, an
// adb farm, one lane client per app and the lane-scheduled crawl.
func (d *dynamicInst) crawl(hub *telemetry.Hub) (*crawler.Result, error) {
	net := internet.New()
	crux.RegisterAll(net, d.sites)
	fleet := device.NewFleet(net, 1)
	apps := make([]string, 0, len(d.crawlApps))
	for _, spec := range d.crawlApps {
		if err := fleet.Install(spec); err != nil {
			return nil, err
		}
		apps = append(apps, spec.Package)
	}
	farmCfg := adb.FarmConfig{Telemetry: hub}
	if d.w.rateLimit > 0 {
		farmCfg.RateLimits = map[string]int{"com.facebook.katana": d.w.rateLimit}
	}
	farm, err := adb.StartFarm(fleet.Devices, farmCfg)
	if err != nil {
		return nil, err
	}
	defer farm.Close()
	clients, err := farm.LaneClients(len(apps))
	if err != nil {
		return nil, err
	}
	cr := crawler.NewFleet(clients, crawler.Config{
		Apps: apps, Sites: d.sites, Workers: d.w.workers, MaxAccountResets: d.maxResets(),
		OwnDomains: map[string][]string{"com.linkedin.android": {"linkedin.com", "licdn.com"}},
		Telemetry:  hub,
	})
	return cr.Run()
}

// layerPass loads every crawled site URL through browsersim with and
// without scripts, parses each page's HTML into a DOM, and compiles and
// runs each page script on a page VM carrying the browser's host
// bindings.
func (d *dynamicInst) layerPass(tr *tracer, out *roundOut) error {
	net := internet.New()
	crux.RegisterAll(net, d.sites)
	client := net.Client()
	loader := &browsersim.Loader{Client: client, ExecuteScripts: true}
	fetch := func(url string) (string, error) {
		resp, err := client.Get(url)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return string(body), err
	}
	for _, url := range out.sites {
		frame := tr.beginPass("layerpass.site", 0, url)
		err := pageParts(tr, frame.id, loader, fetch, url)
		frame.end()
		if err != nil {
			return fmt.Errorf("layer pass %s: %w", url, err)
		}
	}
	return nil
}

// pageParts times each page layer on one site URL under the given frame.
func pageParts(tr *tracer, frame int64, loader *browsersim.Loader, fetch func(string) (string, error), url string) error {
	ctx := context.Background()
	sp := tr.beginPass("browsersim.load", frame, url)
	_, err := loader.Load(ctx, url)
	sp.end()
	if err != nil {
		return err
	}
	sp = tr.beginPass("browsersim.load_noscript", frame, url)
	_, err = loader.LoadWithScripts(ctx, url, false)
	sp.end()
	if err != nil {
		return err
	}
	html, err := fetch(url)
	if err != nil {
		return err
	}
	base, err := neturl.Parse(url)
	if err != nil {
		return err
	}
	sp = tr.beginPass("dom.parse", frame, url)
	doc := dom.Parse(html)
	sp.end()
	page := browsersim.NewLocalPage(loader, url, html, false)
	for _, script := range doc.Scripts() {
		code := script.Text()
		if src := script.Attr("src"); src != "" {
			ref, err := neturl.Parse(src)
			if err != nil {
				continue
			}
			if code, err = fetch(base.ResolveReference(ref).String()); err != nil {
				continue
			}
		}
		sp = tr.beginPass("jsvm.compile", frame, url)
		prog, err := jsvm.Compile(code)
		sp.end()
		if err != nil {
			continue
		}
		tr.add("jsvm.programs", 1)
		sp = tr.beginPass("jsvm.execute", frame, url)
		_, _ = page.VM.RunProgram(prog) // page scripts are best-effort, as in browsersim
		sp.end()
	}
	return nil
}

// coverage is the share of the traced rounds' wall time the three
// sequential study calls account for.
func (d *dynamicInst) coverage(tr *tracer, wall time.Duration) float64 {
	var busy time.Duration
	for _, l := range []string{"core.classify", "core.probe", "crawler.run"} {
		busy += tr.layer(l).busy
	}
	return busy.Seconds() / wall.Seconds()
}
