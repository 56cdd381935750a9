package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// hostContext records the run's host and inputs as fields, never as
// metrics.
func hostContext(opts options) map[string]any {
	return map[string]any{
		"workload":         opts.workload,
		"seed":             opts.seed,
		"seconds":          opts.seconds,
		"trace":            opts.trace,
		"setups":           opts.setups,
		"nproc":            runtime.NumCPU(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"go_version":       runtime.Version(),
		"commit":           commit(),
		"source_sha256":    sourceDigest("."),
		"load_average":     loadAverage(),
		"modelled_time":    "none: no modelled sleeps or waits are included (adb WaitScale 0, no -dl-latency)",
		"time_wait_source": "/proc/net/tcp and /proc/net/tcp6, state 06",
	}
}

// commit is the checkout's git commit, when it is a git checkout.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown (not a git checkout)"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest fingerprints the Go sources and module files under root,
// so runs from checkouts without git history still name the code they
// measured.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || d.Name() == "digests.json") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		h.Write([]byte(filepath.ToSlash(f)))
		h.Write([]byte{0})
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func loadAverage() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	f := strings.Fields(string(b))
	if len(f) < 3 {
		return "unknown"
	}
	return strings.Join(f[:3], " ")
}

// timeWaitSockets counts TCP sockets in TIME_WAIT. The scan workload's
// metadata dial storm leaves tens of thousands behind for 60 s, so the
// count at start and end makes drift between runs attributable.
func timeWaitSockets() int {
	n := 0
	for _, p := range []string{"/proc/net/tcp", "/proc/net/tcp6"} {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) > 3 && fields[3] == "06" {
				n++
			}
		}
		f.Close()
	}
	return n
}
