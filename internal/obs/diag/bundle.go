package diag

// The flight recorder: Capture atomically snapshots everything an operator
// needs to explain "what was the system doing just now" into one timestamped
// bundle directory — goroutine and heap profiles, the full metrics
// exposition, the recent wide-event ring, run-history aggregates and slowest
// runs, plan-cache entries, WAL/recovery state, and the anomaly ring that
// triggered the capture.
//
// The recorder is deliberately self-limiting, because a diagnosis subsystem
// that can take the server down is worse than none:
//
//   - Triggers are debounced: within Debounce of the last capture,
//     TryCapture refuses (counted in bundles_suppressed_total), so an
//     anomaly storm costs one bundle.
//   - Profile collection is time-boxed: a wedged profile write abandons the
//     section after ProfileTimeout instead of hanging the trigger path.
//   - The event excerpt is capped at MaxEvents; every section failure is
//     recorded in meta.json, and the bundle is still written with the
//     sections that succeeded.
//   - Retention is bounded: after each capture, bundles beyond MaxBundles
//     are removed oldest-first.
//
// Bundles are written to a temp directory and renamed into place, so a
// reader never sees a half-written bundle.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// RecorderConfig wires a Recorder. Dir is required.
type RecorderConfig struct {
	// Dir is the diagnostics directory bundles are written under
	// (created if missing).
	Dir string
	// MaxBundles bounds retention (default 8); older bundles are removed.
	MaxBundles int
	// Debounce is the minimum gap between triggered captures (default 1m).
	Debounce time.Duration
	// ProfileTimeout bounds each profile collection (default 2s).
	ProfileTimeout time.Duration
	// MaxEvents caps the wide-event excerpt per bundle (default 256).
	MaxEvents int
	// Now substitutes the clock (tests); nil uses time.Now.
	Now func() time.Time
}

// Sources are the data feeds a bundle captures. Any nil field skips its
// section. The funcs return `any` so diag stays decoupled from the engine
// and serving packages that feed it.
type Sources struct {
	// Metrics is rendered in full as metrics.prom.
	Metrics obs.Scrape
	// Events returns up to n recent wide events (the console ring).
	Events func(n int) any
	// Runs returns run-history state: recent runs, per-plan aggregates
	// with slowest runs.
	Runs func() any
	// Plans returns plan-cache entries.
	Plans func() any
	// WAL returns WAL/recovery stats.
	WAL func() any
	// Anomalies returns the monitor's recent anomaly records.
	Anomalies func() any
}

// Recorder captures diagnostic bundles. Construct with NewRecorder.
type Recorder struct {
	cfg        RecorderConfig
	src        Sources
	suppressed *obs.Counter // xsltdb_diag_bundles_suppressed_total

	mu   sync.Mutex
	last time.Time
}

// NewRecorder validates cfg, creates the diagnostics directory, and returns
// a recorder that counts its debounced triggers on reg.
func NewRecorder(reg *obs.Registry, cfg RecorderConfig, src Sources) (*Recorder, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("diag: RecorderConfig.Dir is required")
	}
	if cfg.MaxBundles <= 0 {
		cfg.MaxBundles = 8
	}
	if cfg.Debounce <= 0 {
		cfg.Debounce = time.Minute
	}
	if cfg.ProfileTimeout <= 0 {
		cfg.ProfileTimeout = 2 * time.Second
	}
	if cfg.MaxEvents <= 0 {
		cfg.MaxEvents = 256
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("diag: %w", err)
	}
	suppressed := reg.NewCounter("xsltdb_diag_bundles_suppressed_total",
		"Bundle triggers suppressed by the debounce window.")
	return &Recorder{cfg: cfg, src: src, suppressed: suppressed}, nil
}

// TryCapture is the debounced trigger detectors use: it captures a bundle
// unless one was captured less than Debounce ago, in which case it refuses
// (counted) and returns ok=false. Nil-safe.
func (r *Recorder) TryCapture(trigger string) (dir string, ok bool) {
	if r == nil {
		return "", false
	}
	r.mu.Lock()
	now := r.cfg.Now()
	if !r.last.IsZero() && now.Sub(r.last) < r.cfg.Debounce {
		r.mu.Unlock()
		r.suppressed.Inc()
		return "", false
	}
	r.last = now
	r.mu.Unlock()
	dir, err := r.capture(trigger, now)
	if err != nil {
		return "", false
	}
	return dir, true
}

// Capture writes a bundle immediately, bypassing the debounce — the
// console's on-demand POST /debug/bundle. It still advances the debounce
// clock so an operator capture quiets the automatic trigger too.
func (r *Recorder) Capture(trigger string) (string, error) {
	if r == nil {
		return "", fmt.Errorf("diag: recorder disabled")
	}
	r.mu.Lock()
	now := r.cfg.Now()
	r.last = now
	r.mu.Unlock()
	return r.capture(trigger, now)
}

// bundleMeta is the bundle's meta.json: which build was running, how loaded
// its runtime was at capture, and a per-section outcome map, so a bundle read
// cold still says which sections are trustworthy.
type bundleMeta struct {
	Time           time.Time         `json:"time"`
	Trigger        string            `json:"trigger"`
	GoVersion      string            `json:"go_version"`
	Module         string            `json:"module"`
	ModuleVersion  string            `json:"module_version"`
	VCSRevision    string            `json:"vcs_revision"`
	PID            int               `json:"pid"`
	GOMAXPROCS     int               `json:"gomaxprocs"`
	Goroutines     int               `json:"goroutines"`
	HeapAllocBytes uint64            `json:"heap_alloc_bytes"`
	HeapObjects    uint64            `json:"heap_objects"`
	GCCycles       uint32            `json:"gc_cycles"`
	GCPauseNS      uint64            `json:"gc_pause_ns"` // cumulative stop-the-world pause
	Sections       map[string]string `json:"sections"`    // file -> "ok" | error text
}

// newBundleMeta stamps a bundle's identity and the runtime's state now.
func newBundleMeta(trigger string, now time.Time) bundleMeta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m := bundleMeta{
		Time: now, Trigger: trigger,
		GoVersion:      runtime.Version(),
		PID:            os.Getpid(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		Goroutines:     runtime.NumGoroutine(),
		HeapAllocBytes: ms.HeapAlloc,
		HeapObjects:    ms.HeapObjects,
		GCCycles:       ms.NumGC,
		GCPauseNS:      ms.PauseTotalNs,
		Sections:       map[string]string{},
	}
	// The build identity is empty when the binary carries no module
	// metadata (some test binaries).
	if bi, ok := debug.ReadBuildInfo(); ok {
		m.Module, m.ModuleVersion = bi.Main.Path, bi.Main.Version
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m.VCSRevision = s.Value
			}
		}
	}
	return m
}

func (r *Recorder) capture(trigger string, now time.Time) (string, error) {
	name := "bundle-" + now.UTC().Format("20060102T150405.000000000Z") + "-" + sanitizeTrigger(trigger)
	final := filepath.Join(r.cfg.Dir, name)
	tmp := filepath.Join(r.cfg.Dir, ".tmp-"+name)
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", fmt.Errorf("diag: %w", err)
	}
	meta := newBundleMeta(trigger, now)

	section := func(file string, write func() ([]byte, error)) {
		b, err := write()
		if err == nil {
			err = os.WriteFile(filepath.Join(tmp, file), b, 0o644)
		}
		if err != nil {
			meta.Sections[file] = err.Error()
			return
		}
		meta.Sections[file] = "ok"
	}
	jsonSection := func(file string, fn func() any) {
		if fn == nil {
			return
		}
		section(file, func() ([]byte, error) { return json.MarshalIndent(fn(), "", "  ") })
	}

	section("goroutines.txt", func() ([]byte, error) {
		return collectProfile("goroutine", 2, r.cfg.ProfileTimeout)
	})
	section("heap.pprof", func() ([]byte, error) {
		return collectProfile("heap", 0, r.cfg.ProfileTimeout)
	})
	if r.src.Metrics != nil {
		section("metrics.prom", func() ([]byte, error) {
			var buf bytes.Buffer
			_, err := r.src.Metrics.WriteTo(&buf)
			return buf.Bytes(), err
		})
	}
	if r.src.Events != nil {
		jsonSection("events.json", func() any { return r.src.Events(r.cfg.MaxEvents) })
	}
	jsonSection("runs.json", r.src.Runs)
	jsonSection("plans.json", r.src.Plans)
	jsonSection("wal.json", r.src.WAL)
	jsonSection("anomalies.json", r.src.Anomalies)

	section("meta.json", func() ([]byte, error) { return json.MarshalIndent(meta, "", "  ") })

	if err := os.Rename(tmp, final); err != nil {
		_ = os.RemoveAll(tmp)
		return "", fmt.Errorf("diag: %w", err)
	}
	r.enforceRetention()
	return final, nil
}

// collectProfile renders a runtime profile with a hard time box: a wedged
// write abandons the section (the goroutine finishes into its own buffer
// and is discarded) instead of hanging the capture.
func collectProfile(name string, debug int, timeout time.Duration) ([]byte, error) {
	p := pprof.Lookup(name)
	if p == nil {
		return nil, fmt.Errorf("no %s profile", name)
	}
	type result struct {
		b   []byte
		err error
	}
	ch := make(chan result, 1)
	go func() {
		var buf bytes.Buffer
		err := p.WriteTo(&buf, debug)
		ch <- result{buf.Bytes(), err}
	}()
	select {
	case res := <-ch:
		return res.b, res.err
	case <-time.After(timeout):
		return nil, fmt.Errorf("%s profile timed out after %s", name, timeout)
	}
}

// BundleInfo is one retained bundle, for the console's GET /debug/bundle.
type BundleInfo struct {
	Name    string    `json:"name"`
	Path    string    `json:"path"`
	ModTime time.Time `json:"mod_time"`
}

// Bundles lists retained bundles, newest first. Nil-safe.
func (r *Recorder) Bundles() []BundleInfo {
	if r == nil {
		return nil
	}
	names := r.bundleNames()
	out := make([]BundleInfo, 0, len(names))
	for i := len(names) - 1; i >= 0; i-- {
		info := BundleInfo{Name: names[i], Path: filepath.Join(r.cfg.Dir, names[i])}
		if fi, err := os.Stat(info.Path); err == nil {
			info.ModTime = fi.ModTime()
		}
		out = append(out, info)
	}
	return out
}

// bundleNames lists bundle directory names, oldest first (names embed a
// sortable UTC timestamp).
func (r *Recorder) bundleNames() []string {
	entries, err := os.ReadDir(r.cfg.Dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "bundle-") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names
}

// enforceRetention removes the oldest bundles beyond MaxBundles.
func (r *Recorder) enforceRetention() {
	names := r.bundleNames()
	for len(names) > r.cfg.MaxBundles {
		_ = os.RemoveAll(filepath.Join(r.cfg.Dir, names[0]))
		names = names[1:]
	}
}

// sanitizeTrigger folds a trigger label into a filesystem-safe token.
func sanitizeTrigger(s string) string {
	if s == "" {
		return "manual"
	}
	var b strings.Builder
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '-', c == '_':
			b.WriteRune(c)
		case c >= 'A' && c <= 'Z':
			b.WriteRune(c + ('a' - 'A'))
		default:
			b.WriteRune('-')
		}
	}
	return b.String()
}
