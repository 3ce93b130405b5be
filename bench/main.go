// Command bench is the repository's benchmark: five workloads, nine bounded
// end-to-end metrics and a traced pass that attributes an operation's time
// to the layers it crosses. See README.md.
//
//	bash bench/run.sh --workload serve_miss --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh -seed 1 -out a.json        # every workload, both passes
//	bash bench/run.sh -repeat 2                  # two full sets, compared
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// runRecord is one run of one workload, as stored in result files and in
// the history.
type runRecord struct {
	Workload  string             `json:"workload"`
	Trace     bool               `json:"trace"`
	Seed      int64              `json:"seed"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Notes     map[string]any     `json:"notes,omitempty"`
}

// resultSet is one invocation: where and how it ran, and its runs.
type resultSet struct {
	Rev          string      `json:"git_rev"`
	GoVersion    string      `json:"go_version"`
	GOMAXPROCS   int         `json:"gomaxprocs"`
	NumCPU       int         `json:"nproc"`
	Clients      int         `json:"clients"`
	Seed         int64       `json:"seed"`
	Seconds      float64     `json:"seconds"`
	WindowFactor float64     `json:"window_factor"`
	Claim        any         `json:"claim"` // always null: the benchmark is the ruler, it claims no gain
	Time         string      `json:"time"`
	Runs         []runRecord `json:"runs"`
}

func gitRev() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// newEnv fixes the load sizing: one process, GOMAXPROCS = min(nproc, 4),
// and never more client goroutines than two or than GOMAXPROCS.
func newEnv(seed int64, seconds float64, outDir string) (*env, error) {
	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	return &env{Seed: seed, Seconds: seconds, Sizes: fullSizes, Procs: procs, Clients: min(procs, 2), OutDir: outDir, Log: os.Stderr}, nil
}

func newResultSet(e *env) *resultSet {
	return &resultSet{
		Rev: gitRev(), GoVersion: runtime.Version(), GOMAXPROCS: e.Procs, NumCPU: runtime.NumCPU(), Clients: e.Clients,
		Seed: e.Seed, Seconds: e.Seconds, WindowFactor: e.Seconds / nominalSeconds, Time: time.Now().UTC().Format(time.RFC3339),
	}
}

// runOne runs one pass of one workload and checks that it reported exactly
// the metrics the spec names for that pass.
func runOne(e *env, w *workloadSpec, trace bool) (runRecord, error) {
	run, specs := w.run, endToEnd
	if trace {
		run, specs = func(e *env) (*outcome, error) { return runTraced(e, w.Name) }, perLayer
	}
	o, err := run(e)
	if err != nil {
		return runRecord{}, fmt.Errorf("%s: %w", w.Name, err)
	}
	if len(o.Metrics) != len(specs) {
		return runRecord{}, fmt.Errorf("%s: reported %d metrics, spec names %d", w.Name, len(o.Metrics), len(specs))
	}
	for _, m := range specs {
		if _, ok := o.Metrics[m.Name]; !ok {
			return runRecord{}, fmt.Errorf("%s: metric %s not reported", w.Name, m.Name)
		}
	}
	return runRecord{Workload: w.Name, Trace: trace, Seed: e.Seed, Attempted: o.Attempted, Failed: o.Failed, Metrics: o.Metrics, Notes: o.Notes}, nil
}

func unitOf(name string) string {
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}

// printRun writes a run for the reader: every metric by name with its unit.
func printRun(e *env, r runRecord) {
	pass := "end-to-end"
	if r.Trace {
		pass = "per-layer (traced pass)"
	}
	e.logf("== %s  %s  seed %d  attempted %d  failed %d", r.Workload, pass, r.Seed, r.Attempted, r.Failed)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		e.logf("  %-34s %16.4f %s", n, r.Metrics[n], unitOf(n))
	}
	if len(r.Notes) > 0 {
		b, _ := json.Marshal(r.Notes)
		e.logf("  notes: %s", b)
	}
}

// contractLine is the last line of standard output of a single run, in the
// form the driver reads.
func contractLine(r runRecord) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.Failed == 0 && r.Attempted > 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	for n, v := range r.Metrics {
		out.Metrics[n] = value{v, unitOf(n)}
	}
	b, _ := json.Marshal(out)
	return string(b)
}

// appendHistory adds one line per invocation to out/history.ndjson.
func appendHistory(e *env, rs *resultSet) error {
	f, err := os.OpenFile(filepath.Join(e.OutDir, "history.ndjson"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(rs)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runSet runs every workload, untraced and then traced.
func runSet(e *env) (*resultSet, error) {
	rs := newResultSet(e)
	for i := range workloads {
		for _, trace := range []bool{false, true} {
			r, err := runOne(e, &workloads[i], trace)
			if err != nil {
				return nil, err
			}
			printRun(e, r)
			rs.Runs = append(rs.Runs, r)
		}
	}
	return rs, appendHistory(e, rs)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// options are the command line.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	repeat    int
	compare   bool
	out       string
	outDir    string
	printSpec bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload and print the driver's result line (default: every workload, both passes)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the data and request generators")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "timed seconds per run, split among the run's phases")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 = end-to-end metrics, 1 = the traced pass and its per-layer metrics")
	flag.IntVar(&o.repeat, "repeat", 0, "run this many full sets and compare the first two; exit 1 if an end-to-end gap exceeds its bound")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files: -compare parent.json change.json")
	flag.StringVar(&o.out, "out", "", "write the result set(s) to this file")
	flag.StringVar(&o.outDir, "outdir", "out", "directory for traces, history and scratch files")
	flag.BoolVar(&o.printSpec, "print-spec", false, "print BENCHMARK.json and exit")
	flag.Parse()
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options, args []string) error {
	switch {
	case o.printSpec:
		b, err := json.MarshalIndent(benchmarkSpec(), "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(b))
		return nil
	case o.compare:
		return compareFiles(os.Stdout, args)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	e, err := newEnv(o.seed, o.seconds, o.outDir)
	if err != nil {
		return err
	}
	switch {
	case o.workload != "":
		w := findWorkload(o.workload)
		if w == nil {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		r, err := runOne(e, w, o.trace != 0)
		if err != nil {
			return err
		}
		printRun(e, r)
		rs := newResultSet(e)
		rs.Runs = []runRecord{r}
		if err := appendHistory(e, rs); err != nil {
			return err
		}
		fmt.Println(contractLine(r))
		return nil
	case o.repeat > 0:
		return runRepeat(e, o.repeat, o.out)
	}
	rs, err := runSet(e)
	if err != nil {
		return err
	}
	if o.out != "" {
		return writeJSON(o.out, rs)
	}
	return nil
}
