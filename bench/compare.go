package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
)

// compare.go holds the two modes that judge results rather than produce
// them: -repeat (does the same code agree with itself?) and -compare (is a
// change better or worse than its parent?). Both judge every pairing of
// workload and end-to-end metric on its own, against the metric's own
// bound; there is no combined score.

// quartiles returns the first quartile, the median and the third quartile
// the way Python's statistics.quantiles(xs, n=4) does, which is how the
// driver computes a spread. One value is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	xs = append([]float64{}, xs...)
	sort.Float64s(xs)
	m := len(xs)
	if m == 1 {
		return xs[0], xs[0], xs[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// worseBy is how much worse b is than a, as a share of a, for a metric
// where better is "lower" or "higher". Negative means b is better.
func worseBy(m metricSpec, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// endToEndValues collects, per workload, the values of one end-to-end
// metric over the untraced runs of some result sets.
func endToEndValues(sets []*resultSet, workload, metric string) []float64 {
	var out []float64
	for _, rs := range sets {
		for _, r := range rs.Runs {
			if r.Workload == workload && !r.Trace {
				if v, ok := r.Metrics[metric]; ok {
					out = append(out, v)
				}
			}
		}
	}
	return out
}

// runRepeat runs n full sets of the same code with the same seed, prints
// for every workload and end-to-end metric the values of the first two sets
// with their gap and the metric's bound, and fails if a gap exceeds its bound.
func runRepeat(e *env, n int, out string) error {
	if n < 2 {
		return errors.New("-repeat needs at least 2 sets")
	}
	var sets []*resultSet
	for i := 0; i < n; i++ {
		e.logf("-- set %d of %d", i+1, n)
		rs, err := runSet(e)
		if err != nil {
			return err
		}
		sets = append(sets, rs)
	}
	if out != "" {
		if err := writeJSON(out, sets); err != nil {
			return err
		}
	}
	exceeded := 0
	fmt.Printf("%-12s %-22s %14s %14s %8s %8s\n", "workload", "metric", "set 1", "set 2", "gap", "bound")
	for _, w := range workloads {
		for _, m := range endToEnd {
			a := endToEndValues(sets[:1], w.Name, m.Name)
			b := endToEndValues(sets[1:2], w.Name, m.Name)
			if len(a) != 1 || len(b) != 1 {
				return fmt.Errorf("%s %s: missing from a set", w.Name, m.Name)
			}
			gap := max(worseBy(m, a[0], b[0]), worseBy(m, b[0], a[0]))
			mark := ""
			if gap > m.Bound {
				mark = "  EXCEEDS BOUND"
				exceeded++
			}
			fmt.Printf("%-12s %-22s %14.4f %14.4f %7.1f%% %7.1f%%%s\n", w.Name, m.Name, a[0], b[0], gap*100, m.Bound*100, mark)
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("%d pairings of workload and metric differ between two sets of the same code by more than their bound", exceeded)
	}
	return nil
}

// readSets reads a result file: one set (-out) or a list of sets (-repeat -out).
func readSets(path string) ([]*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var many []*resultSet
	if err := json.Unmarshal(b, &many); err == nil {
		return many, nil
	}
	one := new(resultSet)
	if err := json.Unmarshal(b, one); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return []*resultSet{one}, nil
}

// compareFiles prints one row per workload and end-to-end metric for a
// parent's runs and a change's runs: each side's median and quartiles, how
// much worse the change's median is, and a verdict. Where the parent's own
// runs spread wider than the metric's bound the pairing is unresolved, not
// unchanged.
func compareFiles(w io.Writer, args []string) error {
	if len(args) != 2 {
		return errors.New("usage: -compare parent.json change.json")
	}
	parent, err := readSets(args[0])
	if err != nil {
		return err
	}
	change, err := readSets(args[1])
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-12s %-22s %38s %38s %8s %8s  %s\n", "workload", "metric",
		"parent median [q1, q3]", "change median [q1, q3]", "worse", "bound", "verdict")
	for _, wl := range workloads {
		for _, m := range endToEnd {
			a, b := endToEndValues(parent, wl.Name, m.Name), endToEndValues(change, wl.Name, m.Name)
			if len(a) == 0 || len(b) == 0 {
				fmt.Fprintf(w, "%-12s %-22s missing on one side\n", wl.Name, m.Name)
				continue
			}
			a1, a2, a3 := quartiles(a)
			b1, b2, b3 := quartiles(b)
			spread := ratio(a3-a1, a2)
			worse := worseBy(m, a2, b2)
			verdict := "same"
			switch {
			case spread > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "worse"
			case -worse > spread && -worse > 0:
				verdict = "better"
			}
			side := func(q1, q2, q3 float64) string { return fmt.Sprintf("%.4f [%.4f, %.4f]", q2, q1, q3) }
			fmt.Fprintf(w, "%-12s %-22s %38s %38s %7.1f%% %7.1f%%  %s\n", wl.Name, m.Name,
				side(a1, a2, a3), side(b1, b2, b3), worse*100, m.Bound*100, verdict)
		}
	}
	return nil
}
