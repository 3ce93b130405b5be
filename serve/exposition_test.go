package serve

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
)

// The Prometheus text validator lives with the serving layer because a
// server's console is where one scrape renders several registries — the
// database's and the server's (Server.scrape) — so it is checked here on
// synthetic registries and on real consoles (TestTwoServersOneDatabase).

// TestExpositionFormatValidity parses Registry.WriteTo output line by line
// the way a Prometheus scraper would: every family must render exactly one
// HELP line immediately followed by its TYPE line, every sample line must
// belong to the most recent family, label values must be correctly escaped,
// histogram buckets must be cumulative and monotonic with the +Inf bucket
// equal to _count, and no two sample lines may repeat the same series.
func TestExpositionFormatValidity(t *testing.T) {
	reg := obs.NewRegistry()
	reg.NewCounter("exp_ops_total", "Operations.").Add(7)
	reg.NewGauge("exp_active", "Active things.").Set(-2)
	cv := reg.NewCounterVec("exp_by_label_total", "By label, with nasty values.", "name")
	cv.With("plain").Add(1)
	cv.With(`quote " backslash \ newline ` + "\n" + ` end`).Add(2)
	cv.With("").Inc() // empty label value is legal
	hv := reg.NewHistogramVec("exp_latency_seconds", "Latency.", []float64{0.01, 0.1, 1}, "op")
	hv.With("read").Observe(0.005)
	hv.With("read").Observe(0.05)
	hv.With("read").Observe(5) // overflow bucket
	hv.With("write").Observe(0.5)

	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	seen := validateExposition(t, text)

	if !seen["exp_latency_seconds_bucket{op=\"read\",le=\"+Inf\"}"] {
		t.Fatalf("expected read histogram buckets in:\n%s", text)
	}
	// The escaped label value must round-trip the raw characters.
	if !strings.Contains(text, `quote \" backslash \\ newline \n end`) {
		t.Fatalf("label escaping missing or wrong:\n%s", text)
	}
}

// TestServingInstrumentExposition renders the same instrument shapes the
// serving telemetry registers — tenant-labeled counter/histogram/gauge vecs,
// callback gauges, and the WAL latency histograms with their sub-millisecond
// buckets — and checks the scrape stays structurally valid (no duplicate
// series, monotonic cumulative buckets, +Inf == _count, HELP/TYPE pairing).
func TestServingInstrumentExposition(t *testing.T) {
	reg := obs.NewRegistry()
	lat := reg.NewHistogramVec("xsltd_tenant_request_seconds",
		"Request latency by tenant.", nil, "tenant")
	sheds := reg.NewCounterVec("xsltd_tenant_sheds_total",
		"Sheds by tenant and reason.", "tenant", "reason")
	hits := reg.NewCounterVec("xsltd_tenant_cache_hits_total",
		"Cache hits by tenant.", "tenant")
	burn := reg.NewGaugeVec("xsltd_slo_burn_rate_milli",
		"SLO burn rate x1000 by tenant.", "tenant")
	reg.NewGaugeFunc("xsltdb_snapshot_pin_oldest_age_seconds",
		"Age of the oldest pinned snapshot.", func() float64 { return 1.5 })
	wal := reg.NewHistogram("xsltdb_wal_fsync_seconds",
		"WAL fsync latency.", []float64{0.00001, 0.0001, 0.001, 0.01, 0.1, 1})

	for _, tenant := range []string{"acme", "tenant with spaces", `q"uote`, ""} {
		lat.With(tenant).Observe(0.003)
		lat.With(tenant).Observe(0.25)
		sheds.With(tenant, "latency").Inc()
		sheds.With(tenant, "quota").Add(2)
		hits.With(tenant).Inc()
		burn.With(tenant).Set(1500)
	}
	wal.Observe(0.00004)
	wal.Observe(0.002)

	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	seen := validateExposition(t, text)

	for _, want := range []string{
		`xsltd_tenant_request_seconds_count{tenant="acme"}`,
		`xsltd_tenant_sheds_total{tenant="acme",reason="quota"}`,
		`xsltd_slo_burn_rate_milli{tenant="acme"}`,
		`xsltdb_snapshot_pin_oldest_age_seconds`,
		`xsltdb_wal_fsync_seconds_bucket{le="0.0001"}`,
	} {
		if !seen[want] {
			t.Fatalf("missing series %q in:\n%s", want, text)
		}
	}
	if !strings.Contains(text, "xsltdb_snapshot_pin_oldest_age_seconds 1.5\n") {
		t.Fatalf("callback gauge did not render its value:\n%s", text)
	}
}

// validateExposition walks a rendered scrape applying the structural rules a
// Prometheus parser enforces, and returns the set of series rendered.
func validateExposition(t *testing.T, text string) map[string]bool {
	t.Helper()
	type familyState struct {
		help, typ string
	}
	families := map[string]*familyState{}
	current := "" // family the sample lines must belong to
	seenSeries := map[string]bool{}
	// bucketCum tracks per-series cumulative bucket counts for monotonicity;
	// keyed by the series' non-le labels.
	bucketCum := map[string]float64{}
	bucketInf := map[string]float64{}
	counts := map[string]float64{}

	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	for i, line := range lines {
		if line == "" {
			t.Fatalf("line %d: blank line in exposition", i+1)
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("line %d: HELP without text: %q", i+1, line)
			}
			if f := families[name]; f != nil {
				t.Fatalf("line %d: duplicate HELP for %q", i+1, name)
			}
			families[name] = &familyState{help: help}
			current = name
			// The TYPE line must come immediately next.
			if i+1 >= len(lines) || !strings.HasPrefix(lines[i+1], "# TYPE "+name+" ") {
				t.Fatalf("line %d: HELP for %q not followed by its TYPE line", i+1, name)
			}
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, ok := strings.Cut(rest, " ")
			if !ok || (typ != "counter" && typ != "gauge" && typ != "histogram") {
				t.Fatalf("line %d: bad TYPE line %q", i+1, line)
			}
			f := families[name]
			if f == nil || f.typ != "" {
				t.Fatalf("line %d: TYPE for %q without preceding HELP (or duplicated)", i+1, name)
			}
			f.typ = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unknown comment %q", i+1, line)
		}

		// Sample line: name{labels} value
		nameAndLabels, valText, ok := cutLastSpace(line)
		if !ok {
			t.Fatalf("line %d: sample without value: %q", i+1, line)
		}
		val, err := strconv.ParseFloat(valText, 64)
		if err != nil && valText != "+Inf" {
			t.Fatalf("line %d: unparsable value %q", i+1, valText)
		}
		name := nameAndLabels
		labels := ""
		if j := strings.IndexByte(nameAndLabels, '{'); j >= 0 {
			if !strings.HasSuffix(nameAndLabels, "}") {
				t.Fatalf("line %d: unterminated label set: %q", i+1, line)
			}
			name = nameAndLabels[:j]
			labels = nameAndLabels[j+1 : len(nameAndLabels)-1]
			validateLabelEscaping(t, i+1, labels)
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		f := families[base]
		if f == nil || f.typ == "" {
			t.Fatalf("line %d: sample %q for unknown family %q", i+1, line, base)
		}
		if base != current {
			t.Fatalf("line %d: sample for %q interleaved under family %q", i+1, base, current)
		}
		if seenSeries[nameAndLabels] {
			t.Fatalf("line %d: duplicate series %q", i+1, nameAndLabels)
		}
		seenSeries[nameAndLabels] = true

		if f.typ == "histogram" {
			switch {
			case strings.HasSuffix(name, "_bucket"):
				le := labelValue(labels, "le")
				if le == "" {
					t.Fatalf("line %d: bucket without le label: %q", i+1, line)
				}
				seriesKey := base + "|" + stripLabel(labels, "le")
				if val < bucketCum[seriesKey] {
					t.Fatalf("line %d: bucket counts not monotonic for %q: %v after %v", i+1, seriesKey, val, bucketCum[seriesKey])
				}
				bucketCum[seriesKey] = val
				if le == "+Inf" {
					bucketInf[seriesKey] = val
				} else if _, err := strconv.ParseFloat(le, 64); err != nil {
					t.Fatalf("line %d: unparsable le %q", i+1, le)
				}
			case strings.HasSuffix(name, "_count"):
				counts[base+"|"+labels] = val
			case strings.HasSuffix(name, "_sum"):
				if math.IsNaN(val) {
					t.Fatalf("line %d: NaN sum", i+1)
				}
			default:
				t.Fatalf("line %d: bare sample %q under histogram family", i+1, name)
			}
		}
	}

	// Every family rendered must have both HELP and TYPE.
	for name, f := range families {
		if f.typ == "" {
			t.Fatalf("family %q has HELP but no TYPE", name)
		}
	}
	// +Inf bucket must equal _count for every histogram series.
	for key, inf := range bucketInf {
		if count, ok := counts[key]; !ok || count != inf {
			t.Fatalf("series %q: +Inf bucket %v != count %v (ok=%v)", key, inf, count, ok)
		}
	}
	return seenSeries
}

// cutLastSpace splits a sample line at its final space (label values may
// contain escaped content but never a raw space-value ambiguity: the value
// is always the last field).
func cutLastSpace(line string) (string, string, bool) {
	i := strings.LastIndexByte(line, ' ')
	if i < 0 {
		return line, "", false
	}
	return line[:i], line[i+1:], true
}

// validateLabelEscaping walks a rendered label set checking that every value
// is quoted and uses only the legal escapes \\ \" \n.
func validateLabelEscaping(t *testing.T, lineNo int, labels string) {
	t.Helper()
	rest := labels
	for rest != "" {
		eq := strings.IndexByte(rest, '=')
		if eq < 0 || eq+1 >= len(rest) || rest[eq+1] != '"' {
			t.Fatalf("line %d: malformed label set %q", lineNo, labels)
		}
		// Scan the quoted value honoring escapes.
		i := eq + 2
		for {
			if i >= len(rest) {
				t.Fatalf("line %d: unterminated label value in %q", lineNo, labels)
			}
			switch rest[i] {
			case '\\':
				if i+1 >= len(rest) || (rest[i+1] != '\\' && rest[i+1] != '"' && rest[i+1] != 'n') {
					t.Fatalf("line %d: illegal escape in %q", lineNo, labels)
				}
				i += 2
			case '"':
				i++
				goto closed
			case '\n':
				t.Fatalf("line %d: raw newline in label value of %q", lineNo, labels)
			default:
				i++
			}
		}
	closed:
		if i < len(rest) {
			if rest[i] != ',' {
				t.Fatalf("line %d: expected ',' after label value in %q", lineNo, labels)
			}
			i++
		}
		rest = rest[i:]
	}
}

// labelValue extracts one label's (unescaped-irrelevant) raw value from a
// rendered label set.
func labelValue(labels, name string) string {
	for _, part := range splitLabels(labels) {
		if k, v, ok := strings.Cut(part, "="); ok && k == name {
			return strings.Trim(v, `"`)
		}
	}
	return ""
}

// stripLabel removes one label from a rendered label set (for keying bucket
// series without their le label).
func stripLabel(labels, name string) string {
	var kept []string
	for _, part := range splitLabels(labels) {
		if k, _, ok := strings.Cut(part, "="); ok && k == name {
			continue
		}
		kept = append(kept, part)
	}
	return strings.Join(kept, ",")
}

// splitLabels splits a rendered label set on commas that sit between
// label pairs (not inside quoted values).
func splitLabels(labels string) []string {
	var out []string
	depth := false // inside quotes
	start := 0
	for i := 0; i < len(labels); i++ {
		switch labels[i] {
		case '\\':
			i++
		case '"':
			depth = !depth
		case ',':
			if !depth {
				out = append(out, labels[start:i])
				start = i + 1
			}
		}
	}
	if start < len(labels) {
		out = append(out, labels[start:])
	}
	return out
}
