// Command xsltdb is the interactive face of the library:
//
//	xsltdb transform -xml doc.xml -xsl sheet.xsl
//	    apply a stylesheet functionally (the XMLTransform() baseline)
//
//	xsltdb rewrite -xsl sheet.xsl -schema schema.txt [-show xquery|notes]
//	    compile a stylesheet to XQuery via partial evaluation (§3-4)
//
//	xsltdb demo [-stream] [-stats] [-analyze] [-timeout d] [-max-rows n]
//	           [-where expr] [-param name=value] [-no-pushdown]
//	           [-metrics-addr host:port]
//	    run the paper's Example 1 and Example 2 end to end, printing the
//	    intermediate XQuery (Table 8), the SQL/XML plan (Tables 7/11) and
//	    the physical access paths; -stream pulls rows through a Cursor
//	    instead of materializing, -stats prints per-run ExecStats and the
//	    plan-cache counters, -analyze additionally runs EXPLAIN ANALYZE
//	    and prints the operator tree with actual rows and timings,
//	    -timeout and -max-rows govern each execution;
//	    -where adds a driving predicate ("deptno = 10", "@id = $id";
//	    repeatable), -param binds a $variable for this run (repeatable),
//	    -no-pushdown forces the full-scan baseline access path;
//	    -metrics-addr serves the demo database's metrics in Prometheus text format
//	    at http://host:port/metrics and keeps the process alive after the
//	    demo so the endpoint can be scraped
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	xsltdb "repro"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sqlxml"
	"repro/internal/xmltree"
	"repro/internal/xschema"
	"repro/internal/xslt"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "transform":
		cmdTransform(os.Args[2:])
	case "rewrite":
		cmdRewrite(os.Args[2:])
	case "demo":
		cmdDemo(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: xsltdb transform|rewrite|demo [flags]")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xsltdb:", err)
	os.Exit(1)
}

func cmdTransform(args []string) {
	fs := flag.NewFlagSet("transform", flag.ExitOnError)
	xmlPath := fs.String("xml", "", "input XML document")
	xslPath := fs.String("xsl", "", "stylesheet")
	_ = fs.Parse(args)
	if *xmlPath == "" || *xslPath == "" {
		fs.Usage()
		os.Exit(2)
	}
	xmlText, err := os.ReadFile(*xmlPath)
	if err != nil {
		fatal(err)
	}
	xslText, err := os.ReadFile(*xslPath)
	if err != nil {
		fatal(err)
	}
	// xsl:include hrefs resolve relative to the stylesheet's directory.
	sheet, err := xslt.ParseStylesheetWithResolver(string(xslText), fileResolver(filepath.Dir(*xslPath)))
	if err != nil {
		fatal(err)
	}
	doc, err := xmltree.Parse(string(xmlText))
	if err != nil {
		fatal(err)
	}
	out, err := xslt.New(sheet).TransformToString(doc)
	if err != nil {
		fatal(err)
	}
	fmt.Println(out)
}

// fileResolver loads xsl:include targets from disk, relative to dir.
func fileResolver(dir string) xslt.Resolver {
	return func(href string) (string, error) {
		b, err := os.ReadFile(filepath.Join(dir, href))
		if err != nil {
			return "", err
		}
		return string(b), nil
	}
}

func cmdRewrite(args []string) {
	fs := flag.NewFlagSet("rewrite", flag.ExitOnError)
	xslPath := fs.String("xsl", "", "stylesheet")
	schemaPath := fs.String("schema", "", "compact schema of the input")
	notes := fs.Bool("notes", false, "also print the optimizations applied and the partial-evaluation trace")
	_ = fs.Parse(args)
	if *xslPath == "" || *schemaPath == "" {
		fs.Usage()
		os.Exit(2)
	}
	xslText, err := os.ReadFile(*xslPath)
	if err != nil {
		fatal(err)
	}
	schemaText, err := os.ReadFile(*schemaPath)
	if err != nil {
		fatal(err)
	}
	sheet, err := xslt.ParseStylesheetWithResolver(string(xslText), fileResolver(filepath.Dir(*xslPath)))
	if err != nil {
		fatal(err)
	}
	schema, err := xschema.ParseCompact(string(schemaText))
	if err != nil {
		fatal(err)
	}
	res, err := core.Rewrite(sheet, schema, core.ModeAuto)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("(: mode: %s, fully inlined: %v :)\n%s\n", res.Mode, res.Inlined, res.Module.String())
	if *notes {
		fmt.Println("\n-- optimizations applied --")
		for _, n := range res.Notes {
			fmt.Println(" -", n)
		}
		if res.PE != nil {
			fmt.Println("\n-- partial-evaluation trace --")
			fmt.Print(res.PE.Describe())
		}
	}
}

func cmdDemo(args []string) {
	fs := flag.NewFlagSet("demo", flag.ExitOnError)
	stream := fs.Bool("stream", false, "pull result rows through a streaming cursor instead of materializing")
	stats := fs.Bool("stats", false, "print per-run execution statistics and plan-cache counters")
	analyze := fs.Bool("analyze", false, "run EXPLAIN ANALYZE and print the operator tree with actuals")
	metricsAddr := fs.String("metrics-addr", "", "serve Prometheus metrics at http://host:port/metrics and stay alive after the demo")
	consoleAddr := fs.String("console-addr", "", "serve the live debug console (/runs, /plans, /metrics, pprof) at http://host:port and stay alive after the demo")
	timeout := fs.Duration("timeout", 0, "abort each execution after this long (0 = no timeout)")
	maxRows := fs.Int64("max-rows", 0, "abort an execution that produces more than n result rows (0 = unlimited)")
	var wheres, params multiFlag
	fs.Var(&wheres, "where", "driving-table predicate, e.g. 'deptno = 10' or '@id = $id' (repeatable)")
	fs.Var(&params, "param", "bind a run parameter as name=value (repeatable)")
	noPushdown := fs.Bool("no-pushdown", false, "disable index pushdown: full-scan the driving table")
	_ = fs.Parse(args)
	govern := governOptions(*timeout, *maxRows)
	runOpts, err := runOptions(wheres, params, *noPushdown)
	if err != nil {
		fatal(err)
	}

	db := xsltdb.NewDatabase()
	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", obs.Scrape{db.Metrics()}.Handler())
		go func() {
			if err := http.ListenAndServe(*metricsAddr, mux); err != nil {
				fatal(err)
			}
		}()
		fmt.Printf("serving metrics at http://%s/metrics\n\n", *metricsAddr)
	}
	if *consoleAddr != "" {
		// The console wants history: archive every run, trace all of them
		// (a demo is low-volume; production would use SampleRatio or
		// SampleSlowerThan), and serve the inspection endpoints.
		db.EnableRunHistory(0)
		govern = append(govern, xsltdb.WithTraceSampling(xsltdb.SampleAlways()))
		go func() {
			if err := http.ListenAndServe(*consoleAddr, db.ConsoleHandler()); err != nil {
				fatal(err)
			}
		}()
		fmt.Printf("serving debug console at http://%s/ (runs, plans, metrics, pprof)\n\n", *consoleAddr)
	}
	if err := sqlxml.SetupDeptEmp(db.Rel()); err != nil {
		fatal(err)
	}
	if err := db.CreateXMLView(sqlxml.DeptEmpView()); err != nil {
		fatal(err)
	}
	if err := db.CreateIndex("emp", "sal"); err != nil {
		fatal(err)
	}
	if err := db.CreateIndex("emp", "deptno"); err != nil {
		fatal(err)
	}

	fmt.Println("== Example 1: XMLTransform(dept_emp.dept_content, <stylesheet>) ==")
	fmt.Println()
	fmt.Println("-- the dept_emp view (paper Table 3) --")
	fmt.Println(sqlxml.DeptEmpView().SQL())
	fmt.Println()

	ct, err := db.CompileTransform("dept_emp", xslt.PaperStylesheet, govern...)
	if err != nil {
		fatal(err)
	}
	fmt.Println("-- XQuery from XSLT rewrite (paper Table 8) --")
	fmt.Println(ct.XQuery())
	fmt.Println()
	fmt.Println("-- SQL/XML after XQuery rewrite (paper Table 7) --")
	fmt.Println(ct.SQL())
	fmt.Println()
	fmt.Println("-- physical plan --")
	fmt.Println(ct.ExplainPlan(runOpts...))
	fmt.Println()
	fmt.Println("-- result rows (paper Table 6) --")
	demoRun(ct, *stream, *stats, runOpts)
	fmt.Println()
	demoAnalyze(ct, *analyze, runOpts)

	fmt.Println("== Example 2: XQuery over the XSLT view (combined optimisation) ==")
	ct2, err := db.CompileTransform("dept_emp", xslt.PaperStylesheet,
		append([]xsltdb.Option{xsltdb.WithOuterPath("table", "tr")}, govern...)...)
	if err != nil {
		fatal(err)
	}
	fmt.Println("-- optimal SQL/XML (paper Table 11) --")
	fmt.Println(ct2.SQL())
	fmt.Println()
	demoRun(ct2, *stream, *stats, runOpts)
	demoAnalyze(ct2, *analyze, runOpts)

	if *stats {
		pc := db.PlanCacheStats()
		fmt.Printf("\n-- plan cache --\nhits=%d misses=%d entries=%d\n", pc.CacheHits, pc.CacheMisses, pc.Entries)
	}

	if *metricsAddr != "" || *consoleAddr != "" {
		if *metricsAddr != "" {
			fmt.Printf("\ndemo complete; still serving http://%s/metrics (interrupt to exit)\n", *metricsAddr)
		}
		if *consoleAddr != "" {
			fmt.Printf("\ndemo complete; still serving the console at http://%s/ (interrupt to exit)\n", *consoleAddr)
		}
		select {}
	}
}

// demoAnalyze runs the transform once more under EXPLAIN ANALYZE and prints
// the operator tree with the chosen access paths, actual rows and timings.
func demoAnalyze(ct *xsltdb.CompiledTransform, analyze bool, runOpts []xsltdb.RunOption) {
	if !analyze {
		return
	}
	out, err := ct.ExplainAnalyze(context.Background(), runOpts...)
	if err != nil {
		fatal(err)
	}
	fmt.Println("-- EXPLAIN ANALYZE --")
	fmt.Println(out)
}

// governOptions turns the -timeout / -max-rows flags into compile options.
func governOptions(timeout time.Duration, maxRows int64) []xsltdb.Option {
	var opts []xsltdb.Option
	if timeout > 0 {
		opts = append(opts, xsltdb.WithTimeout(timeout))
	}
	if maxRows > 0 {
		opts = append(opts, xsltdb.WithMaxRows(maxRows))
	}
	return opts
}

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ", ") }

func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

// runOptions lowers the -where / -param / -no-pushdown flags to RunOptions.
// Integer-looking parameter values bind as int64, everything else as string.
func runOptions(wheres, params []string, noPushdown bool) ([]xsltdb.RunOption, error) {
	var opts []xsltdb.RunOption
	for _, w := range wheres {
		opts = append(opts, xsltdb.WithWhere(w))
	}
	for _, p := range params {
		name, raw, ok := strings.Cut(p, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("-param %q: want name=value", p)
		}
		if n, err := strconv.ParseInt(raw, 10, 64); err == nil {
			opts = append(opts, xsltdb.WithParam(name, n))
		} else {
			opts = append(opts, xsltdb.WithParam(name, raw))
		}
	}
	if noPushdown {
		opts = append(opts, xsltdb.WithoutPushdown())
	}
	return opts, nil
}

// demoRun prints the transform's rows — streamed one at a time through a
// cursor, or materialized via Run — and the per-run stats when asked.
func demoRun(ct *xsltdb.CompiledTransform, stream, stats bool, runOpts []xsltdb.RunOption) {
	if stream {
		cur, err := ct.OpenCursor(context.Background(), runOpts...)
		if err != nil {
			fatal(err)
		}
		defer cur.Close()
		for i := 1; ; i++ {
			row, err := cur.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				fatal(err)
			}
			fmt.Printf("row %d: %s\n", i, row)
		}
		if stats {
			fmt.Println("stats:", cur.Stats())
		}
		return
	}
	res, err := ct.Run(context.Background(), runOpts...)
	if err != nil {
		fatal(err)
	}
	for i, r := range res.Rows {
		fmt.Printf("row %d: %s\n", i+1, r)
	}
	if stats {
		fmt.Println("stats:", res.Stats)
	}
}
