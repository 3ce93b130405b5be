// Xsltmarkreport runs the whole 40-case XSLTMark-style suite and prints a
// per-case report: which translation mode each case compiled to, whether it
// fully inlined (the paper's §5 statistic), whether it lowered all the way
// to SQL/XML, and a quick rewrite-vs-no-rewrite timing for the
// database-backed cases.
//
//	go run ./examples/xsltmarkreport [-n 2000]
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/relstore"
	"repro/internal/sqlxml"
	"repro/internal/xq2sql"
	"repro/internal/xschema"
	"repro/internal/xslt"
	"repro/internal/xsltmark"
)

func main() {
	n := flag.Int("n", 2000, "records per database-backed case")
	flag.Parse()

	fmt.Printf("%-14s %-10s %-8s %-8s %-12s %-12s %s\n",
		"case", "category", "inline", "sql", "rewrite", "no-rewrite", "speedup")

	inlined := 0
	for _, c := range xsltmark.All() {
		sheet, err := xslt.ParseStylesheet(c.Stylesheet)
		if err != nil {
			log.Fatalf("%s: stylesheet: %v", c.Name, err)
		}
		schema, err := xschema.ParseCompact(c.Schema)
		if err != nil {
			log.Fatalf("%s: schema: %v", c.Name, err)
		}
		res, err := core.Rewrite(sheet, schema, core.ModeAuto)
		if err != nil {
			log.Fatalf("%s: %v", c.Name, err)
		}
		if res.Inlined {
			inlined++
		}

		sqlOK := "-"
		timing := ""
		if c.Rel != nil {
			db := relstore.NewDB()
			if err := c.Rel.Setup(db, *n); err != nil {
				log.Fatal(err)
			}
			for table, cols := range c.Rel.IndexCols {
				for _, col := range cols {
					_ = db.Table(table).CreateIndex(col)
				}
			}
			exec := sqlxml.NewExecutor(db)
			view := c.Rel.View()
			plan, err := xq2sql.Translate(res.Module, view)
			switch {
			case err == nil:
				sqlOK = "yes"
				r := timeIt(func() error { _, e := exec.ExecQueryParallelSpec(plan, 0, &exec.Stats, nil, nil); return e })
				nr := timeIt(func() error {
					rows, e := exec.MaterializeViewSpec(view, nil, &exec.Stats, nil, nil)
					if e != nil {
						return e
					}
					eng := xslt.New(sheet)
					for _, row := range rows {
						if _, e := eng.Transform(row); e != nil {
							return e
						}
					}
					return nil
				})
				timing = fmt.Sprintf("%-12v %-12v %.0fx", r, nr, float64(nr)/float64(r))
			case errors.Is(err, xq2sql.ErrNotRelational):
				sqlOK = "no"
			default:
				log.Fatalf("%s: %v", c.Name, err)
			}
		}
		fmt.Printf("%-14s %-10s %-8v %-8s %s\n", c.Name, c.Category, res.Inlined, sqlOK, timing)
	}
	fmt.Printf("\nfully inlined: %d / 40 (paper: 23/40)\n", inlined)
}

func timeIt(f func() error) time.Duration {
	start := time.Now()
	if err := f(); err != nil {
		log.Fatal(err)
	}
	return time.Since(start)
}
