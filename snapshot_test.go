package xsltdb

// MVCC snapshot-isolation regression tests: every Run and OpenCursor pins an
// immutable (view, version) + table snapshot at start, so concurrent
// ReplaceXMLView calls and row inserts never perturb an execution already in
// flight. Run these under -race: before snapshot pinning, the cursor's lazy
// B-tree reads raced Insert's in-place index mutation.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
)

// replacedViewDef is the post-replace shape: same backing table, different
// element structure, so mixed output would be visible byte-wise.
func replacedViewDef() *ViewDef {
	return &ViewDef{
		Name:  "rows",
		Table: "row",
		Body: &XMLElement{
			Name:  "entry",
			Attrs: []XMLAttr{{Name: "key", Value: &XMLColumn{Name: "id"}}},
			Children: []XMLExpr{
				&XMLElement{Name: "label", Children: []XMLExpr{&XMLColumn{Name: "name"}}},
			},
		},
	}
}

const replacedSheet = `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
	<xsl:template match="entry"><replaced><xsl:value-of select="label"/></replaced></xsl:template>
</xsl:stylesheet>`

// TestCursorIsolatedFromReplaceAndInserts is the satellite regression test:
// a cursor opened BEFORE ReplaceXMLView and a burst of inserts must stream
// the byte-identical pre-replace output — its snapshot pinned both the view
// version and the table rows at open time.
func TestCursorIsolatedFromReplaceAndInserts(t *testing.T) {
	const n = 120
	d := newKeyedDB(t, n)
	ct, err := d.CompileTransform("rows", keyedSheet)
	if err != nil {
		t.Fatal(err)
	}
	// The expected output, captured while the database is quiescent.
	res, err := ct.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := res.Rows

	cur, err := ct.OpenCursor(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Read a few rows, then mutate the world mid-stream.
	var got []string
	for i := 0; i < 10; i++ {
		row, err := cur.Next()
		if err != nil {
			t.Fatalf("Next %d: %v", i, err)
		}
		got = append(got, row)
	}
	if err := d.ReplaceXMLView(replacedViewDef()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := d.Insert("row", int64(n+i), fmt.Sprintf("late-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for {
		row, err := cur.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next after replace: %v", err)
		}
		got = append(got, row)
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("cursor streamed %d rows, want the %d pre-replace rows", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d not isolated:\ngot:  %s\nwant: %s", i, got[i], want[i])
		}
	}
}

// TestRunsRaceReplacesAndInserts hammers parameterized runs against
// replace/insert traffic under -race. Every run must observe exactly one
// consistent world: either the keyed view's output or the replaced view's —
// never a mix, never a row set torn mid-scan.
func TestRunsRaceReplacesAndInserts(t *testing.T) {
	const n = 64
	d := newKeyedDB(t, n)
	keyed, err := d.CompileTransform("rows", keyedSheet)
	if err != nil {
		t.Fatal(err)
	}
	replaced, err := d.CompileTransform("rows", replacedSheet)
	if err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	report := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}

	// Writers: alternate the view definition and keep inserting rows.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defs := []*ViewDef{replacedViewDef(), keyedViewDef()}
		for i := 0; !stop.Load(); i++ {
			if err := d.ReplaceXMLView(defs[i%2]); err != nil {
				report(fmt.Errorf("replace: %w", err))
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			if err := d.Insert("row", int64(n+i), fmt.Sprintf("late-%d", i)); err != nil {
				report(fmt.Errorf("insert: %w", err))
				return
			}
		}
	}()

	// Readers: parameterized point lookups against a stable key. Whichever
	// view version a run pins, the id=7 document exists and its output is one
	// of exactly two known byte strings.
	// Three legal outputs: each stylesheet against its own view, plus the
	// cross-match — a transform whose template doesn't match the CURRENT
	// view's root element falls through to the built-in rules, which emit
	// the bare text content. Anything else is a torn execution.
	wantKeyed := "<hit>name-7</hit>"
	wantReplaced := "<replaced>name-7</replaced>"
	wantCross := "name-7"
	legal := func(s string) bool {
		return s == wantKeyed || s == wantReplaced || s == wantCross
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				for _, ct := range []*CompiledTransform{keyed, replaced} {
					res, err := ct.Run(context.Background(),
						WithWhere("@id = $id"), WithParam("id", 7))
					if err != nil {
						// A transform compiled for the OTHER view definition
						// recompiles against the current one and may then
						// fail its rewrite; those runs prove nothing either
						// way. Raced replaces surface as ErrNoView-free
						// rewrite errors, so only assert on successes.
						continue
					}
					if len(res.Rows) != 1 {
						report(fmt.Errorf("lookup returned %d rows", len(res.Rows)))
						return
					}
					if !legal(res.Rows[0]) {
						report(fmt.Errorf("torn output: %q", res.Rows[0]))
						return
					}
				}
			}
		}()
	}

	for i := 0; i < 300; i++ {
		res, err := keyed.Run(context.Background(), WithWhere("@id = 7"))
		if err != nil {
			continue
		}
		if len(res.Rows) == 1 && !legal(res.Rows[0]) {
			t.Errorf("main reader saw torn output: %q", res.Rows[0])
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

// TestSnapshotPinsGaugeBalances: the xsltdb_snapshot_pins gauge rises while
// runs and cursors are in flight and returns to zero when they finish — a
// leak here means a snapshot (and its pinned row memory) is held
// forever.
func TestSnapshotPinsGaugeBalances(t *testing.T) {
	d := newKeyedDB(t, 30)
	ct, err := d.CompileTransform("rows", keyedSheet)
	if err != nil {
		t.Fatal(err)
	}
	pins := func() float64 { return gauge(t, d, "xsltdb_snapshot_pins") }

	if _, err := ct.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := pins(); got != 0 {
		t.Fatalf("gauge after Run = %v, want 0", got)
	}

	cur, err := ct.OpenCursor(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := pins(); got != 1 {
		t.Fatalf("gauge with open cursor = %v, want 1", got)
	}
	if _, err := cur.Next(); err != nil {
		t.Fatal(err)
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if got := pins(); got != 0 {
		t.Fatalf("gauge after cursor Close = %v, want 0", got)
	}

	// A failing run must not leak its pin either.
	if _, err := ct.Run(context.Background(), WithWhere("@id = $missing")); err == nil {
		t.Fatal("unbound parameter should fail the run")
	}
	if got := pins(); got != 0 {
		t.Fatalf("gauge after failed run = %v, want 0", got)
	}

	// Close with a cursor open: the pin releases when the cursor observes
	// the shutdown, not later.
	cur2, err := ct.OpenCursor(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	_ = cur2
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := cur2.Next(); !errors.Is(err, ErrDatabaseClosed) {
		t.Fatalf("cursor after Close: %v", err)
	}
	if got := pins(); got != 0 {
		t.Fatalf("gauge after database Close = %v, want 0", got)
	}
}
