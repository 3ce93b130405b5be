package xsltdb

// Durability tests: kill-and-replay through the public Open(WithDir(dir)) API, the
// fault-injection matrix at the WAL's append/fsync/rotate sites, and the
// Close lifecycle (idempotency, ErrDatabaseClosed on in-flight cursors).

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/faultpoint"
	"repro/internal/wal"
)

// newDurableKeyedDB is newKeyedDB over a WAL directory: row(id, name) with n
// rows, an index on id, and the keyed view — every statement logged.
func newDurableKeyedDB(tb testing.TB, dir string, n int, opts ...OpenOption) *Database {
	tb.Helper()
	d, err := Open(append([]OpenOption{WithDir(dir)}, opts...)...)
	if err != nil {
		tb.Fatal(err)
	}
	if err := d.CreateTable("row",
		TableColumn{Name: "id", Type: IntCol},
		TableColumn{Name: "name", Type: StringCol}); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := d.Insert("row", int64(i), fmt.Sprintf("name-%d", i)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := d.CreateIndex("row", "id"); err != nil {
		tb.Fatal(err)
	}
	if err := d.CreateXMLView(keyedViewDef()); err != nil {
		tb.Fatal(err)
	}
	return d
}

// runKeyed compiles and runs the keyed stylesheet, returning the rows.
func runKeyed(tb testing.TB, d *Database, opts ...RunOption) []string {
	tb.Helper()
	ct, err := d.CompileTransform("rows", keyedSheet)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := ct.Run(context.Background(), opts...)
	if err != nil {
		tb.Fatal(err)
	}
	return res.Rows
}

// TestOpenReopenRoundtrip also holds xsltdb_wal_append_seconds to the log:
// its count advances once per logged statement, and replay appends nothing.
func TestOpenReopenRoundtrip(t *testing.T) {
	dir := t.TempDir()
	const n = 25
	d := newDurableKeyedDB(t, dir, n)
	// 1 create-table + n inserts + 1 create-index + 1 create-view.
	if got := d.metrics.walAppendSeconds.Count(); got != n+3 {
		t.Fatalf("wal_append_seconds count is %d over %d logged statements", got, n+3)
	}
	want := runKeyed(t, d)
	if len(want) != n {
		t.Fatalf("rows = %d, want %d", len(want), n)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(WithDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	rs := d2.RecoveryStats()
	if rs.Records != n+3 {
		t.Fatalf("replayed %d records, want %d", rs.Records, n+3)
	}
	if rs.Wall <= 0 {
		t.Fatalf("recovery wall time = %v, want the replay's duration", rs.Wall)
	}
	if rs.TornBytes != 0 || rs.SegmentsDropped != 0 {
		t.Fatalf("clean close reported torn bytes %d, dropped segments %d", rs.TornBytes, rs.SegmentsDropped)
	}
	if got := d2.metrics.walAppendSeconds.Count(); got != 0 {
		t.Fatalf("replay moved wal_append_seconds count to %d, want 0", got)
	}
	got := runKeyed(t, d2)
	if len(got) != len(want) {
		t.Fatalf("recovered rows = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("recovered row %d differs:\ngot:  %s\nwant: %s", i, got[i], want[i])
		}
	}
	// The recovered index must actually work: a keyed lookup probes it.
	one := runKeyed(t, d2, WithWhere("@id = 7"))
	if len(one) != 1 || one[0] != "<hit>name-7</hit>" {
		t.Fatalf("index lookup after recovery = %v", one)
	}
	// And the recovered database must accept further durable writes.
	if err := d2.Insert("row", int64(n), fmt.Sprintf("name-%d", n)); err != nil {
		t.Fatalf("insert after recovery: %v", err)
	}
	if got := d2.metrics.walAppendSeconds.Count(); got != 1 {
		t.Fatalf("wal_append_seconds count is %d after one logged statement", got)
	}
}

// escapeNames are VARCHAR cells with something for each escaper: what
// element text escapes, what only an attribute value escapes, both, neither,
// the empty string and multi-byte UTF-8.
var escapeNames = []string{
	`a<b`, `x&y`, `p>q`, `say "hi"`, "line1\nline2", "tab\there", "",
	"naïve — ünïcödé 日本語 🙂", `]]>`, `&amp;`, "\r\n mixed <&>\"\t", "plain",
}

// escapeSheet puts the name column in an attribute value and in element
// text.
const escapeSheet = `<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
	<xsl:template match="row"><hit n="{name}"><xsl:value-of select="name"/></hit></xsl:template>
</xsl:stylesheet>`

// TestOpenReopenKeepsEscapeClasses: the escape class a VARCHAR cell keeps
// from its insert (relstore, column.go) is computed again when the log is
// replayed, and an index built over the replayed cells finds them. A
// stylesheet writing every escapeNames cell as an attribute value and as
// text answers, after reopen and CreateIndex on the column, the bytes it
// answered before Close and the bytes the interpreter answers; a probe for
// each name, through the new index, finds the rows a scan found before.
func TestOpenReopenKeepsEscapeClasses(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(WithDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CreateTable("row", TableColumn{Name: "id", Type: IntCol}, TableColumn{Name: "name", Type: StringCol}); err != nil {
		t.Fatal(err)
	}
	for i, name := range escapeNames {
		if err := d.Insert("row", int64(i), name); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.CreateXMLView(keyedViewDef()); err != nil {
		t.Fatal(err)
	}
	run := func(d *Database, opts ...RunOption) []string {
		t.Helper()
		ct, err := d.CompileTransform("rows", escapeSheet)
		if err != nil {
			t.Fatal(err)
		}
		if ct.Strategy() != StrategySQL {
			t.Fatalf("the stylesheet compiled to %v, not to SQL/XML", ct.Strategy())
		}
		res, err := ct.Run(context.Background(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows
	}
	probe := func(d *Database, name string) ([]string, ExecStats) {
		t.Helper()
		ct, err := d.CompileTransform("rows", escapeSheet)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ct.Run(context.Background(), WithWhere("name = $n"), WithParam("n", name))
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows, res.Stats
	}
	want := run(d)
	if len(want) != len(escapeNames) {
		t.Fatalf("%d rows before Close, want %d", len(want), len(escapeNames))
	}
	found := make([][]string, len(escapeNames))
	for i, name := range escapeNames {
		if found[i], _ = probe(d, name); len(found[i]) != 1 {
			t.Fatalf("name = %q finds %d rows before Close, want 1", name, len(found[i]))
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(WithDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if err := d2.CreateIndex("row", "name"); err != nil {
		t.Fatal(err)
	}
	got := run(d2)
	nr, err := d2.CompileTransform("rows", escapeSheet, WithForcedStrategy(StrategyNoRewrite))
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := nr.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] || oracle.Rows[i] != want[i] {
			t.Fatalf("row %d after reopen: %s\nbefore Close: %s\nno-rewrite: %s", i, got[i], want[i], oracle.Rows[i])
		}
	}
	for i, name := range escapeNames {
		rows, st := probe(d2, name)
		if st.IndexProbes == 0 {
			t.Errorf("name = %q ran %q, not an index probe", name, st.AccessPath)
		}
		if !slices.Equal(rows, found[i]) {
			t.Errorf("name = %q: the index finds %q, the scan before Close found %q", name, rows, found[i])
		}
	}
}

// TestKillAndReplay simulates a crash: the database is abandoned WITHOUT
// Close. Under SyncAlways every acknowledged statement is already on stable
// storage, so reopening the directory must recover all of them.
func TestKillAndReplay(t *testing.T) {
	dir := t.TempDir()
	const n = 10
	d := newDurableKeyedDB(t, dir, n, WithSyncPolicy(SyncAlways))
	want := runKeyed(t, d)
	// No Close — the process "dies" here with the log as sole survivor.

	d2, err := Open(WithDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	got := runKeyed(t, d2)
	if len(got) != len(want) {
		t.Fatalf("after kill: recovered %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("after kill: row %d differs", i)
		}
	}
}

func TestViewDDLSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	d := newDurableKeyedDB(t, dir, 3)
	// Replace the view with a richer shape, then reopen: replay must land on
	// the replaced definition (create + replace both logged, in order).
	if err := d.ReplaceXMLView(&ViewDef{
		Name:  "rows",
		Table: "row",
		Body: &XMLElement{
			Name:  "row",
			Attrs: []XMLAttr{{Name: "id", Value: &XMLColumn{Name: "id"}}},
			Children: []XMLExpr{
				&XMLElement{Name: "name", Children: []XMLExpr{
					&XMLLiteral{Text: "employee "},
					&XMLColumn{Name: "name"},
				}},
			},
		},
	}); err != nil {
		t.Fatal(err)
	}
	// Materialize the view directly: unlike a compiled transform (whose
	// rewrite may resolve through the schema), materialization renders the
	// exact view body, so it distinguishes the two definitions byte-for-byte.
	materialize := func(d *Database) []string {
		docs, err := d.MaterializeView("rows")
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(docs))
		for i, doc := range docs {
			out[i] = doc.Pretty()
		}
		return out
	}
	want := materialize(d)
	if !strings.Contains(want[0], "employee name-0") {
		t.Fatalf("replaced view not in effect before reopen: %s", want[0])
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(WithDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	got := materialize(d2)
	if len(got) != len(want) {
		t.Fatalf("rows = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("replaced view lost in replay, row %d:\ngot:  %s\nwant: %s", i, got[i], want[i])
		}
	}
}

// TestTornWriteRecovery drives the wal.append faultpoint through the facade:
// the faulted Insert fails, is NOT applied to memory, and after reopening
// the database serves exactly the committed prefix.
func TestTornWriteRecovery(t *testing.T) {
	defer faultpoint.Reset()
	dir := t.TempDir()
	const n = 8
	d := newDurableKeyedDB(t, dir, n)

	boom := errors.New("injected torn write")
	faultpoint.Enable("wal.append", boom)
	err := d.Insert("row", int64(n), "torn")
	faultpoint.Disable("wal.append")
	if !errors.Is(err, boom) {
		t.Fatalf("faulted Insert: %v, want injected error", err)
	}
	// Write-ahead ordering: the failed insert never reached memory.
	if got := runKeyed(t, d); len(got) != n {
		t.Fatalf("failed insert visible in memory: %d rows, want %d", len(got), n)
	}
	// The wedged log refuses further durable writes until reopened.
	if err := d.Insert("row", int64(n+1), "after"); err == nil {
		t.Fatal("insert on wedged log should fail")
	}
	d.Close()

	d2, err := Open(WithDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	rs := d2.RecoveryStats()
	if rs.TornBytes == 0 {
		t.Fatal("torn write left no torn bytes for recovery to truncate")
	}
	got := runKeyed(t, d2)
	if len(got) != n {
		t.Fatalf("recovered %d rows, want the %d committed", len(got), n)
	}
	for i := range got {
		if got[i] != fmt.Sprintf("<hit>name-%d</hit>", i) {
			t.Fatalf("recovered row %d corrupted: %s", i, got[i])
		}
	}
	// Recovery healed the log: durable writes work again.
	if err := d2.Insert("row", int64(n), fmt.Sprintf("name-%d", n)); err != nil {
		t.Fatalf("insert after recovery: %v", err)
	}
}

// TestFsyncFaultRollsBack: a failed fsync rolls the append back, so memory
// and log agree the statement never happened — no reopen required.
func TestFsyncFaultRollsBack(t *testing.T) {
	defer faultpoint.Reset()
	dir := t.TempDir()
	const n = 5
	d := newDurableKeyedDB(t, dir, n, WithSyncPolicy(SyncAlways))

	boom := errors.New("injected fsync error")
	faultpoint.Enable("wal.fsync", boom)
	err := d.Insert("row", int64(n), "lost")
	faultpoint.Disable("wal.fsync")
	if !errors.Is(err, boom) {
		t.Fatalf("faulted Insert: %v, want injected error", err)
	}
	if got := runKeyed(t, d); len(got) != n {
		t.Fatalf("failed insert visible: %d rows, want %d", len(got), n)
	}
	// Rollback (not wedging): the very next insert succeeds.
	if err := d.Insert("row", int64(n), fmt.Sprintf("name-%d", n)); err != nil {
		t.Fatalf("insert after fsync failure: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(WithDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	got := runKeyed(t, d2)
	if len(got) != n+1 {
		t.Fatalf("recovered %d rows, want %d", len(got), n+1)
	}
	if got[n] != fmt.Sprintf("<hit>name-%d</hit>", n) {
		t.Fatalf("post-failure insert lost: %s", got[n])
	}
}

// TestRotateFaultFailsStatement: a failed segment rotation fails the
// statement cleanly; the next one rotates and proceeds.
func TestRotateFaultFailsStatement(t *testing.T) {
	defer faultpoint.Reset()
	dir := t.TempDir()
	// 256-byte segments: the insert volume forces rotations.
	d := newDurableKeyedDB(t, dir, 20, WithSegmentBytes(256))

	boom := errors.New("injected rotate error")
	faultpoint.Enable("wal.rotate", boom)
	var faulted bool
	for i := 20; i < 40; i++ {
		if err := d.Insert("row", int64(i), fmt.Sprintf("name-%d", i)); err != nil {
			if !errors.Is(err, boom) {
				t.Fatalf("insert %d: %v, want injected rotate error", i, err)
			}
			faulted = true
			break
		}
	}
	faultpoint.Disable("wal.rotate")
	if !faulted {
		t.Fatal("no rotation happened within 20 inserts into 256-byte segments")
	}
	// The failed statement is retryable.
	if err := d.Insert("row", int64(100), "retried"); err != nil {
		t.Fatalf("insert after rotate failure: %v", err)
	}
	want := runKeyed(t, d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(WithDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	got := runKeyed(t, d2)
	if len(got) != len(want) {
		t.Fatalf("recovered %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d differs after rotate-fault recovery", i)
		}
	}
}

// TestTruncateAcrossSegments is the every-byte-offset truncation property at
// the facade, over a log of 256-byte segments whose history mixes DDL and
// inserts. The last segment is cut at every offset of its tail record — a
// ReplaceXMLView — and reopened: recovery must report exactly the committed
// prefix, serve its view version and its bytes, accept an append, and
// recover that append on the next reopen.
func TestTruncateAcrossSegments(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	d, err := Open(WithDir(dir), WithSegmentBytes(256))
	if err != nil {
		t.Fatal(err)
	}
	renamed := func(prefix string) *ViewDef {
		v := keyedViewDef()
		v.Body.(*XMLElement).Children = []XMLExpr{&XMLElement{Name: "name", Children: []XMLExpr{
			&XMLLiteral{Text: prefix}, &XMLColumn{Name: "name"},
		}}}
		return v
	}
	inserts := func(from int) []func() error {
		var out []func() error
		for i := from; i < from+8; i++ {
			out = append(out, func() error { return d.Insert("row", int64(i), fmt.Sprintf("name-%d", i)) })
		}
		return out
	}
	var history []func() error
	history = append(history, func() error {
		return d.CreateTable("row", TableColumn{Name: "id", Type: IntCol}, TableColumn{Name: "name", Type: StringCol})
	})
	history = append(history, inserts(0)...)
	history = append(history,
		func() error { return d.CreateIndex("row", "id") },
		func() error { return d.CreateXMLView(keyedViewDef()) })
	history = append(history, inserts(8)...)
	history = append(history, func() error { return d.ReplaceXMLView(renamed("v2 ")) })
	history = append(history, inserts(16)...)
	history = append(history, func() error { return d.ReplaceXMLView(renamed("v3 ")) })

	// served is what the keyed transform answers, "" before the view exists.
	served := func(d *Database) string {
		if d.ViewVersion("rows") == 0 {
			return ""
		}
		return strings.Join(runKeyed(t, d), "\n")
	}
	type state struct {
		viewVersion int
		served      string
	}
	states := []state{{}} // states[k]: after the first k statements
	for i, stmt := range history {
		if err := stmt(); err != nil {
			t.Fatalf("statement %d: %v", i, err)
		}
		states = append(states, state{d.ViewVersion("rows"), served(d)})
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := wal.SegmentFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("history spans %d segments, want at least 3", len(segs))
	}
	files := make([][]byte, len(segs))
	for i, p := range segs {
		if files[i], err = os.ReadFile(p); err != nil {
			t.Fatal(err)
		}
	}
	// The tail record is the last frame of the last segment: [tail, len).
	last := files[len(files)-1]
	tail := 0
	for off := 0; off < len(last); off += 8 + int(binary.LittleEndian.Uint32(last[off:])) {
		tail = off
	}
	want := states[len(history)-1] // everything but the tail record

	work := filepath.Join(t.TempDir(), "cut")
	for cut := tail; cut < len(last); cut++ {
		if err := os.RemoveAll(work); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(work, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, p := range segs {
			b := files[i]
			if i == len(segs)-1 {
				b = b[:cut]
			}
			if err := os.WriteFile(filepath.Join(work, filepath.Base(p)), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		d2, err := Open(WithDir(work), WithSegmentBytes(256))
		if err != nil {
			t.Fatalf("cut at %d: reopen: %v", cut, err)
		}
		rs := d2.RecoveryStats()
		if rs.Records != len(history)-1 || rs.TornBytes != int64(cut-tail) || rs.SegmentsDropped != 0 || rs.Segments != len(segs) {
			t.Fatalf("cut at %d: recovery %+v, want %d records, %d torn bytes, %d segments",
				cut, rs, len(history)-1, cut-tail, len(segs))
		}
		if v, got := d2.ViewVersion("rows"), served(d2); v != want.viewVersion || got != want.served {
			t.Fatalf("cut at %d: view version %d serving\n%s\nwant version %d serving\n%s", cut, v, got, want.viewVersion, want.served)
		}
		if err := d2.Insert("row", int64(100), "after"); err != nil {
			t.Fatalf("cut at %d: insert after recovery: %v", cut, err)
		}
		after := served(d2)
		if wantAfter := want.served + "\n<hit>v2 after</hit>"; after != wantAfter {
			t.Fatalf("cut at %d: after an insert the database serves\n%s\nwant\n%s", cut, after, wantAfter)
		}
		if err := d2.Close(); err != nil {
			t.Fatal(err)
		}
		d3, err := Open(WithDir(work), WithSegmentBytes(256))
		if err != nil {
			t.Fatalf("cut at %d: second reopen: %v", cut, err)
		}
		if rs := d3.RecoveryStats(); rs.Records != len(history) || rs.TornBytes != 0 {
			t.Fatalf("cut at %d: second recovery %+v, want %d records and no torn bytes", cut, rs, len(history))
		}
		if got := served(d3); got != after {
			t.Fatalf("cut at %d: second reopen serves\n%s\nwant\n%s", cut, got, after)
		}
		if err := d3.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCloseIdempotentAndFailsCursors is the Close lifecycle contract:
// double Close is a no-op, in-flight cursors fail with ErrDatabaseClosed
// (no panic), and every entry point refuses new work with the sentinel.
func TestCloseIdempotentAndFailsCursors(t *testing.T) {
	d := newKeyedDB(t, 50)
	ct, err := d.CompileTransform("rows", keyedSheet)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := ct.OpenCursor(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Next(); err != nil {
		t.Fatalf("first Next: %v", err)
	}

	if err := d.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	if _, err := cur.Next(); !errors.Is(err, ErrDatabaseClosed) {
		t.Fatalf("in-flight cursor Next after Close: %v, want ErrDatabaseClosed", err)
	}
	if err := cur.Close(); err != nil {
		t.Fatalf("cursor Close after database Close: %v", err)
	}

	if _, err := ct.Run(context.Background()); !errors.Is(err, ErrDatabaseClosed) {
		t.Fatalf("Run after Close: %v, want ErrDatabaseClosed", err)
	}
	if _, err := ct.OpenCursor(context.Background()); !errors.Is(err, ErrDatabaseClosed) {
		t.Fatalf("OpenCursor after Close: %v, want ErrDatabaseClosed", err)
	}
	if err := d.Insert("row", int64(999), "x"); !errors.Is(err, ErrDatabaseClosed) {
		t.Fatalf("Insert after Close: %v, want ErrDatabaseClosed", err)
	}
	if err := d.CreateTable("t2", TableColumn{Name: "a", Type: IntCol}); !errors.Is(err, ErrDatabaseClosed) {
		t.Fatalf("CreateTable after Close: %v, want ErrDatabaseClosed", err)
	}
	if err := d.CreateIndex("row", "name"); !errors.Is(err, ErrDatabaseClosed) {
		t.Fatalf("CreateIndex after Close: %v, want ErrDatabaseClosed", err)
	}
	if err := d.CreateXMLView(&ViewDef{Name: "v2", Table: "row"}); !errors.Is(err, ErrDatabaseClosed) {
		t.Fatalf("CreateXMLView after Close: %v, want ErrDatabaseClosed", err)
	}
	if err := d.ReplaceXMLView(keyedViewDef()); !errors.Is(err, ErrDatabaseClosed) {
		t.Fatalf("ReplaceXMLView after Close: %v, want ErrDatabaseClosed", err)
	}
}

// TestCloseRacingOpenReportsNothing: a cursor whose open loses the race with
// Database.Close is refused like any other failed open — the gauges it bumped
// are restored and, since it never ran, nothing is archived for it — not even
// under a policy that keeps every run slower than a nanosecond.
func TestCloseRacingOpenReportsNothing(t *testing.T) {
	d := newKeyedDB(t, 50)
	d.EnableRunHistory(0)
	ct, err := d.CompileTransform("rows", keyedSheet, WithTraceSampling(SampleSlowerThan(time.Nanosecond)))
	if err != nil {
		t.Fatal(err)
	}
	faultpoint.EnableSleep("sqlxml.query.open", 50*time.Millisecond)
	defer faultpoint.Reset()
	opened := make(chan error)
	go func() {
		_, err := ct.OpenCursor(context.Background())
		opened <- err
	}()
	for faultpoint.Hits("sqlxml.query.open") == 0 {
		time.Sleep(time.Millisecond)
	}
	if err := d.Close(); err != nil { // while the open sleeps in its plan
		t.Fatal(err)
	}
	if err := <-opened; !errors.Is(err, ErrDatabaseClosed) {
		t.Fatalf("OpenCursor = %v, want ErrDatabaseClosed", err)
	}
	if n := d.RunHistory().Len(); n != 0 {
		t.Fatalf("a cursor that was never returned left %d archived runs", n)
	}
	if c, p := gauge(t, d, "xsltdb_active_cursors"), gauge(t, d, "xsltdb_snapshot_pins"); c != 0 || p != 0 {
		t.Fatalf("gauges not restored: %v cursors, %v pins", c, p)
	}
}

// TestCloseDurable: Close on a durable database syncs and releases the WAL;
// a cursor left open keeps its pinned snapshot readable until it observes
// the sentinel, and reopening the directory works.
func TestCloseDurable(t *testing.T) {
	dir := t.TempDir()
	d := newDurableKeyedDB(t, dir, 10)
	ct, err := d.CompileTransform("rows", keyedSheet)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := ct.OpenCursor(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Next(); !errors.Is(err, ErrDatabaseClosed) {
		t.Fatalf("cursor after Close: %v", err)
	}
	d2, err := Open(WithDir(dir))
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	defer d2.Close()
	if got := runKeyed(t, d2); len(got) != 10 {
		t.Fatalf("recovered %d rows, want 10", len(got))
	}
}

// TestConcurrentCloseAndCursors races Close against cursor traffic: every
// cursor either drains cleanly (io.EOF) or observes ErrDatabaseClosed —
// never a panic, never a torn row.
func TestConcurrentCloseAndCursors(t *testing.T) {
	d := newKeyedDB(t, 200)
	ct, err := d.CompileTransform("rows", keyedSheet)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func() {
			for {
				cur, err := ct.OpenCursor(context.Background())
				if err != nil {
					if errors.Is(err, ErrDatabaseClosed) {
						done <- nil
						return
					}
					done <- err
					return
				}
				for {
					_, err := cur.Next()
					if err == io.EOF {
						break
					}
					if err != nil {
						cur.Close()
						if errors.Is(err, ErrDatabaseClosed) {
							done <- nil
						} else {
							done <- err
						}
						return
					}
				}
				cur.Close()
			}
		}()
	}
	d.Close()
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatalf("worker saw unexpected error: %v", err)
		}
	}
}

// TestGroupCommitPolicies: the database works identically under every fsync
// policy; only the durability guarantee differs.
func TestGroupCommitPolicies(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncInterval, SyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			d := newDurableKeyedDB(t, dir, 30, WithSyncPolicy(policy), WithSyncEvery(8))
			want := runKeyed(t, d)
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			d2, err := Open(WithDir(dir))
			if err != nil {
				t.Fatal(err)
			}
			defer d2.Close()
			// Close syncs whatever the policy, so a clean shutdown always
			// recovers everything.
			got := runKeyed(t, d2)
			if len(got) != len(want) {
				t.Fatalf("%s: recovered %d rows, want %d", policy, len(got), len(want))
			}
		})
	}
}

// BenchmarkDurableInsert is what durability costs: 1 000 facade Inserts
// (one statement each) into an in-memory database, then into a logged one
// under each fsync policy, opening and closing the log; replay reopens a
// 1 000-insert log. EXPERIMENTS.md "Durable insert cost" has a run.
func BenchmarkDurableInsert(b *testing.B) {
	const rows = 1000
	fill := func(b *testing.B, d *Database) {
		if err := d.CreateTable("wal_bench",
			TableColumn{Name: "id", Type: IntCol},
			TableColumn{Name: "name", Type: StringCol}); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			if err := d.Insert("wal_bench", int64(i), fmt.Sprintf("payload-%06d", i)); err != nil {
				b.Fatal(err)
			}
		}
	}
	open := func(b *testing.B, opts ...OpenOption) *Database {
		d, err := Open(opts...)
		if err != nil {
			b.Fatal(err)
		}
		return d
	}
	b.Run("memory", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fill(b, NewDatabase())
		}
	})
	for _, p := range []struct {
		name string
		opts []OpenOption
	}{
		{"never", []OpenOption{WithSyncPolicy(SyncNever)}},
		{"interval-16", []OpenOption{WithSyncPolicy(SyncInterval), WithSyncEvery(16)}},
		{"always", []OpenOption{WithSyncPolicy(SyncAlways)}},
	} {
		b.Run(p.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d := open(b, append([]OpenOption{WithDir(b.TempDir())}, p.opts...)...)
				fill(b, d)
				if err := d.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("replay", func(b *testing.B) {
		dir := b.TempDir()
		d := open(b, WithDir(dir), WithSyncPolicy(SyncNever))
		fill(b, d)
		if err := d.Close(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d := open(b, WithDir(dir))
			if got := d.RecoveryStats().Records; got != rows+1 {
				b.Fatalf("replayed %d records, want %d", got, rows+1)
			}
			if err := d.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
