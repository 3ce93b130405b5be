package relstore

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultpoint"
	"repro/internal/governor"
)

// mkBigTable builds an n-row table with an id column and a low-cardinality
// v column for selective predicates.
func mkBigTable(t *testing.T, n int) *Table {
	t.Helper()
	tab, err := NewTable("big", Column{"id", IntCol}, Column{"v", IntCol})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		mustInsert(t, tab, int64(i), int64(rng.Intn(1000)))
	}
	return tab
}

// drainBatches pulls a BatchIterator dry, returning the emitted ids and the
// observed batch sizes.
func drainBatches(t *testing.T, it BatchIterator, size int) ([]int, []int) {
	t.Helper()
	b := GetBatch(size)
	defer PutBatch(b)
	var ids, sizes []int
	for {
		n, ok := it.NextBatch(b)
		if !ok {
			if n != 0 {
				t.Fatalf("NextBatch returned n=%d with ok=false", n)
			}
			return ids, sizes
		}
		if n == 0 || n != b.Len() {
			t.Fatalf("NextBatch n=%d, batch.Len()=%d", n, b.Len())
		}
		sizes = append(sizes, n)
		ids = append(ids, b.IDs...)
	}
}

// TestBatchScanChunking: a scan over n rows emits ceil(n/size) full batches
// and the ids in heap order, each naming the row the table holds there.
func TestBatchScanChunking(t *testing.T) {
	tab := mkBigTable(t, 2500)
	it := openScan(tab, nil, nil, nil, BatchOpts{BatchSize: 1000, Workers: 1})
	b := GetBatch(1000)
	defer PutBatch(b)
	var total int
	wantSizes := []int{1000, 1000, 500}
	for i := 0; ; i++ {
		n, ok := it.NextBatch(b)
		if !ok {
			break
		}
		if i >= len(wantSizes) || n != wantSizes[i] {
			t.Fatalf("batch %d size = %d, want %v", i, n, wantSizes)
		}
		for j := 0; j < n; j++ {
			if b.IDs[j] != total+j {
				t.Fatalf("batch %d id[%d] = %d, want %d", i, j, b.IDs[j], total+j)
			}
			if got := tab.Value(b.IDs[j], "id"); got != int64(total+j) {
				t.Fatalf("cell of id %d = %v", total+j, got)
			}
		}
		total += n
	}
	if total != 2500 {
		t.Fatalf("total rows = %d", total)
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchDrainDeterministic: two independent opens of the same plan yield
// the identical id sequence — the contract the retired per-row adapter used
// to be checked against, now asserted batch-to-batch.
func TestBatchDrainDeterministic(t *testing.T) {
	tab := mkBigTable(t, 3000)
	preds := []Pred{{Col: "v", Op: CmpLt, Val: int64(500)}}
	wantIDs, _ := drainBatches(t, openPlan(tab, preds, nil, nil, BatchOpts{Workers: 1}), 0)
	got := collect(openPlan(tab, preds, nil, nil, BatchOpts{Workers: 1}))
	if len(got) != len(wantIDs) {
		t.Fatalf("second drain %d rows vs first %d", len(got), len(wantIDs))
	}
	for i := range got {
		if got[i] != wantIDs[i] {
			t.Fatalf("row %d: second drain %d vs first %d", i, got[i], wantIDs[i])
		}
	}
}

// TestMorselScanMatchesSerial: the morsel pool must emit exactly the serial
// scan's id sequence (the ordering guarantee the byte-identity of the whole
// pipeline rests on), across batch sizes and worker counts, over a full scan
// and over an index range alike.
func TestMorselScanMatchesSerial(t *testing.T) {
	tab := mkBigTable(t, MorselMinRows*2+777) // big enough to go parallel
	if err := tab.CreateIndex("id"); err != nil {
		t.Fatal(err)
	}
	for _, preds := range [][]Pred{
		{{Col: "v", Op: CmpGe, Val: int64(700)}},                                        // full scan
		{{Col: "id", Op: CmpGe, Val: int64(5)}, {Col: "v", Op: CmpLt, Val: int64(900)}}, // index range
	} {
		serial, _ := drainBatches(t, openPlan(tab, preds, nil, nil, BatchOpts{Workers: 1}), 0)
		for _, workers := range []int{2, 4, 8} {
			for _, size := range []int{0, 64, 4096} {
				stats := &Stats{}
				got, _ := drainBatches(t, openPlan(tab, preds, stats, nil, BatchOpts{Workers: workers, BatchSize: size}), size)
				if !slices.Equal(got, serial) {
					t.Fatalf("%v workers=%d size=%d: %d rows differ from the serial %d", preds, workers, size, len(got), len(serial))
				}
				if stats.Morsels == 0 {
					t.Fatalf("%v workers=%d: expected morsel execution, stats=%+v", preds, workers, stats)
				}
			}
		}
	}
}

// TestParallelLookaheadIsBounded: a consumer that pulls one batch and stops
// leaves at most the window of morsels scanned — the workers wait for it
// instead of buffering the whole table — and closing the scan leaves no
// worker behind.
func TestParallelLookaheadIsBounded(t *testing.T) {
	const workers = 4
	tab := mkBigTable(t, 32*morselRows)
	before := runtime.NumGoroutine()
	stats := &Stats{}
	m := openScan(tab, nil, stats, nil, BatchOpts{Workers: workers}).(*Morsels[struct{}])
	b := GetBatch(0)
	defer PutBatch(b)
	if _, ok := m.NextBatch(b); !ok {
		t.Fatal(m.Err())
	}
	window := morselWindow * workers
	// Idle: every morsel the window allows is claimed and done.
	for idle := false; !idle; {
		runtime.Gosched()
		m.mu.Lock()
		idle = m.next == m.head+len(m.slots)
		for i := m.head; idle && i < m.next; i++ {
			idle = m.slots[i%len(m.slots)].done
		}
		m.mu.Unlock()
	}
	if n := atomic.LoadInt64(&stats.Morsels); n > int64(window) {
		t.Fatalf("one pulled batch let the workers scan %d morsels, window %d", n, window)
	}
	m.Close()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the scan", runtime.NumGoroutine(), before)
		}
	}
}

// jobFunc is a function as a MorselJob.
type jobFunc[T any] func(w int, ids []int, out *T) error

func (f jobFunc[T]) RunMorsel(w int, ids []int, out *T) error { return f(w, ids, out) }

// TestMorselJobPanicIsContained: a panic in a job — on a worker goroutine,
// where nothing above the pool could recover it — ends the scan with a
// *PanicError from the pull that reaches its morsel, after every earlier
// morsel was delivered, and no worker keeps running.
func TestMorselJobPanicIsContained(t *testing.T) {
	tab := mkBigTable(t, 8*morselRows)
	ts := tab.Snap()
	job := func(_ int, ids []int, out *int) error {
		if ids[0] >= 5*morselRows {
			panic("boom")
		}
		*out = len(ids)
		return nil
	}
	m, _ := OpenMorsels[int](nil, FullScanPlanAt(ts, nil), ts, nil, nil, BatchOpts{Workers: 4}, jobFunc[int](job))
	rows := 0
	for {
		r, ok := m.Next()
		if !ok {
			break
		}
		rows += len(r.IDs)
	}
	var pe *PanicError
	if !errors.As(m.Err(), &pe) || pe.Value != "boom" || !strings.Contains(m.Err().Error(), "worker panic") {
		t.Fatalf("Err() = %v, want the job's panic", m.Err())
	}
	if rows != 5*morselRows {
		t.Fatalf("%d rows delivered before the panic, want the %d of the morsels before it", rows, 5*morselRows)
	}
}

// TestBatchFaultSurfacesViaErr: a fault injected at the batch fetch site
// must surface through Err(), never truncate the stream silently — for the
// serial scan, the morsel scan, and the index path.
func TestBatchFaultSurfacesViaErr(t *testing.T) {
	errBoom := errors.New("boom")
	tab := mkBigTable(t, MorselMinRows*2)
	_ = tab.CreateIndex("v")
	_ = tab.CreateIndex("id")

	cases := []struct {
		name string
		site string
		open func() BatchIterator
	}{
		{"serial-scan", "relstore.scan.batch", func() BatchIterator {
			return openScan(tab, nil, nil, nil, BatchOpts{Workers: 1, BatchSize: 512})
		}},
		{"morsel-scan", "relstore.scan.batch", func() BatchIterator {
			return openScan(tab, nil, nil, nil, BatchOpts{Workers: 4, BatchSize: 512})
		}},
		{"index-scan", "relstore.index.batch", func() BatchIterator {
			preds := []Pred{{Col: "v", Op: CmpGe, Val: int64(100)}}
			return openPlan(tab, preds, nil, nil, BatchOpts{Workers: 1, BatchSize: 512})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			faultpoint.EnableAfter(tc.site, 2, errBoom) // fail on the 3rd batch pull
			defer faultpoint.Reset()
			it := tc.open()
			ids, _ := drainBatches(t, it, 512)
			if !errors.Is(it.Err(), errBoom) {
				t.Fatalf("Err() = %v, want the injected fault", it.Err())
			}
			if len(ids) == 0 || len(ids) >= tab.NumRows() {
				t.Fatalf("fault neither mid-stream nor surfaced: %d of %d rows", len(ids), tab.NumRows())
			}
		})
	}
}

// TestBatchGovernorCancel: cancelling the governor mid-scan stops both the
// serial and the morsel producer with ErrCanceled.
func TestBatchGovernorCancel(t *testing.T) {
	tab := mkBigTable(t, MorselMinRows*4)
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		g := governor.New(ctx)
		it := openScan(tab, nil, nil, g, BatchOpts{Workers: workers, BatchSize: 256})
		b := GetBatch(256)
		if _, ok := it.NextBatch(b); !ok {
			t.Fatalf("workers=%d: first batch failed: %v", workers, it.Err())
		}
		cancel()
		for {
			if _, ok := it.NextBatch(b); !ok {
				break
			}
		}
		PutBatch(b)
		if !errors.Is(it.Err(), governor.ErrCanceled) {
			t.Fatalf("workers=%d: Err() = %v, want ErrCanceled", workers, it.Err())
		}
	}
}

// TestBatchScanConcurrentInsert is the -race regression for the snapshot
// scan: a full scan races Insert calls appending rows. The scan must never
// crash or trip the race detector (the rows-header snapshot is read
// lock-free), and every row that existed when the scan started must appear.
func TestBatchScanConcurrentInsert(t *testing.T) {
	const base = MorselMinRows * 2
	tab := mkBigTable(t, base)
	for _, workers := range []int{1, 4} {
		var wg sync.WaitGroup
		stop := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := tab.Insert(int64(1_000_000+i), int64(i%1000)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		it := openScan(tab, nil, nil, nil, BatchOpts{Workers: workers, BatchSize: 512})
		ids, _ := drainBatches(t, it, 512)
		close(stop)
		wg.Wait()
		if err := it.Err(); err != nil {
			t.Fatalf("workers=%d: scan failed racing inserts: %v", workers, err)
		}
		if len(ids) < base {
			t.Fatalf("workers=%d: scan lost rows: %d < %d", workers, len(ids), base)
		}
		for i := 0; i < len(ids); i++ {
			if ids[i] != i {
				t.Fatalf("workers=%d: id[%d] = %d — order broken", workers, i, ids[i])
			}
		}
	}
}

// TestBatchStatsCounters: the batch producers keep the physical counters
// honest — RowsScanned covers every visited row, Batches counts emissions,
// and the realized batch size is bounded by the requested one.
func TestBatchStatsCounters(t *testing.T) {
	tab := mkBigTable(t, 3000)
	preds := []Pred{{Col: "v", Op: CmpLt, Val: int64(200)}}
	stats := &Stats{}
	it := openPlan(tab, preds, stats, nil, BatchOpts{BatchSize: 128, Workers: 1})
	ids, sizes := drainBatches(t, it, 128)
	if stats.RowsScanned != 3000 {
		t.Fatalf("RowsScanned = %d", stats.RowsScanned)
	}
	if stats.RowsEmitted != int64(len(ids)) {
		t.Fatalf("RowsEmitted = %d, emitted %d", stats.RowsEmitted, len(ids))
	}
	if stats.RowsFiltered != 3000-int64(len(ids)) {
		t.Fatalf("RowsFiltered = %d", stats.RowsFiltered)
	}
	if stats.Batches != int64(len(sizes)) {
		t.Fatalf("Batches = %d, saw %d", stats.Batches, len(sizes))
	}
	for _, n := range sizes {
		if n > 128 {
			t.Fatalf("batch of %d exceeds requested size 128", n)
		}
	}
	snap := stats.Snapshot()
	if snap.Batches != stats.Batches || snap.Morsels != stats.Morsels {
		t.Fatal("Snapshot missing batch counters")
	}
	var agg Stats
	agg.Add(stats)
	if agg.Batches != stats.Batches {
		t.Fatal("Add missing batch counters")
	}
}

// TestTickNBoundary: TickN must perform a full check whenever the charge
// crosses a 64-tick boundary, regardless of n, and stay sticky after a
// verdict.
func TestTickNBoundary(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := governor.New(ctx)
	if err := g.TickN(10_000); err != nil { // crosses many boundaries: full check
		t.Fatal(err)
	}
	cancel()
	if err := g.TickN(1); err == nil {
		// One more small charge may not cross a boundary; a big one must.
		if err := g.TickN(64); err == nil {
			t.Fatal("TickN(64) after cancel must detect cancellation")
		}
	}
	if err := g.TickN(0); !errors.Is(err, governor.ErrCanceled) {
		t.Fatalf("sticky error not returned on n=0: %v", err)
	}
	var nilG *governor.G
	if err := nilG.TickN(100); err != nil {
		t.Fatal("nil governor must no-op")
	}
}
