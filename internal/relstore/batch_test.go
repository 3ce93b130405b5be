package relstore

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

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
// and the ids in heap order, with row references matching the table.
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
			if b.Rows[j][0] != int64(total+j) {
				t.Fatalf("row ref mismatch at id %d", total+j)
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

// TestMorselScanMatchesSerial: the morsel-parallel scan must emit exactly
// the serial scan's id sequence (the ordering guarantee the byte-identity
// of the whole pipeline rests on), across batch sizes and worker counts.
func TestMorselScanMatchesSerial(t *testing.T) {
	tab := mkBigTable(t, MorselMinRows*2+777) // big enough to go parallel
	preds := []Pred{{Col: "v", Op: CmpGe, Val: int64(700)}}
	serial, _ := drainBatches(t, openPlan(tab, preds, nil, nil, BatchOpts{Workers: 1}), 0)
	for _, workers := range []int{2, 4, 8} {
		for _, size := range []int{0, 64, 4096} {
			stats := &Stats{}
			it := openPlan(tab, preds, stats, nil, BatchOpts{Workers: workers, BatchSize: size})
			got, _ := drainBatches(t, it, size)
			if len(got) != len(serial) {
				t.Fatalf("workers=%d size=%d: %d rows vs serial %d", workers, size, len(got), len(serial))
			}
			for i := range got {
				if got[i] != serial[i] {
					t.Fatalf("workers=%d size=%d: row %d is %d, want %d", workers, size, i, got[i], serial[i])
				}
			}
			if stats.Morsels == 0 {
				t.Fatalf("workers=%d: expected morsel execution, stats=%+v", workers, stats)
			}
			if it.Explain() != PlanAccessAt(tab.Snap(), preds).Explain(tab) {
				t.Fatalf("morsel Explain drifted: %s", it.Explain())
			}
		}
	}
}

// TestMorselScanReset: Reset rewinds to a fresh scan that produces the same
// output again.
func TestMorselScanReset(t *testing.T) {
	tab := mkBigTable(t, MorselMinRows*2)
	it := openScan(tab, nil, nil, nil, BatchOpts{Workers: 4})
	first, _ := drainBatches(t, it, 0)
	it.Reset()
	second, _ := drainBatches(t, it, 0)
	if len(first) != len(tab.rows) || len(second) != len(first) {
		t.Fatalf("reset scan: %d then %d rows, want %d", len(first), len(second), len(tab.rows))
	}
}

// TestBatchFaultSurfacesViaErr: a fault injected at the batch fetch site
// must surface through Err(), never truncate the stream silently — for the
// serial scan, the morsel scan, and the index path.
func TestBatchFaultSurfacesViaErr(t *testing.T) {
	errBoom := errors.New("boom")
	tab := mkBigTable(t, MorselMinRows*2)
	_ = tab.CreateIndex("v")

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
