package relstore

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"testing"
	"time"
)

// lookup is one probe through the join's descent: the ids below n of key's
// run, ascending (nil when there are none).
func lookup[K key](bt *BTree[K], key K, n int) []int {
	keys := []K{key}
	var leaf, pos [1]int32
	bt.seek(keys, leaf[:], pos[:])
	return bt.appendRun(nil, leaf[0], pos[0], key, n)
}

// distinctKeys counts the keys the tree holds.
func distinctKeys[K key](bt *BTree[K]) int {
	n, first := 0, true
	var last K
	bt.AscendAll(func(k K, _ int) bool {
		if first || cmp.Compare(k, last) != 0 {
			n++
		}
		first, last = false, k
		return true
	})
	return n
}

// fuzzMaxRows bounds one FuzzBTreeVsModel input: enough pairs for a tree
// three levels deep, whether loaded or inserted.
const fuzzMaxRows = 6000

// fuzzMaxSnaps bounds the snapshots one input pins: each is checked in full.
const fuzzMaxSnaps = 8

// fuzzKey is the cell op byte b stands for in a column of type typ: 15 is
// NULL; on FLOAT 14 is NaN, 13 is -0 (the key 0, as 7 is) and 10..12 are
// x.5 values; on VARCHAR 0 is the empty string.
func fuzzKey(typ ColType, b byte) Value {
	switch {
	case b == 15:
		return nil
	case typ == IntCol:
		return int64(b) - 7
	case typ == FloatCol && b == 14:
		return math.NaN()
	case typ == FloatCol && b == 13:
		return math.Copysign(0, -1)
	case typ == FloatCol && b >= 10:
		return float64(b) - 9.5
	case typ == FloatCol:
		return float64(b) - 7
	case b == 0:
		return ""
	}
	return "k" + strconv.Itoa(int(b))
}

// FuzzBTreeVsModel holds the B+-tree to a sorted (key, id) slice. Each op
// byte below 0xfe inserts a run of up to 226 rows with one key (op%16 picks
// the key, op/16 the length), so runs straddle leaves and internal nodes;
// 0xff pins a snapshot (up to fuzzMaxSnaps); 0xfe creates the index, loading it in one step over
// the rows so far, unless it exists. Without bulk the index exists before
// the first insert. Keys are INT, FLOAT (NaN among them) or VARCHAR. At each
// pinned snapshot it checks single probes and the join's batched probe, and
// IndexIDs over open, inclusive and exclusive bounds with and without the
// NaN key; over the final tree, the order of Range and AscendAll.
func FuzzBTreeVsModel(f *testing.F) {
	heavy := make([]byte, 0, 64)
	for i := range 60 {
		heavy = append(heavy, byte(0xe0+i%3)) // three keys, 197 rows a run
		if i%15 == 7 {
			heavy = append(heavy, 0xff)
		}
	}
	loaded := append(append(append([]byte{}, heavy[:30]...), 0xfe, 0xff), heavy[30:]...)
	f.Add(heavy, byte(IntCol), false)
	f.Add(loaded, byte(IntCol), true)
	f.Add(loaded, byte(FloatCol), true)
	f.Add([]byte{0x3e, 0x31, 0xfe, 0x5e, 0xff, 0x7a, 0x2f, 0x90, 0xff}, byte(FloatCol), true)
	f.Add(append([]byte{0x10, 0x2f, 0xff}, loaded...), byte(StringCol), true)
	f.Add([]byte{0xff, 0xfe}, byte(StringCol), false)
	f.Fuzz(func(t *testing.T, ops []byte, typ byte, bulk bool) {
		kType := ColType(typ % 3)
		tab, err := NewTable("t", Column{Name: "k", Type: kType})
		if err != nil {
			t.Fatal(err)
		}
		if !bulk {
			if err := tab.CreateIndex("k"); err != nil {
				t.Fatal(err)
			}
		}
		var cells []Value
		var snaps []*TableSnap
		for _, op := range ops {
			switch op {
			case 0xff:
				if len(snaps) < fuzzMaxSnaps {
					snaps = append(snaps, tab.Snap())
				}
			case 0xfe:
				if err := tab.CreateIndex("k"); err != nil {
					t.Fatal(err)
				}
			default:
				v := fuzzKey(kType, op%16)
				for range 1 + int(op/16)*int(op/16) {
					if len(cells) == fuzzMaxRows {
						break
					}
					if _, err := tab.Insert(v); err != nil {
						t.Fatal(err)
					}
					cells = append(cells, v)
				}
			}
		}
		if err := tab.CreateIndex("k"); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, tab.Snap())
		var domain []Value // every key, and one no row holds
		for b := range byte(15) {
			domain = append(domain, fuzzKey(kType, b))
		}
		switch kType {
		case IntCol:
			checkTree[int64](t, tab, snaps, cells, append(domain, int64(100)))
		case FloatCol:
			checkTree[float64](t, tab, snaps, cells, append(domain, 99.5))
		default:
			checkTree[string](t, tab, snaps, cells, append(domain, "zz"))
		}
	})
}

// checkTree compares tab's index with the model: cells, the column's
// values by row id.
func checkTree[K key](t *testing.T, tab *Table, snaps []*TableSnap, cells []Value, domain []Value) {
	t.Helper()
	bt := tab.indexes["k"].(*BTree[K])
	// The model: every non-NULL pair, by key as cmp.Compare orders keys (a
	// NaN first), then by id.
	var model []btPair[K]
	for id, v := range cells {
		if v != nil {
			model = append(model, btPair[K]{v.(K), id})
		}
	}
	slices.SortStableFunc(model, func(a, b btPair[K]) int { return cmp.Compare(a.key, b.key) })
	isNaN := func(k K) bool { return k != k }
	nans := 0 // the NaN pairs lead the model
	for nans < len(model) && isNaN(model[nans].key) {
		nans++
	}
	var got []btPair[K]
	bt.AscendAll(func(k K, id int) bool {
		got = append(got, btPair[K]{k, id})
		return true
	})
	if !samePairs(got, model) {
		t.Fatalf("AscendAll: %d pairs, want %d; first difference at %d", len(got), len(model), firstDiff(got, model))
	}

	// Bounds: open, and inclusive and exclusive at two keys (never a NaN,
	// which the planner does not fold into an interval). A bound cuts the
	// model's numbers (or strings) at one place: below it is the pairs
	// before that place.
	bounds := []Bound{UnboundedBound}
	for _, v := range []Value{domain[4], domain[len(domain)-5]} {
		bounds = append(bounds, Bound{Value: v, Inclusive: true}, Bound{Value: v})
	}
	cut := func(b Bound, open int, high bool) int {
		if b.Unbounded {
			return open
		}
		return nans + sort.Search(len(model)-nans, func(i int) bool {
			c := CompareValues(model[nans+i].key, b.Value)
			return c > 0 || c == 0 && b.Inclusive != high
		})
	}
	segment := func(lo, hi Bound) []btPair[K] {
		from, to := cut(lo, nans, false), cut(hi, len(model), true)
		return model[from:max(from, to)]
	}
	for _, lo := range bounds {
		for _, hi := range bounds {
			var got []btPair[K]
			bt.Range(lo, hi, func(k K, id int) bool {
				got = append(got, btPair[K]{k, id})
				return true
			})
			if want := segment(lo, hi); !samePairs(got, want) {
				t.Fatalf("Range(%+v, %+v): %d pairs, want %d; first difference at %d", lo, hi, len(got), len(want), firstDiff(got, want))
			}
		}
	}

	outerTab, err := NewTable("outer", Column{Name: "k", Type: colTypeOf[K]()})
	if err != nil {
		t.Fatal(err)
	}
	outerIDs := make([]int, 0, len(domain)+1)
	for _, v := range append(domain, nil) {
		id, err := outerTab.Insert(v)
		if err != nil {
			t.Fatal(err)
		}
		outerIDs = append(outerIDs, id)
	}
	outer := outerTab.Snap()
	committed := func(pairs []btPair[K], n int) []int {
		var ids []int
		for _, p := range pairs {
			if p.id < n {
				ids = append(ids, p.id)
			}
		}
		slices.Sort(ids)
		return ids
	}
	for si, s := range snaps {
		n := s.NumRows()
		// Single probes, and the join's batched probe of every key: a
		// number's run takes the NaN rows too; a NaN or NULL key is left to
		// the caller.
		var gr Groups
		gr.reset(len(outerIDs))
		bt.appendRuns(&outer.cols[0], outerIDs, n, &gr)
		for i, v := range append(domain, nil) {
			var run, joined []int
			if v != nil {
				k := v.(K)
				from, _ := slices.BinarySearchFunc(model, k, func(p btPair[K], k K) int { return cmp.Compare(p.key, k) })
				to := from
				for to < len(model) && cmp.Compare(model[to].key, k) == 0 {
					to++
				}
				run = committed(model[from:to], n)
				if got := lookup(bt, k, n); !slices.Equal(got, run) {
					t.Fatalf("snapshot %d (%d rows): probe %v = %v, want %v", si, n, v, got, run)
				}
				if !isNaN(k) {
					joined = committed(append(model[from:to:to], model[:nans]...), n)
				}
			}
			if !slices.Equal(gr.Runs[i], joined) {
				t.Fatalf("snapshot %d (%d rows): join probe %v = %v, want %v", si, n, v, gr.Runs[i], joined)
			}
		}
		for _, lo := range bounds {
			for _, hi := range bounds {
				for _, nan := range []bool{false, true} {
					want := segment(lo, hi)
					if nan {
						want = append(want[:len(want):len(want)], model[:nans]...)
					}
					if got, want := s.IndexIDs(nil, "k", lo, hi, nan), committed(want, n); !slices.Equal(got, want) {
						t.Fatalf("snapshot %d (%d rows): IndexIDs(%+v, %+v, nan=%v) = %v, want %v", si, n, lo, hi, nan, got, want)
					}
				}
			}
		}
	}
}

// samePairs compares pairs, a NaN key equal to a NaN key.
func samePairs[K key](a, b []btPair[K]) bool { return len(a) == len(b) && firstDiff(a, b) == len(a) }

func firstDiff[K key](a, b []btPair[K]) int {
	for i := range min(len(a), len(b)) {
		if cmp.Compare(a[i].key, b[i].key) != 0 || a[i].id != b[i].id {
			return i
		}
	}
	return min(len(a), len(b))
}

// BenchmarkIndexJoin times the index join's probes as lib_scan makes them:
// 200 ascending outer keys into a 200 000-row inner table whose unique keys
// were inserted in a seeded random order before CreateIndex ran, so every
// descent goes to a different, cold part of the tree. Each run first sweeps
// a 3 MB buffer through the cache. batch=b hands the join b keys per call,
// which it descends together.
func BenchmarkIndexJoin(b *testing.B) {
	const rows, probes = 200_000, 200
	inner, err := NewTable("emp", Column{Name: "deptno", Type: IntCol})
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range rand.New(rand.NewSource(1)).Perm(rows) {
		if _, err := inner.Insert(int64(k)); err != nil {
			b.Fatal(err)
		}
	}
	start := time.Now()
	if err := inner.CreateIndex("deptno"); err != nil {
		b.Fatal(err)
	}
	b.Logf("CreateIndex over %d shuffled keys: %v", rows, time.Since(start))
	outerTab, err := NewTable("dept", Column{Name: "deptno", Type: IntCol})
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]int, probes)
	for i := range ids {
		if ids[i], err = outerTab.Insert(int64(i * rows / probes)); err != nil {
			b.Fatal(err)
		}
	}
	outer := outerTab.Snap()
	sweep := make([]byte, 3<<20)
	for _, batch := range []int{1, 4, 16} {
		b.Run("batch="+strconv.Itoa(batch), func(b *testing.B) {
			j := PlanGroupJoin(inner.Snap(), "deptno", nil)
			var groups Groups
			var stats Stats
			var elapsed time.Duration
			for range b.N {
				for i := range sweep {
					sweep[i]++
				}
				t0 := time.Now()
				for lo := 0; lo < probes; lo += batch {
					keys := Keys{Table: outer, Ord: 0, IDs: ids[lo:min(lo+batch, probes)]}
					if err := j.Join(keys, &groups, &stats, nil); err != nil {
						b.Fatal(err)
					}
				}
				elapsed += time.Since(t0)
			}
			b.ReportMetric(float64(elapsed.Nanoseconds())/float64(b.N*probes), "ns/probe")
			b.ReportMetric(float64(stats.IndexProbes)/float64(b.N), "probes/op")
		})
	}
}
