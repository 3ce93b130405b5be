package main

import (
	"fmt"
	"math/rand"
	"sort"
)

// gen.go produces every input the benchmark feeds the program — table rows
// and request sequences — from the seed alone. Cardinalities, field widths
// and the share of qualifying rows are fixed by the sizes, not by the seed,
// so two seeds give different data and different request orders but the same
// amount of work per operation; only then can runs with different seeds be
// compared with each other.

// sizes fixes the scale of every data set. fullSizes is the benchmark;
// tinySizes exists so the tests can run every workload in a few seconds.
type sizes struct {
	Depts, EmpsPerDept int // dept_emp of serve_hit, serve_miss and mixed_rw
	HitKeys            int // distinct request keys of the cache-friendly set
	ScanRows, ScanVals int // lib_scan driving table and distinct filter values
	ScanKeys           int
	SalesRows          int // paper_figs sales rows (Fig. 2 and Fig. 3)
	WordsRows          int
	ColdCompiles       int // the traced pass compiles 40 × ColdCompiles times, stage by stage
	SeqLen             int // pre-generated request sequence length (cycled)
	CountedOps         int // operations in the exact-count pass of a traced run
	ProbeN             int // repetitions of each micro-probe of a traced run
}

var fullSizes = sizes{
	Depts: 2000, EmpsPerDept: 20, HitKeys: 64,
	ScanRows: 200000, ScanVals: 1000, ScanKeys: 64,
	SalesRows: 16000, WordsRows: 200, ColdCompiles: 5,
	SeqLen: 1 << 16, CountedOps: 256, ProbeN: 400,
}

var tinySizes = sizes{
	Depts: 200, EmpsPerDept: 4, HitKeys: 16,
	ScanRows: 20000, ScanVals: 100, ScanKeys: 8,
	SalesRows: 400, WordsRows: 30, ColdCompiles: 1,
	SeqLen: 1 << 10, CountedOps: 32, ProbeN: 20,
}

// stream returns the generator of one named input stream of a seed, so that
// adding a stream never shifts the values another stream draws.
func stream(seed int64, name string) *rand.Rand {
	return rand.New(rand.NewSource(seed ^ int64(fnvAddString(fnvOffset, name))))
}

func letters(r *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('A' + r.Intn(26))
	}
	return string(b)
}

type deptRow struct {
	Deptno     int64
	Dname, Loc string
	Val        int64
}

type empRow struct {
	Empno      int64
	Ename, Job string
	Sal        int64
	Deptno     int64
}

// deptEmp is the paper's dept/emp schema at scale. Half the employees of
// every department (rounded up) earn more than 2000, which is what
// PaperStylesheet selects, and every text field has a fixed width, so a
// department renders to the same number of bytes under every seed.
type deptEmp struct {
	Depts []deptRow
	Emps  []empRow
}

var jobs = []string{"CLERK", "SALES", "ADMIN", "CHIEF", "STAFF"}

// firstGenEmpno numbers generated employees; inserted ones (mixed_rw and the
// insert phases) start at firstInsertEmpno, so an oracle can tell them apart.
const (
	firstGenEmpno    = 100000
	firstInsertEmpno = 1000000
)

// genDeptEmp generates depts departments of empsPer employees. vals > 0 adds
// the unindexed filter column of lib_scan: every value 0..vals-1 is carried
// by exactly depts/vals departments, scattered by the seed.
func genDeptEmp(seed int64, depts, empsPer, vals int) *deptEmp {
	r := stream(seed, "deptemp")
	d := &deptEmp{Depts: make([]deptRow, depts), Emps: make([]empRow, 0, depts*empsPer)}
	var valOf []int
	if vals > 0 {
		valOf = r.Perm(depts)
	}
	high := (empsPer + 1) / 2
	for i := range d.Depts {
		row := deptRow{Deptno: int64(i + 1), Dname: "D" + letters(r, 7), Loc: letters(r, 8)}
		if vals > 0 {
			row.Val = int64(valOf[i] % vals)
		}
		d.Depts[i] = row
		for _, slot := range r.Perm(empsPer) {
			sal := int64(1000 + r.Intn(1001)) // 1000..2000: not selected
			if slot < high {
				sal = int64(2001 + r.Intn(7999)) // 2001..9999: selected
			}
			d.Emps = append(d.Emps, empRow{
				Empno: int64(firstGenEmpno + len(d.Emps)), Ename: letters(r, 8),
				Job: jobs[r.Intn(len(jobs))], Sal: sal, Deptno: row.Deptno,
			})
		}
	}
	// Insert employees in a scattered order, as a table filled over time
	// would be, rather than clustered by department.
	r.Shuffle(len(d.Emps), func(i, j int) { d.Emps[i], d.Emps[j] = d.Emps[j], d.Emps[i] })
	return d
}

// hash fingerprints the generated rows in insertion order.
func (d *deptEmp) hash() uint64 {
	h := uint64(fnvOffset)
	for _, x := range d.Depts {
		h = fnvAddString(h, fmt.Sprintf("%d|%s|%s|%d\n", x.Deptno, x.Dname, x.Loc, x.Val))
	}
	for _, e := range d.Emps {
		h = fnvAddString(h, fmt.Sprintf("%d|%s|%s|%d|%d\n", e.Empno, e.Ename, e.Job, e.Sal, e.Deptno))
	}
	return h
}

// window is one request key of the dept_emp workloads: departments
// [Lo, Hi) by deptno.
type window struct{ Lo, Hi int64 }

// windowSizes are the 10/25/50-department windows of the full-size data,
// scaled with the table so that tiny data keeps three distinct sizes.
func windowSizes(depts int) [3]int {
	var out [3]int
	for i, k := range [3]int{10, 25, 50} {
		out[i] = max(1, depts*k/2000)
	}
	return out
}

// allWindows lists every window of the three sizes: the key space of
// serve_miss (5 918 keys over 2 000 departments, 23 times the result cache).
func allWindows(depts int) []window {
	var out []window
	for _, size := range windowSizes(depts) {
		for lo := 1; lo+size <= depts+1; lo++ {
			out = append(out, window{int64(lo), int64(lo + size)})
		}
	}
	return out
}

// hotWindows draws the n keys of serve_hit and mixed_rw. The size of a key
// follows from its popularity rank, not from the seed, so the mix of body
// sizes the Zipf sequence produces is the same under every seed; and no two
// keys share a department, so that mixed_rw's inserts, which join the keys'
// departments, make every seed's reads grow alike. The seed decides the order
// of the keys along the departments and the gaps between them.
func hotWindows(seed int64, n, depts int) []window {
	r := stream(seed, "hotkeys")
	sizes := windowSizes(depts)
	free := depts
	for rank := 0; rank < n; rank++ {
		free -= sizes[rank%3]
	}
	if free < 0 {
		panic("hotWindows: the keys do not fit the departments without overlap")
	}
	gaps := make([]int, n) // departments left free before each key, cumulated
	for i := range gaps {
		gaps[i] = r.Intn(free + 1)
	}
	sort.Ints(gaps)
	out := make([]window, n)
	used := 0
	for i, rank := range r.Perm(n) {
		size := sizes[rank%3]
		lo := 1 + gaps[i] + used
		out[rank] = window{int64(lo), int64(lo + size)}
		used += size
	}
	return out
}

// zipfSeq draws n key ranks from Zipf(1.1) over nkeys keys.
func zipfSeq(seed int64, nkeys, n int) []int {
	z := rand.NewZipf(stream(seed, "zipf"), 1.1, 1, uint64(nkeys-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// uniformSeq asks for each of nkeys keys equally often: shuffled passes over
// all the keys, n requests in all. Independent draws would be uniform too,
// but a run of a few thousand requests would then ask for larger keys than
// the next one by a percent or two, which is the size of the differences the
// allocation metrics are there to show.
func uniformSeq(seed int64, nkeys, n int) []int {
	r := stream(seed, "uniform")
	out := make([]int, 0, n+nkeys)
	for len(out) < n {
		out = append(out, r.Perm(nkeys)...)
	}
	return out[:n]
}

// scanKeys picks the n filter values lib_scan asks for.
func scanKeys(seed int64, n, vals int) []int64 {
	out := make([]int64, n)
	for i, v := range stream(seed, "scankeys").Perm(vals)[:n] {
		out[i] = int64(v)
	}
	return out
}

// genInserts is the writer's input: n employees, each earning more than 2000
// (so PaperStylesheet renders it), each with a unique empno from
// firstInsertEmpno up. In mixed_rw they join departments the hot keys read,
// the keys taking turns, so that readers must see them and every key has had
// the same number of them at any time. Elsewhere
// (into == nil) they join departments that do not exist, so that the writer
// costs what an insert costs and the readers' expected outputs stay valid.
func genInserts(seed int64, into []window, depts, n int) []empRow {
	r := stream(seed, "inserts")
	out := make([]empRow, n)
	turn := r.Perm(len(into))
	for i := range out {
		deptno := int64(depts + 1 + r.Intn(depts))
		if into != nil {
			w := into[turn[i%len(turn)]]
			deptno = w.Lo + int64(r.Intn(int(w.Hi-w.Lo)))
		}
		out[i] = empRow{
			Empno: int64(firstInsertEmpno + i), Ename: letters(r, 8), Job: "HIRED",
			Sal: int64(2001 + r.Intn(7999)), Deptno: deptno,
		}
	}
	return out
}

type salesRow struct {
	ID           int64
	Name, Region string
	Price, Qty   int64
}

var regions = []string{"NORTH", "SOUTH", "EAST", "WEST"}

// genSales generates the table/row data the XSLTMark cases read: ids 1..n
// in order, values in the ranges the stylesheets' predicates assume
// (price 1..1000, qty 1..50).
func genSales(seed int64, n int) []salesRow {
	r := stream(seed, "sales")
	out := make([]salesRow, n)
	for i := range out {
		out[i] = salesRow{
			ID: int64(i + 1), Name: letters(r, 5), Region: regions[r.Intn(len(regions))],
			Price: int64(1 + r.Intn(1000)), Qty: int64(1 + r.Intn(50)),
		}
	}
	return out
}

func hashSales(rows []salesRow) uint64 {
	h := uint64(fnvOffset)
	for _, s := range rows {
		h = fnvAddString(h, fmt.Sprintf("%d|%s|%s|%d|%d\n", s.ID, s.Name, s.Region, s.Price, s.Qty))
	}
	return h
}

// genWords generates the flat word list of the string-processing cases.
func genWords(seed int64, n int) []string {
	r := stream(seed, "words")
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%02d", letters(r, 5), r.Intn(100))
	}
	return out
}
