// Package wal is a segmented write-ahead log with CRC-framed records,
// pluggable fsync policies, and torn-tail crash recovery.
//
// The log is payload-agnostic: callers append (type, payload) records and
// replay them on Open. Each record is framed as
//
//	[uint32 LE length] [uint32 LE CRC-32/IEEE of type+payload] [1 type byte] [payload]
//
// where length counts the type byte plus the payload, so the minimum frame
// is 9 bytes. Segments are files named wal-00000000.log, wal-00000001.log,
// ... inside the log directory; appends roll to a new segment once the
// current one reaches Options.SegmentBytes.
//
// # Recovery
//
// Open scans the segments in order and replays every intact frame. The
// first torn frame — a short header, an implausible length, a truncated
// body, or a CRC mismatch (all of which a crash mid-write can produce) —
// ends the log: the segment is truncated back to the last intact frame
// boundary and any later segments are deleted, so the recovered state is
// exactly the committed prefix. An all-zero header (space preallocated but
// never written) is handled by the same rule, since a zero length is
// implausible.
//
// # Durability policies
//
// SyncAlways fsyncs after every append — a record acknowledged is a record
// recovered. SyncInterval fsyncs every SyncEvery appends; SyncNever leaves
// syncing to the OS. Under the relaxed policies a crash may lose the
// unsynced tail, but recovery still truncates to a clean prefix — the log
// never replays a half-written record.
//
// # Fault injection
//
// Three faultpoint sites make IO failures deterministic in tests:
//
//	wal.append — fires before the frame is written; the log writes a
//	             partial frame (a torn write, as a crash mid-write would
//	             leave) and wedges itself, forcing the reopen path
//	wal.fsync  — fires in place of fsync; the append is rolled back by
//	             truncating to the pre-append size, so the log holds the
//	             committed prefix exactly
//	wal.rotate — fires before a segment rollover
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/faultpoint"
)

// Frame layout constants.
const (
	headerBytes = 8              // length + CRC
	maxRecord   = 64 << 20       // implausible-length guard (64 MiB)
	segPattern  = "wal-%08d.log" // segment file name
	segGlob     = "wal-*.log"    // segment discovery glob
)

// DefaultSegmentBytes is the rotation threshold when Options leaves
// SegmentBytes zero.
const DefaultSegmentBytes = 4 << 20

// DefaultSyncEvery is the SyncInterval batch size when Options leaves
// SyncEvery zero.
const DefaultSyncEvery = 16

// SyncPolicy selects when appends reach stable storage.
type SyncPolicy uint8

const (
	// SyncAlways fsyncs after every append (full durability).
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs every Options.SyncEvery appends.
	SyncInterval
	// SyncNever never fsyncs explicitly; the OS flushes when it pleases.
	SyncNever
)

// String names the policy as it appears in benchmarks and docs.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	default:
		return "never"
	}
}

// Options configures a Log.
type Options struct {
	// Policy is the fsync policy (default SyncAlways).
	Policy SyncPolicy
	// SyncEvery is the append count between fsyncs under SyncInterval
	// (default DefaultSyncEvery; ignored otherwise).
	SyncEvery int
	// SegmentBytes is the rotation threshold (default DefaultSegmentBytes).
	SegmentBytes int64
	// OnAppend, when non-nil, fires after each durably-accepted append with
	// the wall time the append spent inside the log (frame write plus any
	// policy-driven fsync or rotation) — the hook the facade wires to its
	// append latency histogram. The package stays free of any
	// observability dependency; hooks carry durations, the facade decides
	// what to do with them.
	OnAppend func(time.Duration)
	// OnFsync, when non-nil, fires after each successful fsync with the
	// fsync's own wall time.
	OnFsync func(time.Duration)
}

func (o Options) segmentBytes() int64 {
	if o.SegmentBytes <= 0 {
		return DefaultSegmentBytes
	}
	return o.SegmentBytes
}

func (o Options) syncEvery() int {
	if o.SyncEvery <= 0 {
		return DefaultSyncEvery
	}
	return o.SyncEvery
}

// Errors.
var (
	// ErrClosed reports an append or sync on a closed log.
	ErrClosed = errors.New("wal: log is closed")
	// ErrWedged reports use of a log after a torn write: the on-disk tail
	// is unknown, so the only safe operation is to reopen (and recover).
	ErrWedged = errors.New("wal: log wedged by a torn write; reopen to recover")
)

// RecoverStats describes what Open's replay found.
type RecoverStats struct {
	// Records is the number of intact records replayed.
	Records int
	// TornBytes is how many trailing bytes were truncated away.
	TornBytes int64
	// SegmentsDropped is how many whole later segments were deleted after
	// a torn frame ended the log early.
	SegmentsDropped int
	// Segments is the number of live segments after recovery.
	Segments int
	// Wall is how long recovery took: the replay of every segment plus any
	// truncation and segment removal.
	Wall time.Duration
}

// Log is an append-only segmented write-ahead log. All methods are safe for
// concurrent use; appends are serialized internally.
type Log struct {
	dir  string
	opts Options

	mu        sync.Mutex
	f         *os.File
	seg       int   // current segment index
	size      int64 // current segment size (committed bytes)
	sinceSync int
	closed    bool
	wedged    bool
}

// Open recovers the log in dir — replaying every intact record through
// replay, truncating the torn tail, dropping unreachable later segments —
// and opens it for appending. The directory is created if missing. A replay
// callback error aborts Open (the callback decides whether a record that
// cannot apply is fatal).
func Open(dir string, opts Options, replay func(typ byte, payload []byte) error) (*Log, RecoverStats, error) {
	start := time.Now()
	var rs RecoverStats
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, rs, fmt.Errorf("wal: %w", err)
	}
	segs, err := segments(dir)
	if err != nil {
		return nil, rs, err
	}
	lastSeg := 0
	var lastSize int64
	torn := false
	for i, seg := range segs {
		if torn {
			// A torn frame ended the log in an earlier segment: everything
			// after it is unreachable and must not survive to confuse a
			// future recovery.
			if err := os.Remove(segPath(dir, seg)); err != nil {
				return nil, rs, fmt.Errorf("wal: dropping segment %d: %w", seg, err)
			}
			rs.SegmentsDropped++
			continue
		}
		n, committed, sawTorn, err := replaySegment(segPath(dir, seg), replay)
		if err != nil {
			return nil, rs, err
		}
		rs.Records += n
		lastSeg, lastSize = seg, committed
		if sawTorn {
			torn = true
			fi, statErr := os.Stat(segPath(dir, seg))
			if statErr == nil {
				rs.TornBytes += fi.Size() - committed
			}
			if err := os.Truncate(segPath(dir, seg), committed); err != nil {
				return nil, rs, fmt.Errorf("wal: truncating torn tail of segment %d: %w", seg, err)
			}
		}
		_ = i
	}
	if len(segs) > 0 {
		rs.Segments = len(segs) - rs.SegmentsDropped
	} else {
		rs.Segments = 1
	}
	rs.Wall = time.Since(start)
	f, err := os.OpenFile(segPath(dir, lastSeg), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, rs, fmt.Errorf("wal: %w", err)
	}
	return &Log{dir: dir, opts: opts, f: f, seg: lastSeg, size: lastSize}, rs, nil
}

// segments lists the live segment indexes in dir, ascending.
func segments(dir string) ([]int, error) {
	names, err := filepath.Glob(filepath.Join(dir, segGlob))
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []int
	for _, name := range names {
		var n int
		if _, err := fmt.Sscanf(filepath.Base(name), segPattern, &n); err == nil {
			segs = append(segs, n)
		}
	}
	sort.Ints(segs)
	return segs, nil
}

func segPath(dir string, seg int) string {
	return filepath.Join(dir, fmt.Sprintf(segPattern, seg))
}

// replaySegment replays one segment's intact frames. It returns the record
// count, the committed byte offset (the end of the last intact frame), and
// whether a torn frame ended the scan.
func replaySegment(path string, replay func(typ byte, payload []byte) error) (n int, committed int64, torn bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, false, fmt.Errorf("wal: %w", err)
	}
	off := int64(0)
	for {
		rest := data[off:]
		if len(rest) == 0 {
			return n, off, false, nil
		}
		if len(rest) < headerBytes {
			return n, off, true, nil // short header
		}
		length := binary.LittleEndian.Uint32(rest[0:4])
		crc := binary.LittleEndian.Uint32(rest[4:8])
		if length == 0 || length > maxRecord {
			return n, off, true, nil // zero or implausible length
		}
		if int64(len(rest)) < int64(headerBytes)+int64(length) {
			return n, off, true, nil // truncated body
		}
		body := rest[headerBytes : headerBytes+int64(length)]
		if crc32.ChecksumIEEE(body) != crc {
			return n, off, true, nil // corrupt frame
		}
		if replay != nil {
			if err := replay(body[0], body[1:]); err != nil {
				return n, off, false, fmt.Errorf("wal: replay record %d: %w", n, err)
			}
		}
		n++
		off += int64(headerBytes) + int64(length)
	}
}

// encodeFrame renders one record's on-disk frame.
func encodeFrame(typ byte, payload []byte) []byte {
	frame := make([]byte, headerBytes+1+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(1+len(payload)))
	frame[8] = typ
	copy(frame[9:], payload)
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(frame[8:]))
	return frame
}

// Append writes one record, rotating segments and syncing per the log's
// policy. On return without error the record is in the log (durably, under
// SyncAlways). On an fsync failure the append is rolled back by truncating
// to the pre-append size, so the file still holds exactly the committed
// prefix; on a torn write the log wedges (ErrWedged) until reopened.
func (l *Log) Append(typ byte, payload []byte) error {
	if len(payload) >= maxRecord {
		return fmt.Errorf("wal: record of %d bytes exceeds the %d-byte limit", len(payload), maxRecord)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.closed:
		return ErrClosed
	case l.wedged:
		return ErrWedged
	}
	start := time.Now()
	if l.size >= l.opts.segmentBytes() && l.size > 0 {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	frame := encodeFrame(typ, payload)
	if err := faultpoint.Hit("wal.append"); err != nil {
		// Simulate the torn write a crash mid-append leaves behind: half a
		// frame on disk, then nothing. The log is now in an unknown state
		// on disk, so it wedges until a reopen recovers it.
		_, _ = l.f.Write(frame[:len(frame)/2])
		l.wedged = true
		return err
	}
	prev := l.size
	if _, err := l.f.Write(frame); err != nil {
		// A real partial write: try to cut the file back to the committed
		// prefix; if even that fails the on-disk state is unknown — wedge.
		if terr := l.f.Truncate(prev); terr != nil {
			l.wedged = true
		}
		return fmt.Errorf("wal: append: %w", err)
	}
	l.size += int64(len(frame))
	switch l.opts.Policy {
	case SyncAlways:
		if err := l.syncLocked(prev); err != nil {
			return err
		}
	case SyncInterval:
		l.sinceSync++
		if l.sinceSync >= l.opts.syncEvery() {
			if err := l.syncLocked(prev); err != nil {
				return err
			}
		}
	}
	if l.opts.OnAppend != nil {
		l.opts.OnAppend(time.Since(start))
	}
	return nil
}

// syncLocked fsyncs the current segment. On failure (injected or real) the
// in-flight append is rolled back to rollbackTo so the log holds exactly
// the records whose Append returned nil.
func (l *Log) syncLocked(rollbackTo int64) error {
	// The timer starts before the faultpoint so an injected stall
	// (faultpoint.EnableSleep) is measured like a real slow fsync; the
	// injected-error path returns before any duration is reported.
	start := time.Now()
	if err := faultpoint.Hit("wal.fsync"); err != nil {
		l.rollbackLocked(rollbackTo)
		return err
	}
	if err := l.f.Sync(); err != nil {
		l.rollbackLocked(rollbackTo)
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.sinceSync = 0
	if l.opts.OnFsync != nil {
		l.opts.OnFsync(time.Since(start))
	}
	return nil
}

// rollbackLocked cuts the segment back to a known-committed offset after a
// failed sync; if the truncate itself fails the on-disk state is unknown
// and the log wedges.
func (l *Log) rollbackLocked(to int64) {
	if err := l.f.Truncate(to); err != nil {
		l.wedged = true
		return
	}
	if _, err := l.f.Seek(to, io.SeekStart); err != nil {
		l.wedged = true
		return
	}
	l.size = to
}

// rotateLocked seals the current segment (syncing it, whatever the policy —
// a sealed segment must be durable before the log moves on) and starts the
// next one.
func (l *Log) rotateLocked() error {
	if err := faultpoint.Hit("wal.rotate"); err != nil {
		return err
	}
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sealing segment %d: %w", l.seg, err)
	}
	if l.opts.OnFsync != nil {
		l.opts.OnFsync(time.Since(start))
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: sealing segment %d: %w", l.seg, err)
	}
	f, err := os.OpenFile(segPath(l.dir, l.seg+1), os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: opening segment %d: %w", l.seg+1, err)
	}
	l.f, l.seg, l.size, l.sinceSync = f, l.seg+1, 0, 0
	return nil
}

// Sync forces an fsync of the current segment regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.closed:
		return ErrClosed
	case l.wedged:
		return ErrWedged
	}
	return l.syncLocked(l.size)
}

// Close syncs (unless wedged) and closes the log. Idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	var syncErr error
	if !l.wedged {
		start := time.Now()
		syncErr = l.f.Sync()
		if syncErr == nil && l.opts.OnFsync != nil {
			l.opts.OnFsync(time.Since(start))
		}
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: close: %w", err)
	}
	if syncErr != nil {
		return fmt.Errorf("wal: close: %w", syncErr)
	}
	return nil
}

// Segment reports the current segment index (for tests and introspection).
func (l *Log) Segment() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seg
}

// Size reports the committed byte size of the current segment.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// SegmentFiles lists the log's segment file paths in replay order — the
// offset-sweep crash tests corrupt these directly.
func SegmentFiles(dir string) ([]string, error) {
	segs, err := segments(dir)
	if err != nil {
		return nil, err
	}
	paths := make([]string, len(segs))
	for i, s := range segs {
		paths[i] = segPath(dir, s)
	}
	return paths, nil
}
