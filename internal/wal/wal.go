// Package wal implements the write-ahead log behind durable mutable
// serving: an append-only file of Insert/Delete records that makes
// acknowledged mutations survive a process crash.
//
// # Format
//
// The file starts with an 8-byte header ("RBCW" + little-endian uint32
// version). Each record is a frame
//
//	uint32 payload length | uint32 CRC-32C(payload) | payload
//
// with the payload being an op byte followed by the op's body: an
// Insert carries dim little-endian float32 coordinates, a Delete an
// 8-byte little-endian id. All integers are little-endian.
//
// # Recovery contract
//
// Open replays the log front to back before accepting appends. The
// valid prefix is exactly the set of records whose frame is complete
// and whose CRC matches; the first torn or corrupt frame — a crash
// mid-append leaves at most one — ends the prefix, and everything from
// it onward is truncated from the file, not treated as fatal. Because
// records are framed and appended in order, the recovered prefix is
// always a prefix of the append history: a record is only ever lost
// together with everything after it.
//
// # Durability modes
//
// SyncAlways fsyncs before each Append returns, so an acknowledged
// mutation is durable. SyncInterval batches fsyncs on a background
// ticker (group commit): appends return after the buffered write, and
// a crash can lose up to SyncEvery of acknowledged tail — never a
// non-contiguous subset. SyncNone leaves flushing to the OS entirely.
// All modes preserve the prefix property above.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync"
	"time"
)

// Op identifies a record type.
type Op uint8

const (
	// OpInsert appends a point to the database and index.
	OpInsert Op = 1
	// OpDelete tombstones a point by id.
	OpDelete Op = 2
)

// Record is one replayed or appended mutation.
type Record struct {
	Op    Op
	Point []float32 // OpInsert: the inserted coordinates
	ID    int64     // OpDelete: the tombstoned id
}

// SyncMode selects when appends reach stable storage.
type SyncMode int

const (
	// SyncAlways fsyncs before each Append returns (acked == durable).
	SyncAlways SyncMode = iota
	// SyncInterval group-commits: a background ticker fsyncs every
	// SyncEvery while appends return after the buffered write.
	SyncInterval
	// SyncNone never fsyncs explicitly (OS page cache only).
	SyncNone
)

// ParseSyncMode maps the -wal-sync flag values onto a SyncMode.
func ParseSyncMode(s string) (SyncMode, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("wal: unknown sync mode %q (want always, interval or none)", s)
}

func (m SyncMode) String() string {
	switch m {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	}
	return fmt.Sprintf("SyncMode(%d)", int(m))
}

// Options configures Open.
type Options struct {
	Sync SyncMode
	// SyncEvery is the group-commit period for SyncInterval; <= 0
	// selects 2ms.
	SyncEvery time.Duration
	// FaultHook, when non-nil, intercepts every record frame just
	// before the file write and returns how many of its bytes to
	// actually persist. Returning m < len(frame) writes a torn frame —
	// exactly what a crash mid-append leaves on disk — syncs it, fails
	// the Append with ErrFaultInjected and poisons the log (every later
	// Append fails too, as after a real write error). Testing only: the
	// crash-recovery suite uses it to place torn tails deterministically.
	FaultHook func(frame []byte) int
}

// ReplayStats reports what Open recovered.
type ReplayStats struct {
	// Records is the number of valid records replayed.
	Records int
	// TruncatedBytes is the length of the torn/corrupt tail cut from
	// the file (0 for a cleanly closed log).
	TruncatedBytes int64
}

// Stats is a point-in-time snapshot of a Log's counters.
type Stats struct {
	Records  int64 // records currently in the log (replayed + appended - truncated)
	Appended int64 // records appended by this process
	Syncs    int64 // fsyncs issued by this process
	Bytes    int64 // current file size
}

var (
	// ErrClosed is returned by appends on a closed log.
	ErrClosed = errors.New("wal: log closed")
	// ErrFaultInjected is returned by an Append whose frame the
	// FaultHook tore; the log is poisoned afterwards.
	ErrFaultInjected = errors.New("wal: injected write fault")
)

const (
	headerSize = 8
	frameHead  = 8 // uint32 length + uint32 crc
	// maxRecordBytes bounds one payload; a length field beyond it is
	// corruption, not a record (64 MiB ≈ a 16M-dim point).
	maxRecordBytes = 64 << 20
	walVersion     = 1
)

var (
	walMagic   = []byte{'R', 'B', 'C', 'W', walVersion, 0, 0, 0}
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

// Log is an open write-ahead log. All methods are safe for concurrent
// use; appends serialize internally.
type Log struct {
	mu     sync.Mutex
	f      *os.File
	path   string
	opts   Options
	size   int64
	dirty  bool // bytes written since the last fsync
	failed error
	closed bool

	records  int64
	appended int64
	syncs    int64

	buf []byte // frame assembly buffer, reused under mu

	stopc chan struct{}
	wg    sync.WaitGroup
}

// Open recovers the log at path (creating it if absent), replays every
// valid record through apply in append order, truncates any torn or
// corrupt tail, and returns the log ready for appends. An error from
// apply aborts recovery — it means the records themselves are
// inconsistent with the state being rebuilt, which truncation cannot
// repair.
func Open(path string, opts Options, apply func(Record) error) (*Log, ReplayStats, error) {
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = 2 * time.Millisecond
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, ReplayStats{}, err
	}
	st, size, err := recoverLog(f, apply)
	if err != nil {
		f.Close()
		return nil, st, err
	}
	l := &Log{
		f: f, path: path, opts: opts,
		size: size, records: int64(st.Records),
	}
	if opts.Sync == SyncInterval {
		l.stopc = make(chan struct{})
		l.wg.Add(1)
		go l.syncLoop()
	}
	return l, st, nil
}

// recoverLog validates the header, scans the frames, applies the valid
// prefix and truncates the rest. It returns the replay stats and the
// durable end offset.
func recoverLog(f *os.File, apply func(Record) error) (ReplayStats, int64, error) {
	var st ReplayStats
	info, err := f.Stat()
	if err != nil {
		return st, 0, err
	}
	size := info.Size()
	if size < headerSize {
		// Empty file, or a crash tore the header itself: any bytes
		// present must be a prefix of the magic (else this is not a
		// WAL), and the header is re-stamped whole.
		if size > 0 {
			head := make([]byte, size)
			if _, err := f.ReadAt(head, 0); err != nil {
				return st, 0, err
			}
			for i, b := range head {
				if b != walMagic[i] {
					return st, 0, fmt.Errorf("wal: not a WAL file (bad magic)")
				}
			}
			st.TruncatedBytes = size
		}
		if err := f.Truncate(0); err != nil {
			return st, 0, err
		}
		if _, err := f.WriteAt(walMagic, 0); err != nil {
			return st, 0, err
		}
		if err := f.Sync(); err != nil {
			return st, 0, err
		}
		return st, headerSize, nil
	}
	head := make([]byte, headerSize)
	if _, err := f.ReadAt(head, 0); err != nil {
		return st, 0, err
	}
	for i, b := range head {
		if b != walMagic[i] {
			return st, 0, fmt.Errorf("wal: not a WAL file (bad magic)")
		}
	}
	if _, err := f.Seek(headerSize, io.SeekStart); err != nil {
		return st, 0, err
	}
	off, records, err := scan(io.LimitReader(f, size-headerSize), size-headerSize, apply)
	if err != nil {
		return st, 0, err
	}
	st.Records = records
	good := headerSize + off
	if good < size {
		st.TruncatedBytes = size - good
		if err := f.Truncate(good); err != nil {
			return st, 0, err
		}
		if err := f.Sync(); err != nil {
			return st, 0, err
		}
	}
	return st, good, nil
}

// scan reads frames from r (positioned after the header), which holds
// remain bytes, calling apply for each valid record, and stops at the
// first torn or corrupt frame. It returns the byte length of the valid
// prefix and the record count. Only an apply error propagates; framing
// damage just ends the scan. A length field past the bytes left is a torn
// tail, told before anything is allocated for the payload, so a damaged
// header costs no more memory than the file holds.
func scan(r io.Reader, remain int64, apply func(Record) error) (int64, int, error) {
	var (
		off     int64
		records int
		hdr     [frameHead]byte
		payload []byte
	)
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return off, records, nil // clean EOF or torn frame header
		}
		plen := binary.LittleEndian.Uint32(hdr[0:4])
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		if plen == 0 || plen > maxRecordBytes {
			return off, records, nil // corrupt length field
		}
		if int64(plen) > remain-off-frameHead {
			return off, records, nil // torn payload: the file ends first
		}
		if cap(payload) < int(plen) {
			payload = make([]byte, plen)
		}
		payload = payload[:plen]
		if _, err := io.ReadFull(r, payload); err != nil {
			return off, records, nil // torn payload
		}
		if crc32.Checksum(payload, castagnoli) != crc {
			return off, records, nil // corrupt payload
		}
		rec, ok := decodeRecord(payload)
		if !ok {
			return off, records, nil // CRC-valid but structurally foreign
		}
		if apply != nil {
			if err := apply(rec); err != nil {
				return off, records, fmt.Errorf("wal: applying record %d: %w", records, err)
			}
		}
		off += frameHead + int64(plen)
		records++
	}
}

func decodeRecord(payload []byte) (Record, bool) {
	switch Op(payload[0]) {
	case OpInsert:
		body := payload[1:]
		if len(body) == 0 || len(body)%4 != 0 {
			return Record{}, false
		}
		p := make([]float32, len(body)/4)
		for i := range p {
			p[i] = math.Float32frombits(binary.LittleEndian.Uint32(body[4*i:]))
		}
		return Record{Op: OpInsert, Point: p}, true
	case OpDelete:
		if len(payload) != 9 {
			return Record{}, false
		}
		return Record{Op: OpDelete, ID: int64(binary.LittleEndian.Uint64(payload[1:]))}, true
	}
	return Record{}, false
}

// ReadRecords scans the log at path without opening it for appends and
// without truncating: it returns the valid record prefix and what a
// recovery would report. Useful for inspection and for crash tests that
// need the durable history before recovering it.
func ReadRecords(path string) ([]Record, ReplayStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, ReplayStats{}, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, ReplayStats{}, err
	}
	var st ReplayStats
	if info.Size() < headerSize {
		st.TruncatedBytes = info.Size()
		return nil, st, nil
	}
	head := make([]byte, headerSize)
	if _, err := f.ReadAt(head, 0); err != nil {
		return nil, st, err
	}
	for i, b := range head {
		if b != walMagic[i] {
			return nil, st, fmt.Errorf("wal: not a WAL file (bad magic)")
		}
	}
	if _, err := f.Seek(headerSize, io.SeekStart); err != nil {
		return nil, st, err
	}
	var recs []Record
	off, n, err := scan(f, info.Size()-headerSize, func(r Record) error { recs = append(recs, r); return nil })
	if err != nil {
		return nil, st, err
	}
	st.Records = n
	st.TruncatedBytes = info.Size() - headerSize - off
	return recs, st, nil
}

// AppendInsert logs the insertion of p. Under SyncAlways the record is
// durable when this returns.
func (l *Log) AppendInsert(p []float32) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	payload := l.carve(1 + 4*len(p))
	payload[0] = byte(OpInsert)
	for i, v := range p {
		binary.LittleEndian.PutUint32(payload[1+4*i:], math.Float32bits(v))
	}
	return l.appendLocked(payload)
}

// AppendDelete logs the tombstoning of id.
func (l *Log) AppendDelete(id int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	payload := l.carve(9)
	payload[0] = byte(OpDelete)
	binary.LittleEndian.PutUint64(payload[1:], uint64(id))
	return l.appendLocked(payload)
}

// carve returns the payload region of l.buf sized for n payload bytes,
// with the frame header space reserved in front.
func (l *Log) carve(n int) []byte {
	need := frameHead + n
	if cap(l.buf) < need {
		l.buf = make([]byte, need)
	}
	l.buf = l.buf[:need]
	return l.buf[frameHead:]
}

func (l *Log) appendLocked(payload []byte) error {
	if l.closed {
		return ErrClosed
	}
	if l.failed != nil {
		return l.failed
	}
	frame := l.buf
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	if h := l.opts.FaultHook; h != nil {
		if m := h(frame); m >= 0 && m < len(frame) {
			// Persist the torn prefix like a crash would, then poison.
			_, _ = l.f.WriteAt(frame[:m], l.size)
			_ = l.f.Sync()
			l.failed = ErrFaultInjected
			return l.failed
		}
	}
	if _, err := l.f.WriteAt(frame, l.size); err != nil {
		l.failed = fmt.Errorf("wal: append: %w", err)
		return l.failed
	}
	l.size += int64(len(frame))
	l.records++
	l.appended++
	l.dirty = true
	if l.opts.Sync == SyncAlways {
		return l.syncLocked()
	}
	return nil
}

// Sync forces an fsync of all buffered appends.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if !l.dirty {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		l.failed = fmt.Errorf("wal: sync: %w", err)
		return l.failed
	}
	l.dirty = false
	l.syncs++
	return nil
}

// Truncate discards every record — the snapshot barrier. Callers must
// have made the state covered by those records durable first (snapshot
// written and renamed); the truncation itself is fsynced before
// returning, so a crash cannot resurrect pre-barrier records.
func (l *Log) Truncate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.failed != nil {
		return l.failed
	}
	if err := l.f.Truncate(headerSize); err != nil {
		l.failed = fmt.Errorf("wal: truncate: %w", err)
		return l.failed
	}
	if err := l.f.Sync(); err != nil {
		l.failed = fmt.Errorf("wal: truncate sync: %w", err)
		return l.failed
	}
	l.size = headerSize
	l.records = 0
	l.dirty = false
	l.syncs++
	return nil
}

// Stats returns the current counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{Records: l.records, Appended: l.appended, Syncs: l.syncs, Bytes: l.size}
}

// Path returns the log's file path.
func (l *Log) Path() string { return l.path }

// Close syncs buffered appends and closes the file. Further appends
// return ErrClosed. Safe to call twice.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	stopc := l.stopc
	l.mu.Unlock()
	if stopc != nil {
		close(stopc)
		l.wg.Wait()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var err error
	if l.dirty && l.failed == nil {
		if serr := l.f.Sync(); serr == nil {
			l.dirty = false
			l.syncs++
		} else {
			err = serr
		}
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncLoop is the SyncInterval group-commit ticker.
func (l *Log) syncLoop() {
	defer l.wg.Done()
	t := time.NewTicker(l.opts.SyncEvery)
	defer t.Stop()
	for {
		select {
		case <-l.stopc:
			return
		case <-t.C:
			l.mu.Lock()
			if !l.closed && l.failed == nil {
				_ = l.syncLocked()
			}
			l.mu.Unlock()
		}
	}
}
