package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"runtime"
	"testing"
)

// A length field past the bytes the file holds is a torn tail, told
// before the payload is allocated: a 16-byte log — magic plus one frame
// header claiming the 64 MiB maximum — recovers empty through both
// ReadRecords and Open, allocating under 1 MiB.
func TestHugeLengthFieldIsTornTail(t *testing.T) {
	path := tmpLog(t)
	log := binary.LittleEndian.AppendUint32(append([]byte(nil), walMagic...), maxRecordBytes)
	log = binary.LittleEndian.AppendUint32(log, 0)
	if err := os.WriteFile(path, log, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, read := range []struct {
		name string
		fn   func() (ReplayStats, error)
	}{
		{"ReadRecords", func() (ReplayStats, error) {
			_, st, err := ReadRecords(path)
			return st, err
		}},
		{"Open", func() (ReplayStats, error) {
			l, st, err := Open(path, Options{Sync: SyncNone}, nil)
			if err == nil {
				err = l.Close()
			}
			return st, err
		}},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st, err := read.fn()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", read.name, err)
		}
		if st.Records != 0 || st.TruncatedBytes != frameHead {
			t.Fatalf("%s: %+v, want no records and an %d-byte torn tail", read.name, st, frameHead)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
			t.Fatalf("%s allocated %d bytes for a %d-byte log", read.name, d, len(log))
		}
	}
}

// walFrame is one log frame around payload, as appendLocked writes it.
func walFrame(payload []byte) []byte {
	f := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	f = binary.LittleEndian.AppendUint32(f, crc32.Checksum(payload, castagnoli))
	return append(f, payload...)
}

// FuzzWALScan feeds arbitrary bytes to the frame scanner as the body of a
// log. It must not panic, must allocate no more than a bounded multiple
// of the input, and re-scanning the valid prefix it reports must yield
// the same records. Seeds live in testdata/fuzz/FuzzWALScan.
func FuzzWALScan(f *testing.F) {
	insert := append([]byte{byte(OpInsert)}, binary.LittleEndian.AppendUint32(nil, math.Float32bits(1.5))...)
	del := binary.LittleEndian.AppendUint64([]byte{byte(OpDelete)}, 7)
	f.Add(append(walFrame(insert), walFrame(del)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		var recs []Record
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		off, n, err := scan(bytes.NewReader(data), int64(len(data)), func(r Record) error {
			recs = append(recs, r)
			return nil
		})
		runtime.ReadMemStats(&after)
		if err != nil || off < 0 || off > int64(len(data)) || n != len(recs) {
			t.Fatalf("scan = (%d, %d, %v) over %d bytes with %d records applied", off, n, err, len(data), len(recs))
		}
		if d := after.TotalAlloc - before.TotalAlloc; d > 1<<20+16*uint64(len(data)) {
			t.Fatalf("scan allocated %d bytes for %d input bytes", d, len(data))
		}
		var again []Record
		off2, n2, _ := scan(bytes.NewReader(data[:off]), off, func(r Record) error {
			again = append(again, r)
			return nil
		})
		if off2 != off || n2 != n || !sameRecords(again, recs) {
			t.Fatalf("re-scan of the %d-byte prefix: (%d, %d), want (%d, %d)", off, off2, n2, off, n)
		}
	})
}

// sameRecords compares records bit for bit (a NaN coordinate equals
// itself).
func sameRecords(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Op != b[i].Op || a[i].ID != b[i].ID || len(a[i].Point) != len(b[i].Point) {
			return false
		}
		for j, x := range a[i].Point {
			if math.Float32bits(x) != math.Float32bits(b[i].Point[j]) {
				return false
			}
		}
	}
	return true
}
