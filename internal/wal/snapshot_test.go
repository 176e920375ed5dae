package wal

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"
)

func readSnapshot(t *testing.T, rc io.ReadCloser) string {
	t.Helper()
	defer rc.Close()
	b, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestMemDeviceOpenIsSnapshot checks the Open contract: a reader sees
// the log as it was when opened, whatever the device does afterwards.
func TestMemDeviceOpenIsSnapshot(t *testing.T) {
	steps := []struct {
		name   string
		mutate func(d *MemDevice)
	}{
		{"truncate+append", func(d *MemDevice) {
			d.Truncate(4)
			d.Append([]byte("XXXXXXXX"))
		}},
		{"reset+append", func(d *MemDevice) {
			d.Reset()
			d.Append([]byte("XXXXXXXXXXXXXXXX"))
		}},
		{"crash+append", func(d *MemDevice) {
			d.CrashUnsynced()
			d.Append([]byte("XXXXXXXXXXXXXXXX"))
		}},
		{"trimhead+append", func(d *MemDevice) {
			d.TrimHead(6)
			d.Append([]byte("XXXXXXXXXXXXXXXX"))
		}},
		{"append", func(d *MemDevice) {
			d.Append([]byte("XXXXXXXXXXXXXXXX"))
		}},
	}
	for _, st := range steps {
		t.Run(st.name, func(t *testing.T) {
			// Spare capacity behind the data: an append after a shrink
			// would overwrite in place if shrinking did not cap it.
			d := &MemDevice{buf: make([]byte, 0, 64)}
			d.Append([]byte("synced|"))
			d.Sync()
			d.Append([]byte("unsynced"))
			whole, err := d.Open(0)
			if err != nil {
				t.Fatal(err)
			}
			tail, err := d.Open(3)
			if err != nil {
				t.Fatal(err)
			}
			st.mutate(d)
			if got := readSnapshot(t, whole); got != "synced|unsynced" {
				t.Fatalf("snapshot from 0 reads %q", got)
			}
			if got := readSnapshot(t, tail); got != "ced|unsynced" {
				t.Fatalf("snapshot from 3 reads %q", got)
			}
		})
	}
}

func bigRecord(seq uint64, size int) *TxRecord {
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i*7) ^ byte(seq)
	}
	return &TxRecord{Node: 1, TxSeq: seq,
		Locks:  []LockRec{{LockID: 3, Seq: seq, PrevWriteSeq: seq - 1, Wrote: true}},
		Ranges: []RangeRec{{Region: 1, Off: seq << 20, Data: data}}}
}

// smallReads hands out at most n bytes per Read, so the scanner's
// buffer refills many times within one record.
type smallReads struct {
	r io.Reader
	n int
}

func (s smallReads) Read(p []byte) (int, error) { return s.r.Read(p[:min(len(p), s.n)]) }

// TestScannerLargeRecordsTornTail scans records larger than two read
// chunks followed by a torn tail, through both Next and NextView and
// with short reads.
func TestScannerLargeRecordsTornTail(t *testing.T) {
	const size = 200 << 10
	var log []byte
	var want []*TxRecord
	for seq := uint64(1); seq <= 3; seq++ {
		tx := bigRecord(seq, size)
		want = append(want, tx)
		log = AppendStandard(log, tx)
	}
	goodLen := int64(len(log))
	torn := AppendStandard(nil, bigRecord(4, size))
	log = append(log, torn[:len(torn)-1000]...)

	readers := map[string]func() io.Reader{
		"whole": func() io.Reader { return bytes.NewReader(log) },
		"short": func() io.Reader { return smallReads{bytes.NewReader(log), 5000} },
	}
	for name, open := range readers {
		for _, view := range []bool{false, true} {
			sc := NewScanner(open(), 0)
			n := 0
			for {
				var tx *TxRecord
				var err error
				if view {
					tx, err = sc.NextView()
				} else {
					tx, err = sc.Next()
				}
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("%s view=%v: %v", name, view, err)
				}
				if n >= len(want) || !txEqual(tx, want[n]) {
					t.Fatalf("%s view=%v: record %d mismatch", name, view, n)
				}
				n++
			}
			if n != len(want) {
				t.Fatalf("%s view=%v: %d records, want %d", name, view, n, len(want))
			}
			if isTorn, at := sc.Torn(); !isTorn || at != goodLen {
				t.Fatalf("%s view=%v: torn=%v at %d, want true at %d", name, view, isTorn, at, goodLen)
			}
		}
	}
}

// TestScannerLargeInteriorCorruption damages the middle one of three
// large records: the probe for a sound record past it must pull in
// more than a read chunk without losing its place.
func TestScannerLargeInteriorCorruption(t *testing.T) {
	const size = 200 << 10
	var log []byte
	var offs []int64
	for seq := uint64(1); seq <= 3; seq++ {
		offs = append(offs, int64(len(log)))
		log = AppendStandard(log, bigRecord(seq, size))
	}
	log[offs[1]+size/2] ^= 0xff

	_, _, _, err := ReadAll(smallReads{bytes.NewReader(log), 5000}, 0)
	var ic *InteriorCorruptionError
	if !errors.As(err, &ic) || ic.Offset != offs[1] || ic.Resume != offs[2] {
		t.Fatalf("err = %v, want interior corruption [%d, %d)", err, offs[1], offs[2])
	}
	txs, holes, torn, _, err := SalvageAll(smallReads{bytes.NewReader(log), 5000}, 0)
	if err != nil || torn {
		t.Fatalf("salvage: err=%v torn=%v", err, torn)
	}
	if len(txs) != 2 || txs[0].TxSeq != 1 || txs[1].TxSeq != 3 || !txEqual(txs[1], bigRecord(3, size)) {
		t.Fatalf("salvaged %d records", len(txs))
	}
	if len(holes) != 1 || holes[0] != (CorruptRange{From: offs[1], To: offs[2]}) {
		t.Fatalf("holes = %v", holes)
	}
}

// TestMemDeviceSnapshotUnderConcurrentAppend scans snapshots while
// another goroutine keeps appending (meaningful under -race): every
// snapshot is a clean prefix of whole records.
func TestMemDeviceSnapshotUnderConcurrentAppend(t *testing.T) {
	d := NewMemDevice()
	const total = 400
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for seq := uint64(1); seq <= total; seq++ {
			d.Append(AppendStandard(nil, bigRecord(seq, 1+int(seq*37)%3000)))
		}
	}()
	last := 0
	for last < total {
		rc, err := d.Open(0)
		if err != nil {
			t.Fatal(err)
		}
		txs, torn, _, err := ReadAll(rc, 0)
		rc.Close()
		if err != nil || torn {
			t.Fatalf("snapshot scan: err=%v torn=%v", err, torn)
		}
		if len(txs) < last {
			t.Fatalf("snapshot shrank from %d to %d records", last, len(txs))
		}
		for i, tx := range txs {
			if tx.TxSeq != uint64(i+1) {
				t.Fatalf("record %d has seq %d", i, tx.TxSeq)
			}
		}
		last = len(txs)
	}
	wg.Wait()
}
