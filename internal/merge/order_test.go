package merge_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"lbc/internal/merge"
	"lbc/internal/wal"
)

// orderSortPerPush is the original merge ordering, kept as the oracle
// for Order: the same dedup, per-lock chains and (node, TxSeq)
// tie-break, but with a ready list that is re-sorted on every push.
func orderSortPerPush(all []*wal.TxRecord) ([]*wal.TxRecord, error) {
	type identity struct {
		node uint32
		seq  uint64
	}
	seen := make(map[identity]bool, len(all))
	deduped := all[:0:0]
	for _, tx := range all {
		id := identity{node: tx.Node, seq: tx.TxSeq}
		if seen[id] {
			continue
		}
		seen[id] = true
		deduped = append(deduped, tx)
	}
	all = deduped

	type ref struct {
		idx int
		seq uint64
	}
	perLock := map[uint32][]ref{}
	for i, tx := range all {
		for _, l := range tx.Locks {
			perLock[l.LockID] = append(perLock[l.LockID], ref{idx: i, seq: l.Seq})
		}
	}
	succs := make([][]int, len(all))
	indeg := make([]int, len(all))
	for lockID, refs := range perLock {
		sort.Slice(refs, func(i, j int) bool { return refs[i].seq < refs[j].seq })
		for k := 1; k < len(refs); k++ {
			if refs[k].seq == refs[k-1].seq {
				return nil, fmt.Errorf("lock %d acquired twice at sequence %d", lockID, refs[k].seq)
			}
			succs[refs[k-1].idx] = append(succs[refs[k-1].idx], refs[k].idx)
			indeg[refs[k].idx]++
		}
	}
	less := func(i, j int) bool {
		if all[i].Node != all[j].Node {
			return all[i].Node < all[j].Node
		}
		return all[i].TxSeq < all[j].TxSeq
	}
	var ready []int
	push := func(i int) {
		ready = append(ready, i)
		sort.Slice(ready, func(a, b int) bool { return less(ready[a], ready[b]) })
	}
	for i := range all {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	sort.Slice(ready, func(a, b int) bool { return less(ready[a], ready[b]) })
	out := make([]*wal.TxRecord, 0, len(all))
	for len(ready) > 0 {
		i := ready[0]
		ready = ready[1:]
		out = append(out, all[i])
		for _, s := range succs[i] {
			indeg[s]--
			if indeg[s] == 0 {
				push(s)
			}
		}
	}
	if len(out) != len(all) {
		return nil, fmt.Errorf("ordering cycle across %d records", len(all)-len(out))
	}
	return out, nil
}

// genHistory simulates a 2PL history: each transaction runs on a
// random node and takes 1-3 distinct locks, each at its lock's next
// sequence number. The first `private` locks are only ever taken by
// one node each (independent chains). With gaps, some lock and commit
// sequence numbers are consumed by aborted work and appear nowhere.
// With dups, some records are logged twice; the second copy carries
// different bytes so the test can tell which copy survived.
func genHistory(r *rand.Rand, n, nodes, locks, private int, gaps, dups bool) []*wal.TxRecord {
	lockSeq := make([]uint64, locks)
	txSeq := make([]uint64, nodes+1)
	var out []*wal.TxRecord
	for len(out) < n {
		node := uint32(1 + r.Intn(nodes))
		if gaps && r.Intn(8) == 0 {
			txSeq[node]++
		}
		txSeq[node]++
		tx := &wal.TxRecord{Node: node, TxSeq: txSeq[node]}
		k := 1 + r.Intn(3)
		taken := map[int]bool{}
		for len(tx.Locks) < k {
			l := r.Intn(locks)
			if l < private {
				l = int(node-1) % private // this node's private lock
			}
			if taken[l] {
				break
			}
			taken[l] = true
			if gaps && r.Intn(8) == 0 {
				lockSeq[l]++
			}
			lockSeq[l]++
			tx.Locks = append(tx.Locks, wal.LockRec{LockID: uint32(l), Seq: lockSeq[l], Wrote: r.Intn(4) != 0})
		}
		var data [8]byte
		binary.LittleEndian.PutUint64(data[:], uint64(len(out)))
		tx.Ranges = []wal.RangeRec{{Region: 1, Off: uint64(r.Intn(1 << 12)), Data: data[:]}}
		out = append(out, tx)
		if dups && r.Intn(10) == 0 {
			cp := *tx
			cp.Ranges = []wal.RangeRec{{Region: 1, Off: tx.Ranges[0].Off, Data: []byte("retried copy")}}
			out = append(out, &cp)
		}
	}
	return out
}

func TestOrderMatchesSortPerPushOracle(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		nodes := 1 + r.Intn(5)
		locks := 1 + r.Intn(20)
		private := r.Intn(min(locks, nodes) + 1)
		recs := genHistory(r, n, nodes, locks, private, r.Intn(2) == 0, r.Intn(2) == 0)
		// Logs arrive in arbitrary interleavings of the nodes' streams.
		r.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })

		want, wantErr := orderSortPerPush(recs)
		got, err := merge.Order(recs)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("seed %d: err %v, oracle err %v", seed, err, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d records, oracle %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: position %d is %d/%d, oracle %d/%d", seed, i,
					got[i].Node, got[i].TxSeq, want[i].Node, want[i].TxSeq)
			}
		}
	}
}

func TestOrderMatchesOracleOnCorruptSets(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		r := rand.New(rand.NewSource(seed))
		recs := genHistory(r, 20+r.Intn(50), 3, 4, 0, false, false)
		victim := recs[r.Intn(len(recs))]
		if seed%2 == 0 {
			// Duplicate sequence: a second record claims a taken seq.
			other := recs[r.Intn(len(recs))]
			victim.Locks = append(victim.Locks, wal.LockRec{LockID: 99, Seq: 1})
			if other != victim {
				other.Locks = append(other.Locks, wal.LockRec{LockID: 99, Seq: 1})
			}
		} else {
			// Cycle: the record comes after itself on a private lock.
			victim.Locks = append(victim.Locks,
				wal.LockRec{LockID: 98, Seq: 1}, wal.LockRec{LockID: 98, Seq: 2})
		}
		_, wantErr := orderSortPerPush(recs)
		_, err := merge.Order(recs)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("seed %d: err %v, oracle err %v", seed, err, wantErr)
		}
	}
}

// appendLog is a MemDevice that records the size of every Append.
type appendLog struct {
	*wal.MemDevice
	sizes []int
}

func (d *appendLog) Append(p []byte) (int64, error) {
	d.sizes = append(d.sizes, len(p))
	return d.MemDevice.Append(p)
}

func TestMergeToBytesMatchPerRecordEncoding(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	recs := genHistory(r, 8000, 3, 16, 1, true, true)
	// Two records larger than the output chunk, so the chunking meets
	// both a record that fills an append alone and a flush before it.
	big := func(i int) {
		recs[i].Ranges = []wal.RangeRec{{Region: 2, Off: 0, Data: bytes.Repeat([]byte{byte(i)}, 1<<20+1000)}}
	}
	big(100)
	big(2000)
	logs := map[uint32]wal.Device{}
	for _, tx := range recs {
		if logs[tx.Node] == nil {
			logs[tx.Node] = wal.NewMemDevice()
		}
		logs[tx.Node].Append(wal.AppendStandard(nil, tx))
	}
	inputs := []wal.Device{logs[1], logs[2], logs[3]}

	ordered, err := merge.Merge(inputs...)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, tx := range ordered {
		want = wal.AppendStandard(want, tx)
	}
	out := &appendLog{MemDevice: wal.NewMemDevice()}
	n, err := merge.MergeTo(out, inputs...)
	if err != nil || n != len(ordered) {
		t.Fatalf("MergeTo: %d records, %v; want %d", n, err, len(ordered))
	}
	if got := out.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("merged log differs from the per-record encoding (%d vs %d bytes)", len(got), len(want))
	}
	if out.Syncs() != 1 {
		t.Fatalf("%d syncs, want 1", out.Syncs())
	}
	// Every append is a whole number of records and at most 1 MiB
	// unless it is a single oversized record.
	off := 0
	for i, sz := range out.sizes {
		chunk := want[off : off+sz]
		records := 0
		for p := 0; p < len(chunk); records++ {
			_, m, err := wal.DecodeStandard(chunk[p:])
			if err != nil {
				t.Fatalf("append %d is not record-aligned at %d: %v", i, p, err)
			}
			p += m
		}
		if sz > 1<<20 && records != 1 {
			t.Fatalf("append %d: %d bytes holding %d records", i, sz, records)
		}
		off += sz
	}
	if len(out.sizes) >= len(ordered)/10 {
		t.Fatalf("%d appends for %d records: output not chunked", len(out.sizes), len(ordered))
	}
}

// BenchmarkOrder merges 100k records on 1k locks from 4 nodes.
func BenchmarkOrder(b *testing.B) {
	recs := genHistory(rand.New(rand.NewSource(1)), 100_000, 4, 1000, 0, true, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := merge.Order(recs); err != nil {
			b.Fatal(err)
		}
	}
}
