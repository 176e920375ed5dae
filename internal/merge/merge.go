// Package merge implements the paper's log-merge utility (§3.4): each
// node produces its own redo log, so before the standard recovery
// procedure can run, the per-node logs must be merged into a single log
// whose order is consistent with the interleaving of updates.
//
// The merge exploits strict two-phase locking: if two transactions
// acquired the same lock, the one with the earlier sequence number for
// that lock committed first. Those pairwise constraints define a
// partial order over all records; the utility topologically sorts the
// records (ties broken deterministically by node id and per-node commit
// sequence) and emits them into one log suitable for rvm.Recover.
package merge

import (
	"cmp"
	"fmt"
	"slices"

	"lbc/internal/wal"
)

// Merge reads every complete record from the input logs and returns
// them in an order consistent with all per-lock sequence constraints.
// Torn tails are ignored (they are uncommitted by definition).
func Merge(inputs ...wal.Device) ([]*wal.TxRecord, error) {
	var all []*wal.TxRecord
	for i, dev := range inputs {
		txs, err := wal.ReadDevice(dev)
		if err != nil {
			return nil, fmt.Errorf("merge: read input %d: %w", i, err)
		}
		for _, tx := range txs {
			if !tx.Checkpoint {
				all = append(all, tx)
			}
		}
	}
	return Order(all)
}

// Order topologically sorts records under the per-lock sequence
// constraints. It is exposed separately so in-memory record sets (e.g.
// from the coherency layer) can be merged without device round trips.
//
// Records with an identical (node, commit-seq) identity are collapsed
// to one: a client that retries an ambiguous append after a storage
// failover can legitimately write the same record twice, and replay
// must stay idempotent under that at-least-once behaviour. The first
// copy in input order is kept.
//
// The cost is O(n log n) in the records and their lock entries: one
// sort ranks the records by identity, one sorts the lock entries into
// per-lock chains, and Kahn's algorithm pops the ready records from a
// binary min-heap keyed by that rank.
func Order(all []*wal.TxRecord) ([]*wal.TxRecord, error) {
	// Rank by identity (node, per-node commit seq), breaking ties by
	// input position so the first copy of a duplicate comes first.
	type key struct {
		node uint32
		pos  int32
		seq  uint64
	}
	keys := make([]key, len(all))
	for i, tx := range all {
		keys[i] = key{node: tx.Node, pos: int32(i), seq: tx.TxSeq}
	}
	slices.SortFunc(keys, func(a, b key) int {
		if c := cmp.Compare(a.node, b.node); c != 0 {
			return c
		}
		if c := cmp.Compare(a.seq, b.seq); c != 0 {
			return c
		}
		return cmp.Compare(a.pos, b.pos)
	})
	// recs[i] is the record of rank i: the heap key below is the index.
	recs := make([]*wal.TxRecord, 0, len(all))
	nrefs := 0
	for k, id := range keys {
		if k > 0 && id.node == keys[k-1].node && id.seq == keys[k-1].seq {
			continue
		}
		tx := all[id.pos]
		recs = append(recs, tx)
		nrefs += len(tx.Locks)
	}

	// Sort every lock entry into its lock's chain by sequence number;
	// consecutive entries of one chain become ordering edges.
	type ref struct {
		lock uint32
		idx  int32
		seq  uint64
	}
	refs := make([]ref, 0, nrefs)
	for i, tx := range recs {
		for _, l := range tx.Locks {
			refs = append(refs, ref{lock: l.LockID, idx: int32(i), seq: l.Seq})
		}
	}
	slices.SortFunc(refs, func(a, b ref) int {
		if c := cmp.Compare(a.lock, b.lock); c != 0 {
			return c
		}
		if c := cmp.Compare(a.seq, b.seq); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})

	// Successor lists in compressed form: succ[first[i]:first[i+1]]
	// are the records that must follow record i.
	first := make([]int32, len(recs)+1)
	indeg := make([]int32, len(recs))
	for k := 1; k < len(refs); k++ {
		prev, cur := refs[k-1], refs[k]
		if cur.lock != prev.lock {
			continue
		}
		if cur.seq == prev.seq {
			a, b := recs[prev.idx], recs[cur.idx]
			return nil, fmt.Errorf(
				"merge: lock %d acquired twice at sequence %d (tx %d/%d and %d/%d): corrupt logs",
				cur.lock, cur.seq, a.Node, a.TxSeq, b.Node, b.TxSeq)
		}
		first[prev.idx+1]++
		indeg[cur.idx]++
	}
	for i := 1; i < len(first); i++ {
		first[i] += first[i-1]
	}
	succ := make([]int32, first[len(recs)])
	fill := slices.Clone(first[:len(recs)])
	for k := 1; k < len(refs); k++ {
		if prev := refs[k-1]; refs[k].lock == prev.lock {
			succ[fill[prev.idx]] = refs[k].idx
			fill[prev.idx]++
		}
	}

	// Kahn's algorithm, always emitting the ready record of lowest
	// rank. Ranks are pushed in ascending order here, which already is
	// a valid heap.
	var ready minHeap
	for i, d := range indeg {
		if d == 0 {
			ready = append(ready, int32(i))
		}
	}
	out := make([]*wal.TxRecord, 0, len(recs))
	for len(ready) > 0 {
		i := ready.pop()
		out = append(out, recs[i])
		for _, s := range succ[first[i]:first[i+1]] {
			indeg[s]--
			if indeg[s] == 0 {
				ready.push(s)
			}
		}
	}
	if len(out) != len(recs) {
		return nil, fmt.Errorf("merge: ordering cycle across %d records (logs are inconsistent)",
			len(recs)-len(out))
	}
	return out, nil
}

// minHeap is a binary min-heap of record ranks.
type minHeap []int32

func (h *minHeap) push(x int32) {
	s := append(*h, x)
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if s[p] <= s[i] {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
	*h = s
}

func (h *minHeap) pop() int32 {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(s) {
			break
		}
		if c+1 < len(s) && s[c+1] < s[c] {
			c++
		}
		if s[i] <= s[c] {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	*h = s
	return top
}

// outputChunk bounds one Append of the merged log: MergeTo packs whole
// records back to back into appends of at most this many bytes (a
// record larger than the chunk gets an append of its own).
const outputChunk = 1 << 20

// MergeTo merges the inputs and appends the ordered records to out in
// the standard encoding, returning the number of records written. The
// output log can then be fed to rvm.Recover unchanged. The records are
// written in record-aligned chunks of up to outputChunk bytes from one
// buffer sized up front, then synced once.
func MergeTo(out wal.Device, inputs ...wal.Device) (int, error) {
	txs, err := Merge(inputs...)
	if err != nil {
		return 0, err
	}
	total, largest := 0, 0
	for _, tx := range txs {
		n := wal.StandardSize(tx)
		total += n
		largest = max(largest, n)
	}
	buf := make([]byte, 0, max(min(total, outputChunk), largest))
	for _, tx := range txs {
		if len(buf) > 0 && len(buf)+wal.StandardSize(tx) > outputChunk {
			if _, err := out.Append(buf); err != nil {
				return 0, fmt.Errorf("merge: append output: %w", err)
			}
			buf = buf[:0]
		}
		buf = wal.AppendStandard(buf, tx)
	}
	if len(buf) > 0 {
		if _, err := out.Append(buf); err != nil {
			return 0, fmt.Errorf("merge: append output: %w", err)
		}
	}
	if err := out.Sync(); err != nil {
		return 0, err
	}
	return len(txs), nil
}
