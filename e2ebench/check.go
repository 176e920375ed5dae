package main

import (
	"bytes"
	"fmt"

	"lbc/internal/oo7"
	"lbc/internal/rvm"
)

// checkOO7 passes when every node holds the same OO7 image and the
// database validates on each.
func checkOO7(regs []*rvm.Region) error {
	for i := 1; i < len(regs); i++ {
		if digest(regs[i].Bytes()) != digest(regs[0].Bytes()) {
			return fmt.Errorf("oo7: node %d image differs from node 1", i+1)
		}
	}
	for i, reg := range regs {
		db, err := oo7.Open(reg)
		if err != nil {
			return fmt.Errorf("oo7: node %d: %w", i+1, err)
		}
		if err := db.Validate(); err != nil {
			return fmt.Errorf("oo7: node %d: %w", i+1, err)
		}
	}
	return nil
}

// ack is the last write a client saw acknowledged under one lock.
type ack struct {
	seq     uint64 // the lock's grant sequence number for that commit
	payload [kvPayload]byte
}

// lastAcked merges the clients' acknowledgements: per lock, the write
// with the highest lock sequence number is the one that must survive.
func lastAcked(perClient ...map[uint32]ack) map[uint32]ack {
	out := map[uint32]ack{}
	for _, m := range perClient {
		for lock, a := range m {
			if cur, ok := out[lock]; !ok || a.seq > cur.seq {
				out[lock] = a
			}
		}
	}
	return out
}

func kvSlot(lock uint32) int { return int(lock) * kvSegment }

// checkKV passes when every node holds the same image and each lock's
// slot holds the last payload acknowledged under that lock.
func checkKV(images [][]byte, last map[uint32]ack) error {
	for i := 1; i < len(images); i++ {
		if !bytes.Equal(images[i], images[0]) {
			return fmt.Errorf("kv: node %d image differs from node 1", i+1)
		}
	}
	for lock, a := range last {
		off := kvSlot(lock)
		if !bytes.Equal(images[0][off:off+kvPayload], a.payload[:]) {
			return fmt.Errorf("kv: lock %d slot lost the write acknowledged at seq %d", lock, a.seq)
		}
	}
	return nil
}

// checkRecovered passes when a restart rebuilt the live cluster's
// converged image and replayed exactly the committed transactions.
func checkRecovered(img []byte, live [32]byte, merged, replayed, committed int) error {
	if merged != committed || replayed != committed {
		return fmt.Errorf("recover: merged %d and replayed %d records, %d committed", merged, replayed, committed)
	}
	if digest(img) != live {
		return fmt.Errorf("recover: recovered image differs from the live cluster's")
	}
	return nil
}
