package main

import "math/rand"

// The workloads' inputs all come from --seed through these generators;
// the program under test receives only what they generate.

// oo7Traversals is the paper's update mix: sparse, moderate and dense.
var oo7Traversals = [3]string{"T12-A", "T2-A", "T2-B"}

// oo7Plan yields the traversal of each successive OO7 transaction. Every
// block of three runs each traversal once, in a seeded order, so the mix
// stays one third each whatever the seed.
type oo7Plan struct {
	rng   *rand.Rand
	block []string
}

func newOO7Plan(seed int64) *oo7Plan {
	return &oo7Plan{rng: rand.New(rand.NewSource(seed))}
}

func (p *oo7Plan) next() string {
	if len(p.block) == 0 {
		p.block = make([]string, 0, len(oo7Traversals))
		for _, i := range p.rng.Perm(len(oo7Traversals)) {
			p.block = append(p.block, oo7Traversals[i])
		}
	}
	t := p.block[0]
	p.block = p.block[1:]
	return t
}

const (
	kvLocks   = 256  // hot lock set both clients share
	kvSegment = 4096 // bytes of region under each lock
	kvPayload = 128  // bytes each transaction writes into its lock's slot
	kvZipfS   = 1.1
)

// kvOp is one kv transaction: write payload into lock's slot.
type kvOp struct {
	lock    uint32
	payload [kvPayload]byte
}

// kvGen yields one client's kv transactions: locks drawn Zipf(1.1) over
// the shared set, hottest first, and seeded random payloads. Lock ranks
// map to fixed lock ids, so every seed loads the same lock homes.
type kvGen struct {
	rng  *rand.Rand
	zipf *rand.Zipf
}

func newKVGen(seed int64, client int) *kvGen {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(client)))
	return &kvGen{rng: rng, zipf: rand.NewZipf(rng, kvZipfS, 1, kvLocks-1)}
}

func (g *kvGen) next() kvOp {
	op := kvOp{lock: uint32(g.zipf.Uint64())}
	g.rng.Read(op.payload[:])
	return op
}

// seedImage is the seeded initial content of the kv and recover region.
func seedImage(seed int64) []byte {
	img := make([]byte, kvLocks*kvSegment)
	rand.New(rand.NewSource(^seed)).Read(img)
	return img
}
