package main

import (
	"bytes"
	"reflect"
	"testing"
)

// The same seed generates the same operation sequence for each
// workload; a different seed generates a different one.
func TestSeedDeterminism(t *testing.T) {
	const n = 300
	oo7Ops := func(seed int64) []string {
		p := newOO7Plan(seed)
		out := make([]string, n)
		for i := range out {
			out[i] = p.next()
		}
		return out
	}
	kvOps := func(seed int64, client int) []kvOp {
		g := newKVGen(seed, client)
		out := make([]kvOp, n)
		for i := range out {
			out[i] = g.next()
		}
		return out
	}
	// recover: the seed image plus both clients' history.
	recoverInputs := func(seed int64) []any {
		return []any{seedImage(seed), kvOps(seed, 1), kvOps(seed, 2)}
	}
	gens := map[string]func(int64) any{
		"oo7":     func(s int64) any { return oo7Ops(s) },
		"kv":      func(s int64) any { return []any{kvOps(s, 1), kvOps(s, 2)} },
		"recover": func(s int64) any { return recoverInputs(s) },
	}
	for name, gen := range gens {
		for _, seed := range []int64{1, 2, 42} {
			if !reflect.DeepEqual(gen(seed), gen(seed)) {
				t.Errorf("%s: seed %d generated two different sequences", name, seed)
			}
			if reflect.DeepEqual(gen(seed), gen(seed+1)) {
				t.Errorf("%s: seeds %d and %d generated the same sequence", name, seed, seed+1)
			}
		}
	}
}

// Every block of three OO7 transactions runs each traversal once.
func TestOO7PlanKeepsTheMix(t *testing.T) {
	p := newOO7Plan(7)
	for b := 0; b < 50; b++ {
		seen := map[string]bool{}
		for i := 0; i < 3; i++ {
			seen[p.next()] = true
		}
		if len(seen) != 3 {
			t.Fatalf("block %d repeats a traversal: %v", b, seen)
		}
	}
}

// Locks are drawn from the shared set, hottest first, and the two
// clients draw different sequences.
func TestKVGenShape(t *testing.T) {
	g1, g2 := newKVGen(1, 1), newKVGen(1, 2)
	counts := make([]int, kvLocks)
	same := true
	for i := 0; i < 20000; i++ {
		a, b := g1.next(), g2.next()
		if a.lock >= kvLocks {
			t.Fatalf("lock %d outside the set", a.lock)
		}
		counts[a.lock]++
		if a.lock != b.lock || !bytes.Equal(a.payload[:], b.payload[:]) {
			same = false
		}
	}
	if same {
		t.Fatal("both clients drew the same sequence")
	}
	if counts[0] <= counts[1] || counts[1] <= counts[10] || counts[10] <= counts[200] {
		t.Fatalf("lock popularity not Zipf-skewed: %d %d %d %d", counts[0], counts[1], counts[10], counts[200])
	}
}
