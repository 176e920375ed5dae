package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"lbc/internal/bench"
	"lbc/internal/coherency"
	"lbc/internal/oo7"
	"lbc/internal/rvm"
)

// txSpec describes a closed-loop transaction workload.
type txSpec struct {
	app   string // application layer in the self-time breakdown
	locks int    // locks to cycle through when quiescing
	setup func(dir string) (*cluster, error)
	// load binds the clients to the cluster and returns their
	// transaction and the output check to run after quiescing.
	load func(c *cluster) ([]*client, func(*client) error, func() error, error)
}

// warmupSeconds of load run before the first measured window, so
// connections, pools and caches are warm.
func warmupSeconds(o options) float64 { return min(1, o.seconds/5) }

func runTx(o options, spec txSpec) (*outcome, error) {
	c, setupS, err := setupLoop(o, spec.setup, func(c *cluster) {
		c.close()
		os.RemoveAll(c.dir)
	})
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(c.dir)
	defer c.close()
	loadNS := int64(0)
	for _, nd := range c.nodes {
		loadNS += nd.probe.loadNS.Load()
	}
	clients, op, check, err := spec.load(c)
	if err != nil {
		return nil, err
	}
	measure(c, clients, warmupSeconds(o), op)

	out := &outcome{}
	var windows []*window
	if !o.trace {
		w := measure(c, clients, o.seconds, op)
		windows = append(windows, w)
		out.metrics = append(w.endToEnd(),
			metric{name: "setup_s", unit: "s", value: setupS},
			metric{name: "mem_mb", unit: "MB", value: peakRSSMB()})
		out.info = w.p99s()
	} else {
		plain, traced := measureTraced(c, clients, o.seconds, op)
		windows = append(windows, plain, traced)
		out.metrics = append(traced.perLayer(spec.app, quantile(values(plain.lat), 0.5)),
			goMetrics(plain.goDelta, plain.committed)...)
		out.metrics = append(out.metrics, metric{name: "store.load_region_ms", unit: "ms",
			value: float64(loadNS) / float64(len(c.nodes)) * msPerNS})
		if err := writeSpans(o, txSpans(traced, spec.app)); err != nil {
			return nil, err
		}
		out.metrics = completePerLayer(out.metrics)
	}
	for _, w := range windows {
		out.attempted += w.attempted
		out.failed += w.failed
		if w.firstErr != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %d of %d transactions failed; first: %v\n", w.failed, w.attempted, w.firstErr)
		}
	}
	if err := c.quiesce(spec.locks); err != nil {
		out.checkErr = err
	} else {
		out.checkErr = check()
	}
	return out, nil
}

// runOO7 is the paper's §4 experiment: two nodes ping-pong one lock
// over the OO7 Small database, each transaction running the next
// traversal of the seeded T12-A/T2-A/T2-B mix and committing NoFlush.
func runOO7(o options) (*outcome, error) {
	return runTx(o, txSpec{
		app:   "oo7",
		locks: 1,
		setup: func(dir string) (*cluster, error) {
			img, err := buildOO7(oo7.Small())
			if err != nil {
				return nil, err
			}
			return startCluster(dir, 2, img, len(img))
		},
		load: func(c *cluster) ([]*client, func(*client) error, func() error, error) {
			var dbs []*oo7.DB
			var regs []*rvm.Region
			for _, nd := range c.nodes {
				db, err := oo7.Open(nd.reg)
				if err != nil {
					return nil, nil, nil, err
				}
				dbs = append(dbs, db)
				regs = append(regs, nd.reg)
			}
			// The lock already serializes the transactions; the mutex
			// makes that ordering visible to the race detector.
			var mu sync.Mutex
			plan := newOO7Plan(o.seed)
			op := func(cl *client) error {
				_, err := cl.tx(0, rvm.NoFlush, func(tx *coherency.Tx) error {
					mu.Lock()
					name := plan.next()
					mu.Unlock()
					_, err := bench.RunTraversal(dbs[cl.id-1], tx, name)
					return err
				})
				return err
			}
			clients := []*client{{id: 1, node: c.nodes[0]}, {id: 2, node: c.nodes[1]}}
			return clients, op, func() error { return checkOO7(regs) }, nil
		},
	})
}

// buildOO7 builds a pristine OO7 database image. It is bench.BuildImage
// without the process-wide memo: with the memo, set-up rounds 2 and 3
// would skip the build, and setup_s, the median of the three rounds,
// would leave the build out.
func buildOO7(cfg oo7.Config) ([]byte, error) {
	r, err := rvm.Open(rvm.Options{Node: 99})
	if err != nil {
		return nil, err
	}
	defer r.Close()
	reg, err := r.Map(1, oo7.RegionSize(cfg))
	if err != nil {
		return nil, err
	}
	tx := r.Begin(rvm.NoRestore)
	if _, err := oo7.Build(tx, reg, cfg); err != nil {
		return nil, err
	}
	if _, err := tx.Commit(rvm.NoFlush); err != nil {
		return nil, err
	}
	return append([]byte(nil), reg.Bytes()...), nil
}

// runKV is small transactions on a Zipf-hot lock set: clients on nodes
// 1 and 2 each write 128 seeded bytes into one lock's slot; node 3 is a
// passive cache that receives every update.
func runKV(o options) (*outcome, error) {
	return runTx(o, txSpec{
		app:   "kv",
		locks: kvLocks,
		setup: func(dir string) (*cluster, error) {
			return startCluster(dir, 3, seedImage(o.seed), kvSegment)
		},
		load: func(c *cluster) ([]*client, func(*client) error, func() error, error) {
			clients := []*client{{id: 1, node: c.nodes[0]}, {id: 2, node: c.nodes[1]}}
			acked := make([]map[uint32]ack, len(clients))
			gens := make([]*kvGen, len(clients))
			for i := range clients {
				acked[i] = map[uint32]ack{}
				gens[i] = newKVGen(o.seed, clients[i].id)
			}
			op := func(cl *client) error {
				return kvTx(cl, gens[cl.id-1].next(), acked[cl.id-1])
			}
			check := func() error { return checkKV(c.images(), lastAcked(acked...)) }
			return clients, op, check, nil
		},
	})
}

// kvFlushEvery is how many NoFlush commits a kv client makes between
// forces of its node's log (rvm_flush), which bounds what a crash can
// lose. Forcing more often makes kv's figures follow the host disk's
// fsync latency, whose run-to-run spread is wider than any bound the
// benchmark may set: with a force every 64 commits, throughput fell by a
// third while the disk was busy.
const kvFlushEvery = 1024

// kvTx commits one kv write and records its acknowledgement; every
// kvFlushEvery-th transaction of the client then forces the log.
func kvTx(cl *client, op kvOp, acked map[uint32]ack) error {
	rec, err := cl.tx(op.lock, rvm.NoFlush, func(tx *coherency.Tx) error {
		return tx.Write(cl.node.reg, uint64(kvSlot(op.lock)), op.payload[:])
	})
	if err != nil {
		return err
	}
	found := false
	for _, l := range rec.Locks {
		if l.LockID == op.lock {
			acked[op.lock] = ack{seq: l.Seq, payload: op.payload}
			found = true
		}
	}
	if !found {
		return fmt.Errorf("kv: commit record has no lock %d", op.lock)
	}
	if cl.seq%kvFlushEvery == 0 {
		return cl.node.rvm.Flush()
	}
	return nil
}

// span is one traced interval. All spans of one operation share its id.
type span struct {
	Op     uint64 `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int64  `json:"n,omitempty"`
}

// txSpans lays out each traced transaction: the root tx span; acquire;
// the application's work with one aggregate detect span (carrying the
// SetRange count) under it; commit, with the node's wal and netproto
// calls during it as its children.
func txSpans(w *window, app string) func(emit func(span)) {
	return func(emit func(span)) {
		for i := range w.events {
			e := &w.events[i]
			emit(span{e.id, 1, 0, "tx", e.begin, e.commit, 0})
			emit(span{e.id, 2, 1, "acquire", e.acquiring, e.acquired, 0})
			emit(span{e.id, 3, 1, app, e.acquired, e.worked, 0})
			emit(span{e.id, 4, 3, "detect", e.acquired, e.acquired + e.detectNS, e.setRangeCt})
			emit(span{e.id, 5, 1, "commit", e.commitStart, e.commit, 0})
			for j, k := range w.kids[i] {
				emit(span{e.id, 6 + j, 5, k.name, k.start, k.end, k.n})
			}
		}
	}
}

// writeSpans streams the spans that lay emits to a gzipped JSON-lines
// file.
func writeSpans(o options, lay func(emit func(span))) error {
	path := filepath.Join(o.work, fmt.Sprintf("spans-%s-%d.jsonl.gz", o.workload, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		f.Close()
		return err
	}
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	n := 0
	lay(func(s span) {
		if err == nil {
			err = enc.Encode(s)
			n++
		}
	})
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = zw.Close()
	}
	if err != nil {
		f.Close()
		return err
	}
	fmt.Fprintf(os.Stderr, "e2ebench: %d spans written to %s\n", n, path)
	return f.Close()
}
