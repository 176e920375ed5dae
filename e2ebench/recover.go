package main

import (
	"fmt"
	"os"
	"runtime"

	"lbc"
	lbcmetrics "lbc/internal/metrics"
	"lbc/internal/rvm"
	"lbc/internal/wal"
)

// recoverHistoryTx is how many kv transactions each of the two clients
// commits while writing the recover workload's history.
const recoverHistoryTx = 3000

// history is a committed log history and what the live cluster that
// wrote it converged to.
type history struct {
	dir       string
	seed      []byte
	committed int
	live      [32]byte
	userBytes int64 // unique bytes the application wrote
	logBytes  int64 // bytes appended to the nodes' log devices
	wireBytes int64 // bytes handed to the transport
}

// writeHistory commits the seeded kv history on a live two-node
// cluster, quiesces it, forces the logs, records its converged image
// and stops it.
func writeHistory(dir string, seed int64) (*history, error) {
	h := &history{dir: dir, seed: seedImage(seed)}
	c, err := startCluster(dir, 2, h.seed, kvSegment)
	if err != nil {
		return nil, err
	}
	defer c.close()
	clients := []*client{{id: 1, node: c.nodes[0]}, {id: 2, node: c.nodes[1]}}
	acked := []map[uint32]ack{{}, {}}
	errs := make(chan error, len(clients))
	for i, cl := range clients {
		go func(cl *client, acked map[uint32]ack) {
			g := newKVGen(seed, cl.id)
			for i := 0; i < recoverHistoryTx; i++ {
				if err := kvTx(cl, g.next(), acked); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(cl, acked[i])
	}
	for range clients {
		if err := <-errs; err != nil {
			return nil, fmt.Errorf("history: %w", err)
		}
	}
	if err := c.quiesce(kvLocks); err != nil {
		return nil, err
	}
	for _, nd := range c.nodes {
		if err := nd.rvm.Flush(); err != nil {
			return nil, err
		}
	}
	imgs := c.images()
	if err := checkKV(imgs, lastAcked(acked...)); err != nil {
		return nil, err
	}
	h.live = digest(imgs[0])
	for _, cl := range clients {
		h.committed += len(cl.events)
	}
	h.userBytes = c.stats().Counter(lbcmetrics.CtrBytesLogged)
	for _, nd := range c.nodes {
		h.logBytes += nd.probe.appendBytes.Load()
		h.wireBytes += nd.probe.frameBytes.Load()
	}
	return h, nil
}

// restart is one timed merge-plus-recover.
type restart struct {
	begin, merged, end int64
	records            int
	kids               []child
}

// runRecover measures restart time: each operation merges the history's
// per-node logs into a fresh device and recovers it into a fresh copy
// of the seed image.
func runRecover(o options) (*outcome, error) {
	var hs []*history
	h, setupS, err := setupLoop(o, func(dir string) (*history, error) {
		hist, err := writeHistory(dir, o.seed)
		if err == nil {
			hs = append(hs, hist)
		}
		return hist, err
	}, func(hist *history) { os.RemoveAll(hist.dir) })
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(h.dir)
	p := &probe{}
	var logs []wal.Device
	for id := uint32(1); id <= 2; id++ {
		d, err := wal.OpenFileDevice(logPath(h.dir, id))
		if err != nil {
			return nil, err
		}
		defer d.Close()
		logs = append(logs, wrapDevice(d, p))
	}
	out := &outcome{}
	var plain, traced []restart
	var goDelta goCounters
	loop := func(seconds float64, tracing bool) {
		p.tracing.Store(tracing)
		defer p.tracing.Store(false)
		g0 := readGo()
		for until := now() + int64(seconds*1e9); now() < until; {
			out.attempted++
			// A restarted process starts with an empty heap; collecting
			// first keeps one restart's garbage out of the next one's time.
			runtime.GC()
			r, err := restartOnce(h, logs, p, tracing)
			if err != nil {
				out.failed++
				if out.checkErr == nil {
					out.checkErr = err
				}
				continue
			}
			if tracing {
				traced = append(traced, r)
			} else {
				plain = append(plain, r)
			}
		}
		if !tracing {
			g1 := readGo()
			goDelta.alloc += g1.alloc - g0.alloc
			goDelta.gcCPU += g1.gcCPU - g0.gcCPU
			goDelta.total += g1.total - g0.total
		}
	}
	loop(warmupSeconds(o), false)
	out.attempted, out.failed, plain, goDelta = 0, 0, nil, goCounters{}
	p.resetSamples()
	start := now()
	slices(o.seconds, o.trace, loop)
	if !o.trace {
		until := start + int64(o.seconds*1e9)
		var user, logged, wire, committed int64
		for _, hist := range hs {
			user += hist.userBytes
			logged += hist.logBytes
			wire += hist.wireBytes
			committed += int64(hist.committed)
		}
		durs := restartDurations(plain)
		warnTail("restarts", len(durs), tailQ)
		p50 := slicedQuantile(durs, start, until, 0.5) * msPerNS
		tail := slicedQuantile(durs, start, until, tailQ) * msPerNS
		// No live peer waits here: after a crash, committed writes are
		// visible again once the restart ends, so commit-to-visible is
		// the restart time.
		out.metrics = []metric{
			{name: "ops_per_s", unit: "1/s", value: slicedRate(durs, start, until), alias: "restarts_per_s"},
			{name: "op_ms_p50", unit: "ms", value: p50, alias: "recover_ms_p50"},
			{name: "op_ms_tail", unit: "ms", value: tail, alias: "recover_ms_p90"},
			{name: "handoff_ms_p50", unit: "ms", value: p50, alias: "visible_after_restart_ms_p50"},
			{name: "handoff_ms_tail", unit: "ms", value: tail, alias: "visible_after_restart_ms_p90"},
			{name: "stored_bytes_per_user_byte", unit: "B/B", value: ratio(logged, user), alias: "history_stored_bytes_per_user_byte"},
			{name: "wire_bytes_per_tx", unit: "B", value: ratio(wire, committed), alias: "history_wire_bytes_per_tx"},
			{name: "setup_s", unit: "s", value: setupS},
			{name: "mem_mb", unit: "MB", value: peakRSSMB()},
		}
		return out, nil
	}
	out.metrics = append(recoverPerLayer(traced, p, int64(len(plain)+len(traced)), quantile(values(restartDurations(plain)), 0.5)),
		goMetrics(goDelta, int64(len(plain)))...)
	restartSpans := func(emit func(span)) {
		for i, r := range traced {
			id := uint64(i + 1)
			emit(span{id, 1, 0, "restart", r.begin, r.end, 0})
			emit(span{id, 2, 1, "merge", r.begin, r.merged, int64(r.records)})
			emit(span{id, 3, 1, "recover", r.merged, r.end, int64(r.records)})
			for j, k := range r.kids {
				parent := 2
				if k.start >= r.merged {
					parent = 3
				}
				emit(span{id, 4 + j, parent, k.name, k.start, k.end, k.n})
			}
		}
	}
	if err := writeSpans(o, restartSpans); err != nil {
		return nil, err
	}
	out.metrics = completePerLayer(out.metrics)
	return out, nil
}

// restartOnce merges the logs into a fresh device, recovers them into a
// fresh copy of the seed image and checks the result.
func restartOnce(h *history, logs []wal.Device, p *probe, traced bool) (restart, error) {
	merged := wrapDevice(wal.NewMemDevice(), p)
	data := rvm.NewMemStore()
	if err := data.StoreRegion(uint32(regionID), h.seed); err != nil {
		return restart{}, err
	}
	// A restart makes thousands of wal calls; each phase keeps one
	// aggregate span per call name.
	mergeOp, recoverOp := &opTrace{agg: true}, &opTrace{agg: true}
	if traced {
		p.op.Store(mergeOp)
		defer p.op.Store(nil)
	}
	var r restart
	r.begin = now()
	n, err := lbc.MergeLogs(merged, logs...)
	if err != nil {
		return r, fmt.Errorf("merge: %w", err)
	}
	r.merged = now()
	if traced {
		p.op.Store(recoverOp)
	}
	res, err := lbc.Recover(merged, data, false)
	if err != nil {
		return r, fmt.Errorf("recover: %w", err)
	}
	r.end = now()
	r.records = res.Records
	r.kids = append(mergeOp.layOut(r.begin), recoverOp.layOut(r.merged)...)
	img, err := data.LoadRegion(uint32(regionID))
	if err != nil {
		return r, err
	}
	return r, checkRecovered(img, h.live, n, res.Records, h.committed)
}

// restartDurations returns each restart's merge-plus-recover time,
// stamped with its end.
func restartDurations(rs []restart) []sample {
	out := make([]sample, len(rs))
	for i, r := range rs {
		out[i] = sample{at: r.end, v: r.end - r.begin}
	}
	return out
}

// recoverPerLayer reports the traced restarts' per-layer metrics; the
// probe's counts cover ops restarts.
func recoverPerLayer(rs []restart, p *probe, ops, untracedP50 int64) []metric {
	var merge, rec []int64
	var records int64
	durs := make([]int64, len(rs))
	selfs := make([]map[string]int64, len(rs))
	for i, r := range rs {
		merge = append(merge, r.merged-r.begin)
		rec = append(rec, r.end-r.merged)
		records += int64(r.records)
		durs[i] = r.end - r.begin
		selfs[i] = selfTimes(r.begin, r.end, []segment{
			{"merge", r.begin, r.merged},
			{"rvm", r.merged, r.end},
		}, r.kids)
	}
	var l layerSample
	l.add(p)
	ms := []metric{
		{name: "rvm.recover_ms_p50", unit: "ms", value: float64(quantile(rec, 0.5)) * msPerNS},
		{name: "rvm.recover_records", unit: "count", value: ratio(records, int64(len(rs)))},
		perOp("wal.appends_per_tx", l.appends, ops),
		{name: "wal.append_bytes_per_tx", unit: "B", value: ratio(l.appendBytes, ops)},
		us("wal.append_us_p50", quantile(l.appendNS, 0.5)),
		us("wal.append_us_p99", quantile(l.appendNS, 0.99)),
		perOp("wal.syncs_per_tx", l.syncs, ops),
		us("wal.sync_us_p50", quantile(l.syncNS, 0.5)),
		us("wal.sync_us_p99", quantile(l.syncNS, 0.99)),
		{name: "wal.records_per_sync", unit: "count", value: ratio(l.appends, l.syncs)},
		{name: "wal.read_mb", unit: "MB", value: ratio(l.readBytes, ops) / 1e6},
		{name: "wal.read_ms", unit: "ms", value: ratio(l.readNS, ops) * msPerNS},
		{name: "merge.ms_p50", unit: "ms", value: float64(quantile(merge, 0.5)) * msPerNS},
		{name: "merge.records", unit: "count", value: ratio(records, int64(len(rs)))},
	}
	return append(ms, traceMetrics(durs, selfs, untracedP50)...)
}
