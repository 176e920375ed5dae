package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"lbc/internal/coherency"
	lbcmetrics "lbc/internal/metrics"
	"lbc/internal/rvm"
	"lbc/internal/wal"
)

// A run sets its workload up at least setupRounds times, and keeps
// going up to setupMaxRounds while the rounds so far took under
// setupBudget; setup_s is the median, so one slow round does not move it,
// and a set-up of a few milliseconds gets enough rounds to be steady.
const (
	setupRounds    = 3
	setupMaxRounds = 9
	setupBudget    = time.Second
)

// client is one closed-loop application thread bound to one node: it
// waits for each transaction before starting the next.
type client struct {
	id      int
	node    *node
	tracing bool
	seq     uint64

	events            []txEvent
	kids              [][]child // per event, while tracing
	attempted, failed int64
	firstErr          error
}

func (c *client) reset(tracing bool) {
	c.tracing = tracing
	c.events, c.kids = c.events[:0], nil
	c.attempted, c.failed, c.firstErr = 0, 0, nil
}

// tx runs one transaction on lock: Begin, Acquire, work, Commit. While
// tracing, the wal and netproto calls the node makes during Commit are
// recorded as the commit's children.
func (c *client) tx(lock uint32, mode rvm.CommitMode, work func(*coherency.Tx) error) (*wal.TxRecord, error) {
	st := c.node.rvm.Stats()
	c.seq++
	ev := txEvent{id: uint64(c.id)<<40 | c.seq, client: c.id, lock: lock}
	calls0 := st.Counter(lbcmetrics.CtrSetRangeCalls)
	ev.begin = now()
	tx := c.node.co.Begin(rvm.NoRestore)
	ev.acquiring = now()
	if err := tx.Acquire(lock); err != nil {
		return nil, err
	}
	ev.acquired = now()
	detect0 := st.Phase(lbcmetrics.PhaseDetect)
	if err := work(tx); err != nil {
		_ = tx.Abort() // releases the lock; the work error is the one to report
		return nil, err
	}
	ev.worked = now()
	ev.detectNS = int64(st.Phase(lbcmetrics.PhaseDetect) - detect0)
	var op *opTrace
	if c.tracing {
		op = &opTrace{}
		c.node.probe.op.Store(op)
	}
	ev.commitStart = now()
	rec, err := tx.Commit(mode)
	ev.commit = now()
	if op != nil {
		c.node.probe.op.Store(nil)
	}
	if err != nil {
		return nil, err
	}
	ev.setRangeCt = st.Counter(lbcmetrics.CtrSetRangeCalls) - calls0
	c.events = append(c.events, ev)
	if op != nil {
		c.kids = append(c.kids, op.layOut(0))
	}
	return rec, nil
}

// closedLoop runs every client until the deadline, each calling op and
// waiting for it before the next, and returns when all have stopped.
func closedLoop(clients []*client, until int64, op func(*client) error) {
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for now() < until {
				c.attempted++
				if err := op(c); err != nil {
					c.failed++
					if c.firstErr == nil {
						c.firstErr = err
					}
				}
			}
		}(c)
	}
	wg.Wait()
}

// goCounters samples the runtime's allocation and CPU accounting.
type goCounters struct {
	alloc        uint64
	gcCPU, total float64
}

func readGo() goCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	g := goCounters{alloc: ms.TotalAlloc}
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU, g.total = s[0].Value.Float64(), s[1].Value.Float64()
	}
	return g
}

// layerSample sums the nodes' probes over a window.
type layerSample struct {
	appends, appendBytes, syncs int64
	frames, frameBytes          int64
	readBytes, readNS           int64
	appendNS, syncNS, sendNS    []int64
	recvUpdateNS, recvLockNS    []int64
}

func (s *layerSample) add(p *probe) {
	s.appends += p.appends.Load()
	s.appendBytes += p.appendBytes.Load()
	s.syncs += p.syncs.Load()
	s.frames += p.frames.Load()
	s.frameBytes += p.frameBytes.Load()
	s.readBytes += p.readBytes.Load()
	s.readNS += p.readNS.Load()
	p.mu.Lock()
	s.appendNS = append(s.appendNS, p.appendNS...)
	s.syncNS = append(s.syncNS, p.syncNS...)
	s.sendNS = append(s.sendNS, p.sendNS...)
	s.recvUpdateNS = append(s.recvUpdateNS, p.recvUpdateNS...)
	s.recvLockNS = append(s.recvLockNS, p.recvLockNS...)
	p.mu.Unlock()
}

// window is what one stretch of closed-loop load recorded, in slices of
// time. Only traced slices keep whole events; the others keep the
// latency and handoff samples, so the benchmark's own memory stays small
// next to the system's.
type window struct {
	seconds           float64 // time the counters cover
	start, until      int64   // first and last instant, for slicing
	rates             []float64
	lat, hand         []sample
	committed         int64
	events            []txEvent // traced slices only
	kids              [][]child // per event
	ops               int64     // transactions the counters cover
	attempted, failed int64
	firstErr          error
	stats             *lbcmetrics.Stats // the nodes' program counters, merged
	server            lbcmetrics.Snapshot
	layers            layerSample
	goDelta           goCounters
	nodes             int
}

// keepPerSlice caps the latency samples one slice keeps: every step-th
// transaction, in client order. kv commits about 25 000 transactions a
// slice, and keeping them all made the benchmark's own samples a share
// of mem_mb that grew with throughput. 2 000 still leave twenty beyond a
// slice's p99.
const keepPerSlice = 2000

// run drives the clients for one slice of seconds with tracing on or
// off and adds what they did to the window.
func (w *window) run(c *cluster, clients []*client, seconds float64, traced bool, op func(*client) error) {
	c.setTracing(traced)
	for _, cl := range clients {
		cl.reset(traced)
	}
	g0 := readGo()
	start := now()
	until := start + int64(seconds*1e9)
	closedLoop(clients, until, op)
	g1 := readGo()
	c.setTracing(false)
	if w.start == 0 {
		w.start = start
	}
	w.until = until
	w.goDelta.alloc += g1.alloc - g0.alloc
	w.goDelta.gcCPU += g1.gcCPU - g0.gcCPU
	w.goDelta.total += g1.total - g0.total
	var events []txEvent
	for _, cl := range clients {
		events = append(events, cl.events...)
		w.attempted += cl.attempted
		w.failed += cl.failed
		if w.firstErr == nil {
			w.firstErr = cl.firstErr
		}
		if traced {
			w.kids = append(w.kids, cl.kids...)
		}
	}
	inTime := 0
	for i := range events {
		if events[i].commit <= until {
			inTime++
		}
	}
	step := max(1, (len(events)+keepPerSlice-1)/keepPerSlice)
	for i := 0; i < len(events); i += step {
		w.lat = append(w.lat, sample{at: events[i].commit, v: events[i].latency()})
	}
	w.rates = append(w.rates, float64(inTime)/seconds)
	w.hand = append(w.hand, handoffs(events)...)
	w.committed += int64(len(events))
	if traced {
		w.events = append(w.events, events...)
	}
}

// counters reads the program's and the probes' counters into w; they
// cover every slice run since the last resetStats.
func (w *window) counters(c *cluster, ops int64, seconds float64) {
	w.ops, w.seconds, w.nodes = ops, seconds, len(c.nodes)
	w.stats = c.stats()
	w.server = c.srv.Stats().Snapshot()
	w.layers = layerSample{}
	for _, nd := range c.nodes {
		w.layers.add(nd.probe)
	}
}

// slices runs a measured window of seconds as subWindows equal slices,
// calling run for each with tracing off. With alternate, each slice is
// split into an untraced and a traced half, so both halves see the same
// host conditions, their difference is the tracing overhead, and a
// traced run lasts as long as an untraced one.
func slices(seconds float64, alternate bool, run func(seconds float64, traced bool)) {
	each := seconds / subWindows
	for i := 0; i < subWindows; i++ {
		if !alternate {
			run(each, false)
			continue
		}
		run(each/2, false)
		run(each/2, true)
	}
}

// measure resets every counter and runs the clients untraced for
// seconds.
func measure(c *cluster, clients []*client, seconds float64, op func(*client) error) *window {
	c.resetStats()
	w := &window{}
	slices(seconds, false, func(s float64, _ bool) { w.run(c, clients, s, false, op) })
	w.counters(c, w.committed, seconds)
	return w
}

// measureTraced runs the clients for seconds in alternating untraced
// and traced half-slices. Counts cover both.
func measureTraced(c *cluster, clients []*client, seconds float64, op func(*client) error) (plain, traced *window) {
	c.resetStats()
	plain, traced = &window{}, &window{}
	slices(seconds, true, func(s float64, tr bool) {
		if tr {
			traced.run(c, clients, s, true, op)
		} else {
			plain.run(c, clients, s, false, op)
		}
	})
	traced.counters(c, plain.committed+traced.committed, seconds)
	return plain, traced
}

// tailQ is the tail percentile of every workload. p99 moved by 0.2 to
// 0.5 of its median between runs on a 2-vCPU VM (kv transactions, oo7
// and kv handoffs): it sits where rare scheduling and fsync stalls begin,
// and oo7 holds only about ten samples beyond it. p90 held steady.
const tailQ = 0.90

// endToEnd reports a transaction workload's user-visible metrics: the
// rate is the median over the slices, timings are sliced quantiles.
func (w *window) endToEnd() []metric {
	warnTail("transactions", len(w.lat), tailQ)
	warnTail("handoffs", len(w.hand), tailQ)
	return []metric{
		{name: "ops_per_s", unit: "1/s", value: median(w.rates), alias: "tx_per_s"},
		{name: "op_ms_p50", unit: "ms", value: slicedQuantile(w.lat, w.start, w.until, 0.5) * msPerNS, alias: "tx_ms_p50"},
		{name: "op_ms_tail", unit: "ms", value: slicedQuantile(w.lat, w.start, w.until, tailQ) * msPerNS, alias: "tx_ms_p90"},
		{name: "handoff_ms_p50", unit: "ms", value: slicedQuantile(w.hand, w.start, w.until, 0.5) * msPerNS},
		{name: "handoff_ms_tail", unit: "ms", value: slicedQuantile(w.hand, w.start, w.until, tailQ) * msPerNS, alias: "handoff_ms_p90"},
		{name: "stored_bytes_per_user_byte", unit: "B/B", value: ratio(w.layers.appendBytes, w.stats.Counter(lbcmetrics.CtrBytesLogged))},
		{name: "wire_bytes_per_tx", unit: "B", value: ratio(w.layers.frameBytes, w.ops)},
	}
}

// p99s are the p99 figures, printed for reading but not gated:
// they are too unsteady between runs to bound (see tailQ).
func (w *window) p99s() []metric {
	return []metric{
		{name: "tx_ms_p99", unit: "ms", value: slicedQuantile(w.lat, w.start, w.until, 0.99) * msPerNS},
		{name: "handoff_ms_p99", unit: "ms", value: slicedQuantile(w.hand, w.start, w.until, 0.99) * msPerNS},
	}
}

// warnTail notes a percentile with fewer than ten samples beyond it.
func warnTail(what string, n int, q float64) {
	if float64(n)*(1-q) < 10 {
		fmt.Fprintf(os.Stderr, "e2ebench: only %d %s: p%g has fewer than ten samples beyond it\n", n, what, q*100)
	}
}

// perLayer reports the traced window's per-layer metrics for a
// transaction workload; app names the application layer ("oo7", "kv").
func (w *window) perLayer(app string, untracedP50 int64) []metric {
	tx := w.ops
	var acq, commit, commitSelf, traverse []int64
	durs := make([]int64, len(w.events))
	selfs := make([]map[string]int64, len(w.events))
	for i := range w.events {
		e := &w.events[i]
		var kids []child
		if i < len(w.kids) {
			kids = w.kids[i]
		}
		acq = append(acq, e.acquired-e.acquiring)
		commit = append(commit, e.commit-e.commitStart)
		commitSelf = append(commitSelf, selfTimes(e.commitStart, e.commit,
			[]segment{{"coherency", e.commitStart, e.commit}}, kids)["coherency"])
		traverse = append(traverse, e.worked-e.acquired-e.detectNS)
		durs[i] = e.latency()
		selfs[i] = selfTimes(e.begin, e.commit, []segment{
			{"coherency", e.acquiring, e.acquired},
			{"app", e.acquired, e.worked},
			{"coherency", e.commitStart, e.commit},
		}, kids)
		selfs[i]["app"] -= e.detectNS
		selfs[i]["rvm"] += e.detectNS
	}
	if app != "oo7" {
		traverse = nil
	}
	st, l := w.stats, &w.layers
	ms := []metric{
		us("coherency.acquire_us_p50", quantile(acq, 0.5)),
		us("coherency.acquire_us_p99", quantile(acq, 0.99)),
		us("coherency.commit_us_p50", quantile(commit, 0.5)),
		us("coherency.commit_us_p99", quantile(commit, 0.99)),
		us("coherency.commit_self_us_p50", quantile(commitSelf, 0.5)),
		us("coherency.recv_update_us_p50", quantile(l.recvUpdateNS, 0.5)),
		us("coherency.recv_update_us_p99", quantile(l.recvUpdateNS, 0.99)),
		count("coherency.records_stale", st.Counter(lbcmetrics.CtrRecordsStale)),
		count("coherency.send_window_stalls", st.Counter(lbcmetrics.CtrSendStalls)),
		perOp("rvm.set_range_calls_per_tx", st.Counter(lbcmetrics.CtrSetRangeCalls), tx),
		{name: "rvm.detect_us_per_tx", unit: "us", value: ratio(int64(st.Phase(lbcmetrics.PhaseDetect)), tx) * usPerNS},
		us("oo7.traverse_us_p50", quantile(traverse, 0.5)),
		perOp("wal.appends_per_tx", l.appends, tx),
		{name: "wal.append_bytes_per_tx", unit: "B", value: ratio(l.appendBytes, tx)},
		us("wal.append_us_p50", quantile(l.appendNS, 0.5)),
		us("wal.append_us_p99", quantile(l.appendNS, 0.99)),
		perOp("wal.syncs_per_tx", l.syncs, tx),
		us("wal.sync_us_p50", quantile(l.syncNS, 0.5)),
		us("wal.sync_us_p99", quantile(l.syncNS, 0.99)),
		{name: "wal.records_per_sync", unit: "count", value: ratio(l.appends, l.syncs)},
		{name: "wal.read_mb", unit: "MB", value: ratio(l.readBytes, tx) / 1e6},
		{name: "wal.read_ms", unit: "ms", value: ratio(l.readNS, tx) * msPerNS},
		perOp("netproto.frames_per_tx", l.frames, tx),
		{name: "netproto.bytes_per_tx", unit: "B", value: ratio(l.frameBytes, tx)},
		us("netproto.send_us_p50", quantile(l.sendNS, 0.5)),
		us("netproto.send_us_p99", quantile(l.sendNS, 0.99)),
		us("lockmgr.recv_us_p50", quantile(l.recvLockNS, 0.5)),
		us("lockmgr.recv_us_p99", quantile(l.recvLockNS, 0.99)),
		perOp("lockmgr.remote_msgs_per_tx", st.Counter(lbcmetrics.CtrLockRemote), tx),
		count("lockmgr.token_pass_retries", st.Counter(lbcmetrics.CtrTokenPassRetries)),
		perOp("parapply.records_applied_per_tx", st.Counter(lbcmetrics.CtrRecordsApplied), tx),
		us("parapply.apply_us_p99", st.Hist(lbcmetrics.HistApplyNS).Quantile(0.99)),
		{name: "parapply.worker_busy_share", unit: "share", value: float64(st.Counter(lbcmetrics.CtrApplyWorkerBusyNS)) /
			(w.seconds * 1e9 * float64(w.nodes*applyWorkers()))},
		count("parapply.backpressure", st.Counter(lbcmetrics.CtrApplyBackpressure)),
		perOp("store.requests_per_tx", storeRequests(w.server), tx),
		us("store.serve_write_us_p99", w.server.Hists[lbcmetrics.HistStoreServeWriteNS].Quantile(0.99)),
	}
	return append(ms, traceMetrics(durs, selfs, untracedP50)...)
}

// traceMetrics reports each layer's self time around the median
// operation and the tracing overhead against the untraced window.
func traceMetrics(durs []int64, selfs []map[string]int64, untracedP50 int64) []metric {
	band := medianBand(durs, selfs)
	var sum float64
	var out []metric
	for _, layer := range selfLayers {
		sum += band[layer]
		out = append(out, metric{name: layer + ".self_ms", unit: "ms", value: band[layer] * msPerNS})
	}
	p50 := quantile(durs, 0.5)
	return append(out,
		metric{name: "trace.self_sum_ms", unit: "ms", value: sum * msPerNS},
		metric{name: "trace.op_ms_p50", unit: "ms", value: float64(p50) * msPerNS},
		metric{name: "trace.untraced_op_ms_p50", unit: "ms", value: float64(untracedP50) * msPerNS},
		metric{name: "trace.overhead_ms", unit: "ms", value: float64(p50-untracedP50) * msPerNS},
	)
}

// selfLayers are the layers an operation's time is split into.
var selfLayers = []string{"coherency", "rvm", "app", "wal", "netproto", "merge", "bench"}

func us(name string, ns int64) metric {
	return metric{name: name, unit: "us", value: float64(ns) * usPerNS}
}

func count(name string, n int64) metric { return metric{name: name, unit: "count", value: float64(n)} }

func perOp(name string, n, ops int64) metric {
	return metric{name: name, unit: "count", value: ratio(n, ops)}
}

// applyWorkers is coherency's default parallel apply pool size.
func applyWorkers() int { return min(runtime.GOMAXPROCS(0), 8) }

// storeRequests sums the server's per-opcode request counters.
func storeRequests(s lbcmetrics.Snapshot) int64 {
	var n int64
	for name, v := range s.Counters {
		if strings.HasPrefix(name, "op_") && name != "op_bytes_in" && name != "op_errors" {
			n += v
		}
	}
	return n
}

// goMetrics reports allocation and GC cost over an untraced window.
func goMetrics(g goCounters, ops int64) []metric {
	share := 0.0
	if g.total > 0 {
		share = g.gcCPU / g.total
	}
	return []metric{
		{name: "go.alloc_bytes_per_tx", unit: "B", value: float64(g.alloc) / float64(max(ops, 1))},
		{name: "go.gc_cpu_share", unit: "share", value: share},
	}
}

// setupLoop sets the workload up in rounds, keeping the last result
// and tearing each other down before the next round, and returns the
// median time.
func setupLoop[T any](o options, setup func(dir string) (T, error), teardown func(T)) (T, float64, error) {
	var secs []float64
	var spent time.Duration
	for i := 0; ; i++ {
		var v T
		dir := filepath.Join(o.work, fmt.Sprintf("run-%d-%s-%d", os.Getpid(), o.workload, i))
		if err := os.RemoveAll(dir); err != nil {
			return v, 0, err
		}
		settle()
		t0 := time.Now()
		v, err := setup(dir)
		if err != nil {
			return v, 0, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t0)
		spent += d
		secs = append(secs, d.Seconds())
		if i+1 >= setupMaxRounds || (i+1 >= setupRounds && spent >= setupBudget) {
			settle()
			return v, median(secs), nil
		}
		teardown(v)
	}
}

// settle flushes dirty pages before a timed phase. On a file system
// mounted with online discard it also waits out the discards of files
// deleted earlier, which would otherwise stall the phase's fsyncs.
func settle() { syscall.Sync() }

// peakRSSMB reads the process's peak resident set.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
