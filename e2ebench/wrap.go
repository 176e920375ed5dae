package main

import (
	"io"
	"sync"
	"sync/atomic"
	"time"

	"lbc/internal/coherency"
	"lbc/internal/lockmgr"
	"lbc/internal/netproto"
	"lbc/internal/rvm"
	"lbc/internal/wal"
)

// epoch anchors every timestamp the benchmark records, so spans from
// all nodes and clients share one monotonic clock.
var epoch = time.Now()

// now returns nanoseconds since epoch on the monotonic clock.
func now() int64 { return int64(time.Since(epoch)) }

// probe collects one node's view of the layers below coherency: the log
// device, the transport and the data store. Counts are always kept
// (atomic adds, cheap enough for untraced runs); durations and spans
// are recorded only while tracing is on.
type probe struct {
	tracing atomic.Bool

	appends, appendBytes, syncs atomic.Int64
	frames, frameBytes          atomic.Int64
	readBytes, readNS           atomic.Int64
	loadNS                      atomic.Int64

	// op is the operation in flight on this node's client: its commit
	// (or restart), whose wal and netproto calls become child spans.
	op atomic.Pointer[opTrace]

	mu                       sync.Mutex
	appendNS, syncNS, sendNS []int64
	recvUpdateNS, recvLockNS []int64
}

// child is one timed call made during an operation.
type child struct {
	name       string
	start, end int64
	n          int64
}

// opTrace gathers the child calls of one operation. Calls may come from
// the node's handler goroutines as well as its client, hence the lock.
// An aggregating opTrace keeps one child per call name, whose duration
// is the calls' total and whose n counts them; see layOut.
type opTrace struct {
	mu   sync.Mutex
	agg  bool
	kids []child
}

func (o *opTrace) add(c child) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.agg {
		for i := range o.kids {
			if o.kids[i].name == c.name {
				o.kids[i].end += c.end - c.start
				o.kids[i].n++
				return
			}
		}
		c.end, c.start, c.n = c.end-c.start, 0, 1
	}
	o.kids = append(o.kids, c)
}

// layOut returns the children, with aggregated ones placed back to back
// from start: each is one span as long as its calls took in total.
func (o *opTrace) layOut(start int64) []child {
	o.mu.Lock()
	defer o.mu.Unlock()
	kids := append([]child(nil), o.kids...)
	if o.agg {
		for i := range kids {
			kids[i].start, kids[i].end = start, start+kids[i].end
			start = kids[i].end
		}
	}
	return kids
}

// timed records one call's duration into samples (unless nil) and, when
// an operation is in flight, as a child span of it.
func (p *probe) timed(samples *[]int64, name string, start int64, n int64) {
	end := now()
	if samples != nil {
		p.mu.Lock()
		*samples = append(*samples, end-start)
		p.mu.Unlock()
	}
	if o := p.op.Load(); o != nil {
		o.add(child{name: name, start: start, end: end, n: n})
	}
}

// resetSamples drops the recorded durations and zeroes the counters, at
// the start of a measured window.
func (p *probe) resetSamples() {
	for _, c := range []*atomic.Int64{&p.appends, &p.appendBytes, &p.syncs,
		&p.frames, &p.frameBytes, &p.readBytes, &p.readNS} {
		c.Store(0)
	}
	p.mu.Lock()
	p.appendNS, p.syncNS, p.sendNS = nil, nil, nil
	p.recvUpdateNS, p.recvLockNS = nil, nil
	p.mu.Unlock()
}

// device times a wal.Device. wrapDevice returns a value that implements
// wal.HeadTrimmer exactly when the wrapped device does, so measuring
// never moves rvm off its atomic head-trim path.
type device struct {
	wal.Device
	p *probe
}

type trimmingDevice struct {
	*device
	ht wal.HeadTrimmer
}

func (d *trimmingDevice) TrimHead(upTo int64) error { return d.ht.TrimHead(upTo) }

func wrapDevice(d wal.Device, p *probe) wal.Device {
	w := &device{Device: d, p: p}
	if ht, ok := d.(wal.HeadTrimmer); ok {
		return &trimmingDevice{device: w, ht: ht}
	}
	return w
}

func (d *device) Append(b []byte) (int64, error) {
	d.p.appends.Add(1)
	d.p.appendBytes.Add(int64(len(b)))
	if !d.p.tracing.Load() {
		return d.Device.Append(b)
	}
	t0 := now()
	off, err := d.Device.Append(b)
	d.p.timed(&d.p.appendNS, "wal.append", t0, int64(len(b)))
	return off, err
}

func (d *device) Sync() error {
	d.p.syncs.Add(1)
	if !d.p.tracing.Load() {
		return d.Device.Sync()
	}
	t0 := now()
	err := d.Device.Sync()
	d.p.timed(&d.p.syncNS, "wal.sync", t0, 0)
	return err
}

func (d *device) Open(from int64) (io.ReadCloser, error) {
	rc, err := d.Device.Open(from)
	if err != nil {
		return nil, err
	}
	return &reader{ReadCloser: rc, p: d.p}, nil
}

// reader counts and times the bytes a recovery or merge scan reads.
type reader struct {
	io.ReadCloser
	p *probe
}

func (r *reader) Read(b []byte) (int, error) {
	t0 := now()
	n, err := r.ReadCloser.Read(b)
	r.p.readBytes.Add(int64(n))
	r.p.readNS.Add(now() - t0)
	if r.p.tracing.Load() {
		r.p.timed(nil, "wal.read", t0, int64(n))
	}
	return n, err
}

// transport times a netproto.Transport: sends, and the handlers of
// update and lock frames. wrapTransport returns a value that implements
// netproto.VectorSender exactly when the wrapped transport does, so
// measuring never moves sends onto the flatten fallback.
type transport struct {
	netproto.Transport
	p *probe
}

type vectorTransport struct {
	*transport
	vs netproto.VectorSender
}

func wrapTransport(tr netproto.Transport, p *probe) netproto.Transport {
	w := &transport{Transport: tr, p: p}
	if vs, ok := tr.(netproto.VectorSender); ok {
		return &vectorTransport{transport: w, vs: vs}
	}
	return w
}

func (t *transport) Send(to netproto.NodeID, typ uint8, payload []byte) error {
	t.p.frames.Add(1)
	t.p.frameBytes.Add(int64(len(payload)))
	if !t.p.tracing.Load() {
		return t.Transport.Send(to, typ, payload)
	}
	t0 := now()
	err := t.Transport.Send(to, typ, payload)
	t.p.timed(&t.p.sendNS, "netproto.send", t0, int64(len(payload)))
	return err
}

func (t *vectorTransport) SendV(to netproto.NodeID, typ uint8, parts [][]byte) error {
	var n int64
	for _, b := range parts {
		n += int64(len(b))
	}
	t.p.frames.Add(1)
	t.p.frameBytes.Add(n)
	if !t.p.tracing.Load() {
		return t.vs.SendV(to, typ, parts)
	}
	t0 := now()
	err := t.vs.SendV(to, typ, parts)
	t.p.timed(&t.p.sendNS, "netproto.send", t0, n)
	return err
}

// Handle times the coherency update-frame and lock-frame handlers.
func (t *transport) Handle(typ uint8, h netproto.Handler) {
	var samples *[]int64
	switch typ {
	case coherency.MsgUpdate, coherency.MsgUpdateStd, coherency.MsgUpdateBatch, coherency.MsgUpdateBatchC:
		samples = &t.p.recvUpdateNS
	case lockmgr.MsgLockReq, lockmgr.MsgLockPass, lockmgr.MsgLockToken,
		lockmgr.MsgMigrate, lockmgr.MsgMigrateAck, lockmgr.MsgHomeUpdate:
		samples = &t.p.recvLockNS
	default:
		t.Transport.Handle(typ, h)
		return
	}
	p := t.p
	t.Transport.Handle(typ, func(from netproto.NodeID, payload []byte) {
		if !p.tracing.Load() {
			h(from, payload)
			return
		}
		t0 := now()
		h(from, payload)
		end := now()
		p.mu.Lock()
		*samples = append(*samples, end-t0)
		p.mu.Unlock()
	})
}

// dataStore times region loads (the map step of set-up). wrapStore
// returns a value that implements rvm.PageStore exactly when the
// wrapped store does, so checkpoint sweeps keep their page-write path.
type dataStore struct {
	rvm.DataStore
	p *probe
}

type pageDataStore struct {
	*dataStore
	ps rvm.PageStore
}

func (s *pageDataStore) StorePage(id uint32, off int64, data []byte) error {
	return s.ps.StorePage(id, off, data)
}

func wrapStore(ds rvm.DataStore, p *probe) rvm.DataStore {
	w := &dataStore{DataStore: ds, p: p}
	if ps, ok := ds.(rvm.PageStore); ok {
		return &pageDataStore{dataStore: w, ps: ps}
	}
	return w
}

func (s *dataStore) LoadRegion(id uint32) ([]byte, error) {
	t0 := now()
	img, err := s.DataStore.LoadRegion(id)
	s.p.loadNS.Add(now() - t0)
	return img, err
}
