package main

import (
	"testing"

	"lbc/internal/netproto"
	"lbc/internal/rvm"
	"lbc/internal/store"
	"lbc/internal/wal"
)

// Each wrapper must implement an optional interface exactly when the
// value it wraps does; otherwise measuring would move the program onto
// its fallback path (or claim a fast path the inner value lacks).
func TestWrappersForwardOptionalInterfaces(t *testing.T) {
	p := &probe{}
	dir := t.TempDir()
	file, err := wal.OpenFileDevice(dir + "/log")
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	srv, err := store.NewServer("127.0.0.1:0", store.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := store.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	devices := map[string]wal.Device{
		"mem":    wal.NewMemDevice(),
		"file":   file,
		"remote": cli.LogDevice(1),
		"plain":  struct{ wal.Device }{wal.NewMemDevice()},
	}
	for name, d := range devices {
		_, in := d.(wal.HeadTrimmer)
		_, out := wrapDevice(d, p).(wal.HeadTrimmer)
		if in != out {
			t.Errorf("device %s: inner HeadTrimmer %v, wrapper %v", name, in, out)
		}
	}

	mesh, err := netproto.NewTCPMesh(1, "127.0.0.1:0", map[netproto.NodeID]string{})
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	hub := netproto.NewHub()
	transports := map[string]netproto.Transport{
		"tcp":   mesh,
		"chan":  hub.Endpoint(1),
		"plain": struct{ netproto.Transport }{hub.Endpoint(2)},
	}
	for name, tr := range transports {
		_, in := tr.(netproto.VectorSender)
		_, out := wrapTransport(tr, p).(netproto.VectorSender)
		if in != out {
			t.Errorf("transport %s: inner VectorSender %v, wrapper %v", name, in, out)
		}
	}

	stores := map[string]rvm.DataStore{
		"mem":    rvm.NewMemStore(),
		"remote": cli,
		"plain":  struct{ rvm.DataStore }{rvm.NewMemStore()},
	}
	for name, ds := range stores {
		_, in := ds.(rvm.PageStore)
		_, out := wrapStore(ds, p).(rvm.PageStore)
		if in != out {
			t.Errorf("store %s: inner PageStore %v, wrapper %v", name, in, out)
		}
	}

	// The table covers both answers for every interface.
	if _, ok := devices["plain"].(wal.HeadTrimmer); ok {
		t.Error("plain device unexpectedly trims")
	}
	if _, ok := devices["mem"].(wal.HeadTrimmer); !ok {
		t.Error("mem device does not trim")
	}
	if _, ok := transports["tcp"].(netproto.VectorSender); !ok {
		t.Error("TCP mesh does not send vectors")
	}
	if _, ok := stores["mem"].(rvm.PageStore); !ok {
		t.Error("mem store does not store pages")
	}
}

// The forwarded calls reach the wrapped value, and the wrapper counts
// what passes through it.
func TestWrappersForwardAndCount(t *testing.T) {
	p := &probe{}
	inner := wal.NewMemDevice()
	d := wrapDevice(inner, p)
	if _, err := d.Append([]byte("hello world")); err != nil {
		t.Fatal(err)
	}
	if err := d.(wal.HeadTrimmer).TrimHead(6); err != nil {
		t.Fatal(err)
	}
	if sz, _ := inner.Size(); sz != 5 {
		t.Fatalf("inner size after trim = %d, want 5", sz)
	}
	if p.appends.Load() != 1 || p.appendBytes.Load() != 11 {
		t.Fatalf("counted %d appends / %d bytes, want 1 / 11", p.appends.Load(), p.appendBytes.Load())
	}

	ms := rvm.NewMemStore()
	ds := wrapStore(ms, p)
	if err := ds.(rvm.PageStore).StorePage(7, 2, []byte("xy")); err != nil {
		t.Fatal(err)
	}
	img, err := ms.LoadRegion(7)
	if err != nil || string(img[2:]) != "xy" {
		t.Fatalf("page write did not reach the inner store: %q, %v", img, err)
	}
}

// While tracing, calls made during an operation become its children;
// an aggregating operation keeps one child per call name.
func TestProbeRecordsChildren(t *testing.T) {
	p := &probe{}
	p.tracing.Store(true)
	d := wrapDevice(wal.NewMemDevice(), p)
	op := &opTrace{agg: true}
	p.op.Store(op)
	for i := 0; i < 3; i++ {
		if _, err := d.Append([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	p.op.Store(nil)
	kids := op.layOut(100)
	if len(kids) != 2 || kids[0].name != "wal.append" || kids[0].n != 3 || kids[1].name != "wal.sync" {
		t.Fatalf("children = %+v", kids)
	}
	if kids[0].start != 100 || kids[1].start != kids[0].end {
		t.Fatalf("aggregates not laid out back to back: %+v", kids)
	}
	if len(p.appendNS) != 3 || len(p.syncNS) != 1 {
		t.Fatalf("samples: %d appends, %d syncs", len(p.appendNS), len(p.syncNS))
	}
}
