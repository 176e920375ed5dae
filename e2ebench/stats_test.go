package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

func TestHandoffsPairWaitingAcquires(t *testing.T) {
	events := []txEvent{
		// Client 1 holds lock 0 over [0, 100]; client 2 waits from 10.
		{client: 1, lock: 0, acquiring: 0, acquired: 1, commitStart: 90, commit: 100},
		{client: 2, lock: 0, acquiring: 10, acquired: 130, commitStart: 140, commit: 150},
		// Client 2 takes lock 0 again after committing: not a handoff.
		{client: 2, lock: 0, acquiring: 160, acquired: 161, commitStart: 170, commit: 180},
		// Client 1 asks only after client 2 began committing: not waiting.
		{client: 1, lock: 0, acquiring: 175, acquired: 230, commitStart: 240, commit: 250},
		// The token passed inside Commit, before it returned: timed
		// from the Commit's start all the same.
		{client: 2, lock: 0, acquiring: 235, acquired: 248, commitStart: 260, commit: 270},
		// Another lock, never shared.
		{client: 1, lock: 7, acquiring: 300, acquired: 301, commitStart: 310, commit: 320},
	}
	got := handoffs(events)
	want := []sample{{at: 130, v: 40}, {at: 248, v: 8}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("handoffs = %v, want %v", got, want)
	}
}

func TestSelfTimesPartitionTheOperation(t *testing.T) {
	segs := []segment{{"coherency", 10, 40}, {"app", 40, 70}, {"coherency", 75, 100}}
	kids := []child{
		{name: "wal.append", start: 80, end: 90},
		{name: "netproto.send", start: 85, end: 95},  // overlaps the append
		{name: "netproto.send", start: 98, end: 130}, // runs past the commit
	}
	self := selfTimes(0, 100, segs, kids)
	want := map[string]int64{"coherency": 30 + 25 - 17, "app": 30, "wal": 10, "netproto": 7, "bench": 15}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self = %v, want %v", self, want)
	}
	var sum int64
	for _, v := range self {
		sum += v
	}
	if sum != 100 {
		t.Fatalf("self times sum to %d, want the operation's 100", sum)
	}
}

func TestSlicedMediansIgnoreABurst(t *testing.T) {
	// 10 slices of 100 samples each at 1 per ns; slice 3 is slow.
	var ss []sample
	for i := int64(0); i < 1000; i++ {
		v := int64(10)
		if i/100 == 3 {
			v = 1000
		}
		ss = append(ss, sample{at: i, v: v})
	}
	if got := slicedQuantile(ss, 0, 1000, 0.5); got != 10 {
		t.Fatalf("sliced p50 = %v, want 10", got)
	}
	// p99 needs 1000 samples per slice: one slice, the pooled p99.
	if got := slicedQuantile(ss, 0, 1000, 0.99); got != 1000 {
		t.Fatalf("pooled p99 = %v, want 1000", got)
	}
	if got := slicedRate(ss, 0, 1000); got != 1e9 {
		t.Fatalf("rate = %v/s, want 1e9", got)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []int64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	if q := quantile(xs, 0.5); q != 5 {
		t.Fatalf("p50 = %d", q)
	}
	if q := quantile(xs, 0.9); q != 9 {
		t.Fatalf("p90 = %d", q)
	}
	if q := quantile(nil, 0.5); q != 0 {
		t.Fatalf("empty p50 = %d", q)
	}
}

// BENCHMARK.json at the repository root lists exactly the metrics the
// program reports, with the same units and directions.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		E2E       []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", what, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit || got[i].Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", what, i, got[i], d)
			}
		}
	}
	same("end_to_end", doc.E2E, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(doc.Workloads), len(workloads))
	}
}
