package main

import (
	"math"
	"sort"
	"strings"
)

// quantile returns the nearest-rank q-quantile of samples (which it
// sorts in place), or 0 for no samples.
func quantile(samples []int64, q float64) int64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	i := int(math.Ceil(q*float64(len(samples)))) - 1
	return samples[max(0, min(i, len(samples)-1))]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

const (
	msPerNS = 1e-6
	usPerNS = 1e-3
)

// txEvent is one committed transaction as its client saw it. Times are
// nanoseconds on the benchmark's clock.
type txEvent struct {
	id                   uint64
	client               int
	lock                 uint32
	begin, acquiring     int64 // before Begin, before Acquire
	acquired, worked     int64 // Acquire returned, application work done
	commitStart, commit  int64 // before Commit, Commit returned
	detectNS, setRangeCt int64 // rvm detect time and SetRange calls
}

func (e *txEvent) latency() int64 { return e.commit - e.begin }

// sample is one measured value and the instant it completed.
type sample struct{ at, v int64 }

// subWindows is how many equal slices a measured window is cut into.
// Each end-to-end timing is the median of its per-slice values, so a
// burst of host noise that slows fewer than half of the slices barely
// moves it.
const subWindows = 20

// sliced cuts [start, end) into k equal slices, applies stat to the
// samples of each non-empty slice and returns the median. Samples past
// end belong to the last slice.
func sliced(samples []sample, start, end int64, k int, stat func([]sample) float64) float64 {
	k = max(k, 1)
	width := max((end-start)/int64(k), 1)
	bins := make([][]sample, k)
	for _, s := range samples {
		i := int((s.at - start) / width)
		i = max(0, min(i, k-1))
		bins[i] = append(bins[i], s)
	}
	var vals []float64
	for _, b := range bins {
		if len(b) > 0 {
			vals = append(vals, stat(b))
		}
	}
	return median(vals)
}

// slicedQuantile is the median of per-slice q-quantiles, using as many
// slices (up to subWindows) as leave each at least ten samples beyond
// its quantile.
func slicedQuantile(samples []sample, start, end int64, q float64) float64 {
	need := int(math.Ceil(10 / (1 - q)))
	k := min(subWindows, max(1, len(samples)/need))
	return sliced(samples, start, end, k, func(v []sample) float64 { return float64(quantile(values(v), q)) })
}

// slicedRate is the median over subWindows slices of the samples
// completed per second; samples past end are not counted.
func slicedRate(samples []sample, start, end int64) float64 {
	var in []sample
	for _, s := range samples {
		if s.at < end {
			in = append(in, s)
		}
	}
	perSlice := float64(end-start) / subWindows / 1e9
	return sliced(in, start, end, subWindows, func(v []sample) float64 { return rate(v, perSlice) })
}

// rate is the completions per second of one closed loop in a slice of
// seconds: the completions after the first over the time from the first
// to the last. A count over the slice would round to whole operations,
// a step of 3 % when a slice holds thirty restarts. With fewer than two
// completions, or all at one instant, it is the count over the slice.
func rate(v []sample, seconds float64) float64 {
	if len(v) < 2 {
		return float64(len(v)) / seconds
	}
	lo, hi := v[0].at, v[0].at
	for _, s := range v {
		lo, hi = min(lo, s.at), max(hi, s.at)
	}
	if hi == lo {
		return float64(len(v)) / seconds
	}
	return float64(len(v)-1) / (float64(hi-lo) / 1e9)
}

// values drops the timestamps.
func values(samples []sample) []int64 {
	out := make([]int64, len(samples))
	for i, s := range samples {
		out[i] = s.v
	}
	return out
}

// handoffs pairs each Acquire that returned a lock last committed by
// another client with that commit, and returns commit-to-visible
// latencies: from the start of the committer's Commit to the waiter's
// Acquire return. Only Acquires that were already waiting when the
// Commit started count. The start, not the return, because the token
// passes inside Commit: the waiter's Acquire and the committer's Commit
// then return in whichever order the scheduler runs them, and on a busy
// host most handoffs timed from the return read 0.
func handoffs(events []txEvent) []sample {
	byLock := map[uint32][]*txEvent{}
	for i := range events {
		e := &events[i]
		byLock[e.lock] = append(byLock[e.lock], e)
	}
	var out []sample
	for _, evs := range byLock {
		commits := append([]*txEvent(nil), evs...)
		sort.Slice(commits, func(i, j int) bool { return commits[i].commitStart < commits[j].commitStart })
		for _, a := range evs {
			// The lock's previous holder: the last commit that started
			// before this Acquire returned.
			k := sort.Search(len(commits), func(i int) bool { return commits[i].commitStart >= a.acquired })
			if k == 0 {
				continue
			}
			c := commits[k-1]
			if c.client == a.client || a.acquiring >= c.commitStart {
				continue
			}
			out = append(out, sample{at: a.acquired, v: a.acquired - c.commitStart})
		}
	}
	return out
}

// segment is an interval of an operation spent in one layer's call.
type segment struct {
	layer      string
	start, end int64
}

// selfTimes splits the operation [begin, end] into per-layer self time.
// Each segment's layer owns its interval minus the parts its child
// calls (wal.*, netproto.*) cover; overlapping children are counted
// once. Time outside every segment belongs to the benchmark itself.
func selfTimes(begin, end int64, segs []segment, kids []child) map[string]int64 {
	self := map[string]int64{}
	kids = append([]child(nil), kids...)
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	var covered int64
	for _, sg := range segs {
		own := sg.end - sg.start
		covered += own
		cursor := sg.start
		for _, k := range kids {
			s, e := max(k.start, cursor), min(k.end, sg.end)
			if e <= s {
				continue
			}
			layer, _, _ := strings.Cut(k.name, ".")
			self[layer] += e - s
			own -= e - s
			cursor = e
		}
		self[sg.layer] += own
	}
	self["bench"] += (end - begin) - covered
	return self
}

// medianBand averages per-layer self times over the operations whose
// duration lies in the middle tenth of all durations, so the layers sum
// to (about) the median operation rather than the mean one.
func medianBand(durs []int64, selfs []map[string]int64) map[string]float64 {
	out := map[string]float64{}
	if len(durs) == 0 {
		return out
	}
	idx := make([]int, len(durs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return durs[idx[a]] < durs[idx[b]] })
	lo, hi := len(idx)*45/100, (len(idx)*55+99)/100
	if hi <= lo {
		hi = min(lo+1, len(idx))
	}
	for _, i := range idx[lo:hi] {
		for layer, ns := range selfs[i] {
			out[layer] += float64(ns)
		}
	}
	for layer := range out {
		out[layer] /= float64(hi - lo)
	}
	return out
}
