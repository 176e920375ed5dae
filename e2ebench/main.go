// Command e2ebench is the repository's end-to-end benchmark. It drives
// the default lbc stack from outside, through its public calls, and
// reports what a user sees (transaction and restart latency,
// commit-to-visible handoff, bytes stored and sent) or, with --trace 1,
// a per-layer breakdown of the same path. See README.md.
//
//	bash e2ebench/run.sh --workload oo7 --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	work     string // directory for the run's store files and span dump
}

type metric struct {
	name  string
	unit  string
	value float64
	alias string // the name a workload-specific report uses, if different
}

// outcome is what one workload run measured and checked.
type outcome struct {
	attempted, failed int64
	checkErr          error // nil when every output was correct
	metrics           []metric
	info              []metric // printed, but not part of the result
}

var workloads = map[string]func(options) (*outcome, error){
	"oo7":     runOO7,
	"kv":      runKV,
	"recover": runRecover,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "oo7 | kv | recover")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of each measured window")
	fs.IntVar(&trace, "trace", 0, "1 reports the per-layer breakdown instead of the end-to-end metrics")
	fs.StringVar(&o.work, "work", filepath.Join(".bench_build", "e2ebench"), "directory for the run's files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	runW, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "e2ebench: want --workload oo7|kv|recover, --seconds > 0, --trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	host, _ := json.Marshal(hostInfo())
	fmt.Fprintf(stdout, "host %s\n", host)
	out, err := runW(o)
	settle() // leave no writeback or discards of this run's files behind
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", o.workload, err)
		return 1
	}
	if out.checkErr != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: output check failed: %v\n", o.workload, out.checkErr)
	}
	return report(stdout, o, out)
}

// report prints one human-readable line per metric, then the result
// object as the last line. A failed output check exits non-zero.
func report(w io.Writer, o options, out *outcome) int {
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %t\n", o.workload, o.seed, o.seconds, o.trace)
	res := map[string]any{
		"correct":   out.checkErr == nil,
		"attempted": out.attempted,
		"failed":    out.failed,
	}
	fmt.Fprintf(w, "  %-34s %d/%d\n", "fail_ratio", out.failed, out.attempted)
	ms := map[string]any{}
	for _, m := range out.metrics {
		name := m.name
		if m.alias != "" {
			name = m.alias + " [" + m.name + "]"
		}
		fmt.Fprintf(w, "  %-34s %.6g %s\n", name, m.value, m.unit)
		ms[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	for _, m := range out.info {
		fmt.Fprintf(w, "  %-34s %.6g %s (not gated)\n", m.name, m.value, m.unit)
	}
	res["metrics"] = ms
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", line)
	if out.checkErr != nil {
		return 1
	}
	return 0
}

// hostInfo is recorded with every result: absolute numbers compare
// only between runs on the same host.
func hostInfo() map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "-dirty"
				}
			}
		}
		if rev != "" {
			commit = rev + dirty
		}
	}
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
		"kernel":     kernel,
	}
}
