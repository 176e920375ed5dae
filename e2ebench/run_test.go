package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// Every workload runs end to end, passes its output checks and reports
// exactly its catalog's metrics, traced and untraced.
func TestWorkloadsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("starts clusters")
	}
	for _, w := range []string{"oo7", "kv", "recover"} {
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			code := run([]string{"--workload", w, "--seed", "3", "--seconds", "2", "--trace", trace,
				"--work", t.TempDir()}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace %s: exit %d\n%s%s", w, trace, code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res struct {
				Correct           bool
				Attempted, Failed int64
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace %s: correct %v, %d/%d failed", w, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := endToEnd
			if trace == "1" {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, want %d", w, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace %s: metric %s missing or in the wrong unit (%+v)", w, trace, d.name, m)
				}
				if trace == "0" && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, d.name, m.Value)
				}
			}
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "kv", "--trace", "2"},
		{"--workload", "kv", "--seconds", "0"},
	} {
		var out bytes.Buffer
		if code := run(append(args, "--work", t.TempDir()), &out, &out); code == 0 {
			t.Errorf("%v: exit 0", args)
		}
	}
}
