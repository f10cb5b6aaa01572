package main

import (
	"encoding/json"
	"math"
	"os"
	"strconv"
	"testing"
	"time"
)

// tinyRun is long enough for one replicate plus the rerun check.
const tinyRun = 300 * time.Millisecond

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func tinyParams(t *testing.T) params {
	t.Helper()
	book, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	return params{seed: 1, tiny: true, digests: book}
}

func sameMetrics(t *testing.T, what string, got map[string]metricValue, want []metricSpec) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json names %d", what, len(got), len(want))
	}
	for _, m := range want {
		v, ok := got[m.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", what, m.Name)
			continue
		}
		if v.Unit != m.Unit {
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", what, m.Name, v.Unit, m.Unit)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s: metric %s = %v", what, m.Name, v.Value)
		}
	}
}

// Every workload prints exactly the metrics BENCHMARK.json names, with
// their units: the end-to-end ones untraced, the per-layer ones traced,
// whose shares sum to 100.
func TestEveryMetricPrintedWithUnit(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for _, wl := range spec.Workloads {
		run, ok := workloads[wl.Name]
		if !ok {
			t.Errorf("workload %s not implemented", wl.Name)
			continue
		}
		for _, traced := range []bool{false, true} {
			res, err := measure(run, tinyParams(t), tinyRun, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", wl.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if !traced {
				sameMetrics(t, wl.Name, res.Metrics, spec.EndToEnd)
				for _, m := range spec.EndToEnd {
					if res.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end %s = %v, want > 0", wl.Name, m.Name, res.Metrics[m.Name].Value)
					}
				}
				continue
			}
			sameMetrics(t, wl.Name+" traced", res.Metrics, spec.PerLayer)
			var sum float64
			for _, m := range shareModules {
				sum += res.Metrics[m+".share"].Value
			}
			if math.Abs(sum-100) > 1e-6 {
				t.Errorf("%s: shares sum to %v, want 100", wl.Name, sum)
			}
		}
	}
}

// Count-type per-layer metrics repeat exactly across two runs of one
// seed (fig1 is the workload that has them).
func TestCountsRepeat(t *testing.T) {
	var runs []*window
	for i := 0; i < 2; i++ {
		w, err := runFig1(tinyParams(t), tinyRun)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, w)
	}
	counted := 0
	for _, m := range perLayer {
		if m.unit != "count" {
			continue
		}
		counted++
		if a, b := runs[0].layer[m.name], runs[1].layer[m.name]; a != b {
			t.Errorf("%s: %v then %v", m.name, a, b)
		}
	}
	if runs[0].layer["sim.events"] == 0 || counted == 0 {
		t.Error("no counts measured")
	}
	checkCounts(runs[1], runs[0])
	if runs[1].failed != 0 {
		t.Errorf("self-check failed: %v", runs[1].problems)
	}
}

// tinyDigest is the key and output digest of a workload's tiny
// replicate 0, computed directly: its first cell on fig1, the whole
// replicate on lbs.
func tinyDigest(t *testing.T, name string) (key, digest string) {
	t.Helper()
	if name == "lbs" {
		cells := lbsCells(1, 0, true)
		d, err := lbsReplicate(cells, nil)
		if err != nil {
			t.Fatal(err)
		}
		return lbsKey(cells, 0), d
	}
	c := fig1Cells(1, 0, true)[0]
	out, err := runCell(c.cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c.key, out.digest
}

// The right recorded digest passes and a wrong one fails the run, so
// the correctness gate is not vacuous.
func TestWrongDigestFails(t *testing.T) {
	for _, name := range []string{"fig1", "lbs"} {
		key, right := tinyDigest(t, name)
		for _, tc := range []struct {
			digest string
			fails  bool
		}{{right, false}, {"0000", true}} {
			p := tinyParams(t)
			p.digests = digestBook{}
			p.digests.add(name, p.seed, key, tc.digest)
			w, err := workloads[name](p, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got := w.failed > 0; got != tc.fails {
				t.Errorf("%s: recorded digest %.12s for %s: failed=%v, want %v (%v)", name, tc.digest, key, got, tc.fails, w.problems)
			}
		}
	}
}

// On a recorded seed, a full-size output with no recorded digest fails
// the run; past the recorded replicates, and on other seeds, it does
// not.
func TestMissingDigestFails(t *testing.T) {
	for _, tc := range []struct {
		seed  int64
		rep   int
		fails bool
	}{{1, 0, true}, {2, recordedReplicates["lbs"] - 1, true}, {1, recordedReplicates["lbs"], false}, {3, 0, false}} {
		w := &window{}
		params{seed: tc.seed, digests: digestBook{}}.checkDigest(w, "lbs", tc.rep, "renamed", "00")
		if got := w.failed > 0; got != tc.fails {
			t.Errorf("seed %d replicate %d: failed=%v, want %v", tc.seed, tc.rep, got, tc.fails)
		}
	}
}

// The shipped digests cover every recorded replicate of both recorded
// seeds under the keys this program computes, and match this program
// on replicate 0 of seed 1.
func TestDigestsRecorded(t *testing.T) {
	book, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range recordedSeeds {
		s := strconv.FormatInt(seed, 10)
		for rep := 0; rep < recordedReplicates["fig1"]; rep++ {
			for _, c := range fig1Cells(seed, rep, false) {
				if _, ok := book["fig1"][s][c.key]; !ok {
					t.Errorf("fig1 seed %d %s: no recorded digest", seed, c.key)
				}
			}
		}
		for rep := 0; rep < recordedReplicates["lbs"]; rep++ {
			if key := lbsKey(lbsCells(seed, rep, false), rep); book["lbs"][s][key] == "" {
				t.Errorf("lbs seed %d %s: no recorded digest", seed, key)
			}
		}
	}
	p := params{seed: recordedSeeds[0], digests: book}
	w := &window{}
	cells := lbsCells(p.seed, 0, false)
	d, err := lbsReplicate(cells, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.checkDigest(w, "lbs", 0, lbsKey(cells, 0), d)
	for _, c := range fig1Cells(p.seed, 0, false) {
		out, err := runCell(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		p.checkDigest(w, "fig1", 0, c.key, out.digest)
	}
	if w.failed != 0 {
		t.Errorf("recorded digests differ from this program: %v", w.problems)
	}
}

func TestBillTo(t *testing.T) {
	for _, tc := range []struct {
		stack []string // leaf first
		want  string
	}{
		{[]string{"math/big.nat.montgomery", "crypto/rsa.decrypt", "anongeo/internal/anoncrypto.Open", "anongeo/internal/routing/agfw.(*Router).recv", "runtime.goexit"}, "anoncrypto"},
		{[]string{"anongeo/internal/geo.Point.Dist2", "anongeo/internal/radio.(*Channel).transmitFast", "anongeo/internal/sim.(*Engine).Run"}, "radio"},
		{[]string{"runtime.mallocgc", "anongeo/internal/routing/gpsr.(*Router).beacon"}, "gpsr"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime"},
		{[]string{"syscall.Syscall", "net/http.(*persistConn).readLoop", "runtime.goexit"}, "other"},
		{[]string{"anongeo/internal/exp.(*Orchestrator[go.shape.struct]).run"}, "exp"},
	} {
		if got := billTo(tc.stack); got != tc.want {
			t.Errorf("billTo(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := percentile(xs, 50); got != 2.5 {
		t.Errorf("p50 = %v, want 2.5", got)
	}
	if got := percentile(xs, 90); math.Abs(got-3.7) > 1e-9 {
		t.Errorf("p90 = %v, want 3.7", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty p50 = %v", got)
	}
}
