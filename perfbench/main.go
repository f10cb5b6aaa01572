// Command perfbench is the repository's benchmark: three workloads that
// drive the simulator, the LBS tier and the sweep daemon through their
// public entry points, check every output, and print one JSON result
// line. See README.md in this directory for what each workload and
// metric means.
//
//	perfbench --workload fig1 --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics. With
// --trace 1 the run is split: an untraced half measures the workload's
// throughput, then a half under a CPU profile yields the per-layer
// counters and time shares, and trace.ops_ratio reports the profile's
// cost as traced over untraced throughput.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, printed by every
// untraced run. Each workload defines an operation (see README.md):
// one simulated second (fig1), one query (lbs) or one job
// (serve) for ops_per_s; one cell, one lbs.Run call or one job for the
// latency percentiles.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// shareModules are the layers a CPU-profile sample can be billed to;
// each yields a "<name>.share" metric. runtime and other take samples
// with no repository frame on their stack.
var shareModules = []string{
	"sim", "radio", "mac", "neighbor", "gpsr", "agfw", "mobility",
	"lbs", "locservice", "anoncrypto", "adversary",
	"serve", "exp", "durable", "runtime", "other",
}

// perLayer are the metrics a traced run prints. Counts come from
// replicate 0 of the run, so they are a pure function of the seed; a
// layer a workload never enters reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.events", "count"},
		{"sim.events_per_sim_s", "1/s"},
		{"radio.transmissions", "count"},
		{"radio.rx_per_tx", "ratio"},
		{"radio.collision_ratio", "ratio"},
		{"mac.frames", "count"},
		{"mac.delivered_per_data", "ratio"},
		{"mac.retries", "count"},
		{"mac.drops", "count"},
		{"neighbor.beacons", "count"},
		{"gpsr.forwards", "count"},
		{"agfw.forwards", "count"},
		{"agfw.trapdoor_tries", "count"},
		{"agfw.opens_per_try", "ratio"},
		{"agfw.retransmits", "count"},
		{"runtime.alloc_mb_per_sim_s", "MB/s"},
		{"runtime.allocs_per_event", "ratio"},
		{"runtime.gc_cycles", "1/cell"},
		{"lbs.paperals.queries_per_s", "1/s"},
		{"lbs.kanon.queries_per_s", "1/s"},
		{"lbs.gridcloak.queries_per_s", "1/s"},
		{"lbs.geoind.queries_per_s", "1/s"},
		{"serve.admit_ms_p50", "ms"},
		{"serve.queue_wait_ms_p50", "ms"},
		{"serve.dedupe_ratio", "ratio"},
		{"serve.truncated_streams", "ratio"},
		{"exp.cell_wall_ms_p50", "ms"},
		{"exp.cache_hit_ratio", "ratio"},
		{"durable.replay_s", "s"},
		{"trace.ops_ratio", "ratio"},
	}
	for _, m := range shareModules {
		defs = append(defs, metricDef{m + ".share", "%"})
	}
	return defs
}()

// window is what one timed stretch of a workload observed: the work
// its operations did, the wall time they took, and each operation's
// latency. An operation is one cell (fig1), one lbs.Run call (lbs) or
// one job (serve); its work is simulated seconds, queries or 1.
type window struct {
	work      float64   // total work done
	wall      float64   // total timed wall seconds
	latencies []float64 // per-operation wall time, ms
	setups    []float64 // independent set-up timings, s
	// layer holds the per-layer metrics the workload itself measures
	// (counts, ratios, per-layer latencies).
	layer     map[string]float64
	attempted int
	failed    int
	problems  []string
}

// fail records one failed check or operation.
func (w *window) fail(format string, args ...any) {
	w.failed++
	if len(w.problems) < 20 {
		w.problems = append(w.problems, fmt.Sprintf(format, args...))
	}
}

// add records one timed operation.
func (w *window) add(work float64, wall time.Duration) {
	w.work += work
	w.wall += wall.Seconds()
	w.latencies = append(w.latencies, float64(wall)/float64(time.Millisecond))
}

// rate is work per wall second over the whole window.
func (w *window) rate() float64 { return ratio(w.work, w.wall) }

// latency is the pct-th percentile of every operation's latency, ms.
func (w *window) latency(pct float64) float64 { return percentile(w.latencies, pct) }

// params is one invocation's workload input.
type params struct {
	seed int64
	// tiny shrinks every workload to a size the package tests can run
	// in seconds.
	tiny    bool
	digests digestBook
	// span, when set, wraps the stretch of the run whose operations are
	// measured; the traced run profiles that stretch only, so set-up,
	// prefill and result checks are not billed to the layers.
	span func(run func())
}

// measured runs fn as the run's measured stretch (see params.span).
func (p params) measured(fn func()) {
	if p.span == nil {
		fn()
		return
	}
	p.span(fn)
}

// workload runs a fixed amount of work sized so that it takes about d
// on the reference host, and reports what it observed. Any error it
// returns means the run could not be measured at all.
type workload func(p params, d time.Duration) (*window, error)

var workloads = map[string]workload{
	"fig1":  runFig1,
	"lbs":   runLBS,
	"serve": runServe,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "fig1 | lbs | serve")
	seed := flag.Int64("seed", 1, "workload seed: derives every input")
	seconds := flag.Float64("seconds", 10, "measured run length")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a profiled run")
	record := flag.String("record", "", "write digests of the recorded seeds to this file and exit")
	flag.Parse()

	if *record != "" {
		if err := recordDigests(*record); err != nil {
			fatal(err)
		}
		return
	}
	wl, ok := workloads[*name]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (want fig1 | lbs | serve)", *name))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("need --seconds > 0 and --trace 0|1"))
	}
	book, err := loadDigests()
	if err != nil {
		fatal(err)
	}
	p := params{seed: *seed, digests: book}
	d := time.Duration(*seconds * float64(time.Second))

	res, err := measure(wl, p, d, *trace == 1)
	if err != nil {
		fatal(err)
	}
	printTable(os.Stderr, *name, res)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// measure runs one workload and assembles its result line.
func measure(wl workload, p params, d time.Duration, traced bool) (result, error) {
	out := result{Metrics: map[string]metricValue{}}
	var w *window
	if !traced {
		var err error
		if w, err = wl(p, d); err != nil {
			return out, err
		}
		vals := map[string]float64{
			"ops_per_s":      w.rate(),
			"latency_p50_ms": w.latency(50),
			"latency_p90_ms": w.latency(90),
			"setup_s":        percentile(w.setups, 50),
			"peak_rss_mb":    peakRSSMB(),
		}
		for _, m := range endToEnd {
			out.Metrics[m.name] = metricValue{vals[m.name], m.unit}
		}
	} else {
		plain, err := wl(p, d/2)
		if err != nil {
			return out, err
		}
		shares, tw, err := profiled(wl, p, d-d/2)
		if err != nil {
			return out, err
		}
		w = tw
		checkCounts(w, plain)
		w.attempted += plain.attempted
		w.failed += plain.failed
		w.problems = append(w.problems, plain.problems...)
		vals := map[string]float64{}
		for k, v := range w.layer {
			vals[k] = v
		}
		for k, v := range shares {
			vals[k+".share"] = v
		}
		if r := plain.rate(); r > 0 {
			vals["trace.ops_ratio"] = w.rate() / r
		}
		for _, m := range perLayer {
			out.Metrics[m.name] = metricValue{vals[m.name], m.unit}
		}
	}
	out.Attempted, out.Failed = w.attempted, w.failed
	out.Correct = w.failed == 0 && w.attempted > 0
	for _, pr := range w.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", pr)
	}
	return out, nil
}

// checkCounts is the determinism self-check: every count-type metric
// must come out identical from two runs of one seed.
func checkCounts(w, ref *window) {
	for _, m := range perLayer {
		if m.unit == "count" && w.layer[m.name] != ref.layer[m.name] {
			w.fail("%s drifted between runs of one seed: %v vs %v", m.name, w.layer[m.name], ref.layer[m.name])
		}
	}
}

// profiled runs wl with its measured stretch under a CPU profile and
// bills the samples to layers.
func profiled(wl workload, p params, d time.Duration) (map[string]float64, *window, error) {
	f, err := os.CreateTemp("", "perfbench-*.pprof")
	if err != nil {
		return nil, nil, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	var perr error
	p.span = func(run func()) {
		if perr = pprof.StartCPUProfile(f); perr != nil {
			return
		}
		run()
		pprof.StopCPUProfile()
	}
	w, err := wl(p, d)
	if err := errors.Join(err, perr); err != nil {
		return nil, nil, err
	}
	if _, err := f.Seek(0, 0); err != nil {
		return nil, nil, err
	}
	shares, err := layerShares(f)
	return shares, w, err
}

// percentile is the linear-interpolation percentile of xs (0 if empty).
func percentile(xs []float64, pct float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := pct / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// peakRSSMB is this process's high-water resident set. Each invocation
// runs one workload, so it is that workload's peak.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// memSnap reads the allocation counters around a run.
func memSnap() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func printTable(f *os.File, name string, r result) {
	keys := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(f, "perfbench %s: attempted %d failed %d correct %v\n", name, r.Attempted, r.Failed, r.Correct)
	for _, k := range keys {
		fmt.Fprintf(f, "  %-30s %14.6g %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
